"""Minimal neural-network building blocks (numpy, manual backprop).

The paper's global model is a PyTorch GCN; this module provides the layers
(:class:`Linear`, :class:`ReLU`, :class:`Dropout`, :class:`MLP`) and the
:class:`Adam` optimizer that :mod:`repro.ml.gcn` composes into the same
architecture.  Everything keeps explicit forward caches so backward passes
are plain chain-rule code; those caches are scratch, never state: a
pickle carries the weights alone (:class:`Parameter` gradients come back
as zeros) and :meth:`Module.release` drops them from a live model.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Dropout",
    "MLP",
    "Adam",
    "mse_loss",
    "huber_loss",
]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape

    def __getstate__(self):
        return self.value

    def __setstate__(self, value):
        self.value = value
        self.grad = np.zeros_like(value)


class Module:
    """Base of the layers: what ``forward`` keeps for ``backward``.

    ``_CACHES`` names the attributes a forward pass fills in for the
    matching backward; ``_children`` lists the sub-modules.
    :meth:`release` drops the caches down the whole tree, and a pickle
    never carries them, so a trained network pickles as its weights.
    """

    _CACHES: tuple = ()

    def _children(self):
        return ()

    def release(self):
        for name in self._CACHES:
            setattr(self, name, None)
        for child in self._children():
            child.release()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.update(dict.fromkeys(self._CACHES))
        return state


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``y = x @ W + b``."""

    _CACHES = ("_x",)

    def __init__(self, in_dim, out_dim, rng):
        self.W = Parameter(_glorot(rng, in_dim, out_dim))
        self.b = Parameter(np.zeros(out_dim))
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, dout):
        self.W.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.W.value.T

    def parameters(self):
        return [self.W, self.b]


class ReLU(Module):
    """Rectified linear activation."""

    _CACHES = ("_mask",)

    def __init__(self):
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask

    def parameters(self):
        return []


class Dropout(Module):
    """Inverted dropout; identity when ``training`` is False."""

    _CACHES = ("_mask",)

    def __init__(self, rate, rng):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x, training):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask

    def parameters(self):
        return []


class MLP(Module):
    """Stack of ``Linear -> ReLU -> Dropout`` blocks with a linear output.

    ``dims`` is the full dimension chain, e.g. ``[33, 64, 64, 1]``.
    """

    def __init__(self, dims, rng, dropout=0.0, output_activation=False):
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and output dim")
        self.layers = []
        for i in range(len(dims) - 1):
            self.layers.append(Linear(dims[i], dims[i + 1], rng))
            is_last = i == len(dims) - 2
            if not is_last or output_activation:
                self.layers.append(ReLU())
                if dropout > 0.0:
                    self.layers.append(Dropout(dropout, rng))

    def forward(self, x, training=False):
        for layer in self.layers:
            if isinstance(layer, Dropout):
                x = layer.forward(x, training)
            else:
                x = layer.forward(x)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def _children(self):
        return self.layers

    def parameters(self):
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params


class Adam:
    """Adam optimizer over a flat list of :class:`Parameter`."""

    def __init__(self, parameters, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for p in self.parameters:
            p.zero_grad()

    def step(self):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.parameters):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            self._m[i] = b1 * self._m[i] + (1 - b1) * g
            self._v[i] = b2 * self._v[i] + (1 - b2) * g * g
            m_hat = self._m[i] / (1 - b1**self._t)
            v_hat = self._v[i] / (1 - b2**self._t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def mse_loss(pred, target):
    """Mean squared error; returns ``(loss, dpred)``."""
    diff = pred - target
    loss = float(np.mean(diff**2))
    return loss, 2.0 * diff / diff.size


def huber_loss(pred, target, delta=1.0):
    """Huber loss; robust to the heavy-tailed exec-time targets."""
    diff = pred - target
    abs_diff = np.abs(diff)
    quadratic = abs_diff <= delta
    loss = float(np.mean(np.where(quadratic, 0.5 * diff**2, delta * (abs_diff - 0.5 * delta))))
    dpred = np.where(quadratic, diff, delta * np.sign(diff)) / diff.size
    return loss, dpred
