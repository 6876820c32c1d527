"""Training objectives for the gradient boosting machine.

Each objective maps raw model scores (one or two parameters per sample) to
per-sample gradients and Hessians, mirroring how XGBoost/CatBoost drive tree
construction.  The Gaussian negative log-likelihood objective is the
two-parameter ``RMSEWithUncertainty``-style loss the paper uses for the
local model's ensemble members (Section 4.3): each member predicts a mean
and a variance, and the variance term is what the Bayesian ensemble reads
off as *data uncertainty*.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Objective",
    "SquaredError",
    "AbsoluteError",
    "GaussianNLL",
    "get_objective",
]

# Floor applied to predicted variances so the NLL stays finite and the
# Newton steps stay bounded.
_MIN_LOG_VAR = -12.0
_MAX_LOG_VAR = 12.0


class Objective:
    """Base class for boosting objectives.

    An objective with ``n_params`` raw outputs per sample turns a raw score
    matrix of shape ``(n_samples, n_params)`` into gradients/Hessians of the
    same shape.  The GBM fits one tree per parameter per boosting round.
    """

    #: number of raw parameters the model outputs per sample
    n_params = 1
    #: human-readable identifier used by :func:`get_objective`
    name = "base"

    def init_raw(self, y):
        """Return the initial raw prediction (shape ``(n_params,)``)."""
        raise NotImplementedError

    def grad_hess(self, y, raw):
        """Return ``(grad, hess)`` arrays of shape ``(n, n_params)``."""
        raise NotImplementedError

    def sample_loss(self, y, raw):
        """Per-sample loss values, shape ``(n,)``."""
        raise NotImplementedError

    def loss(self, y, raw):
        """Mean loss value used for early stopping."""
        return float(np.mean(self.sample_loss(y, raw)))

    def raw_to_prediction(self, raw):
        """Map raw scores to ``(mean, variance)``.

        Point objectives report zero variance; probabilistic objectives
        decode their variance parameter.
        """
        raise NotImplementedError


class SquaredError(Objective):
    """Classic L2 regression objective (one parameter: the mean)."""

    n_params = 1
    name = "squared_error"

    def init_raw(self, y):
        return np.array([float(np.mean(y))])

    def grad_hess(self, y, raw):
        grad = raw[:, 0] - y
        hess = np.ones_like(grad)
        return grad[:, None], hess[:, None]

    def sample_loss(self, y, raw):
        return (raw[:, 0] - y) ** 2

    def raw_to_prediction(self, raw):
        mean = raw[:, 0]
        return mean, np.zeros_like(mean)


class AbsoluteError(Objective):
    """L1 regression objective.

    This is the loss the prior AutoWLM predictor trains with (Section 5.1).
    The Hessian of `|r|` is zero almost everywhere, so, as XGBoost does, we
    substitute a unit Hessian which turns the Newton step into a plain
    gradient step on the leaf.
    """

    n_params = 1
    name = "absolute_error"

    def init_raw(self, y):
        return np.array([float(np.median(y))])

    def grad_hess(self, y, raw):
        grad = np.sign(raw[:, 0] - y)
        hess = np.ones_like(grad)
        return grad[:, None], hess[:, None]

    def sample_loss(self, y, raw):
        return np.abs(raw[:, 0] - y)

    def raw_to_prediction(self, raw):
        mean = raw[:, 0]
        return mean, np.zeros_like(mean)


class GaussianNLL(Objective):
    """Gaussian negative log-likelihood with two parameters per sample.

    Raw parameters are ``(mu, log_var)``.  The NLL of one sample is::

        0.5 * log_var + 0.5 * (y - mu)^2 / exp(log_var)

    Gradients/Hessians (all positive Hessians, so Newton leaf values are
    well defined):

    - d/dmu       = (mu - y) / var          d2/dmu2       = 1 / var
    - d/dlog_var  = 0.5 - 0.5 (y-mu)^2/var  d2/dlog_var2  = 0.5 (y-mu)^2/var
    """

    n_params = 2
    name = "gaussian_nll"

    def init_raw(self, y):
        mu = float(np.mean(y))
        var = float(np.var(y)) + 1e-6
        return np.array([mu, np.clip(np.log(var), _MIN_LOG_VAR, _MAX_LOG_VAR)])

    def _var(self, raw):
        return np.exp(np.clip(raw[:, 1], _MIN_LOG_VAR, _MAX_LOG_VAR))

    def grad_hess(self, y, raw):
        mu = raw[:, 0]
        var = self._var(raw)
        resid = mu - y
        scaled_sq = resid**2 / var

        grad = np.empty((y.shape[0], 2))
        hess = np.empty_like(grad)
        grad[:, 0] = resid / var
        hess[:, 0] = 1.0 / var
        grad[:, 1] = 0.5 - 0.5 * scaled_sq
        # Floor the log-var Hessian: when the residual is ~0 the true
        # Hessian vanishes and the Newton step would explode.
        hess[:, 1] = np.maximum(0.5 * scaled_sq, 1e-2)
        return grad, hess

    def sample_loss(self, y, raw):
        mu = raw[:, 0]
        var = self._var(raw)
        return 0.5 * np.log(var) + 0.5 * (y - mu) ** 2 / var

    def raw_to_prediction(self, raw):
        return raw[:, 0].copy(), self._var(raw)


_OBJECTIVES = {
    SquaredError.name: SquaredError,
    AbsoluteError.name: AbsoluteError,
    GaussianNLL.name: GaussianNLL,
}


def get_objective(name):
    """Look up an objective by name (``str``) or pass through an instance."""
    if isinstance(name, Objective):
        return name
    try:
        return _OBJECTIVES[name]()
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; expected one of {sorted(_OBJECTIVES)}"
        ) from None
