"""Directed graph convolutional network over physical plan trees.

Numpy re-implementation of the paper's global model architecture
(Section 4.4 and Figure 5):

1. *node embedding* — an MLP maps each operator node's feature vector to a
   hidden representation;
2. *graph convolution message passing* — ``L`` directed conv layers; in
   each layer a node combines its own representation with the aggregated
   representations of its children (messages flow child -> parent, i.e.
   towards the plan root);
3. *exec-time prediction* — the root node's representation is concatenated
   with a *system feature vector* (instance type, node count, memory,
   concurrency, plan summary) and fed to an MLP head.

Graphs in a minibatch are block-stacked: node features are concatenated,
edges are index-shifted, and aggregation uses ``np.add.at`` scatter ops, so
one forward/backward pass handles the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .nn import MLP, Adam, Dropout, Linear, Module, ReLU, huber_loss

__all__ = ["PlanGraph", "GraphBatch", "DirectedGCN"]


def _row_stable_width(n: int) -> bool:
    """Whether an ``(m, k) @ (k, n)`` product has batch-invariant rows.

    Measured against the bundled BLAS (and pinned by a property test):
    each output row is a bitwise-reproducible function of its input row
    and the weights — independent of which other rows are stacked with
    it — exactly when the *output* width ``n`` is at least 4 and
    ``n % 8`` is not in ``{1, 2, 3}`` (the tail-column kernels those
    widths select accumulate in a stack-dependent order; ``n == 1`` is
    the gemv path, unstable for every stacking).  ``m`` and ``k`` never
    matter.  Widths failing this predicate must not be block-stacked
    when bit-identity to solo evaluation is required.
    """
    return n >= 4 and n % 8 not in (1, 2, 3)


@dataclass
class PlanGraph:
    """One plan tree prepared for the GCN.

    Attributes
    ----------
    node_features:
        ``(n_nodes, n_node_features)`` matrix; row 0 need not be the root.
    edges:
        ``(2, n_edges)`` int array of ``(child, parent)`` index pairs.
    root:
        Index of the root node.
    sys_features:
        1-D system feature vector (shared by all nodes of the plan).
    """

    node_features: np.ndarray
    edges: np.ndarray
    root: int
    sys_features: np.ndarray

    def __post_init__(self):
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(2, -1)
        self.sys_features = np.asarray(self.sys_features, dtype=np.float64)
        n = self.node_features.shape[0]
        if self.edges.size and (self.edges.max() >= n or self.edges.min() < 0):
            raise ValueError("edge index out of range")
        if not 0 <= self.root < n:
            raise ValueError("root index out of range")


class GraphBatch:
    """Block-stacked minibatch of :class:`PlanGraph` objects.

    ``aggregation`` selects how children messages combine at the parent:
    ``"sum"`` (default; cost is additive over plan operators, matching the
    MSCN-style message passing of the zero-shot cost model) or ``"mean"``.
    """

    def __init__(self, graphs: List[PlanGraph], aggregation="sum"):
        if not graphs:
            raise ValueError("empty graph batch")
        if aggregation not in ("sum", "mean"):
            raise ValueError("aggregation must be 'sum' or 'mean'")
        feats, srcs, dsts, roots, sys_feats = [], [], [], [], []
        offset = 0
        for g in graphs:
            n = g.node_features.shape[0]
            feats.append(g.node_features)
            if g.edges.size:
                srcs.append(g.edges[0] + offset)
                dsts.append(g.edges[1] + offset)
            roots.append(g.root + offset)
            sys_feats.append(g.sys_features)
            offset += n
        self.node_features = np.concatenate(feats, axis=0)
        self.src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
        self.dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
        self.roots = np.asarray(roots, dtype=np.int64)
        self.sys_features = np.vstack(sys_feats)
        self.n_nodes = offset
        if self.dst.size == 0:
            self.edge_weight = np.zeros(0, dtype=np.float64)
        elif aggregation == "mean":
            in_deg = np.bincount(self.dst, minlength=self.n_nodes).astype(np.float64)
            in_deg[in_deg == 0] = 1.0
            self.edge_weight = 1.0 / in_deg[self.dst]
        else:
            self.edge_weight = np.ones(self.dst.shape[0], dtype=np.float64)

    def __len__(self):
        return self.roots.shape[0]


class _GraphConvLayer(Module):
    """One directed message-passing layer.

    ``H' = relu(H @ W_self + aggregate_children(H) @ W_msg + b)`` with an
    additive residual connection when dimensions match.
    """

    _CACHES = ("_cache",)

    def __init__(self, in_dim, out_dim, rng, dropout=0.0):
        self.self_lin = Linear(in_dim, out_dim, rng)
        self.msg_lin = Linear(in_dim, out_dim, rng)
        self.act = ReLU()
        self.dropout = Dropout(dropout, rng)
        self.residual = in_dim == out_dim
        self._cache = None

    def forward(self, H, batch: GraphBatch, training=False):
        M = np.zeros_like(H)
        if batch.src.size:
            np.add.at(M, batch.dst, H[batch.src] * batch.edge_weight[:, None])
        out = self.self_lin.forward(H) + self.msg_lin.forward(M)
        out = self.act.forward(out)
        out = self.dropout.forward(out, training)
        if self.residual:
            out = out + H
        self._cache = (H.shape, batch)
        return out

    def backward(self, dout):
        shape, batch = self._cache
        dH = dout.copy() if self.residual else np.zeros(shape)
        dpre = self.dropout.backward(dout)
        dpre = self.act.backward(dpre)
        d_from_self = self.self_lin.backward(dpre)
        dM = self.msg_lin.backward(dpre)
        dH = dH + d_from_self
        if batch.src.size:
            np.add.at(dH, batch.src, dM[batch.dst] * batch.edge_weight[:, None])
        return dH

    def parameters(self):
        return self.self_lin.parameters() + self.msg_lin.parameters()

    def _children(self):
        return (self.self_lin, self.msg_lin, self.act, self.dropout)


class DirectedGCN(Module):
    """The full global-model network: embed -> L conv layers -> head.

    Only :meth:`forward` / :meth:`backward` leave activations behind;
    :meth:`fit` and :meth:`predict_graphs` :meth:`~Module.release`
    them before returning, so a trained model holds (and pickles) its
    weights alone.

    Parameters
    ----------
    n_node_features:
        Width of each node's raw feature vector.
    n_sys_features:
        Width of the per-plan system feature vector.
    hidden_dim:
        Hidden representation width (paper: 512; scaled down by default).
    n_conv_layers:
        Number of message-passing layers (paper: 8).
    dropout:
        Dropout rate applied inside embedding/conv/head (paper: 0.2).
    random_state:
        Seed for initialization and dropout masks.
    """

    _CACHES = ("_cache",)

    def __init__(
        self,
        n_node_features,
        n_sys_features,
        hidden_dim=64,
        n_conv_layers=4,
        dropout=0.2,
        aggregation="sum",
        random_state=0,
    ):
        rng = np.random.default_rng(random_state)
        self.rng = rng
        self.n_node_features = n_node_features
        self.n_sys_features = n_sys_features
        self.hidden_dim = hidden_dim
        self.aggregation = aggregation
        self.embed = MLP(
            [n_node_features, hidden_dim, hidden_dim],
            rng,
            dropout=dropout,
            output_activation=True,
        )
        self.convs = [
            _GraphConvLayer(hidden_dim, hidden_dim, rng, dropout=dropout)
            for _ in range(n_conv_layers)
        ]
        self.head = MLP(
            [hidden_dim + n_sys_features, hidden_dim, 1],
            rng,
            dropout=dropout,
        )
        self._cache = None

    # ------------------------------------------------------------------
    def _children(self):
        return (self.embed, *self.convs, self.head)

    def parameters(self):
        params = list(self.embed.parameters())
        for conv in self.convs:
            params.extend(conv.parameters())
        params.extend(self.head.parameters())
        return params

    def forward(self, batch: GraphBatch, training=False):
        """Predict one value per graph in the batch (shape ``(B,)``)."""
        H = self.embed.forward(batch.node_features, training)
        for conv in self.convs:
            H = conv.forward(H, batch, training)
        roots = H[batch.roots]
        z = np.concatenate([roots, batch.sys_features], axis=1)
        out = self.head.forward(z, training)
        self._cache = (batch, H.shape)
        return out[:, 0]

    def backward(self, dpred):
        """Backprop ``dpred`` of shape ``(B,)`` through the network."""
        batch, h_shape = self._cache
        dz = self.head.backward(dpred[:, None])
        droots = dz[:, : self.hidden_dim]
        dH = np.zeros(h_shape)
        np.add.at(dH, batch.roots, droots)
        for conv in reversed(self.convs):
            dH = conv.backward(dH)
        self.embed.backward(dH)

    # ------------------------------------------------------------------
    def fit(
        self,
        graphs: List[PlanGraph],
        targets,
        epochs=30,
        batch_size=32,
        lr=1e-3,
        weight_decay=1e-5,
        validation_fraction=0.15,
        early_stopping_epochs=5,
        shuffle=True,
        verbose=False,
    ):
        """Train with Adam + Huber loss on (already transformed) targets.

        Returns the per-epoch ``(train_loss, val_loss)`` history.  Callers
        are expected to pass log-transformed exec-times; the heavy tail of
        raw latencies would otherwise dominate the loss.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if len(graphs) != targets.shape[0]:
            raise ValueError("graphs and targets length mismatch")
        n = len(graphs)
        idx = self.rng.permutation(n) if shuffle else np.arange(n)
        n_val = int(n * validation_fraction)
        val_idx, train_idx = idx[:n_val], idx[n_val:]
        if train_idx.size == 0:
            raise ValueError("no training graphs after validation split")

        optimizer = Adam(self.parameters(), lr=lr, weight_decay=weight_decay)
        history = []
        best_val = np.inf
        best_params = None
        epochs_since_best = 0

        for _ in range(epochs):
            order = self.rng.permutation(train_idx.size)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, train_idx.size, batch_size):
                rows = train_idx[order[start : start + batch_size]]
                batch = GraphBatch([graphs[i] for i in rows], aggregation=self.aggregation)
                pred = self.forward(batch, training=True)
                loss, dpred = huber_loss(pred, targets[rows])
                optimizer.zero_grad()
                self.backward(dpred)
                optimizer.step()
                epoch_loss += loss
                n_batches += 1
            train_loss = epoch_loss / max(1, n_batches)

            if val_idx.size:
                val_pred = self.predict_graphs([graphs[i] for i in val_idx])
                val_loss, _ = huber_loss(val_pred, targets[val_idx])
            else:
                val_loss = train_loss
            history.append((train_loss, val_loss))
            if verbose:
                print(f"epoch {len(history)}: train={train_loss:.4f} val={val_loss:.4f}")

            if val_loss < best_val - 1e-9:
                best_val = val_loss
                best_params = [p.value.copy() for p in self.parameters()]
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= early_stopping_epochs:
                    break

        if best_params is not None:
            for p, v in zip(self.parameters(), best_params):
                p.value = v
        self.release()
        return history

    def predict_graphs(self, graphs: List[PlanGraph]) -> np.ndarray:
        """Inference (no dropout), **bit-identical** to one-graph-at-a-time
        :meth:`forward` calls, in any batch size or order.

        A plain block-stacked :meth:`forward` is not: a ``(1, k)`` input
        takes BLAS's gemv path while a stacked ``(m, k)`` input takes
        gemm, and the two accumulate in different orders.  But gemm
        output rows *are* bitwise-reproducible functions of their input
        row whenever the output width satisfies :func:`_row_stable_width`
        — so this method:

        - block-stacks only graphs with >= 2 nodes through the embedding
          and conv layers (their node-feature matmuls then have the same
          gemm shape class as a solo forward; ``np.add.at`` aggregation
          is sequential per destination node and graphs never share
          edges, so scatter order within a graph matches solo order);
        - evaluates the prediction head per graph on a ``(1, k)`` row
          view, exactly the shape a solo forward feeds it (the head ends
          in a width-1 output, row-unstable under stacking for *every*
          batch size);
        - evaluates single-node graphs solo (their embedding would
          otherwise move from gemv to gemm).

        Models whose hidden width fails the stability predicate (or with
        a degenerate node-feature width) fall back to all-solo
        evaluation: always correct, just not batched.
        """
        preds = np.empty(len(graphs))
        stackable = _row_stable_width(self.hidden_dim) and self.n_node_features >= 2
        multi = []
        for i, g in enumerate(graphs):
            if stackable and g.node_features.shape[0] >= 2:
                multi.append(i)
            else:
                solo = GraphBatch([g], aggregation=self.aggregation)
                preds[i] = self.forward(solo, training=False)[0]
        if multi:
            batch = GraphBatch(
                [graphs[i] for i in multi], aggregation=self.aggregation
            )
            H = self.embed.forward(batch.node_features, False)
            for conv in self.convs:
                H = conv.forward(H, batch, False)
            z = np.concatenate([H[batch.roots], batch.sys_features], axis=1)
            for row, i in enumerate(multi):
                preds[i] = self.head.forward(z[row : row + 1], False)[0, 0]
        self.release()
        return preds

    def byte_size(self):
        """Approximate in-memory size of all parameters (bytes)."""
        return int(sum(p.value.nbytes for p in self.parameters()))
