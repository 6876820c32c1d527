"""The transferable global model: a directed GCN over plan graphs.

Wraps :class:`~repro.ml.gcn.DirectedGCN` with input scaling and the
log-target transform, exposing a per-query :meth:`predict` in seconds.
One trained :class:`GlobalModel` is shared by every instance's Stage
predictor — it is the fleet-level component of the hierarchy.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.interfaces import Prediction, PredictionSource
from repro.ml.gcn import DirectedGCN, PlanGraph
from repro.ml.intervals import NOMINAL_CONFIDENCE, z_for
from repro.ml.preprocessing import LogTargetTransform, StandardScaler
from repro.plans import PhysicalPlan
from repro.workload.instance import InstanceProfile

from .featurization import record_to_graph

__all__ = ["GlobalModel"]


class GlobalModel:
    """A trained GCN + its input scalers (built by ``GlobalModelTrainer``)."""

    def __init__(
        self,
        gcn: DirectedGCN,
        node_scaler: StandardScaler,
        sys_scaler: StandardScaler,
        transform: LogTargetTransform | None = None,
        residual_variance: float = 0.0,
    ):
        self.gcn = gcn
        self.node_scaler = node_scaler
        self.sys_scaler = sys_scaler
        self.transform = transform or LogTargetTransform()
        #: log-space variance of the training residuals (the model's
        #: residual-variance head, fit by ``GlobalModelTrainer``); 0 for
        #: models trained before the head existed — intervals then
        #: collapse to the point estimate
        self.residual_variance = float(residual_variance)

    # ------------------------------------------------------------------
    def _scale_graph(self, graph: PlanGraph) -> PlanGraph:
        return PlanGraph(
            node_features=self.node_scaler.transform(graph.node_features),
            edges=graph.edges,
            root=graph.root,
            sys_features=self.sys_scaler.transform(
                graph.sys_features[None, :]
            )[0],
        )

    def predict(
        self,
        plan: PhysicalPlan,
        instance: InstanceProfile,
        n_concurrent: float = 0.0,
    ) -> Prediction:
        """Predict one query's exec-time on ``instance``: the one-plan
        :meth:`predict_many`."""
        return self.predict_many([plan], instance, n_concurrent)[0]

    def predict_many(
        self,
        plans: List[PhysicalPlan],
        instance: InstanceProfile,
        n_concurrent: float = 0.0,
    ) -> List[Prediction]:
        """Predict many queries' exec-times on ``instance`` in one forward.

        The GCN forward (:meth:`~repro.ml.gcn.DirectedGCN.predict_graphs`)
        is bit-identical to evaluating each plan alone, and every step
        after it is elementwise, so each returned :class:`Prediction`
        carries exactly the floats a one-plan call would, in any batch
        size or order.

        The interval comes from the residual-variance head: a constant
        log-space half-width ``z * sqrt(residual_variance)`` around each
        prediction, mapped through the (monotone) inverse transform with
        the lower bound clamped at zero.
        """
        scaled = [
            self._scale_graph(record_to_graph(plan, instance, n_concurrent))
            for plan in plans
        ]
        log_pred = self.gcn.predict_graphs(scaled)
        seconds = self.transform.inverse(log_pred)
        if self.residual_variance <= 0.0:
            low = high = seconds
        else:
            half = z_for(NOMINAL_CONFIDENCE) * float(np.sqrt(self.residual_variance))
            low = np.maximum(self.transform.inverse(log_pred - half), 0.0)
            high = self.transform.inverse(log_pred + half)
        return [
            Prediction(
                exec_time=float(seconds[i]),
                variance=self.residual_variance,
                source=PredictionSource.GLOBAL,
                interval_low=float(low[i]),
                interval_high=float(high[i]),
            )
            for i in range(len(plans))
        ]

    def byte_size(self) -> int:
        return self.gcn.byte_size()
