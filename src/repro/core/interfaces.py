"""Predictor interfaces shared by Stage, AutoWLM and the oracle.

Every exec-time predictor follows the online protocol of the paper's
deployment: for each arriving query it must :meth:`~Predictor.predict`
*before* seeing the outcome, and is then shown the observed execution
time via :meth:`~Predictor.observe`.  The replay harness enforces this
ordering, so no predictor can leak future information.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.workload.query import QueryRecord

__all__ = ["PredictionSource", "Prediction", "Predictor", "RunningMedian"]


class PredictionSource:
    """Which stage of the hierarchy produced a prediction."""

    CACHE = "cache"
    LOCAL = "local"
    GLOBAL = "global"
    AUTOWLM = "autowlm"
    OPTIMAL = "optimal"
    DEFAULT = "default"  # cold start, before any model is trainable


@dataclass
class Prediction:
    """One exec-time prediction with its confidence information.

    Attributes
    ----------
    exec_time:
        Predicted execution time in seconds.
    variance:
        Prediction variance in *log space* (the models regress
        ``log1p(seconds)``); 0 for point predictors.  Downstream code uses
        it as a relative confidence measure, mirroring the paper's
        uncertainty-based routing.
    source:
        Which model produced the estimate (:class:`PredictionSource`).
    model_uncertainty / data_uncertainty:
        The decomposition of ``variance`` for ensemble predictions.
    interval_low / interval_high:
        The source's calibrated interval at the pipeline-wide nominal
        confidence (:data:`repro.ml.intervals.NOMINAL_CONFIDENCE`), in
        seconds: Welford-derived for cache hits, member-spread quantile
        bounds for the local ensemble, residual-variance for the global
        model.  Sources without spread information collapse to the point
        estimate (unset bounds default to ``exec_time``).  Carried
        end-to-end — replay arrays, service futures and gateway
        responses all preserve the pair bit-for-bit.
    """

    exec_time: float
    variance: float = 0.0
    source: str = PredictionSource.DEFAULT
    model_uncertainty: float = 0.0
    data_uncertainty: float = 0.0
    interval_low: Optional[float] = None
    interval_high: Optional[float] = None

    def __post_init__(self):
        if self.interval_low is None:
            self.interval_low = self.exec_time
        if self.interval_high is None:
            self.interval_high = self.exec_time

    @property
    def std(self) -> float:
        return self.variance**0.5

    @property
    def interval_width(self) -> float:
        """Width of the nominal-confidence interval, in seconds."""
        return self.interval_high - self.interval_low


class Predictor(abc.ABC):
    """Online exec-time predictor protocol."""

    #: short name used in reports
    name: str = "predictor"

    @abc.abstractmethod
    def predict(self, record: QueryRecord) -> Prediction:
        """Predict the exec-time of ``record`` before it executes."""

    @abc.abstractmethod
    def observe(self, record: QueryRecord) -> None:
        """Feed back the observed execution time after the query ran."""

    def byte_size(self) -> int:
        """Approximate in-memory footprint (bytes); 0 if unknown."""
        return 0


class RunningMedian:
    """Streaming median estimate for the cold-start default prediction.

    Uses the P² -style stochastic approximation: cheap, O(1) memory, and
    good enough for "we have seen almost nothing yet" defaults.
    """

    def __init__(self, initial: float = 1.0, step: float = 0.05):
        self.value = float(initial)
        self.step = step
        self.count = 0

    def update(self, x: float) -> None:
        self.count += 1
        if self.count == 1:
            self.value = float(x)
            return
        delta = self.step * max(abs(self.value), 1e-3)
        if x > self.value:
            self.value += delta
        elif x < self.value:
            self.value -= delta
