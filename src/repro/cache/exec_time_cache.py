"""The exec-time cache: stage 1 of the Stage predictor (paper Section 4.2).

Maps the hash of a query's flattened feature vector to the observed
execution times of identical past queries.  Prediction for a hit blends
robustness and freshness::

    prediction = alpha * running_mean + (1 - alpha) * last_observed

with ``alpha = 0.8`` in the Redshift fleet.  When the cache exceeds its
capacity it evicts the *least recently updated* entry — the entry whose
most recent observation is oldest — which the paper implements with a
sorted list of update dates.  We keep the same semantics with an ordered
dict (move-to-end on update), which is O(1) per operation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.ml.intervals import NOMINAL_CONFIDENCE, welford_interval
from repro.plans.featurize import hash_feature_vector

from .welford import RunningStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interfaces import Prediction

__all__ = ["ExecTimeCache"]

#: lazily bound Prediction/PredictionSource (repro.core.stage imports
#: repro.cache, so a module-level import here would cycle through
#: repro.core's package init)
_PREDICTION_TYPES: Optional[tuple] = None


def _prediction_types() -> tuple:
    global _PREDICTION_TYPES
    if _PREDICTION_TYPES is None:
        from repro.core.interfaces import Prediction, PredictionSource

        _PREDICTION_TYPES = (Prediction, PredictionSource)
    return _PREDICTION_TYPES


class ExecTimeCache:
    """Bounded mapping: feature-vector hash -> running exec-time stats.

    Parameters
    ----------
    capacity:
        Maximum number of distinct queries retained (paper: 2,000).
    alpha:
        Blend weight between the running mean (robustness) and the most
        recent observation (data freshness).  Paper: 0.8.
    mode:
        ``"blend"`` — the paper's ``alpha*mean + (1-alpha)*last`` rule;
        ``"ewma"`` — an exponentially weighted moving average, the
        time-series-style predictor the paper lists as future work.
    ewma_decay:
        Weight of the newest observation in ``"ewma"`` mode.
    archive_capacity:
        Bounded archive of evicted entries that :meth:`restore` (the
        forecast pre-warmer) may bring back, stats and all.  The
        default 0 keeps the classic drop-on-evict behavior — nothing
        about the cache changes unless a pre-warmer is wired up.
    """

    _MODES = ("blend", "ewma")

    def __init__(
        self, capacity=2000, alpha=0.8, mode="blend", ewma_decay=0.3, archive_capacity=0
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        if not 0.0 < ewma_decay <= 1.0:
            raise ValueError("ewma_decay must be in (0, 1]")
        if archive_capacity < 0:
            raise ValueError("archive_capacity must be >= 0")
        self.capacity = capacity
        self.alpha = alpha
        self.mode = mode
        self.ewma_decay = ewma_decay
        self.archive_capacity = archive_capacity
        self._entries: "OrderedDict[str, RunningStats]" = OrderedDict()
        #: key -> the entry's full cache answer, rebuilt once per
        #: observe; the hit fast path returns this object with no
        #: arithmetic and no allocation (the Prediction is immutable
        #: after construction, so sharing it across lookups is safe)
        self._predictions: dict = {}
        #: evicted entries retained for :meth:`restore`, oldest-evicted
        #: first: key -> (RunningStats, Prediction)
        self._archive: "OrderedDict[str, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.restores = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(feature_vector) -> str:
        """Cache key of a feature vector (hash-value replacement)."""
        return hash_feature_vector(feature_vector)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    # ------------------------------------------------------------------
    def lookup(self, key) -> Optional[float]:
        """Predicted exec-time for ``key``, or ``None`` on a miss: the
        point of :meth:`lookup_prediction`, with the same accounting.

        Lookups do not change eviction order; only observations do (the
        eviction policy is least-recently-*updated*, not least-recently-
        used).
        """
        prediction = self.lookup_prediction(key)
        return None if prediction is None else prediction.exec_time

    def peek(self, key) -> Optional[float]:
        """Predicted exec-time for ``key`` without touching accounting:
        the point of :meth:`peek_prediction`.

        Use this for instrumentation (component collection, probes,
        debugging) so that ``hit_rate`` keeps meaning "fraction of
        *routed* predictions served by the cache" — exactly one counted
        lookup per query.
        """
        prediction = self._predictions.get(key)
        return None if prediction is None else prediction.exec_time

    def _build_prediction(self, stats: RunningStats) -> "Prediction":
        """The entry's full cache answer, from its current stats."""
        prediction_cls, source_cls = _prediction_types()
        if self.mode == "ewma":
            point = stats.ewma
        else:
            point = self.alpha * stats.mean + (1.0 - self.alpha) * stats.last
        low, high = welford_interval(
            point, stats.count, stats.sample_variance, NOMINAL_CONFIDENCE
        )
        return prediction_cls(
            exec_time=point,
            source=source_cls.CACHE,
            interval_low=low,
            interval_high=high,
        )

    def peek_prediction(self, key) -> Optional["Prediction"]:
        """Full cache answer for ``key`` (no accounting), or ``None``.

        The point is the blend (or EWMA) of the entry's observations;
        the interval is their Welford prediction interval
        (:func:`~repro.ml.intervals.welford_interval` at the nominal
        confidence) — single-observation entries collapse to the point.
        The answer is *precomputed*: every observe rebuilds the entry's
        :class:`Prediction` once, so the hit path is a dict read — no
        per-lookup interval arithmetic or object churn.
        """
        return self._predictions.get(key)

    def lookup_prediction(self, key) -> Optional["Prediction"]:
        """Counted :meth:`peek_prediction`: the one-key
        :meth:`lookup_predictions`."""
        return self.lookup_predictions([key])[0]

    def lookup_predictions(self, keys: Sequence[str]) -> List[Optional["Prediction"]]:
        """Counted probe of a window of keys: one hit or one miss per key.

        The router's cache probe; the per-call overhead is paid once for
        the whole window, and every answer is a precomputed
        :class:`Prediction` read from a dict.
        """
        predictions = self._predictions
        out = [predictions.get(key) for key in keys]
        hits = sum(1 for p in out if p is not None)
        self.hits += hits
        self.misses += len(out) - hits
        return out

    def stats_for(self, key) -> Optional[RunningStats]:
        """The raw running stats of an entry (read-only use)."""
        return self._entries.get(key)

    # ------------------------------------------------------------------
    def observe(self, key, exec_time):
        """Record an observed execution time for ``key``.

        Creates the entry if absent; refreshes its update recency; evicts
        the least recently updated entry if over capacity.
        """
        if exec_time < 0:
            raise ValueError("exec_time must be >= 0")
        stats = self._entries.get(key)
        if stats is None:
            stats = RunningStats()
            self._entries[key] = stats
            # a fresh observation stream supersedes any archived copy:
            # without this, a later restore could resurrect stale stats
            # over the live entry's history
            self._archive.pop(key, None)
        else:
            self._entries.move_to_end(key)
        stats.update(exec_time, ewma_decay=self.ewma_decay)
        # precompute the full cache answer once per observe, so lookups
        # (the dominant operation by far) are pure dict reads
        self._predictions[key] = self._build_prediction(stats)
        self._evict_over_capacity()
        return stats

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            evicted, stats = self._entries.popitem(last=False)
            prediction = self._predictions.pop(evicted, None)
            if self.archive_capacity > 0 and prediction is not None:
                self._archive[evicted] = (stats, prediction)
                self._archive.move_to_end(evicted)
                while len(self._archive) > self.archive_capacity:
                    self._archive.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    def touch(self, key) -> bool:
        """Refresh an entry's update recency without an observation.

        The forecast pre-warmer's protection primitive: a touched entry
        counts as just-updated for eviction purposes, so forecast-hot
        templates survive bursts of one-shot traffic.  No counters move
        and no stats change.  Returns whether ``key`` was resident.
        """
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def restore(self, key) -> bool:
        """Bring an archived entry (stats and prediction) back into the
        cache at most-recent eviction priority.

        Returns ``True`` only when ``key`` came out of the archive; a
        resident key or an unknown key is a no-op.  Restoring over a
        full cache evicts (and, with an archive, re-archives) the least
        recently updated entry, exactly like an observe would.
        """
        if key in self._entries:
            return False
        item = self._archive.pop(key, None)
        if item is None:
            return False
        stats, prediction = item
        self._entries[key] = stats
        self._predictions[key] = prediction
        self.restores += 1
        self._evict_over_capacity()
        return True

    # ------------------------------------------------------------------
    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def byte_size(self):
        """Approximate in-memory size: 4 floats + key per entry
        (archived entries included — they are held memory too)."""
        # 16-byte digest string (32 hex chars ~ 49 bytes as a str object)
        # + 4 * 8 bytes of stats; we report the dominant terms.
        return (len(self._entries) + len(self._archive)) * (49 + 4 * 8)

    def clear(self):
        self._entries.clear()
        self._predictions.clear()
        self._archive.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.restores = 0
