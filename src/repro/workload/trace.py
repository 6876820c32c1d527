"""Trace containers and fleet-level statistics.

A :class:`Trace` is the unit the replay harness consumes: one instance's
time-ordered query log.  The module-level helpers compute the fleet
statistics the paper reports in Figure 1 (daily-unique distribution,
latency distribution) and the exec-time bucket histograms used throughout
Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .instance import InstanceProfile
from .query import QueryRecord

__all__ = [
    "Trace",
    "EXEC_TIME_BUCKETS",
    "bucket_of",
    "bucket_counts",
    "fleet_unique_daily_fractions",
    "fleet_exec_times",
]

# The paper's exec-time buckets (Tables 1-6): 0-10s, 10-60s, 60-120s,
# 120-300s, 300s+.
EXEC_TIME_BUCKETS: Tuple[Tuple[float, float, str], ...] = (
    (0.0, 10.0, "0s - 10s"),
    (10.0, 60.0, "10s - 60s"),
    (60.0, 120.0, "60s - 120s"),
    (120.0, 300.0, "120s - 300s"),
    (300.0, float("inf"), "300s+"),
)

_SECONDS_PER_DAY = 86_400.0


def bucket_of(exec_time: float) -> str:
    """Label of the paper bucket containing ``exec_time`` (seconds)."""
    for lo, hi, label in EXEC_TIME_BUCKETS:
        if lo <= exec_time < hi:
            return label
    return EXEC_TIME_BUCKETS[-1][2]


def bucket_counts(exec_times: Sequence[float]) -> Dict[str, int]:
    """Histogram of exec-times over the paper's buckets."""
    counts = {label: 0 for _, __, label in EXEC_TIME_BUCKETS}
    for t in exec_times:
        counts[bucket_of(t)] += 1
    return counts


@dataclass
class Trace:
    """One instance's executed-query log, ordered by arrival time."""

    instance: InstanceProfile
    records: List[QueryRecord]
    duration_days: float

    def __post_init__(self):
        times = [r.arrival_time for r in self.records]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace records must be time-ordered")

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    # ------------------------------------------------------------------
    def exec_times(self) -> np.ndarray:
        return np.array([r.exec_time for r in self.records])

    def unique_daily_fraction(self, window_s: float = _SECONDS_PER_DAY) -> float:
        """Fraction of queries with no identical query in the last 24h."""
        if not self.records:
            return 0.0
        last_seen: Dict[tuple, float] = {}
        unique = 0
        for r in self.records:
            ident = (r.template_id, r.variant_id)
            prev = last_seen.get(ident)
            if prev is None or r.arrival_time - prev > window_s:
                unique += 1
            last_seen[ident] = r.arrival_time
        return unique / len(self.records)

    def repeated_fraction(self) -> float:
        return 1.0 - self.unique_daily_fraction()

    def kind_mix(self) -> Dict[str, float]:
        """Observed fraction of queries per archetype."""
        if not self.records:
            return {}
        mix: Dict[str, float] = {}
        for r in self.records:
            mix[r.kind] = mix.get(r.kind, 0) + 1
        return {k: v / len(self.records) for k, v in mix.items()}


# ---------------------------------------------------------------------------
# fleet-level statistics (paper Figure 1)
# ---------------------------------------------------------------------------
def fleet_unique_daily_fractions(traces: Iterable[Trace]) -> np.ndarray:
    """Per-cluster % of daily-unique queries (paper Figure 1a)."""
    return np.array([t.unique_daily_fraction() for t in traces])


def fleet_exec_times(traces: Iterable[Trace]) -> np.ndarray:
    """All exec-times across the fleet, concatenated (paper Figure 1b)."""
    arrays = [t.exec_times() for t in traces]
    if not arrays:
        return np.zeros(0)
    return np.concatenate(arrays)
