"""Fleet control plane: load-watching rebalancer over the gateway.

The paper's deployment is a fleet-wide predictor whose capacity tracks
the workload; this module is the control loop that makes the
reproduction's fleet elastic.  It reads one
:meth:`~repro.service.FleetGateway.stats` snapshot — per-shard live
queue depth (current pressure) plus cumulative per-instance op totals
(history) — plans instance migrations that even out shard load
(:func:`plan_rebalance`), and executes them through the gateway's
cut-sequence migration protocol (:class:`FleetController`).

Determinism: planning is a pure function of the stats snapshot and the
:class:`~repro.core.config.ControlConfig` (ties broken by sorted ids,
never dict order), and executing a plan only moves *where* instances'
sequenced op streams run — the reshard-parity suite holds replays with
live migrations and resizes to bit-identical results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import ControlConfig

__all__ = [
    "FleetController",
    "PlannedMigration",
    "RebalancePlan",
    "instance_loads",
    "plan_rebalance",
    "shard_loads",
]

#: live queue depth counts this many op-units of load per queued op
#: (queued work is *current* pressure; cumulative totals are history)
QUEUE_DEPTH_WEIGHT = 10.0


@dataclass(frozen=True)
class PlannedMigration:
    """One planned move: ``instance_id`` from ``source`` to ``target``,
    carrying ``load`` op-units of estimated instance load."""

    instance_id: str
    source: int
    target: int
    load: float


@dataclass(frozen=True)
class RebalancePlan:
    """A control cycle's output: the moves, and the loads they saw."""

    migrations: Tuple[PlannedMigration, ...]
    shard_loads: Dict[int, float]
    total_ops: int

    @property
    def empty(self) -> bool:
        return not self.migrations


def instance_loads(stats: dict, config: Optional[ControlConfig] = None) -> Dict[str, float]:
    """Per-instance load from a stats snapshot.

    ``load_source="trailing"`` (the default) reads cumulative op totals
    — history.  ``load_source="forecast"`` reads each instance's
    ``forecast_load`` stage stat (expected near-term arrivals from its
    workload forecaster), so the planner balances on where load is
    *going*; when no instance reports a positive forecast (forecasting
    off, or every forecaster still cold) it falls back to trailing
    totals rather than planning on an all-zero signal.
    """
    config = config or ControlConfig()
    if config.load_source == "forecast":
        loads = {
            instance_id: float(entry.get("stage", {}).get("forecast_load", 0.0))
            for instance_id, entry in stats["instances"].items()
        }
        if any(load > 0.0 for load in loads.values()):
            return loads
    return {
        instance_id: float(
            entry["scheduler"]["n_predicts"] + entry["scheduler"]["n_observes"]
        )
        for instance_id, entry in stats["instances"].items()
    }


def shard_loads(stats: dict, config: Optional[ControlConfig] = None) -> Dict[int, float]:
    """Estimated load per *live* shard: queued ops (weighted — queued
    work is current pressure) plus the cumulative op totals of the
    instances the routing table assigns to the shard."""
    config = config or ControlConfig()
    loads: Dict[int, float] = {
        row["shard"]: QUEUE_DEPTH_WEIGHT * float(row.get("queue_depth", 0))
        for row in stats["shards"]
        if row["alive"]
    }
    per_instance = instance_loads(stats, config)
    for instance_id, shard_index in stats["routes"]["assignments"].items():
        if shard_index in loads:
            loads[shard_index] += per_instance.get(instance_id, 0.0)
    return loads


def plan_rebalance(stats: dict, config: Optional[ControlConfig] = None) -> RebalancePlan:
    """Plan up to ``max_migrations_per_cycle`` moves toward balance.

    Deterministic greedy: repeatedly take the hottest and coldest live
    shard (ties broken by shard index); if their gap exceeds
    ``imbalance_tolerance`` of the mean shard load, move the largest
    instance on the hot shard that fits in half the gap (so the move
    cannot invert the imbalance), falling back to the smallest one that
    at least shrinks it.  Pure function of ``(stats, config)``.
    """
    config = config or ControlConfig()
    loads = shard_loads(stats, config)
    per_instance = instance_loads(stats, config)
    total_ops = int(sum(per_instance.values()))
    migrations: List[PlannedMigration] = []
    if len(loads) < 2 or total_ops < config.min_total_ops:
        return RebalancePlan(tuple(migrations), loads, total_ops)
    # instance -> shard, restricted to live shards, mutated as we plan
    placement = {
        instance_id: shard_index
        for instance_id, shard_index in stats["routes"]["assignments"].items()
        if shard_index in loads
    }
    working = dict(loads)
    mean_load = sum(working.values()) / len(working)
    for _ in range(config.max_migrations_per_cycle):
        hottest = max(sorted(working), key=lambda s: working[s])
        coldest = min(sorted(working), key=lambda s: working[s])
        gap = working[hottest] - working[coldest]
        if gap <= config.imbalance_tolerance * max(mean_load, 1.0):
            break
        candidates = sorted(
            (instance_id, per_instance.get(instance_id, 0.0))
            for instance_id, shard_index in placement.items()
            if shard_index == hottest
        )
        if not candidates:
            break
        # largest instance that fits in half the gap keeps the move from
        # inverting the imbalance; else the smallest strict improvement
        fitting = [c for c in candidates if 0 < c[1] <= gap / 2]
        if fitting:
            instance_id, load = max(fitting, key=lambda c: (c[1], c[0]))
        else:
            improving = [c for c in candidates if 0 < c[1] < gap]
            if not improving:
                break
            instance_id, load = min(improving, key=lambda c: (c[1], c[0]))
        migrations.append(PlannedMigration(instance_id, hottest, coldest, load))
        placement[instance_id] = coldest
        working[hottest] -= load
        working[coldest] += load
    return RebalancePlan(tuple(migrations), loads, total_ops)


class FleetController:
    """Executes rebalance plans against a live gateway.

    Use :meth:`step` for one synchronous control cycle (plan, then
    migrate), or :meth:`start`/:meth:`stop` (or the context manager) for
    the background watcher that cycles every
    ``config.cycle_interval_s``.  All planning is delegated to
    :func:`plan_rebalance`; every executed move lands in
    :attr:`history`.
    """

    def __init__(self, gateway, config: Optional[ControlConfig] = None):
        self.gateway = gateway
        self.config = config or ControlConfig()
        #: executed migration summaries (the dicts ``migrate_instance``
        #: returns), in execution order
        self.history: List[dict] = []
        self._stop = threading.Event()
        self._watcher: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._n_cycles = 0
        self._n_errors = 0
        self._last_error: Optional[str] = None

    def plan(self) -> RebalancePlan:
        """One planning pass over a fresh stats snapshot (no execution)."""
        return plan_rebalance(self.gateway.stats(), self.config)

    def step(self) -> RebalancePlan:
        """One control cycle: plan, then execute every planned move."""
        plan = self.plan()
        for move in plan.migrations:
            info = self.gateway.migrate_instance(
                move.instance_id, move.target, timeout=self.config.migration_timeout_s
            )
            with self._lock:
                self.history.append(info)
        return plan

    # ------------------------------------------------------------------
    # background watcher
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background control loop (idempotent)."""
        with self._lock:
            if self._watcher is not None and self._watcher.is_alive():
                return
            self._stop.clear()
            self._watcher = threading.Thread(
                target=self._watch, name="fleet-controller", daemon=True
            )
            self._watcher.start()

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Stop the background control loop and join it.

        Returns whether the watcher actually joined within ``timeout``
        (default: ``config.migration_timeout_s``).  On a failed join —
        a wedged migration, say — the thread reference is kept, so a
        later :meth:`start` sees it alive and will not leak a second
        watcher; only a successful join clears it.  No watcher running
        counts as a successful (trivial) stop.
        """
        self._stop.set()
        with self._lock:
            watcher = self._watcher
        if watcher is None:
            return True
        watcher.join(timeout if timeout is not None else self.config.migration_timeout_s)
        if watcher.is_alive():
            return False
        with self._lock:
            if self._watcher is watcher:
                self._watcher = None
        return True

    def _watch(self) -> None:
        while not self._stop.wait(self.config.cycle_interval_s):
            try:
                self.step()
            except RuntimeError:
                # gateway closed (or a migration raced shutdown): the
                # loop's work is over — exit instead of spinning on it
                return
            except Exception as exc:  # noqa: BLE001 - containment is the point
                # a failed plan or migration must not kill the control
                # loop: record it (surfaced via stats()) and keep
                # cycling — the next snapshot may well succeed
                with self._lock:
                    self._n_errors += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
            finally:
                with self._lock:
                    self._n_cycles += 1

    def stats(self) -> dict:
        """Control-loop health: cycles run, errors contained (count +
        last message), and migrations executed."""
        with self._lock:
            return {
                "n_cycles": self._n_cycles,
                "n_errors": self._n_errors,
                "last_error": self._last_error,
                "n_migrations": len(self.history),
                "watcher_alive": self._watcher is not None and self._watcher.is_alive(),
            }

    def __enter__(self) -> "FleetController":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
