"""Parallel fleet-sweep engine: replay many instances across processes.

The paper's evaluation (Section 5) replays whole fleets through Stage;
each instance's replay is embarrassingly parallel because every random
stream is derived deterministically from ``(fleet seed, instance index)``
— never from execution order or shared state.  A worker that generates
and replays instance ``i`` therefore produces **bit-identical** arrays
whether it runs inline, in another process, or in any order relative to
its siblings.  ``n_jobs=1`` runs inline (no pool, no pickling), which is
both the fast path on one core and the reference the parity tests
compare against.

The shared :class:`~repro.global_model.model.GlobalModel` is shipped to
each worker process **once**, through the pool initializer, instead of
riding inside every task payload: per-task pickles stay small (config +
scalars) no matter how many instances the sweep replays.  The inline
path never pickles anything.

Workers are module-level functions so they pickle by reference under any
multiprocessing start method (fork, forkserver, spawn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.config import ReplayBackend, StageConfig
from repro.global_model.model import GlobalModel
from repro.parallelism import pool_map, resolve_n_jobs, runs_inline
from repro.workload.fleet import FleetConfig, FleetGenerator
from repro.workload.trace import Trace

from .replay import InstanceReplay, replay_fleet, replay_instance

__all__ = ["FleetSweeper", "resolve_n_jobs"]


# ---------------------------------------------------------------------------
# picklable worker payloads + entrypoints
# ---------------------------------------------------------------------------
#: the per-process model slot, filled once by the pool initializer
_WORKER_GLOBAL_MODEL: Optional[GlobalModel] = None


def _init_replay_worker(global_model: Optional[GlobalModel]) -> None:
    """Pool initializer: install the shared model once per worker."""
    global _WORKER_GLOBAL_MODEL
    _WORKER_GLOBAL_MODEL = global_model


@dataclass(frozen=True)
class _ReplaySettings:
    """Everything a worker needs besides the instance itself.

    The model itself never rides here on the pool path — only the
    ``use_global_model`` handle, resolved against the worker's
    initializer-installed slot.  The inline path (no pool, no pickling)
    carries the object directly in ``global_model``.
    """

    stage_config: Optional[StageConfig]
    random_state: int
    collect_components: bool
    #: whether a global model exists for this sweep
    use_global_model: bool = False
    #: inline path only; always ``None`` in pool-bound settings
    global_model: Optional[GlobalModel] = None
    #: the serving tier each per-worker replay routes through (only the
    #: per-instance modes ride here — ``direct`` and ``service``; the
    #: shared-fleet modes are driven centrally by the sweeper)
    backend: ReplayBackend = field(default_factory=ReplayBackend)


def _resolve_global_model(settings: _ReplaySettings) -> Optional[GlobalModel]:
    if not settings.use_global_model:
        return None
    if settings.global_model is not None:
        return settings.global_model
    if _WORKER_GLOBAL_MODEL is None:
        raise RuntimeError(
            "replay worker has no global model installed; pool was "
            "created without _init_replay_worker"
        )
    return _WORKER_GLOBAL_MODEL


def _replay_trace(trace: Trace, settings: _ReplaySettings) -> InstanceReplay:
    return replay_instance(
        trace,
        global_model=_resolve_global_model(settings),
        config=settings.stage_config,
        random_state=settings.random_state,
        collect_components=settings.collect_components,
        backend=settings.backend,
    )


def _replay_index_worker(args) -> InstanceReplay:
    """Generate instance ``index``'s trace and replay it (one task)."""
    fleet_config, duration_days, index, settings = args
    gen = FleetGenerator(fleet_config)
    trace = gen.generate_trace(gen.sample_instance(index), duration_days)
    return _replay_trace(trace, settings)


def _replay_trace_worker(args) -> InstanceReplay:
    """Replay one pre-built trace (one task)."""
    trace, settings = args
    return _replay_trace(trace, settings)


# ---------------------------------------------------------------------------
# the sweeper
# ---------------------------------------------------------------------------
@dataclass
class FleetSweeper:
    """Fans instance replays out over a process pool.

    Parameters mirror :func:`~repro.harness.replay.replay_instance`; the
    sweeper adds fan-out (``n_jobs``) and the choice of feeding it
    instance *indices* (workers generate their own traces — nothing but
    the config and the replay arrays cross process boundaries) or
    pre-built :class:`Trace` objects (pay the trace pickling, but time
    replay in isolation).
    """

    fleet_config: FleetConfig = field(default_factory=FleetConfig)
    stage_config: Optional[StageConfig] = None
    global_model: Optional[GlobalModel] = None
    random_state: int = 0
    collect_components: bool = True
    #: which serving tier every replay routes through
    #: (:class:`~repro.core.config.ReplayBackend`); ``direct`` and
    #: ``service`` replay per instance (fan out over the pool), while
    #: ``gateway`` and ``socket`` put the whole fleet behind one shared
    #: front door (:func:`~repro.harness.replay.replay_fleet`) — all
    #: bit-identical under the determinism contract
    backend: ReplayBackend = field(default_factory=ReplayBackend)
    #: called once, on its own thread, *while* the fleet replay's
    #: submitters are in flight, with the live gateway as its argument —
    #: the reshard-mid-replay hook (``gateway``/``socket`` modes only).
    #: Migrations and resizes it performs must leave every replay
    #: bit-identical; any exception it raises fails the sweep.
    reshard_hook: Optional[Callable[[object], None]] = None
    #: worker processes; 1 = inline (no pool), ``<=0`` = all cores
    n_jobs: int = 1

    # ------------------------------------------------------------------
    def _settings(self, inline: bool) -> _ReplaySettings:
        """Worker settings; pool-bound settings never carry the model."""
        return _ReplaySettings(
            stage_config=self.stage_config,
            random_state=self.random_state,
            collect_components=self.collect_components,
            use_global_model=self.global_model is not None,
            global_model=self.global_model if inline else None,
            backend=self.backend,
        )

    def _map(self, worker, payloads: Sequence[tuple]) -> List[InstanceReplay]:
        settings = self._settings(inline=runs_inline(self.n_jobs, len(payloads)))
        tasks = [payload + (settings,) for payload in payloads]
        return pool_map(
            worker,
            tasks,
            self.n_jobs,
            initializer=_init_replay_worker,
            initargs=(self.global_model,),
        )

    # ------------------------------------------------------------------
    def _check_backend(self) -> None:
        if self.reshard_hook is not None and not self._shared_fleet:
            raise ValueError(
                "reshard_hook requires a shared-fleet backend "
                '(mode "gateway" or "socket")'
            )

    @property
    def _shared_fleet(self) -> bool:
        return self.backend.mode in ("gateway", "socket")

    def _replay_fleet(self, traces: Sequence[Trace]) -> List[InstanceReplay]:
        """Replay every trace through one shared front door, with
        ``n_jobs`` instances' streams in flight at once."""
        return replay_fleet(
            traces,
            self.backend,
            global_model=self.global_model,
            config=self.stage_config,
            random_state=self.random_state,
            collect_components=self.collect_components,
            n_submitters=resolve_n_jobs(self.n_jobs, max(len(traces), 1)),
            reshard_hook=self.reshard_hook,
        )

    # ------------------------------------------------------------------
    def replay_indices(
        self, indices: Iterable[int], duration_days: float
    ) -> List[InstanceReplay]:
        """Generate and replay instances ``indices``, in index order.

        Each worker samples its instance and unrolls its trace itself,
        so results are independent of how work is distributed.  In the
        shared-fleet modes the traces are generated up front (they are
        pure functions of ``(fleet_config, index)``) and fed through the
        shared gateway instead.
        """
        self._check_backend()
        if self._shared_fleet:
            gen = FleetGenerator(self.fleet_config)
            traces = [
                gen.generate_trace(gen.sample_instance(int(index)), duration_days)
                for index in indices
            ]
            return self._replay_fleet(traces)
        payloads = [(self.fleet_config, duration_days, int(index)) for index in indices]
        return self._map(_replay_index_worker, payloads)

    def replay_traces(self, traces: Sequence[Trace]) -> List[InstanceReplay]:
        """Replay pre-built traces, preserving their order."""
        self._check_backend()
        if self._shared_fleet:
            return self._replay_fleet(traces)
        payloads = [(trace,) for trace in traces]
        return self._map(_replay_trace_worker, payloads)
