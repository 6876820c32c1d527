"""Workload construction for the Stage serving benchmark.

Every input is a pure function of the ``--seed`` argument: the fleet
(``FleetConfig(seed=seed)``, baseline scenario), the training fleet of
the global model, and the instances each workload picks.  Fleets are
picked by an input property, the *repeat share* of an instance's query
prefix — the share of its queries whose ``ExecTimeCache.key_for``
appeared earlier in the same prefix — never by instance index, so a
different seed yields different instances of the same kind.

Each workload uses a fixed number of instances and a fixed number of
queries per instance (trace prefixes), so the amount of work, the number
of local retrains and the warm/cold mix do not vary with the seed.
Model randomness (``RANDOM_STATE``) is configuration, not input.

Picking the instances (:func:`pick_fleet`) scans the seed's fleet and is
the benchmark's own input selection, so it stays outside the timed
set-up; generating the picked instances' traces (:func:`generate_fleet`)
is part of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import ExecTimeCache
from repro.core.config import GlobalModelConfig, fast_profile
from repro.core.metrics import q_errors
from repro.core.stage import BatchRouter, StagePredictor
from repro.global_model.trainer import GlobalModelTrainer
from repro.harness.parallel import FleetSweeper
from repro.service import shard_for
from repro.workload.fleet import FleetConfig, FleetGenerator
from repro.workload.instance import InstanceProfile
from repro.workload.trace import Trace

#: fleet shape shared by every workload (baseline scenario)
VOLUME_SCALE = 0.3
DURATION_DAYS = 2.0
#: instance indices scanned for candidates before giving up
MAX_SCAN = 400
#: global-model training fleet: disjoint index range, as in run_sweep
TRAIN_START_INDEX = 10_000
N_TRAIN_INSTANCES = 6
GLOBAL_CONFIG = dict(
    hidden_dim=32, n_conv_layers=3, epochs=6, max_queries_per_instance=200
)
#: shard processes behind the gateway of the served workloads
N_SHARDS = 2
#: repeat-share thresholds that define a high- and a low-repeat instance
HIGH_REPEAT = 0.65
LOW_REPEAT = 0.3
#: per repeat class: queries each instance contributes (a trace prefix)
PREFIX = {"high": 300, "low": 210}
#: every predictor's random_state, the value ``python -m repro.service
#: serve`` runs with: model randomness is configuration, not input
RANDOM_STATE = 0


@dataclass(frozen=True)
class Group:
    """Instances of one repeat class that a workload uses."""

    #: "high" or "low" (see ``HIGH_REPEAT``, ``LOW_REPEAT``)
    cls: str
    n: int
    #: share of each instance's prefix replayed with feedback before
    #: timing; 0 for instances that start cold
    warmup_share: float


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload; see ``BENCHMARK.json`` for the why."""

    name: str
    groups: Tuple[Group, ...]

    @property
    def has_cold(self) -> bool:
        """Whether some instances start cold in the timed window."""
        return any(not group.warmup_share for group in self.groups)


#: Instances are also picked by how often their local model trains,
#: which dominates the cost of a run: it trains after ``min_train_size``
#: cache misses and again ``retrain_interval`` misses later.  A picked
#: prefix has at least the first and fewer than the sum of distinct
#: cache keys, so it trains exactly once; a warmed instance reaches the
#: first inside its warmup, so no retrain lands in its timed window.
#:
#: serve_cold onboards two cold low-repeat instances, one per shard, onto
#: a server that already serves four warmed high-repeat ones: each shard
#: takes one bootstrap retrain inside the timed window.  An all-cold
#: fleet piles several bootstrap retrains per shard onto the traces'
#: shared morning peak and overloads the shards there; its SLO
#: attainment then follows the host's spare CPU more than the program.
SPECS = {
    "serve_hot": WorkloadSpec("serve_hot", (Group("high", 8, 0.5),)),
    "serve_cold": WorkloadSpec(
        "serve_cold", (Group("low", 2, 0.0), Group("high", 4, 0.5))
    ),
}


def _distinct_keys(records: Sequence) -> int:
    return len({ExecTimeCache.key_for(record.features) for record in records})


def repeat_share(records: Sequence) -> float:
    """Share of ``records`` whose cache key appeared earlier in them."""
    seen = set()
    repeats = 0
    for record in records:
        key = ExecTimeCache.key_for(record.features)
        repeats += key in seen
        seen.add(key)
    return repeats / max(1, len(records))


@dataclass(frozen=True)
class Pick:
    """One picked instance and how much of its trace the workload uses."""

    instance: InstanceProfile
    #: queries of the trace prefix
    length: int
    #: leading queries of the prefix that form the warmup phase
    n_warmup: int
    #: repeat share of the prefix
    repeat_share: float
    #: "high" or "low"
    cls: str


@dataclass
class Fleet:
    """The instances of one workload, cut to their benchmark prefixes."""

    traces: List[Trace]
    #: per instance: number of leading queries that form the warmup phase
    n_warmup: List[int]
    #: per instance: repeat share of its whole prefix
    repeat_shares: List[float]
    #: per instance: "high" or "low"
    classes: List[str]
    scanned: int = 0

    @property
    def n_queries(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def n_timed(self) -> int:
        return sum(len(t) - w for t, w in zip(self.traces, self.n_warmup))

    def ops(self, timed: bool) -> List[tuple]:
        """The warmup (``timed=False``) or timed phase as
        ``(instance position, index in its prefix, record)`` triples in
        merged arrival order.  Every generated trace starts at the same
        midnight, so the fleet keeps the generator's diurnal pattern,
        peaks included.  Each instance's queries keep trace order,
        which is all the determinism contract needs."""
        out = []
        for pos, (trace, n_warmup) in enumerate(zip(self.traces, self.n_warmup)):
            lo, hi = (n_warmup, len(trace)) if timed else (0, n_warmup)
            out.extend((pos, k, trace.records[k]) for k in range(lo, hi))
        out.sort(key=lambda op: (op[2].arrival_time, op[0], op[1]))
        return out

    def schedule(self, ops: List[tuple], rate_qps: float) -> List[float]:
        """Open-loop send offsets (s) for ``ops``: their arrival times
        compressed uniformly so the mean rate is ``rate_qps``."""
        times = [record.arrival_time for _, _, record in ops]
        span = times[-1] - times[0]
        scale = (len(ops) - 1) / (rate_qps * span) if span > 0 else 0.0
        return [(t - times[0]) * scale for t in times]

    def stream(self) -> List[tuple]:
        """The whole op stream, warmup then timed, as
        ``(pos, k, record, timed)``."""
        return [op + (False,) for op in self.ops(timed=False)] + [
            op + (True,) for op in self.ops(timed=True)
        ]


def pick_fleet(spec: WorkloadSpec, seed: int, scale: float = 1.0) -> tuple:
    """Scan the seed's fleet in index order and give each group of
    ``spec`` the first instances of its repeat class whose trace is long
    enough for the class prefix (``PREFIX`` times ``scale``) and whose
    prefix trains the local model exactly once (see ``SPECS``).  Returns
    ``(picks, scanned)``.

    Each group is split evenly over the gateway's shards (by
    ``shard_for``, the gateway's own placement), so no seed loads one
    shard with most of the fleet."""
    local = stage_config().local
    first, second = local.min_train_size, local.min_train_size + local.retrain_interval
    gen = FleetGenerator(FleetConfig(seed=seed, volume_scale=VOLUME_SCALE))
    wanted = {
        (g, shard): group.n // N_SHARDS + (shard < group.n % N_SHARDS)
        for g, group in enumerate(spec.groups)
        for shard in range(N_SHARDS)
    }
    picks: List[Pick] = []
    index = 0
    while any(wanted.values()):
        if index >= MAX_SCAN:
            raise RuntimeError(
                f"{spec.name}: fewer than {spec.groups} suitable instances "
                f"in the first {MAX_SCAN} of seed {seed}"
            )
        trace = gen.generate_trace(gen.sample_instance(index), DURATION_DAYS)
        index += 1
        shard = shard_for(trace.instance.instance_id, N_SHARDS)
        for g, group in enumerate(spec.groups):
            length = max(2, round(PREFIX[group.cls] * scale))
            if not wanted[g, shard] or len(trace) < length:
                continue
            prefix = trace.records[:length]
            share = repeat_share(prefix)
            n_warmup = int(length * group.warmup_share)
            if not (share >= HIGH_REPEAT if group.cls == "high" else share <= LOW_REPEAT):
                continue
            trains_once = first <= _distinct_keys(prefix[: n_warmup or length])
            if scale == 1.0 and not (trains_once and _distinct_keys(prefix) < second):
                continue
            wanted[g, shard] -= 1
            picks.append(Pick(trace.instance, length, n_warmup, share, group.cls))
            break
    return picks, index


def generate_fleet(picks: Sequence[Pick], seed: int, scanned: int = 0) -> Fleet:
    """Generate the picked instances' traces and cut each to its prefix;
    a trace is a pure function of the seed and its instance."""
    gen = FleetGenerator(FleetConfig(seed=seed, volume_scale=VOLUME_SCALE))
    traces = []
    for pick in picks:
        trace = gen.generate_trace(pick.instance, DURATION_DAYS)
        traces.append(Trace(trace.instance, trace.records[: pick.length], trace.duration_days))
    return Fleet(
        traces=traces,
        n_warmup=[p.n_warmup for p in picks],
        repeat_shares=[p.repeat_share for p in picks],
        classes=[p.cls for p in picks],
        scanned=scanned,
    )


def train_global_model(seed: int, timings: Dict[str, float]):
    """Train the fleet-shared GCN on a disjoint training fleet.

    Records ``workload.tracegen_s`` (training traces),
    ``global_model.build_dataset_s`` and ``global_model.fit_s`` into
    ``timings``; the dataset build is timed on its own by a separate
    ``build_dataset`` call, and the fit as the rest of ``train``.
    """
    gen = FleetGenerator(FleetConfig(seed=seed, volume_scale=VOLUME_SCALE))
    t0 = time.perf_counter()
    traces = gen.generate_fleet_traces(
        N_TRAIN_INSTANCES, DURATION_DAYS, start_index=TRAIN_START_INDEX
    )
    t1 = time.perf_counter()
    trainer = GlobalModelTrainer(GlobalModelConfig(random_state=RANDOM_STATE, **GLOBAL_CONFIG))
    trainer.build_dataset(traces)
    t2 = time.perf_counter()
    model = trainer.train(traces)
    t3 = time.perf_counter()
    timings["workload.tracegen_s"] = timings.get("workload.tracegen_s", 0.0) + (t1 - t0)
    timings["global_model.build_dataset_s"] = t2 - t1
    timings["global_model.fit_s"] = max(0.0, (t3 - t2) - (t2 - t1))
    return model


def stage_config():
    """The stage config ``python -m repro.service serve`` ships."""
    return fast_profile()


def sweeper(seed: int, global_model) -> FleetSweeper:
    """The offline replay engine behind every paper figure, inline."""
    return FleetSweeper(
        fleet_config=FleetConfig(seed=seed, volume_scale=VOLUME_SCALE),
        stage_config=stage_config(),
        global_model=global_model,
        random_state=RANDOM_STATE,
        collect_components=True,
        n_jobs=1,
    )


class TierRun:
    """One serial replay of a fleet's stream at some tier."""

    def __init__(self, n: int):
        self.predict_rtt = [0.0] * n
        self.observe_rtt = [0.0] * n
        self.answers: List[Optional[tuple]] = [None] * n
        self.wall_s = 0.0


def serial_replay(stream, predict, observe, tracer=None) -> TierRun:
    """Run each ``(pos, k, record, timed)`` op's predict, then its
    observe, one at a time, timing both round trips."""
    run = TierRun(len(stream))
    t_start = time.perf_counter()
    for i, (pos, _, record, _) in enumerate(stream):
        if tracer is not None:
            tracer.op = 2 * i
        t0 = time.perf_counter()
        components = predict(pos, record)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = 2 * i + 1
        observe(pos, record)
        run.predict_rtt[i] = t1 - t0
        run.observe_rtt[i] = time.perf_counter() - t1
        run.answers[i] = answer_of(components.prediction)
    run.wall_s = time.perf_counter() - t_start
    return run


def direct_replay(fleet: Fleet, global_model, tracer=None) -> TierRun:
    """The reference: a direct ``BatchRouter`` replay of the fleet's
    fused predict/observe stream, one op at a time, taking the path the
    service worker takes for one in-sequence predict."""
    routers = [
        BatchRouter(
            StagePredictor(
                trace.instance, global_model=global_model, config=stage_config(),
                random_state=RANDOM_STATE,
            )
        )
        for trace in fleet.traces
    ]

    def predict(pos, record):
        router = routers[pos]
        slot = router.route_batch([record])[0]
        if not slot.ready:
            router.flush()
        return slot.components

    return serial_replay(
        fleet.stream(), predict, lambda pos, record: routers[pos].observe(record), tracer
    )


def answer_of(prediction) -> tuple:
    """The bit-exact identity of one routed answer."""
    return (float(prediction.exec_time).hex(), str(prediction.source))


@dataclass
class Accuracy:
    mae_s: float
    qerror_p50: float


def accuracy(true: Sequence[float], predicted: Sequence[float]) -> Accuracy:
    true = np.asarray(true, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    return Accuracy(
        mae_s=float(np.mean(np.abs(predicted - true))),
        qerror_p50=float(np.median(q_errors(true, predicted))),
    )


def repeat_share_of(fleet: Fleet) -> float:
    """Query-weighted repeat share of the whole fleet."""
    return sum(repeat_share(t.records) * len(t) for t in fleet.traces) / max(1, fleet.n_queries)
