"""The traced run: span recording, the tier ladder and tail attribution.

Spans are recorded by the benchmark itself, around the public methods
of the component classes (``ExecTimeCache.key_for``,
``lookup_predictions``, ``FrozenLocalModel.predict_batch``,
``GlobalModel.predict_many``/``predict``, ``StagePredictor.observe``,
``LocalModel.retrain``, ...): :class:`Tracer` swaps in timing wrappers
for the duration of a ``with`` block and restores the originals after.
Spans are kept in memory and written to ``.stagebench/`` when the run
ends.  The program's sources are not changed.

The *tier ladder* replays the workload's sequenced op stream serially
(one op in flight) at each entry point in turn — wire, gateway, service,
then direct ``BatchRouter`` — each from fresh state.  The determinism
contract makes every tier do identical work, so a layer's self time is
the median predict round trip at its tier minus the median one tier in.
"""

from __future__ import annotations

import asyncio
import bisect
import importlib
import json
import math
import os
import statistics
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional

from repro.core.config import GatewayConfig, ServiceConfig
from repro.service import FleetGateway, PredictionService
from repro.service.wire import AsyncWireClient

from . import loadgen, workloads

#: (module, owner, attribute, span name, how to count rows)
TARGETS = [
    ("repro.cache.exec_time_cache", "ExecTimeCache", "key_for", "cache.key", None),
    ("repro.cache.exec_time_cache", "ExecTimeCache", "lookup_prediction", "cache.lookup", None),
    ("repro.cache.exec_time_cache", "ExecTimeCache", "lookup_predictions", "cache.lookup", None),
    ("repro.local_model.model", "FrozenLocalModel", "predict_batch", "local_model.infer", "X"),
    ("repro.local_model.model", "LocalModel", "retrain", "local_model.retrain", None),
    ("repro.global_model.model", "GlobalModel", "predict_many", "global_model.infer", "plans"),
    ("repro.global_model.model", "GlobalModel", "predict", "global_model.infer", "one"),
    ("repro.core.stage", "BatchRouter", "route", "stage.route", None),
    ("repro.core.stage", "BatchRouter", "route_batch", "stage.route", None),
    ("repro.core.stage", "BatchRouter", "flush", "stage.flush", None),
    ("repro.core.stage", "StagePredictor", "observe", "stage.observe", None),
    ("repro.core.autowlm", "AutoWLMPredictor", "predict", "core.autowlm", None),
    ("repro.core.autowlm", "AutoWLMPredictor", "observe", "core.autowlm", None),
    ("repro.harness.parallel", None, "replay_instance", "harness.replay_instance", None),
]
OP_TIMEOUT_S = 120.0
OUT_DIR = ".stagebench"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "rows")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.rows = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every target while active."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._local = threading.local()
        self._saved = []

    def _wrap(self, fn, name: str, rows: Optional[str]):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(name, 0.0, stack[-1] if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if rows == "one":
                    span.rows = 1
                elif rows is not None:
                    value = kwargs.get(rows, args[1] if len(args) > 1 else ())
                    span.rows = len(value)

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, owner_name, attr, name, rows in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, None)))
            else:
                setattr(owner, attr, self._wrap(raw, name, rows))
            self._saved.append((owner, attr, raw))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- analysis --------------------------------------------------------
    def of(self, name: str, outside: str = "core.autowlm") -> List[Span]:
        """Spans called ``name`` that do not run inside ``outside``."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and parent.name != outside:
                parent = parent.parent
            if parent is None:
                out.append(span)
        return out

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent)) if span.parent is not None else None
                f.write(json.dumps([i, span.name, span.start, span.end, parent, span.op,
                                    span.rows]) + "\n")


def _median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


# ---------------------------------------------------------------------------
# the tiers: each replays the fused stream serially from fresh state
# ---------------------------------------------------------------------------
def tier_wire(root, fleet, model, stream) -> workloads.TierRun:
    server = loadgen.ServerChild(root, model, workloads.stage_config(), workloads.RANDOM_STATE)

    async def drive() -> workloads.TierRun:
        client = await AsyncWireClient.connect(server.host, server.port, name="stagebench-ladder")
        try:
            for trace in fleet.traces:
                await client.register_instance(trace.instance)
            run = workloads.TierRun(len(stream))
            t_start = time.perf_counter()
            for i, (pos, k, record, _) in enumerate(stream):
                iid = fleet.traces[pos].instance.instance_id
                t0 = time.perf_counter()
                components = await client.predict_components(iid, record)
                t1 = time.perf_counter()
                await client.observe(iid, record)
                run.predict_rtt[i] = t1 - t0
                run.observe_rtt[i] = time.perf_counter() - t1
                run.answers[i] = workloads.answer_of(components.prediction)
            run.wall_s = time.perf_counter() - t_start
            return run
        finally:
            await client.close()

    try:
        return asyncio.run(drive())
    finally:
        server.stop()


def tier_gateway(fleet, model, stream) -> workloads.TierRun:
    gateway = FleetGateway(
        GatewayConfig(n_shards=loadgen.N_SHARDS, queue_size=loadgen.QUEUE_SIZE),
        stage_config=workloads.stage_config(),
        global_model=model,
        random_state=workloads.RANDOM_STATE,
    )
    try:
        ids = [t.instance.instance_id for t in fleet.traces]
        for trace in fleet.traces:
            gateway.register_instance(trace.instance)
        return workloads.serial_replay(
            stream,
            lambda pos, rec: gateway.predict_async(ids[pos], rec).result(OP_TIMEOUT_S),
            lambda pos, rec: gateway.observe(ids[pos], rec).result(OP_TIMEOUT_S),
        )
    finally:
        gateway.close()


def _services(fleet, model) -> List[PredictionService]:
    return [
        PredictionService(
            trace.instance,
            global_model=model,
            stage_config=workloads.stage_config(),
            service_config=ServiceConfig(),
            random_state=workloads.RANDOM_STATE,
        )
        for trace in fleet.traces
    ]


def tier_service(fleet, model, stream):
    services = _services(fleet, model)
    try:
        return workloads.serial_replay(
            stream,
            lambda pos, rec: services[pos].predict_async(rec).result(OP_TIMEOUT_S),
            lambda pos, rec: services[pos].observe(rec).result(OP_TIMEOUT_S),
        )
    finally:
        for service in services:
            service.close()


# ---------------------------------------------------------------------------
# open-loop service tier with spans: who the slowest predicts waited on
# ---------------------------------------------------------------------------
TAIL_LAYERS = ("local_model.retrain", "local_model.infer", "global_model.infer",
               "cache.key", "cache.lookup")


def open_loop_service(fleet, model, rate_qps: float, tracer: Tracer):
    """Warm (untraced, pipelined), then send the timed phase open loop to
    in-process services with spans on.  Returns per-predict
    ``(due, done)`` times."""
    services = _services(fleet, model)
    try:
        futures = []
        for pos, _, record in fleet.ops(timed=False):
            futures.append(services[pos].predict_async(record))
            futures.append(services[pos].observe(record))
        for future in futures:
            future.result(OP_TIMEOUT_S)
        ops = fleet.ops(timed=True)
        offsets = fleet.schedule(ops, rate_qps)
        due = [0.0] * len(ops)
        done = [0.0] * len(ops)
        pending: List[Future] = []
        with tracer:
            start = time.perf_counter() + loadgen.START_DELAY_S
            for i, (pos, _, record) in enumerate(ops):
                due[i] = start + offsets[i]
                delay = due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                future = services[pos].predict_async(record)
                future.add_done_callback(
                    lambda f, i=i: done.__setitem__(i, time.perf_counter())
                )
                pending.append(future)
                pending.append(services[pos].observe(record))
            for future in pending:
                future.result(OP_TIMEOUT_S)
        return due, done
    finally:
        for service in services:
            service.close()


def _merge(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap(merged, lo: float, hi: float) -> float:
    starts = [m[0] for m in merged]
    i = max(0, bisect.bisect_right(starts, lo) - 1)
    total = 0.0
    while i < len(merged) and merged[i][0] < hi:
        total += max(0.0, min(hi, merged[i][1]) - max(lo, merged[i][0]))
        i += 1
    return total


def tail_attribution(tracer: Tracer, due, done) -> Dict[str, float]:
    """Share of the slowest 1% predicts' wait covered by each layer."""
    latency = sorted(((d1 - d0, d0, d1) for d0, d1 in zip(due, done)), reverse=True)
    slow = latency[: max(1, math.ceil(len(latency) / 100))]
    total = sum(s[0] for s in slow)
    shares = {}
    for name in TAIL_LAYERS:
        merged = _merge((s.start, s.end) for s in tracer.of(name))
        shares[name] = sum(_overlap(merged, lo, hi) for _, lo, hi in slow) / max(total, 1e-12)
    return shares


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def _timed_predict_median_ms(run: workloads.TierRun, stream) -> float:
    return 1000.0 * _median([rtt for rtt, op in zip(run.predict_rtt, stream) if op[3]])


def _component_metrics(tracer: Tracer, wall_s: float, stats: List[dict]) -> Dict[str, float]:
    """Component-layer metrics from one traced run and its counters."""
    us = 1e6
    local = tracer.of("local_model.infer")
    glob = tracer.of("global_model.infer")
    retrain = tracer.of("local_model.retrain")
    observe = tracer.of("stage.observe")
    retrain_in = {}
    for span in retrain:
        if span.parent is not None:
            retrain_in[id(span.parent)] = retrain_in.get(id(span.parent), 0.0) + span.duration
    local_rows = sum(s.rows for s in local)
    glob_rows = sum(s.rows for s in glob)
    sources: Dict[str, int] = {}
    hits = misses = 0
    for s in stats:
        hits += s["cache_hits"]
        misses += s["cache_misses"]
        for source, count in s["source_counts"].items():
            sources[source] = sources.get(source, 0) + count
    answers = max(1, sum(sources.values()))
    retrain_s = sum(s.duration for s in retrain)
    return {
        "stage.route_us": us * _median([s.duration for s in tracer.of("stage.route")]),
        "stage.flush_us": us * _median([s.duration for s in tracer.of("stage.flush")]),
        "stage.observe_us": us * _median(
            [s.duration - retrain_in.get(id(s), 0.0) for s in observe]
        ),
        "cache.key_us": us * _median([s.duration for s in tracer.of("cache.key")]),
        "cache.lookup_us": us * _median([s.duration for s in tracer.of("cache.lookup")]),
        "cache.hit_frac": hits / max(1, hits + misses),
        "local_model.infer_us_per_row": us * sum(s.duration for s in local) / max(1, local_rows),
        "local_model.rows_per_call": local_rows / max(1, len(local)),
        "local_model.answer_frac": sources.get("local", 0) / answers,
        "local_model.retrain_ms": 1000.0 * _median([s.duration for s in retrain]),
        "local_model.retrains": float(sum(s["n_local_retrains"] for s in stats)),
        "local_model.retrain_busy_frac": retrain_s / max(wall_s, 1e-12),
        "global_model.infer_us_per_plan": us * sum(s.duration for s in glob) / max(1, glob_rows),
        "global_model.plans_per_call": glob_rows / max(1, len(glob)),
        "global_model.answer_frac": sources.get("global", 0) / answers,
    }


def _replay_metrics(tracer: Tracer, fleet) -> Dict[str, float]:
    autowlm = tracer.of("core.autowlm")
    return {
        "core.autowlm_us": 1e6 * sum(s.duration for s in autowlm)
        / max(1, fleet.n_queries),
        "harness.replay_instance_s": _median(
            [s.duration for s in tracer.of("harness.replay_instance")]
        ),
    }


def per_layer(spec, seed: int, extra: dict, report, root: str) -> dict:
    """Run the traced measurements; returns ``{name: (value, unit)}``."""
    fleet, model = extra["fleet"], extra["model"]
    timings = extra["timings"]
    out: Dict[str, tuple] = {
        name: (timings[name], "s")
        for name in ("workload.tracegen_s", "global_model.build_dataset_s",
                     "global_model.fit_s")
    }
    out["gateway.spawn_s"] = (timings.get("gateway.spawn_s", 0.0), "s")
    out["harness.warmup_s"] = (timings.get("harness.warmup_s", 0.0), "s")

    stream = fleet.stream()
    wire = tier_wire(root, fleet, model, stream)
    gateway = tier_gateway(fleet, model, stream)
    service = tier_service(fleet, model, stream)
    plain = extra["reference"]
    tracer = Tracer()
    with tracer:
        direct = workloads.direct_replay(fleet, model, tracer)
    tracer.dump(os.path.join(root, OUT_DIR, f"spans-{spec.name}-{seed}-direct.jsonl"))
    tiers = {"wire": wire, "gateway": gateway, "service": service, "direct": direct}
    for name, run in tiers.items():
        if run.answers != plain.answers:
            raise RuntimeError(f"tier {name} diverged from the direct tier")
    rtt = {name: _timed_predict_median_ms(run, stream) for name, run in tiers.items()}
    out["wire.rtt_p50_ms"] = (rtt["wire"], "ms")
    out["wire.self_p50_ms"] = (rtt["wire"] - rtt["gateway"], "ms")
    out["gateway.rtt_p50_ms"] = (rtt["gateway"], "ms")
    out["gateway.self_p50_ms"] = (rtt["gateway"] - rtt["service"], "ms")
    out["gateway.retry_after"] = (float(extra.get("retry_after", 0)), "count")
    out["service.rtt_p50_ms"] = (rtt["service"], "ms")
    out["scheduler.self_p50_ms"] = (rtt["service"] - rtt["direct"], "ms")
    out["direct.rtt_p50_ms"] = (rtt["direct"], "ms")
    out["direct.replay_qps"] = (extra["replay_qps"], "q/s")

    # direct tier: spans must account for the round trips
    top = sum(s.duration for s in tracer.spans if s.parent is None and s.op is not None)
    rtts = sum(direct.predict_rtt) + sum(direct.observe_rtt)
    out["direct.span_cover_frac"] = (top / max(rtts, 1e-12), "ratio")
    out["trace.overhead_frac"] = (direct.wall_s / plain.wall_s - 1.0, "ratio")

    # scheduler counters of the measured (untraced) run
    sched = [s["scheduler"] for s in extra["instance_stats"]]
    n_batches = sum(s["n_batches"] for s in sched)
    n_predicts = sum(s["n_predicts"] for s in sched)
    out["scheduler.mean_batch"] = (sum(s["n_deferred"] for s in sched) / max(1, n_batches), "rows")
    out["scheduler.n_batches"] = (float(n_batches), "count")
    out["scheduler.immediate_frac"] = (
        sum(s["n_immediate"] for s in sched) / max(1, n_predicts), "ratio")
    components = _component_metrics(
        tracer, direct.wall_s, [s["stage"] for s in extra["instance_stats"]]
    )
    units = {"_us": "us", "_ms": "ms", "_frac": "ratio", "retrains": "count",
             "_call": "rows", "_row": "us", "_plan": "us"}
    for name, value in components.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        out[name] = (value, unit)
    out["client.predict_p50_ms"] = (extra["predict_p50_ms"], "ms")
    out["client.predict_p99_ms"] = (extra["predict_p99_ms"], "ms")
    out["loadgen.lag_p99_ms"] = (extra["lag_p99_ms"], "ms")
    out["loadgen.sent"] = (float(extra["sent"]), "count")

    # A fleet with cold instances also answers two questions a warm one
    # cannot: does its tail sit behind retrains (ROADMAP item 1), and
    # what does the offline replay behind the paper's figures cost on
    # it?  A warm fleet reports 0 for these.
    shares = dict.fromkeys(TAIL_LAYERS, 0.0)
    replay = {"core.autowlm_us": 0.0, "harness.replay_instance_s": 0.0}
    if spec.has_cold:
        tail_tracer = Tracer()
        due, done = open_loop_service(fleet, model, extra["rate_qps"], tail_tracer)
        shares = tail_attribution(tail_tracer, due, done)
        layer = max(shares, key=shares.get)
        report(f"tail attribution (slowest 1% of open-loop service-tier predicts): "
               f"{layer} covers {shares[layer]:.0%} of their wait; "
               + ", ".join(f"{k}={v:.2f}" for k, v in shares.items()))
        sweep_tracer = Tracer()
        with sweep_tracer:
            workloads.sweeper(seed, model).replay_traces(fleet.traces)
        sweep_tracer.dump(os.path.join(root, OUT_DIR, f"spans-{spec.name}-{seed}-replay.jsonl"))
        replay = _replay_metrics(sweep_tracer, fleet)
    out["tail.retrain_cover_frac"] = (shares["local_model.retrain"], "ratio")
    out["tail.top_cover_frac"] = (max(shares.values()), "ratio")
    for name, value in replay.items():
        out[name] = (value, "us" if name.endswith("_us") else "s")
    report("tier ladder predict p50 (ms): " + " ".join(f"{k}={v:.3f}" for k, v in rtt.items())
           + f"; direct spans cover {out['direct.span_cover_frac'][0]:.1%} of round trips")
    return out
