"""Stage serving benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 stagebench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Both workloads send open-loop fused predict+observe traffic to the wire
front door (``WireServer`` over a 2-shard ``FleetGateway``, in a child
process); ``BENCHMARK.json`` records why each exists:

- ``serve_hot``  — a warm high-repeat fleet;
- ``serve_cold`` — low-repeat instances that start cold (global model
  first, then a retrain and the local ensemble) next to warmed
  high-repeat ones.

End-to-end metrics: ``slo_attain`` is the share of timed predicts
answered within ``SLO_MS`` of their due time (a failed predict misses);
``sustained_qps`` is completed fused queries over first due to last
answer; ``qerror_p50`` is Stage's median q-error on the timed queries;
``state_kib`` the summed cache and local-model ``byte_size``;
``rss_peak_mb`` the peak RSS of the largest process of the served
program (the server child or one of its shards; the benchmark's own
process is printed beside it); ``setup_s`` the median of
``Settings.setup_repeats`` complete set-ups.  Picking the workload's
instances is input selection and stays outside the set-up.  Predict
latency percentiles and the direct replay's throughput are printed in
the report of every run and reported by the traced run
(``client.predict_*``, ``direct.replay_qps``).

A serial direct ``BatchRouter`` replay of the same op stream, outside
the timed window, is the correctness gate: the served predictions must
match it bit for bit, or the command prints ``"correct": false`` and
exits 1.

A run is invalid when the load generator's p99 send lag exceeds
``MAX_LAG_P99_MS`` or its p99 has fewer than ten samples beyond it; the
command then prints the run's metrics in its report, marked invalid,
and measures once more from a fresh set-up (``RUN_ATTEMPTS``); if that
run is invalid too it exits 3 without a result line.  ``--trace 1`` runs the same measurement, then the tier
ladder (``ladder.py``), and prints the per-layer metrics instead.  ``--tiny`` shrinks every phase
for the self-test and reports instead of enforcing run validity.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_hot", "serve_cold")
#: the predict latency limit behind ``slo_attain`` (ms); it sits above a
#: cold single-row ensemble answer and below a retrain stall
SLO_MS = 50.0
#: a served run is invalid when the generator's p99 send lag exceeds this
MAX_LAG_P99_MS = SLO_MS
#: the p99 needs at least this many samples beyond it
MIN_TAIL_SAMPLES = 10
#: an invalid run is measured once more from a fresh set-up, and both
#: attempts' metrics are printed, each with the CPU time the hypervisor
#: stole during it: a generator lag beyond the limit has not repeated on
#: a second run of the same seed, so it is taken for a stall of the host
#: (the served program runs at a lower priority than the generator)
RUN_ATTEMPTS = 2


@dataclass(frozen=True)
class Settings:
    #: complete set-ups per run; ``setup_s`` is their median
    setup_repeats: int = 3
    #: multiplies every instance's prefix length
    scale: float = 1.0
    enforce_validity: bool = True


TINY = Settings(setup_repeats=1, scale=0.1, enforce_validity=False)


class RunInvalid(Exception):
    """The run cannot be reported (see the module docstring)."""


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_metrics(lat_ms, n_attempted: int):
    """p50, p99, samples beyond p99 and SLO attainment; a predict that
    failed has no latency and counts as a miss."""
    p99 = _percentile(lat_ms, 99) if lat_ms else float("inf")
    return (
        _percentile(lat_ms, 50) if lat_ms else float("inf"),
        p99,
        sum(v > p99 for v in lat_ms),
        sum(v <= SLO_MS for v in lat_ms) / max(1, n_attempted),
    )


def _gate(reference, stream, answer_at) -> int:
    """Number of ops whose answer is missing or differs from the
    reference replay's."""
    return sum(
        answer_at(pos, k) != want for (pos, k, _, _), want in zip(stream, reference.answers)
    )


def _timed_throughput(run, stream) -> float:
    """Fused queries per second of a serial replay's timed phase."""
    busy = [p + o for p, o, op in zip(run.predict_rtt, run.observe_rtt, stream) if op[3]]
    return len(busy) / sum(busy)


def _report_fleet(fleet, report) -> None:
    from stagebench import workloads

    report(
        "repeat share per instance (* starts cold): "
        + " ".join(f"{s:.2f}{'' if w else '*'}"
                   for s, w in zip(fleet.repeat_shares, fleet.n_warmup))
        + f" | fleet {workloads.repeat_share_of(fleet):.3f} "
        f"({len(fleet.traces)} instances, {fleet.n_queries} queries, "
        f"scanned {fleet.scanned})"
    )


def _report_metrics(metrics, report) -> None:
    for name, (value, unit) in metrics.items():
        report(f"  {name} = {value:.6g} {unit}")


# ---------------------------------------------------------------------------
async def _serve_setup(picks, scanned: int, seed: int):
    """One complete set-up: global model, the picked instances' traces,
    server, registration and warmup.  Returns ``(setup_s, timings,
    fleet, model, server, session)``; the caller owns the server and
    the session."""
    from stagebench import loadgen, workloads

    t0 = time.perf_counter()
    timings = {}
    model = workloads.train_global_model(seed, timings)
    t1 = time.perf_counter()
    fleet = workloads.generate_fleet(picks, seed, scanned)
    timings["workload.tracegen_s"] += time.perf_counter() - t1
    server = loadgen.ServerChild(ROOT, model, workloads.stage_config(), workloads.RANDOM_STATE)
    timings["gateway.spawn_s"] = server.spawn_s
    try:
        session = await loadgen.open_session(server.host, server.port, fleet)
        await loadgen.register_and_warm(session, fleet)
    except BaseException:
        server.kill()
        raise
    timings["harness.warmup_s"] = session.register_s + session.warmup_s
    return time.perf_counter() - t0, timings, fleet, model, server, session


async def _serve(spec, seed: int, seconds: float, settings: Settings):
    """Pick the fleet (untimed), set up ``settings.setup_repeats`` times
    keeping only the last set-up alive, and run the timed phase on it."""
    from stagebench import loadgen, workloads

    picks, scanned = workloads.pick_fleet(spec, seed, settings.scale)
    setup_times = []
    for repeat in range(settings.setup_repeats, 0, -1):
        setup_s, timings, fleet, model, server, session = await _serve_setup(
            picks, scanned, seed
        )
        setup_times.append(setup_s)
        if repeat > 1:
            try:
                await loadgen.close_session(session)
            finally:
                server.stop()
    try:
        await loadgen.timed_phase(session, fleet, fleet.n_timed / seconds)
        await loadgen.close_session(session)
    finally:
        server.stop()
    return statistics.median(setup_times), timings, fleet, model, session, server.rss_kb


def run_serve(spec, seed: int, seconds: float, settings: Settings, report):
    from stagebench import workloads

    setup_s, timings, fleet, model, session, server_rss_kb = asyncio.run(
        _serve(spec, seed, seconds, settings)
    )
    stream = fleet.stream()
    reference = workloads.direct_replay(fleet, model)
    mismatches = _gate(reference, stream, lambda pos, k: session.answers[pos][k])

    due = session.due
    n = len(due)
    ok = [i for i in range(n) if session.predict_ok[i]]
    lat_ms = [(session.predict_done[i] - due[i]) * 1000.0 for i in ok]
    p50, p99, beyond, slo = _latency_metrics(lat_ms, n)
    lag_p99 = _percentile([(session.sent[i] - due[i]) * 1000.0 for i in range(n)], 99)
    completed = sum(session.observe_ok[i] for i in ok)
    last_answer = max(t for t in session.predict_done + session.observe_done if t is not None)
    retry_after = sum(
        s.get("retry_after", 0) for s in session.stats["wire"]["sessions"].values()
    )
    timed_true, timed_pred, sources = [], [], []
    for pos, k, record in session.timed_ops:
        answer = session.answers[pos][k]
        if answer is not None:
            timed_true.append(record.exec_time)
            timed_pred.append(float.fromhex(answer[0]))
            sources.append(answer[1])
    acc = workloads.accuracy(timed_true, timed_pred)
    replay_qps = _timed_throughput(reference, stream)
    # RETRY_AFTER answers fail their op's future, so they are in ``failed``
    attempted = session.timed.sent
    failed = session.timed.failed

    rate_qps = fleet.n_timed / seconds
    report(f"workload {spec.name}: seed={seed}, open loop at {rate_qps:g} fused q/s, "
           f"{n} timed predicts, SLO {SLO_MS:g} ms")
    _report_fleet(fleet, report)
    report(f"cache-answer share of timed predicts: "
           f"{sources.count('cache') / max(1, len(sources)):.3f}")
    report(session.warmup.line("warmup ops") + f" in {session.warmup_s:.2f}s")
    report(session.timed.line("timed ops") + f", retry_after={retry_after}")
    report("predict latency from due time (ms): " + " ".join(
        f"p{q:g}={_percentile(lat_ms, q):.1f}" for q in (50, 90, 95, 99, 99.9)))
    report(f"loadgen: lag p99 {lag_p99:.3f} ms, {beyond} samples beyond p99; "
           f"mae_s={acc.mae_s:.4g}, ops_failed_frac={failed / max(1, attempted):.4g}, "
           f"direct replay {replay_qps:.1f} q/s")
    steal = "n/a" if session.steal_s is None else f"{session.steal_s:.2f} s"
    report(f"host CPU stolen by the hypervisor during the timed phase: {steal}")
    report(f"peak RSS: served program {server_rss_kb / 1024.0:.1f} MB, "
           f"benchmark process {_own_rss_mb():.1f} MB")
    report("correctness: " + ("bit-identical to the direct BatchRouter replay"
                              if not mismatches else f"{mismatches} answers DIVERGED"))
    metrics = {
        "slo_attain": (slo, "ratio"),
        "sustained_qps": (completed / max(1e-9, last_answer - due[0]), "q/s"),
        "qerror_p50": (acc.qerror_p50, "ratio"),
        "state_kib": (session.stats["gateway"]["fleet"]["byte_size"] / 1024.0, "KiB"),
        "rss_peak_mb": (server_rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    if lag_p99 > MAX_LAG_P99_MS or beyond < MIN_TAIL_SAMPLES:
        problem = (f"load generator lag p99 {lag_p99:.2f} ms (limit {MAX_LAG_P99_MS:g}), "
                   f"{beyond} samples beyond p99 (need {MIN_TAIL_SAMPLES})")
        if settings.enforce_validity:
            _report_metrics(metrics, report)
            raise RunInvalid(problem)
        report(f"validity not enforced: {problem}")
    extra = {
        "timings": timings,
        "lag_p99_ms": lag_p99,
        "sent": attempted,
        "rate_qps": rate_qps,
        "predict_p50_ms": p50,
        "predict_p99_ms": p99,
        "replay_qps": replay_qps,
        "reference": reference,
        "retry_after": retry_after,
        "instance_stats": list(session.stats["gateway"]["instances"].values()),
        "fleet": fleet,
        "model": model,
    }
    return not mismatches, attempted, failed, metrics, extra


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"stagebench: no Stage sources under {src}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from stagebench import workloads

    spec = workloads.SPECS[args.workload]
    # the traced run reports no setup_s, so it sets up once
    settings = TINY if args.tiny else Settings(setup_repeats=1 if args.trace else 3)

    def report(line: str) -> None:
        print(line, flush=True)

    for attempt in range(1, RUN_ATTEMPTS + 1):
        report(f"attempt {attempt} of at most {RUN_ATTEMPTS}")
        try:
            correct, attempted, failed, metrics, extra = run_serve(
                spec, args.seed, args.seconds, settings, report
            )
            break
        except RunInvalid as exc:
            print(f"stagebench: attempt {attempt} invalid: {exc}", file=sys.stderr)
            report(f"attempt {attempt} INVALID, its metrics above are not reported: {exc}")
            if attempt == RUN_ATTEMPTS:
                return 3
    if args.trace:
        from stagebench import ladder

        metrics = ladder.per_layer(spec, args.seed, extra, report, ROOT)
    _report_metrics(metrics, report)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
