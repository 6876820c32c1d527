"""One runner per paper table/figure.

Each benchmark under ``benchmarks/`` exercises one runner and writes its
rendered output to ``results/`` — those two directories are the
per-experiment index.

The heart is :func:`run_sweep`: train a global model on a training fleet,
then replay every evaluation instance through Stage and AutoWLM.  All
accuracy tables, the WLM end-to-end comparison and the PRR analysis are
pure post-processing over the sweep's :class:`InstanceReplay` arrays.
Trace generation, global-model dataset construction (sharded
:class:`~repro.global_model.trainer.GlobalModelTrainer`) and replays
(:class:`~repro.harness.parallel.FleetSweeper`, which ships the global
model to each worker once via the pool initializer) all fan out over
process pools when ``n_jobs > 1``; results are bit-identical to the
sequential path for any ``n_jobs``.

Every replay is uncertainty-aware: alongside the point arrays,
:class:`InstanceReplay` carries calibrated interval bounds per source
(``stage_interval_low/high`` plus per-component cache/local/global
columns — Welford intervals for cache hits, member-spread quantile
bounds for the ensemble, a residual-variance head for the global
model), all under the same bit-parity contract as the points.  The
empirical coverage of those intervals is scored by
``python -m repro.scenarios calibration``
(``results/calibration_scorecard.txt``).

The serving-side twin of this offline harness is ``repro.service``:
``replay_instance(trace, backend=ReplayBackend(mode="service"))`` replays
an instance *through* the online :class:`~repro.service.PredictionService`
(micro-batch scheduler and all) with bit-identical results, and ``python -m repro.service``
benchmarks that serving layer.

Run everything and print paper-style tables with::

    python -m repro.harness.experiments [--scale small|medium]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import (
    GlobalModelConfig,
    StageConfig,
    fast_profile,
)
from repro.core.metrics import (
    absolute_errors,
    bucketed_summary,
    prr_curves,
    prr_score,
)
from repro.global_model.model import GlobalModel
from repro.global_model.trainer import GlobalModelTrainer
from repro.wlm.simulator import WLMConfig, simulate_wlm
from repro.workload.fleet import FleetConfig, FleetGenerator
from repro.workload.trace import (
    bucket_counts,
    fleet_exec_times,
    fleet_unique_daily_fractions,
)

from .parallel import FleetSweeper
from .replay import InstanceReplay
from .reporting import improvement, render_comparison_table, render_simple_table

__all__ = [
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "fleet_statistics",
    "end_to_end_comparison",
    "accuracy_table",
    "component_table",
    "prr_analysis",
    "inference_cost",
]


# ---------------------------------------------------------------------------
# the shared sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConfig:
    """Scale knobs for one full evaluation sweep."""

    seed: int = 0
    n_eval_instances: int = 12
    n_train_instances: int = 8
    duration_days: float = 2.0
    volume_scale: float = 0.25
    stage: StageConfig = field(default_factory=fast_profile)
    global_model: GlobalModelConfig = field(
        default_factory=lambda: GlobalModelConfig(
            hidden_dim=48, n_conv_layers=4, epochs=15, max_queries_per_instance=250
        )
    )
    use_global: bool = True
    #: record every component's answer on every query (ablation tables)
    collect_components: bool = True
    #: worker processes for trace generation, global-model dataset
    #: construction and replay; 1 = sequential/inline, ``<=0`` = all cores
    n_jobs: int = 1


@dataclass
class SweepResult:
    """Everything downstream experiments need."""

    config: SweepConfig
    replays: List[InstanceReplay]
    global_model: Optional[GlobalModel]
    train_seconds: float
    replay_seconds: float

    # ------------------------------------------------------------------
    def pooled(self, attr: str) -> np.ndarray:
        """Concatenate one array attribute across all instance replays."""
        return np.concatenate([getattr(r, attr) for r in self.replays])


def run_sweep(
    config: SweepConfig | None = None,
    verbose: bool = False,
    n_jobs: int | None = None,
) -> SweepResult:
    """Train the global model, then replay the evaluation fleet.

    ``n_jobs`` overrides ``config.n_jobs`` when given; any value yields
    arrays bit-identical to the sequential (``n_jobs=1``) path.
    """
    config = config or SweepConfig()
    if n_jobs is None:
        n_jobs = config.n_jobs
    fleet_cfg = FleetConfig(seed=config.seed, volume_scale=config.volume_scale)
    gen = FleetGenerator(fleet_cfg)

    global_model = None
    train_seconds = 0.0
    if config.use_global and config.n_train_instances > 0:
        # Training instances are disjoint from evaluation instances
        # (offset index range), as in the paper's Section 5.1.
        train_traces = gen.generate_fleet_traces(
            config.n_train_instances,
            config.duration_days,
            start_index=10_000,
            n_jobs=n_jobs,
        )
        t0 = time.time()
        global_model = GlobalModelTrainer(config.global_model).train(train_traces, n_jobs=n_jobs)
        train_seconds = time.time() - t0
        if verbose:
            n = sum(len(t) for t in train_traces)
            print(f"global model trained on {n} queries in {train_seconds:.1f}s")

    sweeper = FleetSweeper(
        fleet_config=fleet_cfg,
        stage_config=config.stage,
        global_model=global_model,
        random_state=config.seed,
        collect_components=config.collect_components,
        n_jobs=n_jobs,
    )
    t0 = time.time()
    replays = sweeper.replay_indices(range(config.n_eval_instances), config.duration_days)
    replay_seconds = time.time() - t0
    if verbose:
        for replay in replays:
            print(
                f"replayed {replay.instance_id}: {len(replay)} queries, "
                f"hit rate {replay.stage_stats['cache_hit_rate']:.2f}"
            )
    return SweepResult(
        config=config,
        replays=replays,
        global_model=global_model,
        train_seconds=train_seconds,
        replay_seconds=replay_seconds,
    )


# ---------------------------------------------------------------------------
# Figure 1: fleet statistics
# ---------------------------------------------------------------------------
def fleet_statistics(
    n_instances: int = 40,
    duration_days: float = 2.0,
    volume_scale: float = 0.25,
    seed: int = 0,
) -> Dict[str, object]:
    """Reproduce Figure 1a/1b statistics on a synthetic fleet."""
    gen = FleetGenerator(FleetConfig(seed=seed, volume_scale=volume_scale))
    traces = gen.generate_fleet_traces(n_instances, duration_days)
    unique_fractions = fleet_unique_daily_fractions(traces)
    exec_times = fleet_exec_times(traces)
    weights = np.array([len(t) for t in traces], dtype=np.float64)
    repeat_fraction = float(((1 - unique_fractions) * weights).sum() / weights.sum())
    return {
        "unique_fractions": unique_fractions,
        "exec_times": exec_times,
        "clusters_over_50pct_unique": float(np.mean(unique_fractions > 0.5)),
        "clusters_fully_unique": float(np.mean(unique_fractions > 0.95)),
        "fleet_repeat_fraction": repeat_fraction,
        "fraction_under_100ms": float(np.mean(exec_times < 0.1)),
        "bucket_counts": bucket_counts(exec_times),
        "latency_percentiles_ms": {
            p: float(np.percentile(exec_times * 1000, p))
            for p in (1, 25, 50, 75, 90, 99, 99.9)
        },
    }


# ---------------------------------------------------------------------------
# Figures 6 & 7: end-to-end WLM latency
# ---------------------------------------------------------------------------
def _compress_arrivals(
    arrival: np.ndarray,
    exec_times: np.ndarray,
    n_slots: int,
    target_utilization: float,
) -> np.ndarray:
    """Time-compress a trace so the cluster runs at a target utilization.

    The paper evaluates the top-100 *most-billed* (busiest) instances,
    where queueing is the norm; the synthetic fleet spans all activity
    levels.  Compressing arrival times (same queries, same exec-times,
    shorter wall-clock window) emulates a busy cluster without changing
    the prediction problem.
    """
    horizon = float(arrival.max() - arrival.min()) + 1.0
    utilization = float(exec_times.sum()) / (horizon * n_slots)
    if utilization <= 0:
        return arrival
    factor = max(1.0, target_utilization / utilization)
    start = float(arrival.min())
    return start + (arrival - start) / factor


def end_to_end_comparison(
    sweep: SweepResult,
    wlm_config: WLMConfig | None = None,
    target_utilization: float = 0.4,
) -> Dict[str, object]:
    """Simulate the WLM under Stage / AutoWLM / Optimal predictions.

    Returns pooled latency aggregates (Figure 6) and the per-instance
    mean-latency improvements over AutoWLM (Figure 7).  Arrivals are
    compressed per instance to ``target_utilization`` (see
    :func:`_compress_arrivals`); pass ``0`` to disable.
    """
    wlm_config = wlm_config or WLMConfig()
    pooled = {"stage": [], "autowlm": [], "optimal": []}
    per_instance = []
    for replay in sweep.replays:
        arrival = replay.arrival
        if target_utilization > 0:
            arrival = _compress_arrivals(
                arrival,
                replay.true,
                wlm_config.short_slots + wlm_config.long_slots,
                target_utilization,
            )
        runs = {}
        for name, preds in (
            ("stage", replay.stage_pred),
            ("autowlm", replay.autowlm_pred),
            ("optimal", replay.true),
        ):
            sim = simulate_wlm(arrival, replay.true, preds, wlm_config)
            runs[name] = sim.latencies()
            pooled[name].append(runs[name])
        per_instance.append(
            {
                "instance_id": replay.instance_id,
                "stage_improvement": improvement(
                    runs["stage"].mean(), runs["autowlm"].mean()
                ),
                "optimal_improvement": improvement(
                    runs["optimal"].mean(), runs["autowlm"].mean()
                ),
            }
        )

    pooled = {k: np.concatenate(v) for k, v in pooled.items()}
    aggregates = {}
    for name, lat in pooled.items():
        aggregates[name] = {
            "mean": float(lat.mean()),
            "median": float(np.percentile(lat, 50)),
            "p90": float(np.percentile(lat, 90)),
        }
    improvements = {
        name: {
            stat: improvement(aggregates[name][stat], aggregates["autowlm"][stat])
            for stat in ("mean", "median", "p90")
        }
        for name in ("stage", "optimal")
    }
    per_instance.sort(key=lambda d: d["optimal_improvement"])
    return {
        "aggregates": aggregates,
        "improvements": improvements,
        "per_instance": per_instance,
        "fraction_instances_regressed": float(
            np.mean([d["stage_improvement"] < 0 for d in per_instance])
        ),
    }


# ---------------------------------------------------------------------------
# Tables 1-2 and Figure 8: Stage vs AutoWLM accuracy
# ---------------------------------------------------------------------------
def accuracy_table(sweep: SweepResult, metric: str = "absolute") -> str:
    """Paper Table 1 (absolute error) or Table 2 (Q-error)."""
    true = sweep.pooled("true")
    left = bucketed_summary(true, sweep.pooled("stage_pred"), metric)
    right = bucketed_summary(true, sweep.pooled("autowlm_pred"), metric)
    label = "AE" if metric == "absolute" else "QE"
    number = "Table 1" if metric == "absolute" else "Table 2"
    return render_comparison_table(
        f"{number}: prediction accuracy "
        f"({'absolute error, s' if metric == 'absolute' else 'Q-error'})",
        "Stage",
        left,
        "AutoWLM",
        right,
        metric=label,
    )


# ---------------------------------------------------------------------------
# Tables 3-6: component ablations
# ---------------------------------------------------------------------------
_COMPONENT_TABLES = {
    # name: (mask builder, left column, right column, title)
    "table3": (
        "cache_hit_mask",
        "cache_pred",
        "autowlm_pred",
        "Table 3: exec-time cache vs AutoWLM on cache hits",
    ),
    "table4": (
        "local_miss_mask",
        "local_pred",
        "autowlm_pred",
        "Table 4: local model vs AutoWLM on cache misses",
    ),
    "table5": (
        "local_miss_mask",
        "global_pred",
        "local_pred",
        "Table 5: global vs local on cache misses",
    ),
    "table6": (
        "uncertain_mask",
        "global_pred",
        "local_pred",
        "Table 6: global vs local on *uncertain* queries",
    ),
}


def _component_mask(replay: InstanceReplay, which: str) -> np.ndarray:
    if which == "cache_hit_mask":
        return replay.cache_hit_mask
    if which == "local_miss_mask":
        return replay.cache_miss_mask & replay.local_ready_mask & replay.global_available_mask
    if which == "uncertain_mask":
        return replay.uncertain & replay.global_available_mask
    raise ValueError(which)


def component_table(sweep: SweepResult, table: str, metric: str = "absolute") -> str:
    """Render one of the ablation tables (``table3`` .. ``table6``)."""
    mask_name, left_attr, right_attr, title = _COMPONENT_TABLES[table]
    mask = np.concatenate([_component_mask(r, mask_name) for r in sweep.replays])
    true = sweep.pooled("true")[mask]
    left_names = {
        "cache_pred": "Cache",
        "local_pred": "Local",
        "global_pred": "Global",
        "autowlm_pred": "AutoWLM",
    }
    left = bucketed_summary(true, sweep.pooled(left_attr)[mask], metric)
    right = bucketed_summary(true, sweep.pooled(right_attr)[mask], metric)
    return render_comparison_table(
        title,
        left_names[left_attr],
        left,
        left_names[right_attr],
        right,
    )


def component_summaries(sweep: SweepResult, table: str):
    """The underlying summaries for assertions (left, right, n)."""
    mask_name, left_attr, right_attr, _ = _COMPONENT_TABLES[table]
    mask = np.concatenate([_component_mask(r, mask_name) for r in sweep.replays])
    true = sweep.pooled("true")[mask]
    left = bucketed_summary(true, sweep.pooled(left_attr)[mask])
    right = bucketed_summary(true, sweep.pooled(right_attr)[mask])
    return left, right, int(mask.sum())


# ---------------------------------------------------------------------------
# Figures 10-11: uncertainty quality (PRR)
# ---------------------------------------------------------------------------
def prr_analysis(sweep: SweepResult) -> Dict[str, object]:
    """Per-instance PRR of the local model's uncertainty (Figures 10-11)."""
    scores = []
    example = None
    for replay in sweep.replays:
        mask = replay.cache_miss_mask & replay.local_ready_mask
        if mask.sum() < 30:
            continue
        errors = absolute_errors(replay.true[mask], replay.local_pred[mask])
        unc = replay.local_std[mask]
        score = prr_score(errors, unc)
        scores.append((replay.instance_id, score))
        if example is None or abs(score - 0.9) < abs(example[1] - 0.9):
            example = (replay.instance_id, score, errors, unc)
    values = np.array([s for _, s in scores]) if scores else np.zeros(0)
    result: Dict[str, object] = {
        "scores": scores,
        "mean": float(values.mean()) if values.size else float("nan"),
        "median": float(np.median(values)) if values.size else float("nan"),
    }
    if example is not None:
        fractions, oracle, by_unc, random = prr_curves(example[2], example[3])
        result["example"] = {
            "instance_id": example[0],
            "prr": example[1],
            "curves": (fractions, oracle, by_unc, random),
        }
    return result


# ---------------------------------------------------------------------------
# Figure 9: inference latency and memory
# ---------------------------------------------------------------------------
def inference_cost(
    sweep: SweepResult, n_probe: int = 200, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Measure per-predictor inference latency and memory on this machine.

    Re-runs a short replay on the first evaluation instance to obtain
    warmed-up predictors, then times each component on a fixed probe set.
    Absolute numbers are machine-dependent; the orderings (cache <<
    local < global) are what reproduce Figure 9.
    """
    from repro.core.autowlm import AutoWLMPredictor
    from repro.core.stage import StagePredictor

    config = sweep.config
    gen = FleetGenerator(FleetConfig(seed=config.seed, volume_scale=config.volume_scale))
    trace = gen.generate_trace(gen.sample_instance(0), config.duration_days)
    stage = StagePredictor(trace.instance, global_model=sweep.global_model, config=config.stage)
    autowlm = AutoWLMPredictor(config=config.stage.local)
    for record in trace:
        stage.predict(record)
        autowlm.predict(record)
        stage.observe(record)
        autowlm.observe(record)

    rng = np.random.default_rng(seed)
    idx = rng.choice(len(trace), size=min(n_probe, len(trace)), replace=False)
    probes = [trace[int(i)] for i in idx]

    def _time(fn) -> float:
        t0 = time.perf_counter()
        for record in probes:
            fn(record)
        return (time.perf_counter() - t0) / len(probes)

    results: Dict[str, Dict[str, float]] = {}
    results["cache"] = {
        "latency_s": _time(
            lambda r: stage.cache.lookup(stage.cache.key_for(r.features))
        ),
        "memory_bytes": float(stage.cache.byte_size()),
    }
    if stage.local.is_ready:
        results["local"] = {
            "latency_s": _time(lambda r: stage.local.predict(r.features)),
            "memory_bytes": float(stage.local.byte_size()),
        }
    if sweep.global_model is not None:
        results["global"] = {
            "latency_s": _time(
                lambda r: sweep.global_model.predict(r.plan, trace.instance)
            ),
            "memory_bytes": float(sweep.global_model.byte_size()),
        }
    results["stage"] = {
        "latency_s": _time(stage.predict),
        "memory_bytes": float(stage.byte_size()),
    }
    results["autowlm"] = {
        "latency_s": _time(autowlm.predict),
        "memory_bytes": float(autowlm.byte_size()),
    }
    return results


# ---------------------------------------------------------------------------
# command-line entry point: print every table/figure
# ---------------------------------------------------------------------------
def _print_all(scale: str = "small") -> None:  # pragma: no cover - CLI
    scales = {
        "small": SweepConfig(),
        "medium": SweepConfig(
            n_eval_instances=30,
            n_train_instances=20,
            duration_days=3.0,
            volume_scale=0.4,
        ),
    }
    sweep_cfg = scales[scale]
    print(f"== sweep scale: {scale} ==")

    stats = fleet_statistics()
    print("\n-- Figure 1a: daily-unique distribution --")
    print(
        f"clusters >50% unique: {stats['clusters_over_50pct_unique']:.0%}  "
        f"clusters with no repeats: {stats['clusters_fully_unique']:.0%}  "
        f"fleet repeat fraction: {stats['fleet_repeat_fraction']:.0%}"
    )
    print("\n-- Figure 1b: latency distribution --")
    print(f"fraction under 100ms: {stats['fraction_under_100ms']:.0%}")
    print("percentiles (ms):", {k: round(v, 1) for k, v in stats["latency_percentiles_ms"].items()})

    sweep = run_sweep(sweep_cfg, verbose=True)

    e2e = end_to_end_comparison(sweep)
    print("\n-- Figure 6: end-to-end latency improvement over AutoWLM --")
    rows = []
    for name in ("stage", "optimal"):
        imp = e2e["improvements"][name]
        rows.append([name, f"{imp['mean']:.1%}", f"{imp['median']:.1%}", f"{imp['p90']:.1%}"])
    print(render_simple_table("", ["predictor", "mean", "median", "p90(tail)"], rows))
    print(f"\n-- Figure 7: instances regressed: " f"{e2e['fraction_instances_regressed']:.0%} --")

    print("\n" + accuracy_table(sweep, "absolute"))
    print("\n" + accuracy_table(sweep, "q"))
    for table in ("table3", "table4", "table5", "table6"):
        print("\n" + component_table(sweep, table))

    prr = prr_analysis(sweep)
    print(f"\n-- Figure 11: PRR mean={prr['mean']:.2f} median={prr['median']:.2f} --")

    cost = inference_cost(sweep)
    print("\n-- Figure 9: inference cost --")
    rows = [
        [name, f"{v['latency_s'] * 1e6:.0f} us", f"{v['memory_bytes'] / 1024:.0f} KiB"]
        for name, v in cost.items()
    ]
    print(render_simple_table("", ["predictor", "latency", "memory"], rows))


if __name__ == "__main__":  # pragma: no cover
    import sys

    _print_all(sys.argv[1] if len(sys.argv) > 1 else "small")
