"""The declarative scenario engine: registry, runner, matrix report.

A :class:`Scenario` is a named, described :class:`ScenarioConfig` —
a point in the stress space (burst storms, onboarding waves, template
churn, seasonal cycles, resizes, ANALYZE outages).  The module registry
holds the built-in suite plus anything callers
:func:`register_scenario`; :class:`ScenarioRunner` fans the registered
matrix over the existing :class:`~repro.harness.parallel.FleetSweeper`
and can replay every scenario *through* the online
:class:`~repro.service.PredictionService` or the sharded multi-process
:class:`~repro.service.FleetGateway` (``ScenarioSweepConfig.backend``).

Both of the repo's hard contracts extend to every scenario:

- **sequential/parallel bit-parity** — scenario mutations are pure,
  per-instance-seeded transforms riding inside ``FleetConfig``, so any
  ``n_jobs`` regenerates bit-identical traces and replays;
- **direct/service bit-parity** — the serving path routes through the
  same :class:`~repro.core.stage.BatchRouter`, so service-backed matrix
  runs reproduce the direct matrix bit-for-bit.

``tests/test_scenarios.py`` enforces both for every registered
scenario; a scenario that breaks either cannot ship.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ForecastConfig, ReplayBackend, StageConfig, fast_profile
from repro.core.metrics import absolute_errors, q_errors
from repro.harness.parallel import FleetSweeper
from repro.harness.replay import InstanceReplay
from repro.harness.reporting import improvement, render_simple_table
from repro.workload.fleet import FleetConfig
from repro.workload.scenario import ScenarioConfig

__all__ = [
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSweepConfig",
    "get_scenario",
    "register_scenario",
    "registered_scenarios",
    "render_matrix",
]


# ---------------------------------------------------------------------------
# scenarios and their registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One named stress scenario: a described point in mutation space."""

    name: str
    description: str
    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    #: also score forecast-driven vs reactive serving on this scenario
    #: (extra replay pair at the sweep's forecast-scoring scale; the
    #: deltas land in the matrix's ``fc-*`` columns)
    forecast_scored: bool = False

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"scenario name must be non-empty, no spaces: {self.name!r}")


_REGISTRY: "OrderedDict[str, Scenario]" = OrderedDict()


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the matrix (``replace=True`` to redefine)."""
    if not replace and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def registered_scenarios() -> Tuple[Scenario, ...]:
    """Every registered scenario, in registration order."""
    return tuple(_REGISTRY.values())


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown scenario {name!r} (registered: {known})") from None


# The built-in suite: one scenario per mutation, calibrated so short
# test traces (1-2 days) still realize the stress with high probability.
# Rates look high per week because the matrix replays day-scale windows.
_BUILTINS = (
    Scenario(
        "baseline",
        "the unmutated workload — the control row of every matrix",
    ),
    Scenario(
        "burst_storm",
        "flash-crowd surges: short windows at 8x the steady arrival rate",
        ScenarioConfig(
            burst_storms_per_week=18.0,
            burst_duration_hours=2.0,
            burst_multiplier=8.0,
        ),
        forecast_scored=True,
    ),
    Scenario(
        "onboarding_wave",
        "tenant onboarding: every instance joins cold mid-sweep",
        ScenarioConfig(onboard_fraction=1.0, onboard_window_fraction=0.6),
    ),
    Scenario(
        "template_churn",
        "dashboards/reports retired and replaced by never-seen successors",
        ScenarioConfig(churn_rate_per_week=2.0),
    ),
    Scenario(
        "seasonal_cycle",
        "a daily load cycle thinning arrivals toward the trough",
        ScenarioConfig(seasonal_amplitude=0.8, seasonal_period_days=1.0),
        forecast_scored=True,
    ),
    Scenario(
        "instance_resize",
        "cluster resizes shift the latent latency model under the cache",
        ScenarioConfig(
            resize_events_per_week=10.0,
            resize_factor_low=0.3,
            resize_factor_high=3.0,
        ),
    ),
    Scenario(
        "analyze_outage",
        "ANALYZE outages stretch statistics epochs (staler plans, fewer re-costs)",
        ScenarioConfig(analyze_outages_per_week=10.0, analyze_outage_days=2.0),
    ),
)
for _scenario in _BUILTINS:
    register_scenario(_scenario)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSweepConfig:
    """Scale/engine knobs shared by every scenario in a matrix run.

    Defaults are the committed ``results/scenario_matrix.txt`` scale:
    the CLI, the benchmark and the drift gate all run these numbers.
    """

    seed: int = 11
    n_instances: int = 3
    duration_days: float = 1.5
    volume_scale: float = 0.2
    stage: StageConfig = field(default_factory=fast_profile)
    #: which serving tier every replay routes through
    #: (:class:`~repro.core.config.ReplayBackend`); bit-identical across
    #: modes by the determinism contract
    backend: ReplayBackend = field(default_factory=ReplayBackend)
    #: worker processes per scenario sweep; any value is bit-identical
    n_jobs: int = 1
    #: forecast-vs-reactive scoring (the matrix's ``fc-*`` delta
    #: columns, computed for ``forecast_scored`` scenarios only): the
    #: forecaster to score with, and the pair's own scale.  The pair
    #: runs a *small* cache — pre-warming pays off exactly where
    #: eviction pressure exists — over a longer, denser trace than the
    #: headline rows, so recurring templates actually recur; both runs
    #: share every knob except ``StageConfig.forecast``
    forecast: ForecastConfig = field(default_factory=ForecastConfig)
    forecast_cache_capacity: int = 16
    forecast_duration_days: float = 3.0
    forecast_volume_scale: float = 0.4

    def __post_init__(self):
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.volume_scale <= 0:
            raise ValueError("volume_scale must be positive")
        if self.forecast_cache_capacity < 1:
            raise ValueError("forecast_cache_capacity must be >= 1")
        if self.forecast_duration_days <= 0:
            raise ValueError("forecast_duration_days must be positive")
        if self.forecast_volume_scale <= 0:
            raise ValueError("forecast_volume_scale must be positive")


@dataclass
class ScenarioResult:
    """One scenario's replays plus the matrix row derived from them."""

    scenario: Scenario
    replays: List[InstanceReplay]
    #: forecast-vs-reactive scoring summary (``forecast_scored``
    #: scenarios only): hit rates, p99 absolute errors and their deltas
    forecast: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def pooled(self, attr: str) -> np.ndarray:
        return np.concatenate([getattr(r, attr) for r in self.replays])

    @property
    def metrics(self) -> Dict[str, float]:
        """Deterministic per-scenario summary (the matrix row)."""
        true = self.pooled("true")
        stage_pred = self.pooled("stage_pred")
        autowlm_pred = self.pooled("autowlm_pred")
        hits = sum(r.stage_stats["cache_hits"] for r in self.replays)
        misses = sum(r.stage_stats["cache_misses"] for r in self.replays)
        stage_mae = float(np.mean(absolute_errors(true, stage_pred)))
        autowlm_mae = float(np.mean(absolute_errors(true, autowlm_pred)))
        return {
            "n_queries": int(true.size),
            "cache_hit_rate": hits / max(hits + misses, 1),
            "stage_mae": stage_mae,
            "stage_p50_qe": float(np.median(q_errors(true, stage_pred))),
            "autowlm_mae": autowlm_mae,
            "improvement": improvement(stage_mae, autowlm_mae),
            "n_retrains": int(sum(r.stage_stats["n_local_retrains"] for r in self.replays)),
        }


class ScenarioRunner:
    """Fans a scenario matrix over the fleet-sweep engine.

    Each scenario sweeps the *same* instances (same seed, same volume,
    same duration) with only the scenario mutations differing, so matrix
    rows are directly comparable against the baseline row.
    """

    def __init__(
        self,
        config: Optional[ScenarioSweepConfig] = None,
        scenarios: Optional[Sequence[Scenario]] = None,
    ):
        self.config = config or ScenarioSweepConfig()
        self.scenarios = tuple(scenarios) if scenarios is not None else registered_scenarios()
        if not self.scenarios:
            raise ValueError("no scenarios to run")

    # ------------------------------------------------------------------
    def fleet_config(self, scenario: Scenario) -> FleetConfig:
        """The scenario's fleet: shared scale, scenario riding inside.

        A null config and ``scenario=None`` generate byte-identical
        traces (the generator normalizes), so the config rides along
        unconditionally.
        """
        return FleetConfig(
            seed=self.config.seed,
            volume_scale=self.config.volume_scale,
            scenario=scenario.config,
        )

    def sweeper(
        self,
        scenario: Scenario,
        stage_config: Optional[StageConfig] = None,
        volume_scale: Optional[float] = None,
    ) -> FleetSweeper:
        cfg = self.config
        fleet_config = self.fleet_config(scenario)
        if volume_scale is not None:
            fleet_config = replace(fleet_config, volume_scale=volume_scale)
        return FleetSweeper(
            fleet_config=fleet_config,
            stage_config=stage_config if stage_config is not None else cfg.stage,
            random_state=cfg.seed,
            backend=cfg.backend,
            n_jobs=cfg.n_jobs,
        )

    def run(self, scenario: Scenario) -> ScenarioResult:
        """Replay one scenario over the evaluation instances."""
        replays = self.sweeper(scenario).replay_indices(
            range(self.config.n_instances), self.config.duration_days
        )
        forecast = self.score_forecast(scenario) if scenario.forecast_scored else None
        return ScenarioResult(scenario=scenario, replays=replays, forecast=forecast)

    # ------------------------------------------------------------------
    def _scoring_stage_configs(self) -> Tuple[StageConfig, StageConfig]:
        """The (reactive, forecast-on) stage-config pair for scoring."""
        cfg = self.config
        reactive = replace(
            cfg.stage,
            cache=replace(cfg.stage.cache, capacity=cfg.forecast_cache_capacity),
        )
        return reactive, replace(reactive, forecast=cfg.forecast)

    def score_forecast(self, scenario: Scenario) -> Dict[str, float]:
        """Forecast-driven vs reactive serving on one scenario.

        Two replays of the *same* op stream (same seed, same mutations,
        same small cache) differing only in ``StageConfig.forecast``;
        both numbers are deterministic functions of the replay arrays,
        so the deltas sit behind the results-drift gate like every
        other matrix value.  The p99 is of absolute prediction error —
        never latency — so it is bit-stable at any ``n_jobs`` and on
        any backend tier.
        """
        cfg = self.config
        reactive_cfg, forecast_cfg = self._scoring_stage_configs()
        summaries = {}
        for label, stage_config in (("reactive", reactive_cfg), ("forecast", forecast_cfg)):
            replays = self.sweeper(
                scenario,
                stage_config=stage_config,
                volume_scale=cfg.forecast_volume_scale,
            ).replay_indices(range(cfg.n_instances), cfg.forecast_duration_days)
            true = np.concatenate([r.true for r in replays])
            stage_pred = np.concatenate([r.stage_pred for r in replays])
            hits = sum(r.stage_stats["cache_hits"] for r in replays)
            misses = sum(r.stage_stats["cache_misses"] for r in replays)
            summaries[label] = {
                "hit_rate": hits / max(hits + misses, 1),
                "p99_abs_error": float(
                    np.percentile(absolute_errors(true, stage_pred), 99)
                ),
                "n_prewarm_restores": int(
                    sum(r.stage_stats["n_prewarm_restores"] for r in replays)
                ),
                "n_prewarm_touches": int(
                    sum(r.stage_stats["n_prewarm_touches"] for r in replays)
                ),
            }
        reactive, forecast = summaries["reactive"], summaries["forecast"]
        return {
            "reactive_hit_rate": reactive["hit_rate"],
            "forecast_hit_rate": forecast["hit_rate"],
            "hit_delta": forecast["hit_rate"] - reactive["hit_rate"],
            "reactive_p99": reactive["p99_abs_error"],
            "forecast_p99": forecast["p99_abs_error"],
            "p99_delta": forecast["p99_abs_error"] - reactive["p99_abs_error"],
            "n_prewarm_restores": forecast["n_prewarm_restores"],
            "n_prewarm_touches": forecast["n_prewarm_touches"],
        }

    def run_matrix(self) -> List[ScenarioResult]:
        """Replay every scenario, in registration order."""
        return [self.run(scenario) for scenario in self.scenarios]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def render_matrix(results: Sequence[ScenarioResult], config: ScenarioSweepConfig) -> str:
    """The fixed-width scenario matrix (``results/scenario_matrix.txt``).

    Every value is a deterministic function of the replay arrays — no
    wall-clock, no memory — so the report is stable across runs and
    machines and sits behind CI's results-drift gate.
    """
    rows = []
    for result in results:
        m = result.metrics
        fc = result.forecast
        rows.append(
            [
                result.scenario.name,
                m["n_queries"],
                f"{m['cache_hit_rate']:.3f}",
                m["stage_mae"],
                m["stage_p50_qe"],
                m["autowlm_mae"],
                f"{m['improvement']:+.0%}",
                m["n_retrains"],
                f"{fc['hit_delta']:+.3f}" if fc is not None else "-",
                f"{fc['p99_delta']:+.2f}" if fc is not None else "-",
            ]
        )
    title = (
        "Scenario stress matrix: Stage vs AutoWLM under workload mutations\n"
        f"({config.n_instances} instances x {config.duration_days} days, "
        f"volume_scale={config.volume_scale}, seed={config.seed}, "
        f"via_service={config.backend.mode == 'service'})\n"
        "fc-* columns: forecast-driven vs reactive serving deltas "
        "(cache hit rate / p99 abs error), scored at cache="
        f"{config.forecast_cache_capacity}, "
        f"{config.forecast_duration_days} days, "
        f"volume_scale={config.forecast_volume_scale}"
    )
    return render_simple_table(
        title,
        [
            "scenario",
            "queries",
            "hit-rate",
            "Stage-MAE",
            "P50-QE",
            "AutoWLM-MAE",
            "vs-AutoWLM",
            "retrains",
            "fc-dHit",
            "fc-dP99",
        ],
        rows,
    )
