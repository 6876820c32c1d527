"""Tests for the declarative stress-scenario engine.

Each mutation's observable effect on the trace is pinned down
individually, as are the config validation, the registry semantics, the
report and the CLI.  Every registered scenario replays through a
3-client service exactly as its direct reference; parity across
``n_jobs`` and the fleet tiers lives in the backend-parity matrix
(``tests/test_backend_parity.py``), whose once-per-session references
these checks and the report tests here share.
"""

import numpy as np
import pytest

# one parity definition, so a new InstanceReplay array can never be
# covered in one suite and silently skipped in another; pytest puts
# tests/ on sys.path
from replay_parity import assert_replays_identical

from repro.harness import FleetSweeper, replay_instance
from repro.scenarios import (
    Scenario,
    ScenarioConfig,
    ScenarioRunner,
    get_scenario,
    register_scenario,
    registered_scenarios,
    render_matrix,
)
from repro.scenarios.engine import _REGISTRY, ScenarioResult
from repro.core.config import ReplayBackend, ServiceConfig, fast_profile
from repro.workload import FleetConfig, FleetGenerator, QueryKind
from repro.workload.scenario import InstanceScenario
from repro.workload.seeding import derive_seed

SEED = 11
VOLUME = 0.15
DURATION = 1.0


def make_trace(scenario_config=None, seed=SEED, index=0, duration=DURATION):
    gen = FleetGenerator(FleetConfig(seed=seed, volume_scale=VOLUME, scenario=scenario_config))
    return gen.generate_trace(gen.sample_instance(index), duration)


@pytest.fixture(scope="module")
def baseline_trace():
    return make_trace(None)


# ---------------------------------------------------------------------------
# the mutations, one by one (trace-level effects)
# ---------------------------------------------------------------------------
class TestMutations:
    def test_null_scenario_is_byte_identical_to_none(self, baseline_trace):
        """An all-off ScenarioConfig must not perturb the baseline workload."""
        trace = make_trace(ScenarioConfig())
        assert len(trace) == len(baseline_trace)
        for a, b in zip(baseline_trace, trace):
            assert a.arrival_time == b.arrival_time
            assert a.exec_time == b.exec_time
            assert (a.template_id, a.variant_id, a.plan_epoch) == (
                b.template_id,
                b.variant_id,
                b.plan_epoch,
            )

    def test_burst_storm_adds_surge_arrivals(self, baseline_trace):
        trace = make_trace(ScenarioConfig(burst_storms_per_week=30.0, burst_multiplier=8.0))
        assert len(trace) > len(baseline_trace)
        # the surge is concentrated: some 2h window holds far more than
        # its share of arrivals
        times = np.array([r.arrival_time for r in trace])
        windows = np.histogram(times, bins=int(DURATION * 12))[0]
        assert windows.max() > 3 * max(np.median(windows), 1)

    def test_onboarding_wave_starts_cold_mid_trace(self, baseline_trace):
        config = ScenarioConfig(onboard_fraction=1.0, onboard_window_fraction=0.6)
        trace = make_trace(config)
        scenario = InstanceScenario.realize(config, trace.instance.seed, DURATION)
        assert scenario.onboard_day > 0
        assert len(trace) < len(baseline_trace)
        first_day = trace[0].arrival_time / 86_400.0
        assert first_day >= scenario.onboard_day

    def test_template_churn_retires_and_replaces(self, baseline_trace):
        config = ScenarioConfig(churn_rate_per_week=3.0)
        trace = make_trace(config)
        base_ids = {r.template_id for r in baseline_trace}
        new_ids = {r.template_id for r in trace} - base_ids
        assert new_ids, "churn must introduce replacement templates"

        # white-box pairing: rebuild the same templates and apply churn —
        # each replacement keeps its retiree's kind/cadence and starts
        # exactly at the retirement day
        fleet_config = FleetConfig(seed=SEED, volume_scale=VOLUME, scenario=config)
        gen = FleetGenerator(fleet_config)
        instance = gen.sample_instance(0)
        rng = np.random.default_rng(derive_seed(fleet_config.seed, "trace", instance.seed))
        templates = gen._build_templates(instance, DURATION, rng)
        scenario = InstanceScenario.realize(config, instance.seed, DURATION)
        churned = gen._apply_template_churn(templates, scenario, instance, DURATION)
        churnable = [t for t in templates if t.kind in (QueryKind.DASHBOARD, QueryKind.REPORT)]
        retired = [t for t in churnable if np.isfinite(t.end_day)]
        replacements = churned[len(templates) :]
        assert len(replacements) == len(retired) > 0
        for retiree, replacement in zip(retired, replacements):
            assert replacement.start_day == retiree.end_day
            assert replacement.kind == retiree.kind
            assert replacement.arrival_params == retiree.arrival_params
            assert replacement.template_id not in {t.template_id for t in templates}

        # and in the generated trace, no replacement arrives before the
        # earliest retirement
        first_new = min(r.arrival_time for r in trace if r.template_id in new_ids)
        assert first_new >= min(t.end_day for t in retired) * 86_400.0

    def test_seasonal_cycle_thins_toward_trough(self, baseline_trace):
        trace = make_trace(ScenarioConfig(seasonal_amplitude=0.8, seasonal_period_days=1.0))
        assert 0 < len(trace) < len(baseline_trace)
        # thinning only removes arrivals, never invents or moves them
        base_times = {r.arrival_time for r in baseline_trace}
        assert all(r.arrival_time in base_times for r in trace)

    def test_resize_shifts_latency_model_not_arrivals(self, baseline_trace):
        trace = make_trace(
            ScenarioConfig(
                resize_events_per_week=14.0,
                resize_factor_low=0.2,
                resize_factor_high=0.4,
            )
        )
        assert len(trace) == len(baseline_trace)
        for a, b in zip(baseline_trace, trace):
            assert a.arrival_time == b.arrival_time
            assert a.template_id == b.template_id
        assert any(a.exec_time != b.exec_time for a, b in zip(baseline_trace, trace))

    def test_analyze_outage_stretches_epochs(self, baseline_trace):
        trace = make_trace(ScenarioConfig(analyze_outages_per_week=21.0, analyze_outage_days=3.0))
        base_epochs = {r.plan_epoch for r in baseline_trace}
        outage_epochs = {r.plan_epoch for r in trace}
        assert len(outage_epochs) < len(base_epochs)

    def test_mutations_compose(self, baseline_trace):
        trace = make_trace(
            ScenarioConfig(
                burst_storms_per_week=30.0,
                churn_rate_per_week=3.0,
                analyze_outages_per_week=21.0,
                analyze_outage_days=3.0,
            )
        )
        assert len(trace) > 0
        assert {r.template_id for r in trace} - {r.template_id for r in baseline_trace}

    def test_scenario_trace_is_deterministic(self):
        config = ScenarioConfig(burst_storms_per_week=30.0, churn_rate_per_week=2.0)
        a, b = make_trace(config), make_trace(config)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.arrival_time == y.arrival_time
            assert x.exec_time == y.exec_time


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
class TestScenarioConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burst_storms_per_week": -1.0},
            {"burst_duration_hours": 0.0},
            {"burst_multiplier": 0.5},
            {"onboard_fraction": 1.5},
            {"onboard_window_fraction": 0.0},
            {"churn_rate_per_week": -0.1},
            {"seasonal_amplitude": 2.0},
            {"seasonal_period_days": 0.0},
            {"resize_events_per_week": -2.0},
            {"resize_factor_low": 0.0},
            {"resize_factor_low": 3.0, "resize_factor_high": 2.0},
            {"analyze_outages_per_week": -1.0},
            {"analyze_outage_days": 0.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    def test_is_null(self):
        assert ScenarioConfig().is_null
        assert not ScenarioConfig(burst_storms_per_week=1.0).is_null

    def test_invalid_duration_rejected(self):
        gen = FleetGenerator(FleetConfig(seed=SEED))
        with pytest.raises(ValueError, match="duration_days"):
            gen.generate_trace(gen.sample_instance(0), 0.0)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtin_matrix_is_at_least_six_scenarios(self):
        scenarios = registered_scenarios()
        assert len(scenarios) >= 6
        assert scenarios[0].name == "baseline"
        assert scenarios[0].config.is_null

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(Scenario("baseline", "dup"))

    def test_replace_registration(self):
        custom = Scenario("tmp_custom", "x", ScenarioConfig(seasonal_amplitude=0.5))
        try:
            register_scenario(custom)
            replacement = Scenario("tmp_custom", "y")
            assert register_scenario(replacement, replace=True) is replacement
            assert get_scenario("tmp_custom").description == "y"
        finally:
            _REGISTRY.pop("tmp_custom", None)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Scenario("has space", "x")


# ---------------------------------------------------------------------------
# every scenario through the service, and the sweeper's service hook
# ---------------------------------------------------------------------------
class TestScenarioParity:
    @pytest.mark.parametrize("scenario", registered_scenarios(), ids=lambda s: s.name)
    def test_bit_identical_via_service(self, scenario, assert_scenario_parity):
        """Every scenario's matrix fleet replays through a 3-client service
        at ``max_batch_size=7`` exactly as its direct reference."""
        backend = ReplayBackend(mode="service", clients=3, service=ServiceConfig(max_batch_size=7))
        assert_scenario_parity(scenario, backend=backend)

    def test_fleet_sweeper_via_service_matches_replay_instance(self, baseline_trace):
        """The sweeper's service hook is the same path replay_instance takes."""
        backend = ReplayBackend(mode="service", clients=2, service=ServiceConfig(max_batch_size=5))
        sweeper = FleetSweeper(
            fleet_config=FleetConfig(seed=SEED, volume_scale=VOLUME),
            stage_config=fast_profile(),
            backend=backend,
        )
        (got,) = sweeper.replay_traces([baseline_trace])
        want = replay_instance(baseline_trace, config=fast_profile(), backend=backend)
        assert_replays_identical(want, got)


# ---------------------------------------------------------------------------
# runner + reporting + CLI
# ---------------------------------------------------------------------------
class TestRunnerAndReport:
    def test_metrics_are_finite_and_consistent(self, scenario_references):
        result = ScenarioResult(get_scenario("baseline"), scenario_references["baseline"])
        m = result.metrics
        assert m["n_queries"] == sum(len(r) for r in result.replays)
        assert 0 <= m["cache_hit_rate"] <= 1
        assert np.isfinite(m["stage_mae"]) and np.isfinite(m["autowlm_mae"])

    def test_render_matrix_has_one_row_per_scenario(self, scenario_references, scenario_sweep):
        results = [
            ScenarioResult(get_scenario(name), replays)
            for name, replays in scenario_references.items()
        ]
        report = render_matrix(results, scenario_sweep)
        for name in scenario_references:
            assert name in report

    def test_matrix_header_names_service_backend(self, scenario_references, scenario_sweep):
        from dataclasses import replace

        results = [ScenarioResult(get_scenario("baseline"), scenario_references["baseline"])]
        assert "via_service=False" in render_matrix(results, scenario_sweep)
        served = replace(scenario_sweep, backend=ReplayBackend(mode="service", clients=2))
        assert "via_service=True" in render_matrix(results, served)

    def test_forecast_scored_run_fills_the_fc_columns(self, scenario_sweep):
        """A ``forecast_scored`` scenario's run carries the summary the
        matrix's fc-* columns render (scored at a small scale here; the
        committed scale is the scenario-matrix benchmark's)."""
        from dataclasses import replace

        small = replace(
            scenario_sweep, n_instances=1, forecast_duration_days=0.5, forecast_volume_scale=0.1
        )
        result = ScenarioRunner(small).run(get_scenario("seasonal_cycle"))
        assert all(np.isfinite(value) for value in result.forecast.values())
        row = render_matrix([result], small).splitlines()[-1]
        assert f"{result.forecast['hit_delta']:+.3f}" in row

    def test_cli_service_flags_build_one_backend(self, monkeypatch):
        from repro.scenarios import __main__ as cli

        seen = []

        class RecordingRunner:
            def __init__(self, config, scenarios=None):
                seen.append(config)

            def run_matrix(self):
                return []

        monkeypatch.setattr(cli, "ScenarioRunner", RecordingRunner)
        monkeypatch.setattr(cli, "render_matrix", lambda results, config: "")
        argv = ["--via-service", "--clients", "3", "--batch-size", "5", "--no-write"]
        assert cli.main(argv) == 0
        assert seen[-1].backend == ReplayBackend(
            mode="service", clients=3, service=ServiceConfig(max_batch_size=5)
        )
        assert cli.main(["--no-write"]) == 0
        assert seen[-1].backend == ReplayBackend()
        with pytest.raises(SystemExit):
            cli.main(["--clients", "3", "--no-write"])

    def test_runner_rejects_empty_matrix(self, scenario_sweep):
        with pytest.raises(ValueError, match="no scenarios"):
            ScenarioRunner(scenario_sweep, scenarios=())

    def test_cli_list_and_subset(self, capsys, tmp_path):
        from repro.scenarios.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for scenario in registered_scenarios():
            assert scenario.name in out

        out_path = tmp_path / "matrix.txt"
        rc = main(
            [
                "--scenarios",
                "baseline",
                "--instances",
                "1",
                "--duration-days",
                "1.0",
                "--volume-scale",
                "0.1",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        assert "baseline" in out_path.read_text()
