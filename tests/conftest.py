"""Shared test configuration: hypothesis profiles and the shared fleets.

The property suite (``tests/test_properties.py``) runs under a
fixed-seed profile by default so CI and local runs explore the same
examples — shrink-churn or flaky example discovery can never make the
suite green on one machine and red on another.  Set
``REPRO_HYPOTHESIS_PROFILE=dev`` for randomized exploration (more
examples, fresh seeds every run) when hunting for new counterexamples.

Two fleets are shared session-wide, each replayed directly once:

* the *tier fleet* (``fleet_config``, ``traces``, ``direct_replays``,
  ``make_sweeper``): three small instances the gateway, wire, control
  and gateway-fault suites serve, reshard and break;
* the *scenario matrix* (``scenario_sweep``, ``matrix_global_model``,
  ``scenario_sweeper``, ``scenario_references``,
  ``assert_scenario_parity``): every registered scenario over one
  shared fleet, served with one small global model, the reference every
  row of ``tests/test_backend_parity.py``, the two service-tier scenario
  checks and the scenario report tests compare against.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import settings

from repro.core.config import GlobalModelConfig, fast_profile
from repro.global_model import GlobalModelTrainer
from repro.harness import FleetSweeper
from repro.scenarios import ScenarioRunner, ScenarioSweepConfig, registered_scenarios
from repro.workload import FleetConfig, FleetGenerator

from replay_parity import assert_replays_identical

settings.register_profile("ci", derandomize=True, max_examples=30, deadline=None)
settings.register_profile("dev", max_examples=75, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

#: the tier fleet (3 instances x 0.7 days)
FLEET = FleetConfig(seed=3, volume_scale=0.1)

#: the scenario matrix (2 instances x 1 day per scenario).  At this
#: scale an instance sees a few dozen cache misses, so the fast
#: profile's local-model thresholds (min_train_size=30,
#: retrain_interval=150) never train the ensemble in five of the seven
#: built-in scenarios and the matrix would check the cache alone; at
#: 10 / 60 every scenario retrains and routes predicts to the ensemble.
#: At the fast profile's uncertainty threshold (1.5) no ensemble answer
#: escalates to the global model; at 0.8 six of the seven scenarios
#: send an uncertain local answer to the global model at the flush.
_FAST = fast_profile()
SCENARIO_SWEEP = ScenarioSweepConfig(
    seed=5,
    n_instances=2,
    duration_days=1.0,
    volume_scale=0.1,
    stage=replace(
        _FAST,
        local=replace(_FAST.local, min_train_size=10, retrain_interval=60),
        uncertainty_threshold=0.8,
    ),
)
#: the matrix's global model: trained on 3 instances outside the matrix
#: fleet, small enough to train in well under a second; it answers every
#: cold-start miss, so every tier ships it to its shards and routes to it
MATRIX_GLOBAL_FLEET = FleetConfig(seed=5, volume_scale=0.2)
MATRIX_GLOBAL = GlobalModelConfig(
    hidden_dim=24, n_conv_layers=2, epochs=2, max_queries_per_instance=80
)


@pytest.fixture(scope="session")
def make_sweeper():
    """A ``FleetSweeper`` factory; the tier fleet and ``fast_profile()``
    unless ``fleet_config`` / ``stage_config`` say otherwise."""

    def make(**kwargs):
        kwargs.setdefault("fleet_config", FLEET)
        kwargs.setdefault("stage_config", fast_profile())
        return FleetSweeper(random_state=0, **kwargs)

    return make


@pytest.fixture(scope="session")
def fleet_config():
    return FLEET


@pytest.fixture(scope="session")
def traces():
    gen = FleetGenerator(FLEET)
    return [gen.generate_trace(gen.sample_instance(i), 0.7) for i in range(3)]


@pytest.fixture(scope="session")
def direct_replays(traces, make_sweeper):
    return make_sweeper().replay_traces(traces)


@pytest.fixture(scope="session")
def scenario_sweep():
    return SCENARIO_SWEEP


@pytest.fixture(scope="session")
def matrix_global_model():
    gen = FleetGenerator(MATRIX_GLOBAL_FLEET)
    train = gen.generate_fleet_traces(3, 1.0, start_index=40)
    return GlobalModelTrainer(MATRIX_GLOBAL).train(train)


@pytest.fixture(scope="session")
def scenario_sweeper(make_sweeper, matrix_global_model):
    """``scenario_sweeper(scenario, **kwargs)``: a sweeper over the
    scenario's matrix fleet and the matrix global model; ``kwargs``
    pick the tier (``backend``, ``n_jobs``, ``reshard_hook``)."""
    runner = ScenarioRunner(SCENARIO_SWEEP)

    def make(scenario, **kwargs):
        return make_sweeper(
            fleet_config=runner.fleet_config(scenario),
            stage_config=SCENARIO_SWEEP.stage,
            global_model=matrix_global_model,
            **kwargs,
        )

    return make


@pytest.fixture(scope="session")
def scenario_references(scenario_sweeper):
    """Every registered scenario replayed directly, once per session
    (no forecast scoring: only the replays are compared)."""
    return {
        scenario.name: scenario_sweeper(scenario).replay_indices(
            range(SCENARIO_SWEEP.n_instances), SCENARIO_SWEEP.duration_days
        )
        for scenario in registered_scenarios()
    }


@pytest.fixture(scope="session")
def assert_scenario_parity(scenario_sweeper, scenario_references):
    """``assert_scenario_parity(scenario, **kwargs)``: replay the
    scenario's matrix fleet on the tier ``kwargs`` pick and assert it
    reproduces the scenario's direct reference exactly."""

    def check(scenario, **kwargs):
        via = scenario_sweeper(scenario, **kwargs).replay_indices(
            range(SCENARIO_SWEEP.n_instances), SCENARIO_SWEEP.duration_days
        )
        want = scenario_references[scenario.name]
        assert len(via) == len(want)
        for a, b in zip(want, via):
            assert_replays_identical(a, b)

    return check
