"""Stress scenarios: how workload mutations move the predictor's dials.

The scenario engine composes the failure modes the paper's robustness
story is about — flash-crowd burst storms, template churn, ANALYZE
outages, instance resizes — as declarative, per-instance-seeded
mutations over the synthetic fleet.  This example runs a three-scenario
slice of the built-in matrix (direct path *and* through the online
PredictionService, which must agree bit-for-bit), then registers a
custom composite "black friday" scenario: a burst storm during an
ANALYZE outage on a freshly resized cluster.

Run:  python examples/scenario_stress.py
"""

from dataclasses import replace

import numpy as np

from repro.core.config import ReplayBackend
from repro.scenarios import (
    Scenario,
    ScenarioConfig,
    ScenarioRunner,
    ScenarioSweepConfig,
    get_scenario,
    register_scenario,
    render_matrix,
)

SWEEP = ScenarioSweepConfig(seed=23, n_instances=2, duration_days=1.0, volume_scale=0.15)


def main() -> None:
    scenarios = [get_scenario(name) for name in ("baseline", "burst_storm", "template_churn")]

    print("replaying a 3-scenario slice of the built-in matrix...\n")
    results = ScenarioRunner(SWEEP, scenarios=scenarios).run_matrix()
    print(render_matrix(results, SWEEP))

    print("\nre-running through the online PredictionService (3 clients)...")
    served = ScenarioRunner(
        replace(SWEEP, backend=ReplayBackend(mode="service", clients=3)), scenarios=scenarios
    ).run_matrix()
    for direct_result, served_result in zip(results, served):
        for a, b in zip(direct_result.replays, served_result.replays):
            assert np.array_equal(a.stage_pred, b.stage_pred)
            assert a.stage_stats == b.stage_stats
    print("direct and serving paths agree bit-for-bit on every scenario.")

    # A custom scenario is one register_scenario call; the parity suites
    # in tests/test_scenarios.py pick it up automatically if registered
    # at import time.
    black_friday = register_scenario(
        Scenario(
            "black_friday",
            "burst storm during an ANALYZE outage on a resized cluster",
            ScenarioConfig(
                burst_storms_per_week=21.0,
                burst_multiplier=10.0,
                analyze_outages_per_week=7.0,
                analyze_outage_days=3.0,
                resize_events_per_week=7.0,
                resize_factor_low=1.5,
                resize_factor_high=3.0,
            ),
        )
    )
    print("\nregistered a custom composite scenario; replaying it...\n")
    composite = ScenarioRunner(SWEEP, scenarios=[scenarios[0], black_friday]).run_matrix()
    print(render_matrix(composite, SWEEP))

    base_m = composite[0].metrics
    bf_m = composite[1].metrics
    print(
        f"\nblack friday vs baseline: {bf_m['n_queries'] / base_m['n_queries']:.1f}x "
        f"the queries, hit rate {base_m['cache_hit_rate']:.2f} -> "
        f"{bf_m['cache_hit_rate']:.2f}, Stage still "
        f"{bf_m['improvement']:+.0%} vs AutoWLM"
    )


if __name__ == "__main__":
    main()
