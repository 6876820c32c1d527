"""The backend-parity matrix: every registered scenario on every serving tier.

The bit-parity contract says a replay's results depend only on each
instance's sequenced op stream, so no serving tier may change a single
bit: not process fan-out, not micro-batching, not shard placement, not
the socket, not a reshard in the middle of the replay.  Each registered
scenario is replayed directly once per session (``scenario_references``
in ``conftest.py``: seed 5, volume 0.1, 2 instances x 1 day, under
``fast_profile()`` with the local model's ``min_train_size=10`` and
``retrain_interval=60``, an uncertainty threshold of 0.8, and one
small global model that answers the cold-start misses and the uncertain
local answers), and every row below must reproduce those replays
exactly: arrays and ``stage_stats`` accounting.  The service
tier's rows live beside the service and scenario suites, at the two knob
settings those suites pin: ``test_service.py::TestScenarioServingParity``
(2 clients, ``max_batch_size=6``) and
``test_scenarios.py::TestScenarioParity::test_bit_identical_via_service``
(3 clients, ``max_batch_size=7``), through the same
``assert_scenario_parity`` fixture.

Rows rotate their knobs by scenario index so the matrix covers every
shard count in {1, 2, 3} and client count in {1, 2} without running
every scenario at every grid point.  New scenarios are covered
automatically: the parametrization reads the registry.
"""

import time

import numpy as np
import pytest

from repro.core.config import GatewayConfig, ReplayBackend
from repro.scenarios import registered_scenarios

SCENARIOS = registered_scenarios()


def _fleet_backend(mode, index):
    return ReplayBackend(
        mode=mode, clients=index % 2 + 1, gateway=GatewayConfig(n_shards=index % 3 + 1)
    )


def reshard_hook(n_shards):
    """A hook that exercises every control-plane motion mid-replay:
    grow by one shard (rehash), migrate one instance off its canonical
    shard, then shrink back to the original count (rehash again)."""

    def hook(gateway):
        time.sleep(0.05)  # let some of the replay stream get in flight
        gateway.resize(n_shards + 1)
        routes = gateway.routes()
        instance_id = sorted(routes["assignments"])[0]
        source = routes["assignments"][instance_id]
        gateway.migrate_instance(instance_id, (source + 1) % (n_shards + 1))
        time.sleep(0.05)
        gateway.resize(n_shards)

    return hook


#: each row: scenario index -> the sweeper knobs that pick its tier
ROWS = {
    "n_jobs2": lambda i: {"n_jobs": 2},
    "gateway": lambda i: {"backend": _fleet_backend("gateway", i)},
    "socket": lambda i: {"backend": _fleet_backend("socket", i)},
    "gateway_reshard": lambda i: {
        "backend": _fleet_backend("gateway", i),
        "reshard_hook": reshard_hook(i % 3 + 1),
        "n_jobs": 2,
    },
}


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("index", range(len(SCENARIOS)), ids=[s.name for s in SCENARIOS])
def test_tier_matches_direct(index, row, assert_scenario_parity):
    assert_scenario_parity(SCENARIOS[index], **ROWS[row](index))


def test_references_exercise_cache_and_ensemble(scenario_references):
    """Every reference hits the cache, retrains the local ensemble,
    routes predicts to it and routes predicts to the global model, so
    no row can pass as a check of only some routes."""
    starved = {}
    for name, replays in scenario_references.items():
        counts = {
            "cache_hits": sum(r.stage_stats["cache_hits"] for r in replays),
            "local": sum(r.stage_stats["source_counts"]["local"] for r in replays),
            "global": sum(r.stage_stats["source_counts"]["global"] for r in replays),
            "n_local_retrains": sum(r.stage_stats["n_local_retrains"] for r in replays),
        }
        if min(counts.values()) < 1:
            starved[name] = counts
    assert not starved, f"scenarios whose reference skips a route: {starved}"


def test_global_column_is_the_routed_answer(scenario_references):
    """Wherever Stage routed a query to the global model, the replay's
    global column reports that same answer, bit for bit: point, lower
    and upper bound."""
    pairs = (
        ("stage_pred", "global_pred"),
        ("stage_interval_low", "global_interval_low"),
        ("stage_interval_high", "global_interval_high"),
    )
    differing = {}
    for name, replays in scenario_references.items():
        for replay in replays:
            routed = replay.stage_source == "global"
            for stage, glob in pairs:
                got = getattr(replay, glob)[routed]
                want = getattr(replay, stage)[routed]
                n_off = int((got.view(np.int64) != want.view(np.int64)).sum())
                if n_off:
                    key = (name, replay.instance_id, glob)
                    differing[key] = f"{n_off} of {int(routed.sum())}"
    assert not differing, differing


def test_matrix_escalates_uncertain_local_answers(scenario_references):
    """The flush's global fallback (an uncertain local answer sent to
    the global model) runs in the references, so every row checks it."""
    escalated = {
        name: sum(int(((r.stage_source == "global") & r.uncertain).sum()) for r in replays)
        for name, replays in scenario_references.items()
    }
    assert sum(escalated.values()) >= 1, escalated
