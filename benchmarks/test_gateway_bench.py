"""Perf: fleet-gateway serving, swept over a shards x clients grid.

Stands a small fleet of instances up behind one
:class:`~repro.service.FleetGateway` per grid point and measures fused
predict+observe fleet traffic at every (shards, clients) point, writing
``results/gateway_bench.txt``.  The numbers are machine-dependent
timing context (the file is exempt from CI's results-drift gate, like
``service_bench.txt``); what is *asserted* is the part that must hold
anywhere:

- the gateway determinism contract — every grid point serves
  bit-identical predictions for the measured traffic (checked inside
  :func:`~repro.service.run_bench` itself);
- the sweep ran the full grid end-to-end;
- a throughput floor: sharding must not collapse the gateway's
  throughput relative to the single-service (``shards=1``) baseline at
  the same client count.  The floor is a noise tolerance, not a
  speedup claim: it exists to catch structural regressions like a
  serialized transport.

The grid here is scaled down; the CLI
(``python -m repro.service bench --tier gateway``) runs the full
default grid.
"""

from dataclasses import replace

from conftest import write_result

from repro.core.config import fast_profile
from repro.service import run_bench
from repro.service.bench import TIER_DEFAULTS

DEFAULTS = TIER_DEFAULTS["gateway"]
#: shards (1, 2) x clients (2, 8), median of 3 interleaved repeats
BENCH = replace(
    DEFAULTS,
    n_instances=4,
    backends=tuple(b for b in DEFAULTS.backends if b.gateway.n_shards in (1, 2)),
    client_counts=(2, 8),
    stage=fast_profile(),
)

#: sharded throughput may not fall below this fraction of the
#: single-shard baseline at the same client count — headroom for
#: run-to-run timing noise; the pre-overhaul deficit this guards
#: against measured ~0.6x
FLOOR_FRACTION = 0.7


def test_gateway_grid_serves_bit_identically(results_dir):
    result = run_bench(BENCH)
    report = result.render()
    write_result(results_dir, "gateway_bench", report)
    print("\n" + report)

    assert len(result.rows) == len(BENCH.backends) * len(BENCH.client_counts)
    assert result.n_measured > 0
    assert all(row["qps"] > 0 for row in result.rows)
    # the fleet determinism contract, verified while benchmarking
    assert result.predictions_identical

    # throughput floor: sharding must never collapse vs the shards=1
    # baseline at the same client count
    baseline = {row["clients"]: row["qps"] for row in result.rows if row["shards"] == 1}
    for row in result.rows:
        if row["shards"] == 1:
            continue
        floor = FLOOR_FRACTION * baseline[row["clients"]]
        assert row["qps"] >= floor, (
            f"shards={row['shards']} clients={row['clients']} "
            f"reached only {row['qps']:.0f} q/s — below {floor:.0f} "
            f"({FLOOR_FRACTION:.0%} of the single-shard baseline)"
        )
