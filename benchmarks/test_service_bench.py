"""Perf: online serving throughput, micro-batched vs request-at-a-time.

Drives one :class:`~repro.service.PredictionService` with a generated
fleet trace through the serving bench's closed-loop driver (warmup with
feedback, then fused predict+observe traffic) and writes
``results/service_bench.txt``.  Request-at-a-time is the 1-client row:
a lone closed-loop client never has a second model-bound query pending,
so every batch holds one row.  The asserted floor mirrors the replay
benchmark's: 16 concurrent clients must buy at least 1.5x the 1-client
throughput.  That speedup is algorithmic — one ensemble invocation per
batch instead of per query — so it holds on any core count; the
recorded latency percentiles are machine-dependent context.
"""

from conftest import write_result

from repro.service import run_bench
from repro.service.bench import TIER_DEFAULTS

MIN_SPEEDUP = 1.5


def test_micro_batched_serving_speedup(results_dir):
    result = run_bench(TIER_DEFAULTS["service"])
    report = result.render()
    write_result(results_dir, "service_bench", report)
    print("\n" + report)

    rows = {row["clients"]: row for row in result.rows}
    sequential, batched = rows[1], rows[16]
    # a lone client forms single-row batches; concurrent clients really
    # batch (this is what buys the throughput)
    assert sequential["mean_batch"] == 1.0
    assert batched["mean_batch"] > 1.5
    assert result.predictions_identical
    speedup = batched["qps"] / sequential["qps"]
    assert speedup >= MIN_SPEEDUP, (
        f"16-client serving only {speedup:.2f}x the 1-client throughput "
        f"(expected >= {MIN_SPEEDUP}x)"
    )
