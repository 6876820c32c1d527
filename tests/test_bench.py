"""Tests for the serving bench: its closed-loop driver, grid and CLI.

:func:`~repro.service.bench.drive_closed_loop` is the one load driver
behind every tier's bench, so its sequencing and failure semantics are
pinned against an in-memory fake :class:`~repro.service.PredictorClient`:
record ``k``'s predict lands at ``base + 2k`` and its observe at
``base + 2k + 1`` for any client/in-flight count, and a failed predict
stops the sibling clients and fails the bench instead of reporting
throughput over partial traffic.  One tiny smoke run per tier checks the
grid, the parity verdict and the rendered rows, and the CLI test checks
that ``bench --tier`` flags reach the grid.  Runs under both fork and
spawn in CI's ``parallel-parity`` job (it starts gateway shards).
"""

import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.config import GatewayConfig, ReplayBackend, fast_profile
from repro.service import BenchConfig, run_bench, shared_client
from repro.service.__main__ import main
from repro.service.bench import drive_closed_loop

BASE = 40  # a warm backend: earlier traffic already claimed slots 0..39


def resolved(value):
    future = Future()
    future.set_result(value)
    return future


class FakeClient:
    """An in-memory :class:`PredictorClient`; predicts resolve to their seq."""

    def __init__(self, fail_instance=None, stall_instance=None):
        self.lock = threading.Lock()
        self.next_seq = {}
        self.predicts = {}  # (instance, seq) -> record
        self.observes = {}
        self.fail_instance = fail_instance
        self.stall_instance = stall_instance

    def reserve_sequence(self, instance_id, count):
        with self.lock:
            base = self.next_seq.get(instance_id, BASE)
            self.next_seq[instance_id] = base + count
        return base

    def predict_async(self, instance_id, record, seq=None):
        with self.lock:
            self.predicts[instance_id, seq] = record
        if instance_id == self.fail_instance:
            future = Future()
            future.set_exception(RuntimeError("injected predict failure"))
            return future
        if instance_id == self.stall_instance:
            return Future()  # never resolves
        return resolved(SimpleNamespace(prediction=SimpleNamespace(exec_time=float(seq))))

    def observe_async(self, instance_id, record, seq=None):
        with self.lock:
            self.observes[instance_id, seq] = record
        return resolved(None)

    def stats(self):
        return {}

    def close(self):
        pass


STREAMS = {
    "inst-a": [f"a-{k}" for k in range(13)],
    "inst-b": [f"b-{k}" for k in range(7)],
    "inst-c": [f"c-{k}" for k in range(10)],
}


class TestDriver:
    @pytest.mark.parametrize("n_clients,inflight", [(1, 1), (2, 4), (5, 3)])
    def test_ops_land_at_reserved_sequence_slots(self, n_clients, inflight):
        client = FakeClient()
        wall, latencies, predictions = drive_closed_loop(
            shared_client(client), STREAMS, n_clients, inflight, timeout=30.0
        )
        n_ops = sum(len(records) for records in STREAMS.values())
        assert wall > 0 and len(latencies) == n_ops
        for iid, records in STREAMS.items():
            assert predictions[iid] == [float(BASE + 2 * k) for k in range(len(records))]
            for k, record in enumerate(records):
                assert client.predicts[iid, BASE + 2 * k] == record
                assert client.observes[iid, BASE + 2 * k + 1] == record
        assert len(client.predicts) == len(client.observes) == n_ops

    def test_failed_predict_stops_siblings_and_fails_the_bench(self):
        # client 0 serves inst-a, whose predicts fail; client 1 serves
        # inst-b, whose predicts never resolve — it must be stopped, not
        # left to run out its timeout
        client = FakeClient(fail_instance="inst-a", stall_instance="inst-b")
        streams = {iid: STREAMS[iid] for iid in ("inst-a", "inst-b")}
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="injected predict failure"):
            drive_closed_loop(shared_client(client), streams, n_clients=2, inflight=1, timeout=60.0)
        assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# the bench grid, one tiny run per tier
# ---------------------------------------------------------------------------
TINY = BenchConfig(
    n_instances=2,
    duration_days=0.5,
    volume_scale=0.15,
    backends=(ReplayBackend(mode="gateway"),),
    client_counts=(2,),
    repeats=1,
    stage=fast_profile(),
)

GRIDS = {
    "service": replace(
        TINY, n_instances=1, backends=(ReplayBackend(mode="service"),), client_counts=(1, 2)
    ),
    "gateway": replace(
        TINY,
        backends=tuple(
            ReplayBackend(mode="gateway", gateway=GatewayConfig(n_shards=n)) for n in (1, 2)
        ),
    ),
    "socket": replace(
        TINY,
        backends=(ReplayBackend(mode="socket", gateway=GatewayConfig(n_shards=1)),),
        client_counts=(1, 2),
        inflight_counts=(4,),
    ),
}

#: what tells the rendered rows apart
LABELS = {
    "service": ["service ", "clients=1 ", "clients=2 "],
    "gateway": ["gateway shards=1 ", "gateway shards=2 "],
    "socket": ["socket shards=1 ", "clients=1 ", "clients=2 ", "inflight=4 "],
}


class TestBenchGrid:
    @pytest.mark.parametrize("tier", sorted(GRIDS))
    def test_bench_reports_grid_and_parity(self, tier):
        config = GRIDS[tier]
        result = run_bench(config)
        n_points = len(config.backends) * len(config.client_counts) * len(config.inflight_counts)
        assert len(result.rows) == n_points
        assert result.n_measured > 0
        assert all(row["qps"] > 0 for row in result.rows)
        assert result.predictions_identical
        report = result.render()
        for label in LABELS[tier]:
            assert label in report
        assert "bit-identical" in report

    @pytest.mark.parametrize(
        "overrides",
        [
            {"backends": (ReplayBackend(mode="direct"),)},
            {"backends": (ReplayBackend(mode="gateway", clients=2),)},
            {"backends": (ReplayBackend(mode="service"),), "n_instances": 2},
        ],
        ids=["direct", "backend-clients", "service-two-instances"],
    )
    def test_invalid_grid_rejected(self, overrides):
        with pytest.raises(ValueError):
            replace(TINY, **overrides)


def test_cli_bench_flags_reach_the_grid(tmp_path, capsys):
    out = tmp_path / "reports" / "wire_bench.txt"
    argv = ["bench", "--tier", "socket", "--instances", "2", "--duration-days", "0.4"]
    argv += ["--volume-scale", "0.1", "--shards", "1", "2", "--clients", "2"]
    argv += ["--inflight", "3", "--out", str(out)]
    assert main(argv) == 0
    report = out.read_text()
    assert report == capsys.readouterr().out.split("\n\nwrote ")[0] + "\n"
    rows = report.strip().splitlines()[1:-1]
    assert len(rows) == 2
    for row, n_shards in zip(rows, (1, 2)):
        assert row.startswith(f"socket shards={n_shards} ")
        assert "clients=2 " in row and "inflight=3 " in row
    assert "bit-identical" in report
