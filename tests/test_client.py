"""Tests for the unified predictor-client protocol and its replay driver.

:func:`~repro.service.replay_trace_via_client` is the one replay driver
every serving tier runs through, so its sequencing and failure
semantics are pinned here against an in-memory fake client: query
``i``'s predict lands at ``base + 2i`` and its observe at
``base + 2i + 1`` for any client count; a failed *submission* (which
leaves a sequence gap) becomes an explicit "gap" error that stops the
sibling workers; a failed *response* propagates unchanged.  Every real
tier — service, gateway, wire client — must satisfy the
:class:`~repro.service.PredictorClient` protocol.  Runs under both fork
and spawn in CI's ``parallel-parity`` job (it starts a gateway and a
wire server).
"""

import contextlib
import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.core.config import GatewayConfig, WireConfig, fast_profile
from repro.service import (
    FleetGateway,
    PredictionService,
    PredictorClient,
    WireClient,
    WireServer,
    replay_trace_via_client,
    shared_client,
)
from repro.workload import FleetConfig, FleetGenerator

INSTANCE_ID = "inst-fake"
BASE = 40  # a warm backend: earlier traffic already claimed slots 0..39


class FakeTrace(list):
    """The slice of :class:`~repro.workload.trace.Trace` the driver uses."""

    def __init__(self, n):
        super().__init__(f"record-{i}" for i in range(n))
        self.instance = SimpleNamespace(instance_id=INSTANCE_ID)


def resolved(value):
    future = Future()
    future.set_result(value)
    return future


class FakeClient:
    """An in-memory :class:`PredictorClient` recording every submission."""

    def __init__(self, base=BASE):
        self.lock = threading.Lock()
        self.next_seq = base
        self.predicts = {}  # seq -> record
        self.observes = {}
        self.hooks = {}  # seq -> callable run on submission

    def reserve_sequence(self, instance_id, count):
        assert instance_id == INSTANCE_ID
        with self.lock:
            base = self.next_seq
            self.next_seq += count
        return base

    def _submit(self, table, instance_id, record, seq):
        assert instance_id == INSTANCE_ID
        hook = self.hooks.get(seq)
        if hook is not None:
            return hook(record)
        with self.lock:
            assert seq not in table, f"slot {seq} submitted twice"
            table[seq] = record
        return resolved(("routed", record))

    def predict_async(self, instance_id, record, seq=None):
        return self._submit(self.predicts, instance_id, record, seq)

    def observe_async(self, instance_id, record, seq=None):
        return self._submit(self.observes, instance_id, record, seq)

    def stats(self):
        return {}

    def close(self):
        pass


def counting_factory(client):
    """A per-caller factory over one fake client that tracks open scopes."""
    scopes = {"opened": 0, "closed": 0}

    @contextlib.contextmanager
    def factory():
        scopes["opened"] += 1
        try:
            yield client
        finally:
            scopes["closed"] += 1

    return factory, scopes


class TestReplayDriver:
    @pytest.mark.parametrize("n_clients", [1, 2, 3])
    def test_ops_land_at_reserved_sequence_slots(self, n_clients):
        trace = FakeTrace(17)
        client = FakeClient()
        factory, scopes = counting_factory(client)
        components = replay_trace_via_client(factory, trace, n_clients=n_clients)
        assert components == [("routed", record) for record in trace]
        assert client.predicts == {BASE + 2 * i: r for i, r in enumerate(trace)}
        assert client.observes == {BASE + 2 * i + 1: r for i, r in enumerate(trace)}
        assert client.next_seq == BASE + 2 * len(trace)  # one reservation
        # one admin scope for the reservation plus one per worker, all closed
        assert scopes == {"opened": n_clients + 1, "closed": n_clients + 1}

    def test_submit_failure_reports_gap_and_stops_siblings(self):
        n_clients = 3
        trace = FakeTrace(300)
        client = FakeClient()
        failed = threading.Event()
        injected = ConnectionError("injected submit failure")

        def fail(record):
            failed.set()
            raise injected

        def wait_for_failure(record):
            # siblings submit their first op only after the failure, so
            # the abort flag is what ends them, not the trace running out
            assert failed.wait(10.0)
            time.sleep(0.05)
            return resolved(("routed", record))

        client.hooks[BASE] = fail  # worker 0's first predict
        client.hooks[BASE + 2] = wait_for_failure  # worker 1's first predict
        client.hooks[BASE + 4] = wait_for_failure  # worker 2's first predict
        with pytest.raises(RuntimeError, match="gap") as err:
            replay_trace_via_client(shared_client(client), trace, n_clients=n_clients)
        assert err.value.__cause__ is injected
        # each sibling stopped after at most its one in-flight pair
        assert len(client.predicts) <= n_clients
        assert len(client.observes) <= n_clients

    def test_response_failure_propagates_unchanged(self):
        trace = FakeTrace(9)
        client = FakeClient()
        injected = ValueError("injected response failure")

        def failing_response(record):
            future = Future()
            future.set_exception(injected)
            return future

        client.hooks[BASE + 2 * 4 + 1] = failing_response  # query 4's observe
        for n_clients in (1, 2):
            client.next_seq = BASE
            client.predicts.clear()
            client.observes.clear()
            with pytest.raises(ValueError) as err:
                replay_trace_via_client(shared_client(client), trace, n_clients=n_clients)
            assert err.value is injected


class TestProtocolConformance:
    def test_fake_client_satisfies_protocol(self):
        assert isinstance(FakeClient(), PredictorClient)

    def test_every_tier_is_a_predictor_client(self):
        gen = FleetGenerator(FleetConfig(seed=3, volume_scale=0.1))
        instance = gen.sample_instance(0)
        with PredictionService(instance, stage_config=fast_profile()) as service:
            assert isinstance(service, PredictorClient)
        gateway = FleetGateway(GatewayConfig(n_shards=1), stage_config=fast_profile())
        server = WireServer(gateway, WireConfig())
        try:
            assert isinstance(gateway, PredictorClient)
            host, port = server.start()
            with WireClient(host, port, name="protocol-check") as client:
                assert isinstance(client, PredictorClient)
        finally:
            server.close()
            gateway.close()
