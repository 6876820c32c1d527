"""Tests for the asyncio wire-protocol front door.

The headline contract extends fleet bit-parity one layer further out:
socket replays — real TCP connections against a :class:`WireServer`
fronting a sharded :class:`FleetGateway` — produce arrays AND
cache/counter accounting identical to direct, service and gateway
replays of the shared tier fleet, for any shard/connection count (the
accounting is fetched over the wire too, so the whole parity check
round-trips the socket).  Every registered scenario's socket parity is
a row of the backend-parity matrix (``tests/test_backend_parity.py``).
On top of that: session lifecycle (HELLO handshake, idle timeout that
spares busy sessions, GOODBYE, dirty-disconnect containment), raw-socket
protocol robustness (bad magic/version, truncated and oversized frames,
malformed payloads, unknown ops), per-burst ingress (the frame splitter
both ends share, bursts ended by control ops, envelopes per burst, a
burst that never waits on its own held ops) and RETRY_AFTER admission
control — a saturated shard queue backs the client off without dropping
its connection.  Runs under both fork and spawn in CI's ``parallel-parity``
job.
"""

import asyncio
import contextlib
import json
import pickle
import socket
import struct
import threading
import time

import pytest

# the one replay-parity check every parity suite shares
from replay_parity import assert_replays_identical

from repro.core.config import (
    GatewayConfig,
    ReplayBackend,
    ServiceConfig,
    WireConfig,
    fast_profile,
)
from repro.harness import replay_instance
from repro.service import (
    FleetGateway,
    GatewayBackpressureError,
    WireClient,
    WireError,
    WireServer,
    shard_for,
)
from repro.service import wire as wire_mod
from repro.service.wire import (
    MAGIC,
    PROTOCOL_VERSION,
    encode_frame,
    split_frames,
)


def socket_backend(n_shards=2, clients=1, **kwargs):
    return ReplayBackend(
        mode="socket", clients=clients, gateway=GatewayConfig(n_shards=n_shards), **kwargs
    )


@contextlib.contextmanager
def served(traces, gateway_config=None, wire_config=None):
    """A registered fleet behind a live wire server on an ephemeral port."""
    gateway = FleetGateway(
        gateway_config or GatewayConfig(n_shards=2), stage_config=fast_profile()
    )
    server = WireServer(gateway, wire_config or WireConfig())
    try:
        for trace in traces:
            gateway.register_instance(trace.instance)
        address = server.start()
        yield gateway, address
    finally:
        server.close()
        gateway.close()


def wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# fleet bit-parity over real sockets
# ---------------------------------------------------------------------------
class TestSocketParity:
    @pytest.mark.parametrize("n_shards,n_connections", [(1, 1), (2, 2), (3, 3), (2, 4)])
    def test_bit_identical_for_any_shards_and_connections(
        self, traces, direct_replays, make_sweeper, n_shards, n_connections
    ):
        via = make_sweeper(
            backend=socket_backend(n_shards, n_connections, service=ServiceConfig(max_batch_size=7))
        ).replay_traces(traces)
        for direct, replay in zip(direct_replays, via):
            assert_replays_identical(direct, replay)

    def test_concurrent_instance_submitters_bit_identical(
        self, traces, direct_replays, make_sweeper
    ):
        """n_jobs > 1 replays several instances' streams over concurrent
        TCP connections at once; reserved sequence ranges keep every
        interleaving bit-identical."""
        via = make_sweeper(backend=socket_backend(2, 2), n_jobs=3).replay_traces(traces)
        for direct, replay in zip(direct_replays, via):
            assert_replays_identical(direct, replay)

    def test_replay_instance_via_socket(self, traces, direct_replays):
        via = replay_instance(traces[0], config=fast_profile(), backend=socket_backend(3, 3))
        assert_replays_identical(direct_replays[0], via)


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------
class TestSessionLifecycle:
    def test_hello_predict_stats_roundtrip(self, traces):
        with served(traces) as (gateway, (host, port)):
            with WireClient(host, port, name="lifecycle") as client:
                info = client.session_info
                assert info["protocol_version"] == PROTOCOL_VERSION
                assert info["session_id"] >= 1
                assert client.ping() >= 0.0
                trace = traces[0]
                instance_id = trace.instance.instance_id
                components = client.predict_components(instance_id, trace[0])
                assert components.prediction.exec_time >= 0.0
                assert components.prediction.interval_low <= components.prediction.exec_time
                client.observe(instance_id, trace[0])
                gateway.drain()
                stats = client.stats()
                assert stats["gateway"]["fleet"]["n_predicts"] == 1
                mine = stats["wire"]["sessions"][info["session_id"]]
                assert mine["client_name"] == "lifecycle"
                assert mine["predicts"] == 1
                assert mine["observes"] == 1
                assert mine["pings"] == 1
                assert mine["errors"] == 0

    def test_idle_timeout_closes_idle_session(self, traces):
        with served(traces, wire_config=WireConfig(idle_timeout_s=0.3)) as (
            _,
            (host, port),
        ):
            client = WireClient(host, port, name="idler")
            try:
                assert client.ping() >= 0.0
                time.sleep(1.2)  # well past the idle budget, nothing in flight
                with pytest.raises(WireError) as err:
                    client.ping()
                assert err.value.code == wire_mod.E_IDLE_TIMEOUT
            finally:
                client.close()

    def test_idle_timeout_spares_sessions_with_ops_in_flight(self, traces):
        """A quiet client whose prediction is stuck behind a busy shard
        is not idle: the timeout only fires with nothing in flight."""
        with served(traces, wire_config=WireConfig(idle_timeout_s=0.5)) as (
            gateway,
            (host, port),
        ):
            trace = traces[0]
            instance_id = trace.instance.instance_id
            with WireClient(host, port, name="patient") as client:
                gateway._stall(shard_for(instance_id, 2), 1.2)
                future = client.predict_async(instance_id, trace[0])
                # the stall spans >2 idle budgets; the session must ride
                # it out and still answer once the shard wakes up (the
                # ping lands mid-window — 1.2s is not a multiple of 0.5)
                assert future.result(timeout=60).prediction.exec_time >= 0.0
                assert client.ping() >= 0.0

    def test_dirty_disconnect_contained_to_that_session(self, traces):
        """Killing a connection mid-flight fails only that session's
        outstanding futures; the server, the gateway and every other
        session keep serving."""
        with served(traces) as (gateway, (host, port)):
            survivor = WireClient(host, port, name="survivor")
            victim = WireClient(host, port, name="victim")
            try:
                trace = traces[0]
                instance_id = trace.instance.instance_id
                gateway._stall(shard_for(instance_id, 2), 1.0)
                stranded = victim.predict_async(instance_id, trace[0])
                victim.abort()  # hard TCP drop: no GOODBYE, no flush
                with pytest.raises((ConnectionError, RuntimeError)):
                    stranded.result(timeout=30)
                # the server reaps exactly the dead session
                wait_for(
                    lambda: survivor.stats()["wire"]["n_sessions"] == 1,
                    message="victim session reaped",
                )
                # the survivor and the fleet are untouched — including
                # the shard the victim's op was queued on
                prediction = survivor.predict(instance_id, trace[1], timeout=60)
                assert prediction.exec_time >= 0.0
                gateway.drain()
            finally:
                survivor.close()

    def test_goodbye_closes_cleanly_and_server_keeps_serving(self, traces):
        with served(traces) as (_, (host, port)):
            first = WireClient(host, port, name="first")
            assert first.ping() >= 0.0
            first.close()  # GOODBYE handshake
            with WireClient(host, port, name="second") as second:
                wait_for(
                    lambda: second.stats()["wire"]["n_sessions"] == 1,
                    message="first session reaped",
                )
                assert second.ping() >= 0.0


# ---------------------------------------------------------------------------
# protocol robustness, straight over raw sockets
# ---------------------------------------------------------------------------
def _recv_frame(sock):
    def read_exact(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        return buf

    (length,) = struct.unpack("!I", read_exact(4))
    body = read_exact(length)
    op, request_id = struct.unpack_from("!BI", body)
    return op, request_id, body[5:]


def _expect_eof(sock):
    sock.settimeout(10.0)
    try:
        assert sock.recv(1) == b""
    except (ConnectionError, OSError):
        pass  # an RST says "closed" just as clearly as a FIN


def _hello(sock, name=b"raw-test"):
    payload = struct.pack("!4sH", MAGIC, PROTOCOL_VERSION) + name
    sock.sendall(encode_frame(wire_mod.OP_HELLO, 1, payload))
    op, request_id, body = _recv_frame(sock)
    assert op == wire_mod.OP_RESULT and request_id == 1
    return json.loads(body)


def _recv_until_eof(sock):
    """Every frame the server sends before it closes the connection."""
    frames = []
    with contextlib.suppress(ConnectionError):
        while True:
            frames.append(_recv_frame(sock))
    return frames


def _instance_frame(op, request_id, instance_id, record):
    return encode_frame(op, request_id, pickle.dumps((instance_id, record, None)))


# ---------------------------------------------------------------------------
# the frame splitter both ends parse with
# ---------------------------------------------------------------------------
_SPLIT_MAX = 4096


def _sample_frames():
    return [
        (wire_mod.OP_PING, 1, b""),
        (wire_mod.OP_PREDICT, 2, bytes(range(256)) * 3),
        (wire_mod.OP_RESULT, 0xFFFFFFFF, b"x"),
        (wire_mod.OP_STATS, 4, b""),
        (wire_mod.OP_OBSERVE, 5, b"\x00" * (_SPLIT_MAX - 5)),  # exactly the cap
    ]


def _feed(pieces):
    """Run ``split_frames`` over a stream arriving in ``pieces``."""
    buf, out = bytearray(), []
    for piece in pieces:
        buf += piece
        frames, used = split_frames(buf, _SPLIT_MAX)
        del buf[:used]
        out.extend(frames)
    return out, bytes(buf)


class TestFrameSplitter:
    def test_every_cut_point_yields_the_same_frames(self):
        want = _sample_frames()
        stream = b"".join(encode_frame(*frame) for frame in want)
        for cut in range(len(stream) + 1):
            got, rest = _feed([stream[:cut], stream[cut:]])
            assert got == want, f"cut at byte {cut}"
            assert rest == b""

    def test_byte_at_a_time_yields_the_same_frames(self):
        want = _sample_frames()
        stream = b"".join(encode_frame(*frame) for frame in want)
        got, rest = _feed([stream[i : i + 1] for i in range(len(stream))])
        assert got == want and rest == b""

    def test_partial_frame_is_left_for_the_next_read(self):
        whole = encode_frame(wire_mod.OP_PING, 1)
        partial_frame = encode_frame(wire_mod.OP_PING, 2, b"abc")[:-1]
        frames, used = split_frames(whole + partial_frame, _SPLIT_MAX)
        assert frames == [(wire_mod.OP_PING, 1, b"")]
        assert used == len(whole)

    @pytest.mark.parametrize(
        "length,code",
        [
            (_SPLIT_MAX + 1, wire_mod.E_TOO_LARGE),
            (1 << 30, wire_mod.E_TOO_LARGE),
            (4, wire_mod.E_MALFORMED),
        ],
        ids=["one-past-cap", "huge", "shorter-than-header"],
    )
    def test_bad_length_prefix_refused_before_its_body(self, length, code):
        # the bare prefix is enough: no body byte has to be buffered
        with pytest.raises(wire_mod._ProtocolError) as err:
            split_frames(struct.pack("!I", length), _SPLIT_MAX)
        assert err.value.code == code

    def test_frames_ahead_of_a_bad_prefix_come_out_first(self):
        good = encode_frame(wire_mod.OP_PING, 1)
        stream = good + struct.pack("!I", _SPLIT_MAX + 1)
        frames, used = split_frames(stream, _SPLIT_MAX)
        assert frames == [(wire_mod.OP_PING, 1, b"")] and used == len(good)
        with pytest.raises(wire_mod._ProtocolError) as err:
            split_frames(stream[used:], _SPLIT_MAX)
        assert err.value.code == wire_mod.E_TOO_LARGE


class TestProtocolRobustness:
    def test_bad_magic_refused_with_structured_error(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                payload = struct.pack("!4sH", b"XXXX", PROTOCOL_VERSION)
                sock.sendall(encode_frame(wire_mod.OP_HELLO, 1, payload))
                op, request_id, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR
                assert json.loads(body)["code"] == wire_mod.E_BAD_HELLO
                _expect_eof(sock)

    def test_unsupported_version_refused(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                payload = struct.pack("!4sH", MAGIC, 99)
                sock.sendall(encode_frame(wire_mod.OP_HELLO, 1, payload))
                op, _, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR
                assert json.loads(body)["code"] == wire_mod.E_BAD_VERSION
                _expect_eof(sock)

    def test_first_frame_must_be_hello(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(encode_frame(wire_mod.OP_PING, 1))
                op, _, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR
                assert json.loads(body)["code"] == wire_mod.E_BAD_HELLO
                _expect_eof(sock)

    def test_oversized_frame_refused_before_allocation(self, traces):
        wire_config = WireConfig(max_frame_bytes=1024)
        with served(traces[:1], wire_config=wire_config) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(struct.pack("!I", 1 << 20))  # body "to follow"
                op, request_id, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR
                assert request_id == wire_mod.SESSION_RID
                assert json.loads(body)["code"] == wire_mod.E_TOO_LARGE
                _expect_eof(sock)

    def test_undersized_frame_refused(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(struct.pack("!I", 2) + b"xx")  # shorter than a header
                op, request_id, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR
                assert request_id == wire_mod.SESSION_RID
                assert json.loads(body)["code"] == wire_mod.E_MALFORMED
                _expect_eof(sock)

    def test_truncated_frame_fails_only_that_session(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            bystander = WireClient(host, port, name="bystander")
            try:
                with socket.create_connection((host, port), timeout=10) as sock:
                    _hello(sock)
                    # claim 100 body bytes, send 10, vanish mid-frame
                    sock.sendall(struct.pack("!I", 100) + b"0123456789")
                # the bystander's session is untouched by the dirty EOF
                wait_for(
                    lambda: bystander.stats()["wire"]["n_sessions"] == 1,
                    message="truncated session reaped",
                )
                assert bystander.ping() >= 0.0
            finally:
                bystander.close()

    @pytest.mark.parametrize(
        "payload",
        [b"not a pickle", pickle.dumps(("a", "b", "c", "d"))],
        ids=["undecodable", "wrong-arity"],
    )
    @pytest.mark.parametrize(
        "op_name", ["PREDICT", "OBSERVE", "REGISTER", "RESERVE", "MIGRATE", "RESIZE"]
    )
    def test_malformed_payload_is_per_request_session_survives(self, traces, op_name, payload):
        """An undecodable or wrong-arity payload fails that request with
        a structured error; the framing is intact, so the session lives."""
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                _hello(sock)
                sock.sendall(encode_frame(getattr(wire_mod, f"OP_{op_name}"), 7, payload))
                op, request_id, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR and request_id == 7
                assert json.loads(body)["code"] == wire_mod.E_MALFORMED
                sock.sendall(encode_frame(wire_mod.OP_PING, 8))
                op, request_id, _ = _recv_frame(sock)
                assert op == wire_mod.OP_RESULT and request_id == 8

    def test_unknown_op_is_per_request_session_survives(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                _hello(sock)
                sock.sendall(encode_frame(0x7F, 9))
                op, request_id, body = _recv_frame(sock)
                assert op == wire_mod.OP_ERROR and request_id == 9
                assert json.loads(body)["code"] == wire_mod.E_UNKNOWN_OP
                sock.sendall(encode_frame(wire_mod.OP_PING, 10))
                op, request_id, _ = _recv_frame(sock)
                assert op == wire_mod.OP_RESULT and request_id == 10

    def test_frames_ahead_of_an_oversized_prefix_are_answered(self, traces):
        wire_config = WireConfig(max_frame_bytes=1024)
        with served(traces[:1], wire_config=wire_config) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=10) as sock:
                _hello(sock)
                sock.sendall(encode_frame(wire_mod.OP_PING, 2) + struct.pack("!I", 1 << 20))
                frames = _recv_until_eof(sock)
                assert [(op, rid) for op, rid, _ in frames] == [
                    (wire_mod.OP_RESULT, 2),
                    (wire_mod.OP_ERROR, wire_mod.SESSION_RID),
                ]
                assert json.loads(frames[1][2])["code"] == wire_mod.E_TOO_LARGE

    def test_unknown_instance_surfaces_as_keyerror(self, traces):
        with served(traces[:1]) as (_, (host, port)):
            with WireClient(host, port) as client:
                with pytest.raises(KeyError, match="not registered"):
                    client.predict("no-such-instance", traces[0][0])
                assert client.ping() >= 0.0  # per-request, session lives


# ---------------------------------------------------------------------------
# per-burst ingress
# ---------------------------------------------------------------------------
class TestBurstIngress:
    def test_mixed_write_is_answered_in_order(self, traces):
        """One write holding PREDICT, STATS, OBSERVE, PING and GOODBYE:
        the control ops end the burst ahead of them and are answered
        before the next frame is submitted, and GOODBYE still flushes
        every earlier response before the session closes."""
        trace = traces[0]
        instance_id = trace.instance.instance_id
        with served(traces[:1]) as (_, (host, port)):
            with socket.create_connection((host, port), timeout=30) as sock:
                session_id = _hello(sock)["session_id"]
                sock.sendall(
                    b"".join(
                        [
                            _instance_frame(wire_mod.OP_PREDICT, 2, instance_id, trace[0]),
                            encode_frame(wire_mod.OP_STATS, 3),
                            _instance_frame(wire_mod.OP_OBSERVE, 4, instance_id, trace[0]),
                            encode_frame(wire_mod.OP_PING, 5),
                            encode_frame(wire_mod.OP_GOODBYE, 6),
                        ]
                    )
                )
                frames = _recv_until_eof(sock)
        assert sorted(rid for _, rid, _ in frames) == [2, 3, 4, 5, 6]
        assert all(op == wire_mod.OP_RESULT for op, _, _ in frames)
        answered = {rid: body for _, rid, body in frames}
        order = [rid for _, rid, _ in frames]
        # control ops answer in frame order; instance ops whenever
        # their shard does
        assert order.index(3) < order.index(5) < order.index(6)
        assert answered[2] and pickle.loads(answered[2]).prediction.exec_time >= 0.0
        # STATS ran after the PREDICT was submitted and before the
        # OBSERVE was, so the session's counters show exactly that
        mine = pickle.loads(answered[3])["wire"]["sessions"][session_id]
        assert (mine["predicts"], mine["observes"], mine["controls"], mine["pings"]) == (1, 0, 1, 0)
        assert mine["errors"] == 0

    def test_one_write_of_predicts_ships_few_envelopes(self, traces):
        trace = traces[0]
        instance_id = trace.instance.instance_id
        n_ops = 40
        with served(traces[:1]) as (gateway, (host, port)):
            shard = shard_for(instance_id, 2)
            before = gateway.stats()["shards"][shard]
            with socket.create_connection((host, port), timeout=30) as sock:
                _hello(sock)
                sock.sendall(
                    b"".join(
                        _instance_frame(wire_mod.OP_PREDICT, 2 + i, instance_id, record)
                        for i, record in enumerate(trace[:n_ops])
                    )
                )
                answers = [_recv_frame(sock) for _ in range(n_ops)]
            assert all(op == wire_mod.OP_RESULT for op, _, _ in answers)
            after = gateway.stats()["shards"][shard]
        # the second stats() call ships one STATS op of its own
        assert after["request_ops"] - before["request_ops"] == n_ops + 1
        assert after["request_envelopes"] - before["request_envelopes"] - 1 <= 10
        assert after["response_envelopes"] > before["response_envelopes"]

    def test_burst_never_waits_on_its_own_held_ops(self, traces):
        """Six pipelined predicts against two credits: the burst must
        ship what it holds before it waits for a credit, or it would
        wait out enqueue_timeout_s on credits only its own unshipped
        ops can return, and shed."""
        gateway_config = GatewayConfig(n_shards=2, queue_size=2, enqueue_timeout_s=2.0)
        trace = traces[0]
        instance_id = trace.instance.instance_id
        n_ops = 6
        with served(traces[:1], gateway_config=gateway_config) as (gateway, (host, port)):
            with socket.create_connection((host, port), timeout=30) as sock:
                _hello(sock)
                t0 = time.monotonic()
                sock.sendall(
                    b"".join(
                        _instance_frame(wire_mod.OP_PREDICT, 2 + i, instance_id, trace[i])
                        for i in range(n_ops)
                    )
                )
                answers = [_recv_frame(sock) for _ in range(n_ops)]
                elapsed = time.monotonic() - t0
        assert [op for op, _, _ in answers] == [wire_mod.OP_RESULT] * n_ops
        assert sorted(rid for _, rid, _ in answers) == list(range(2, 2 + n_ops))
        assert elapsed < gateway_config.enqueue_timeout_s / 2


# ---------------------------------------------------------------------------
# admission control: RETRY_AFTER, not a dropped connection
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def test_reserve_behind_a_blocked_submit_never_stalls_other_sessions(self, traces):
        """A RESERVE waits on its instance's submit lock, which a
        predict blocked on a credit holds for up to enqueue_timeout_s.
        That wait belongs on the submit pool: a PING on an unrelated
        session must still answer at once."""
        gateway_config = GatewayConfig(n_shards=1, queue_size=1, enqueue_timeout_s=4.0)
        with served(traces[:1], gateway_config=gateway_config) as (gateway, (host, port)):
            trace = traces[0]
            instance_id = trace.instance.instance_id
            with (
                WireClient(host, port, name="submitter") as a,
                WireClient(host, port, name="reserver") as b,
                WireClient(host, port, name="bystander") as c,
            ):
                gateway._stall(0, 6.0)
                time.sleep(0.3)  # let the shard pick the sleep op up
                first = a.predict_async(instance_id, trace[0])  # takes the only credit
                blocked = a.predict_async(instance_id, trace[1])  # waits on a credit
                time.sleep(0.3)
                # count 0 claims no slot, so it leaves no sequence gap
                reserved = []
                reserve = threading.Thread(
                    target=lambda: reserved.append(b.reserve_sequence(instance_id, 0))
                )
                reserve.start()
                time.sleep(0.3)
                assert c.ping() < 1.0
                reserve.join(timeout=30)
                assert reserved == [1]  # after the shed predict rolled its slot back
                with pytest.raises(GatewayBackpressureError):
                    blocked.result(timeout=30)
                assert first.result(timeout=60).prediction.exec_time >= 0.0
                gateway.drain()

    def test_saturated_queue_backs_off_and_keeps_the_connection(self, traces):
        gateway_config = GatewayConfig(
            n_shards=2, queue_size=1, enqueue_timeout_s=0.2, retry_after_s=0.05
        )
        with served(traces, gateway_config=gateway_config) as (gateway, (host, port)):
            trace = traces[0]
            instance_id = trace.instance.instance_id
            shard = shard_for(instance_id, 2)
            with WireClient(host, port, name="surge") as client:
                gateway._stall(shard, 1.5)
                time.sleep(0.3)  # let the shard pick the sleep op up
                first = client.predict_async(instance_id, trace[0])  # fills the queue
                # ingress sequencing serialises this session's submits,
                # so the second predict meets a full queue and comes
                # back as a protocol-level RETRY_AFTER frame
                with pytest.raises(GatewayBackpressureError) as err:
                    client.predict(instance_id, trace[1])
                assert err.value.shard_index == shard
                assert err.value.instance_id == instance_id
                assert err.value.retry_after_s == pytest.approx(0.05)
                # the connection survived: the same client retries the
                # shed op on the same session once the stall clears
                assert first.result(timeout=60).prediction.exec_time >= 0.0
                retried = client.predict(instance_id, trace[1], timeout=60)
                assert retried.exec_time >= 0.0
                gateway.drain()
                stats = client.stats()
                mine = stats["wire"]["sessions"][client.session_info["session_id"]]
                assert mine["retry_after"] >= 1
                assert mine["errors"] == 0  # backpressure is not a failure


class _StubTransport:
    def __init__(self):
        self.aborted = False

    def abort(self):
        self.aborted = True


class _StubWriter:
    """Collects written frames; ``drain`` optionally hangs forever."""

    def __init__(self, hang=False):
        self.frames = []
        self.transport = _StubTransport()
        self._hang = hang

    def write(self, frame):
        self.frames.append(frame)

    async def drain(self):
        if self._hang:
            await asyncio.Event().wait()  # a reader that never drains


class TestWriteTimeout:
    """The slow-reader watchdog: a bounded drain in the write loop."""

    def _write_loop_server(self, write_timeout_s):
        server = WireServer.__new__(WireServer)
        server.config = WireConfig(write_timeout_s=write_timeout_s)
        return server

    def test_hanging_drain_reaps_session_with_structured_error(self):
        server = self._write_loop_server(0.05)

        async def scenario():
            writer = _StubWriter(hang=True)
            out_q = asyncio.Queue()
            out_q.put_nowait(encode_frame(wire_mod.OP_RESULT, 7, b"x"))
            # the loop must give up on the wedged drain by itself —
            # no sentinel is ever queued
            await asyncio.wait_for(server._write_loop(out_q, writer), timeout=10.0)
            return writer

        writer = asyncio.run(scenario())
        assert writer.transport.aborted, "slow reader must be hard-dropped"
        assert len(writer.frames) == 2
        body = writer.frames[1][struct.calcsize("!I") :]
        op, request_id = struct.unpack_from("!BI", body)
        assert op == wire_mod.OP_ERROR
        assert request_id == wire_mod.SESSION_RID
        doc = json.loads(body[struct.calcsize("!BI") :])
        assert doc["code"] == wire_mod.E_WRITE_TIMEOUT

    def test_responsive_writer_not_reaped(self):
        server = self._write_loop_server(0.05)

        async def scenario():
            writer = _StubWriter(hang=False)
            out_q = asyncio.Queue()
            out_q.put_nowait(encode_frame(wire_mod.OP_RESULT, 7, b"x"))
            out_q.put_nowait(None)  # clean shutdown sentinel
            await asyncio.wait_for(server._write_loop(out_q, writer), timeout=10.0)
            return writer

        writer = asyncio.run(scenario())
        assert not writer.transport.aborted
        assert len(writer.frames) == 1
