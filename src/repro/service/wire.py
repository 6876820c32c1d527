"""Network front door: an asyncio wire protocol over the fleet gateway.

Stage answers a prediction per arriving query *inside* Redshift, so the
production shape of this serving tier is a real request path: clients on
the admission path talk to the fleet over a socket, not over an
in-process futures API.  :class:`WireServer` is that front door — an
asyncio TCP server in front of a :class:`~repro.service.FleetGateway`
speaking a compact length-prefixed binary frame protocol (modeled on the
front-end/gRPC split in brad-style serving stacks, minus the generated
stubs: the whole codec is ~40 lines of ``struct``).

Frame format (version 1)
------------------------
Every frame, both directions::

    u32 body_length | u8 op_code | u32 request_id | payload

- ``body_length`` covers everything after the length word and is capped
  by ``WireConfig.max_frame_bytes`` (an oversized prefix is rejected
  with a structured error before its body is buffered).
- ``request_id`` is chosen by the client and echoed verbatim on the
  response, so responses may arrive out of submission order (predictions
  resolve whenever their micro-batch flushes).  ``request_id`` 0 is
  reserved for server-initiated session-level frames (idle timeout,
  unrecoverable protocol faults).
- The first frame of a session MUST be HELLO; its payload starts with a
  4-byte magic (``STGW``) and a ``u16`` protocol version, followed by a
  UTF-8 client name.  Anything else fails the handshake with a
  structured error frame and a close — the server never unpickles a
  byte from a stream that has not passed the magic/version check.

Ops: client→server HELLO, PREDICT, OBSERVE, STATS, PING, REGISTER,
RESERVE, GOODBYE, plus the control-plane admin ops MIGRATE, RESIZE and
ROUTES (live instance migration, shard grow/shrink and the versioned
routing table — the :class:`~repro.service.FleetController` loop works
over the socket too); server→client RESULT, ERROR, RETRY_AFTER.  RESULT
payloads are pickled Python values (the same objects that already cross
the gateway's process queues, so socket replays are bit-identical);
ERROR and RETRY_AFTER payloads are JSON documents with machine-readable
``code`` fields — no client ever parses an exception message.

Per-burst ingress
-----------------
The server works per socket read, not per frame.  It reads the socket in
chunks of up to ``_READ_CHUNK`` bytes and splits off every complete
frame a read delivers with :func:`split_frames`, the one frame parser
both ends use.  A run of consecutive PREDICT/OBSERVE frames is a
*burst*: it reaches the gateway in one submit-pool call of
:meth:`~repro.service.FleetGateway.submit_batch`, which ships one
envelope per shard for the whole burst.  Any other frame (a control op,
PING, GOODBYE) ends the burst ahead of it and is answered before the
next frame is submitted.  On the way out, completions reach the event
loop with one wakeup per batch, and the write loop sends everything
queued for the session in one ``write`` with one bounded ``drain``.

Determinism over the wire
-------------------------
Live-mode sequence numbers are assigned at **session ingress**: the
reader submits each burst in frame arrival order and awaits it before
it submits more, and the gateway claims each op's instance slot in
order under the instance's submit lock, so "the op stream the client
sent" is exactly "the op stream the predictor executes".  Replay-mode
clients RESERVE a sequence range up front and submit with explicit seq
values: a per-connection :class:`WireClient` factory drives
:func:`~repro.service.replay_trace_via_client`, and socket replays
(``ReplayBackend(mode="socket")``) are bit-identical (arrays *and* cache
and counter accounting) to direct, service and gateway replays for any
shard/connection count.

Admission control
-----------------
A saturated shard queue surfaces as a protocol-level RETRY_AFTER frame
carrying the machine-readable back-off hint from
:class:`~repro.service.GatewayBackpressureError` — the shed op's
sequence slot is rolled back, the rest of its burst still goes through,
the session stays open and the client retries; over-capacity never
drops a connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import pickle
import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.config import WireConfig

from .gateway import FleetGateway, GatewayBackpressureError, ShardCrashedError
from .scheduler import OBSERVE, PREDICT

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "AsyncWireClient",
    "WireClient",
    "WireError",
    "WireServer",
    "encode_frame",
    "split_frames",
]

MAGIC = b"STGW"
PROTOCOL_VERSION = 1

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!BI")  # op code, request id
_HELLO_PREFIX = struct.Struct("!4sH")  # magic, protocol version

# client -> server
OP_HELLO = 0x01
OP_PREDICT = 0x02
OP_OBSERVE = 0x03
OP_STATS = 0x04
OP_PING = 0x05
OP_REGISTER = 0x06
OP_RESERVE = 0x07
OP_GOODBYE = 0x08
# client -> server: control-plane admin ops
OP_MIGRATE = 0x09
OP_RESIZE = 0x0A
OP_ROUTES = 0x0B
# server -> client
OP_RESULT = 0x10
OP_ERROR = 0x11
OP_RETRY_AFTER = 0x12

#: machine-readable ``code`` values carried by ERROR frames
E_BAD_HELLO = "bad-hello"
E_BAD_VERSION = "unsupported-version"
E_MALFORMED = "malformed-frame"
E_TOO_LARGE = "frame-too-large"
E_UNKNOWN_OP = "unknown-op"
E_UNKNOWN_INSTANCE = "unknown-instance"
E_INVALID = "invalid-request"
E_SHARD_CRASHED = "shard-crashed"
E_CLOSED = "gateway-closed"
E_IDLE_TIMEOUT = "idle-timeout"
E_WRITE_TIMEOUT = "write-timeout"
E_INTERNAL = "internal"

#: session-level frames (idle timeout, protocol faults) use request id 0
SESSION_RID = 0


def _same(value):
    return value


#: op code -> (session counter, op kind).  An instance op's payload is
#: ``(instance_id, record, seq)``; consecutive instance frames form a
#: burst that :meth:`WireServer._submit_burst` hands to
#: :meth:`FleetGateway.submit_batch` in one submit-pool call.
_INSTANCE_OPS = {
    OP_PREDICT: ("predicts", PREDICT),
    OP_OBSERVE: ("observes", OBSERVE),
}

#: control op code -> (gateway method, per-argument coercions).  Every
#: control op takes the one path in :meth:`WireServer._apply`: decode
#: the payload tuple, check its arity, call the method on the submit
#: pool, respond; the session counts it under ``controls``.
_GATEWAY_OPS = {
    OP_REGISTER: ("register_instance", (_same,)),
    OP_RESERVE: ("reserve_sequence", (_same, int)),
    OP_STATS: ("stats", ()),
    OP_MIGRATE: ("migrate_instance", (_same, int)),
    OP_RESIZE: ("resize", (int,)),
    OP_ROUTES: ("routes", ()),
}

#: threads that make the gateway calls, so a call that blocks (on
#: backpressure, an instance's submit lock or a migration's drain)
#: never stalls the event loop.  A session has at most one call out at
#: a time (a burst or a control op), so this many sessions can block at
#: once before the rest queue for a worker.
_SUBMIT_WORKERS = 8

#: bytes asked of the socket per read.  Every complete frame a read
#: delivers is answered before the next read, so this also bounds a
#: burst (and the records it holds decoded at once): at serve_hot's
#: ~1.5 KB frames, about ten.  Larger reads cut the server's warmup
#: CPU little further but raise its peak RSS (see ROADMAP, "Network
#: front door").  The server's stream reader stops reading the socket
#: once it holds more than two reads' worth.
_READ_CHUNK = 16 * 1024


class WireError(RuntimeError):
    """A structured protocol-level error frame, surfaced client-side
    when no more specific exception type applies."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"[{code}] {message}")


class _ProtocolError(Exception):
    """Server-side: the byte stream violated the framing rules.  After
    one of these the stream cannot be resynchronised, so the session is
    told why (an ERROR frame) and closed."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------
def encode_frame(op: int, request_id: int, payload: bytes = b"") -> bytes:
    """One wire frame: ``u32 length | u8 op | u32 request_id | payload``."""
    body = _HEAD.pack(op, request_id) + payload
    return _LEN.pack(len(body)) + body


def _pickle(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _error_payload(code: str, message: str, **extra) -> bytes:
    doc = {"code": code, "message": message}
    doc.update(extra)
    return json.dumps(doc).encode("utf-8")


def _frame_for_exception(request_id: int, exc: BaseException) -> bytes:
    """Map a gateway/server exception to its structured response frame."""
    if isinstance(exc, GatewayBackpressureError):
        payload = json.dumps(
            {
                "shard_index": exc.shard_index,
                "instance_id": exc.instance_id,
                "timeout_s": exc.timeout_s,
                "retry_after_s": exc.retry_after_s,
            }
        ).encode("utf-8")
        return encode_frame(OP_RETRY_AFTER, request_id, payload)
    if isinstance(exc, ShardCrashedError):
        payload = _error_payload(
            E_SHARD_CRASHED,
            str(exc),
            shard_index=exc.shard_index,
            instance_id=exc.instance_id,
        )
        return encode_frame(OP_ERROR, request_id, payload)
    if isinstance(exc, KeyError):
        message = str(exc.args[0]) if exc.args else str(exc)
        return encode_frame(OP_ERROR, request_id, _error_payload(E_UNKNOWN_INSTANCE, message))
    if isinstance(exc, ValueError):
        return encode_frame(OP_ERROR, request_id, _error_payload(E_INVALID, str(exc)))
    if isinstance(exc, RuntimeError) and "closed" in str(exc):
        return encode_frame(OP_ERROR, request_id, _error_payload(E_CLOSED, str(exc)))
    payload = _error_payload(E_INTERNAL, f"{type(exc).__name__}: {exc}")
    return encode_frame(OP_ERROR, request_id, payload)


def _exception_for_frame(op: int, payload: bytes) -> BaseException:
    """Client-side inverse of :func:`_frame_for_exception`."""
    try:
        doc = json.loads(payload)
    except (ValueError, UnicodeDecodeError):
        return WireError(E_MALFORMED, "undecodable error frame from server")
    if op == OP_RETRY_AFTER:
        return GatewayBackpressureError(
            doc.get("shard_index", -1),
            doc.get("timeout_s", 0.0),
            instance_id=doc.get("instance_id"),
            retry_after_s=doc.get("retry_after_s"),
        )
    code, message = doc.get("code", E_INTERNAL), doc.get("message", "")
    if code == E_SHARD_CRASHED:
        return ShardCrashedError(doc.get("shard_index", -1), doc.get("instance_id"))
    if code == E_UNKNOWN_INSTANCE:
        return KeyError(message)
    if code == E_INVALID:
        return ValueError(message)
    if code == E_CLOSED:
        return RuntimeError(message)
    return WireError(code, message)


def split_frames(data, max_frame_bytes: int) -> Tuple[List[Tuple[int, int, bytes]], int]:
    """Split every complete frame off the front of ``data``.

    Returns ``(frames, used)``: each complete frame's ``(op,
    request_id, payload)`` in order, and how many leading bytes of
    ``data`` they span; a partial frame at the end is left for the
    next read.  A length prefix is checked as soon as its four bytes
    are present, so an oversized or undersized one raises
    :class:`_ProtocolError` before its body is buffered — once the
    complete frames ahead of it have been returned.  Pure: both ends of
    the protocol parse with it.
    """
    frames = []
    pos, end = 0, len(data)
    while end - pos >= _LEN.size:
        (length,) = _LEN.unpack_from(data, pos)
        if not _HEAD.size <= length <= max_frame_bytes:
            if frames:
                break  # the next call refuses it
            if length < _HEAD.size:
                raise _ProtocolError(
                    E_MALFORMED,
                    f"frame body of {length} bytes is shorter than the {_HEAD.size}B header",
                )
            raise _ProtocolError(
                E_TOO_LARGE,
                f"frame body of {length} bytes exceeds max_frame_bytes={max_frame_bytes}",
            )
        stop = pos + _LEN.size + length
        if stop > end:
            break
        op, request_id = _HEAD.unpack_from(data, pos + _LEN.size)
        frames.append((op, request_id, bytes(data[pos + _LEN.size + _HEAD.size : stop])))
        pos = stop
    return frames, pos


async def _read_frames(reader: asyncio.StreamReader, buf: bytearray, max_frame_bytes: int):
    """Read until ``buf`` holds a complete frame, then split off every
    complete frame it holds; raises :class:`_ProtocolError` on framing
    faults and :class:`asyncio.IncompleteReadError` on EOF."""
    while True:
        frames, used = split_frames(buf, max_frame_bytes)
        if frames:
            del buf[:used]
            return frames
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            raise asyncio.IncompleteReadError(bytes(buf), None)
        buf += chunk


def _decode_args(op: int, payload: bytes, arity: int) -> tuple:
    args = pickle.loads(payload) if payload else ()
    if not isinstance(args, tuple) or len(args) != arity:
        raise ValueError(f"op {op:#04x} takes a {arity}-tuple")
    return args


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------
class _Session:
    """Per-connection state, touched only on the server's event loop."""

    __slots__ = ("session_id", "peer", "client_name", "in_flight", "counters", "connected_at")

    def __init__(self, session_id: int, peer):
        self.session_id = session_id
        self.peer = peer
        self.client_name = ""
        self.in_flight = 0
        self.counters = {
            "predicts": 0,
            "observes": 0,
            "controls": 0,
            "pings": 0,
            "retry_after": 0,
            "errors": 0,
        }
        self.connected_at = time.monotonic()


class WireServer:
    """Asyncio TCP front door over a :class:`FleetGateway`.

    Runs its event loop on a background thread: :meth:`start` returns
    the bound ``(host, port)`` (``port=0`` binds an ephemeral port) and
    the caller keeps using the gateway object directly if it wants —
    the server is a pure protocol adapter, all state lives in the
    gateway.  Per-session lifecycle: a mandatory HELLO handshake, an
    idle timeout that never fires while ops are in flight, GOODBYE for
    clean close, and per-session op accounting surfaced under the STATS
    op's ``wire`` key.  A dirty disconnect kills exactly that session:
    its already-submitted ops still execute on their shard (sequence
    slots are claimed at ingress, so later ops never stall behind a
    vanished client), and every other session keeps serving.
    """

    def __init__(self, gateway: FleetGateway, config: Optional[WireConfig] = None):
        self.gateway = gateway
        self.config = config or WireConfig()
        self.address: Optional[Tuple[str, int]] = None
        self._session_ids = itertools.count(1)
        self._sessions: Dict[int, _Session] = {}
        self._submit_pool = ThreadPoolExecutor(
            max_workers=_SUBMIT_WORKERS, thread_name_prefix="wire-submit"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        #: gateway completions awaiting delivery on the loop, as
        #: ``(session, out_q, frame)``; filled by the gateway's listener
        #: threads, emptied by :meth:`_deliver_completions`
        self._completions: List[tuple] = []
        self._completions_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Serve on a background thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("wire server already started")
        self._thread = threading.Thread(target=self._run, name="wire-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("wire server failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise RuntimeError(f"wire server failed to bind: {self._startup_error}")
        assert self.address is not None
        return self.address

    def close(self) -> None:
        """Stop serving: close the listener and every open session.
        The gateway is left untouched (callers own its lifecycle)."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._submit_pool.shutdown(wait=False)

    def __enter__(self) -> "WireServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                limit=_READ_CHUNK,
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._started.set()
        async with server:
            await self._stop.wait()
        # asyncio.run cancels the remaining connection tasks on return;
        # their finally blocks close the transports

    # ------------------------------------------------------------------
    # per-connection machinery (everything below runs on the loop)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        session = _Session(next(self._session_ids), writer.get_extra_info("peername"))
        self._sessions[session.session_id] = session
        out_q: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_loop(out_q, writer))
        clean = False
        try:
            clean = await self._read_loop(session, out_q, reader)
        finally:
            self._sessions.pop(session.session_id, None)
            with contextlib.suppress(BaseException):
                if clean:
                    # a clean goodbye flushes responses for anything the
                    # client left in flight before the session ends
                    grace = time.monotonic() + 5.0
                    while session.in_flight > 0 and time.monotonic() < grace:
                        await asyncio.sleep(0.01)
                out_q.put_nowait(None)  # sentinel: flush queued frames, then stop
                await asyncio.wait_for(writer_task, timeout=5.0)
            writer_task.cancel()
            writer.close()
            with contextlib.suppress(BaseException):
                await writer.wait_closed()

    async def _write_loop(self, out_q: asyncio.Queue, writer) -> None:
        """Send queued response frames: everything queued at once goes
        out in one ``write`` with one bounded ``drain``; a ``None``
        sentinel stops the loop once the frames ahead of it are sent."""
        write_timeout = self.config.write_timeout_s
        while True:
            frames = [await out_q.get()]
            while not out_q.empty():
                frames.append(out_q.get_nowait())
            done = None in frames
            if done:
                frames = frames[: frames.index(None)]
            if not frames:
                return
            try:
                writer.write(b"".join(frames))
                await asyncio.wait_for(writer.drain(), timeout=write_timeout)
            except asyncio.TimeoutError:
                # Slow-reader reaping: the client stopped draining its
                # socket, so responses sharing this session would stall
                # behind the full send buffer forever.  Tell it why with
                # a best-effort session-level ERROR frame (rid 0 — it
                # rides the buffer if space ever frees), then hard-drop
                # the transport; the read side observes the close and
                # tears the session down like any dirty disconnect.
                with contextlib.suppress(Exception):
                    writer.write(
                        encode_frame(
                            OP_ERROR,
                            SESSION_RID,
                            _error_payload(
                                E_WRITE_TIMEOUT,
                                f"session not draining responses: send buffer "
                                f"full for {write_timeout:.1f}s",
                            ),
                        )
                    )
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                return
            except (ConnectionError, OSError):
                return  # the read side observes the disconnect too
            if done:
                return

    async def _read_loop(self, session, out_q, reader) -> bool:
        """Process one session's inbound frames; True means clean close."""
        idle = self.config.idle_timeout_s
        max_bytes = self.config.max_frame_bytes
        refuse = partial(self._refuse, session, out_q)
        buf = bytearray()

        # --- handshake: the first frame must be a well-formed HELLO ---
        try:
            frames = await asyncio.wait_for(_read_frames(reader, buf, max_bytes), timeout=idle)
        except _ProtocolError as exc:
            refuse(SESSION_RID, exc.code, str(exc))
            return False
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError, OSError):
            return False
        op, request_id, payload = frames[0]
        if op != OP_HELLO or len(payload) < _HELLO_PREFIX.size:
            refuse(request_id, E_BAD_HELLO, "first frame must be a HELLO with magic and version")
            return False
        magic, version = _HELLO_PREFIX.unpack_from(payload)
        if magic != MAGIC:
            refuse(request_id, E_BAD_HELLO, f"bad magic {magic!r} (want {MAGIC!r})")
            return False
        if version != PROTOCOL_VERSION:
            refuse(
                request_id,
                E_BAD_VERSION,
                f"server speaks protocol {PROTOCOL_VERSION}, client sent {version}",
            )
            return False
        session.client_name = payload[_HELLO_PREFIX.size :].decode("utf-8", "replace")
        hello_ack = json.dumps(
            {"session_id": session.session_id, "protocol_version": PROTOCOL_VERSION}
        ).encode("utf-8")
        out_q.put_nowait(encode_frame(OP_RESULT, request_id, hello_ack))
        frames = frames[1:]  # frames the client pipelined behind its HELLO

        # --- steady state: answer each read's frames, then read again ---
        while True:
            if frames and not await self._serve_frames(session, out_q, frames):
                return True  # GOODBYE
            try:
                frames = await asyncio.wait_for(_read_frames(reader, buf, max_bytes), timeout=idle)
            except asyncio.TimeoutError:
                if session.in_flight > 0:
                    frames = []
                    continue  # quiet client, busy gateway: not idle
                refuse(
                    SESSION_RID,
                    E_IDLE_TIMEOUT,
                    f"no frame for {idle:.1f}s with nothing in flight",
                )
                return False
            except _ProtocolError as exc:
                # framing is lost — the stream cannot be resynchronised
                refuse(SESSION_RID, exc.code, str(exc))
                return False
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return False  # dirty disconnect

    async def _serve_frames(self, session, out_q, frames) -> bool:
        """Answer one read's frames in order; False after a GOODBYE.

        Consecutive PREDICT/OBSERVE frames form a burst that reaches
        the gateway in one submit-pool call.  Any other frame ends the
        burst ahead of it and is answered before the next frame is
        submitted.
        """
        burst = []
        for op, request_id, payload in frames:
            if op in _INSTANCE_OPS:
                counter, kind = _INSTANCE_OPS[op]
                try:
                    instance_id, record, seq = _decode_args(op, payload, 3)
                except Exception as exc:
                    self._refuse(
                        session, out_q, request_id, E_MALFORMED, f"undecodable payload: {exc}"
                    )
                    continue
                session.counters[counter] += 1
                burst.append((request_id, (kind, instance_id, record, seq)))
                continue
            if burst:
                await self._submit_burst(session, out_q, burst)
                burst = []
            if op == OP_GOODBYE:
                out_q.put_nowait(encode_frame(OP_RESULT, request_id, b""))
                return False
            await self._apply(session, out_q, op, request_id, payload)
        if burst:
            await self._submit_burst(session, out_q, burst)
        return True

    @staticmethod
    def _refuse(session, out_q, request_id: int, code: str, message: str) -> None:
        session.counters["errors"] += 1
        out_q.put_nowait(encode_frame(OP_ERROR, request_id, _error_payload(code, message)))

    @staticmethod
    def _answer_exception(session, out_q, request_id: int, exc: BaseException) -> None:
        # admission control is not a failure: the session stays open and
        # the client backs off retry_after_s
        backpressure = isinstance(exc, GatewayBackpressureError)
        session.counters["retry_after" if backpressure else "errors"] += 1
        out_q.put_nowait(_frame_for_exception(request_id, exc))

    async def _submit_burst(self, session, out_q, burst) -> None:
        """Submit one burst of instance ops through one
        :meth:`FleetGateway.submit_batch` call on the submit pool.

        The await serialises one session's calls, so the order frames
        arrive in IS sequence order for live ops.  Each op resolves
        asynchronously: its RESULT frame is queued by a done-callback
        bridged from the gateway's listener thread.
        """
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._submit_pool, self.gateway.submit_batch, [op for _, op in burst]
            )
        except Exception as exc:
            # submit_batch returns refusals op by op, so this is the
            # call itself failing (the pool shut down): answer them all
            outcomes = [exc] * len(burst)
        for (request_id, _), outcome in zip(burst, outcomes):
            if isinstance(outcome, BaseException):
                self._answer_exception(session, out_q, request_id, outcome)
                continue
            session.in_flight += 1
            outcome.add_done_callback(partial(self._relay, session, out_q, request_id))

    async def _apply(self, session, out_q, op: int, request_id: int, payload: bytes) -> None:
        """Apply one post-handshake frame that is not an instance op.

        Every gateway op takes one path (see ``_GATEWAY_OPS``): the
        submit pool keeps a blocked call off the event loop, so every
        other session keeps serving, and the await answers it before
        the session's next frame is submitted.
        """
        if op == OP_PING:
            session.counters["pings"] += 1
            out_q.put_nowait(encode_frame(OP_RESULT, request_id, b""))
            return
        if op not in _GATEWAY_OPS:
            # the framing is intact, only this op is unknown: answer a
            # structured error and keep the session
            self._refuse(session, out_q, request_id, E_UNKNOWN_OP, f"unknown op code {op:#04x}")
            return
        method, coercions = _GATEWAY_OPS[op]
        try:
            args = _decode_args(op, payload, len(coercions))
        except Exception as exc:
            self._refuse(session, out_q, request_id, E_MALFORMED, f"undecodable payload: {exc}")
            return
        session.counters["controls"] += 1
        loop = asyncio.get_running_loop()
        try:
            call = partial(getattr(self.gateway, method), *(c(a) for c, a in zip(coercions, args)))
            result = await loop.run_in_executor(self._submit_pool, call)
        except Exception as exc:
            self._answer_exception(session, out_q, request_id, exc)
            return
        if op == OP_STATS:
            result = {"gateway": result, "wire": self._wire_stats()}
        out_q.put_nowait(encode_frame(OP_RESULT, request_id, _pickle(result)))

    def _relay(self, session, out_q, request_id: int, future: Future) -> None:
        """Done-callback for gateway futures.  Runs on the gateway's
        listener thread: build the frame here and post it for the loop
        (out_q and in_flight are loop-thread state), waking the loop
        once for however many completions post before it runs."""
        exc = future.exception()
        if exc is not None:
            frame = _frame_for_exception(request_id, exc)
        else:
            frame = encode_frame(OP_RESULT, request_id, _pickle(future.result()))
        with self._completions_lock:
            self._completions.append((session, out_q, frame))
            if len(self._completions) > 1:
                return  # a delivery is already scheduled
        with contextlib.suppress(RuntimeError):  # loop already closed
            self._loop.call_soon_threadsafe(self._deliver_completions)

    def _deliver_completions(self) -> None:
        with self._completions_lock:
            completions, self._completions = self._completions, []
        for session, out_q, frame in completions:
            session.in_flight -= 1
            if frame[_LEN.size] != OP_RESULT:
                session.counters["errors"] += 1
            out_q.put_nowait(frame)

    def _wire_stats(self) -> dict:
        """Per-session op accounting (loop thread only)."""
        return {
            "n_sessions": len(self._sessions),
            "sessions": {
                s.session_id: {
                    "client_name": s.client_name,
                    "peer": str(s.peer),
                    "in_flight": s.in_flight,
                    "uptime_s": time.monotonic() - s.connected_at,
                    **s.counters,
                }
                for s in self._sessions.values()
            },
        }


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------
class AsyncWireClient:
    """One wire session on the caller's event loop.

    Requests pipeline freely: each carries a fresh ``request_id`` and a
    background reader task resolves the matching future whenever its
    response frame lands, so many predictions can ride one connection
    with out-of-order completion.
    """

    def __init__(self, reader, writer, name: str, max_frame_bytes: int):
        self._reader = reader
        self._writer = writer
        self.name = name
        self._max_frame_bytes = max_frame_bytes
        #: bytes read off the socket that do not yet form a whole frame
        self._rbuf = bytearray()
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._session_error: Optional[BaseException] = None
        self._closed = False
        self.session_info: Optional[dict] = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        name: str = "wire-client",
        timeout: float = 30.0,
        max_frame_bytes: int = WireConfig().max_frame_bytes,
    ) -> "AsyncWireClient":
        reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
        client = cls(reader, writer, name, max_frame_bytes)
        try:
            await client._handshake(timeout)
        except BaseException:
            writer.close()
            with contextlib.suppress(BaseException):
                await writer.wait_closed()
            raise
        return client

    async def _handshake(self, timeout: float) -> None:
        request_id = next(self._request_ids)
        payload = _HELLO_PREFIX.pack(MAGIC, PROTOCOL_VERSION) + self.name.encode("utf-8")
        self._writer.write(encode_frame(OP_HELLO, request_id, payload))
        await self._writer.drain()
        frames = await asyncio.wait_for(
            _read_frames(self._reader, self._rbuf, self._max_frame_bytes), timeout
        )
        # the server answers nothing else before the HELLO ack
        op, _, payload = frames[0]
        if op != OP_RESULT:
            raise _exception_for_frame(op, payload)
        self.session_info = json.loads(payload)
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("wire connection closed")
        try:
            while True:
                frames = await _read_frames(self._reader, self._rbuf, self._max_frame_bytes)
                for op, request_id, payload in frames:
                    if request_id == SESSION_RID:
                        # server-initiated session teardown (idle timeout,
                        # protocol fault): everything outstanding fails
                        error = _exception_for_frame(op, payload)
                        return
                    future = self._pending.pop(request_id, None)
                    if future is None or future.done():
                        continue
                    if op == OP_RESULT:
                        future.set_result(pickle.loads(payload) if payload else None)
                    else:
                        future.set_exception(_exception_for_frame(op, payload))
        except asyncio.CancelledError:
            error = ConnectionError("wire client closed")
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            error = ConnectionError(f"wire connection lost: {exc}")
        except _ProtocolError as exc:
            error = WireError(exc.code, str(exc))
        finally:
            self._session_error = error
            pending, self._pending = self._pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(error)

    # -- low-level pipelining primitives -------------------------------
    def submit(self, op: int, payload: bytes = b"") -> "asyncio.Future":
        """Queue one request frame; resolve its future via the reader
        task.  Call :meth:`drain` between bursts to respect transport
        flow control."""
        if self._closed:
            raise RuntimeError("wire client is closed")
        if self._session_error is not None:
            raise self._session_error
        request_id = next(self._request_ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(encode_frame(op, request_id, payload))
        return future

    def submit_predict(self, instance_id: str, record, seq: Optional[int] = None):
        return self.submit(OP_PREDICT, _pickle((instance_id, record, seq)))

    def submit_observe(self, instance_id: str, record, seq: Optional[int] = None):
        return self.submit(OP_OBSERVE, _pickle((instance_id, record, seq)))

    async def drain(self) -> None:
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ConnectionError(f"wire connection lost: {exc}") from None

    async def _request(self, op: int, payload: bytes = b""):
        future = self.submit(op, payload)
        await self.drain()
        return await future

    # -- the protocol --------------------------------------------------
    async def predict_components(self, instance_id: str, record, seq: Optional[int] = None):
        """One prediction; resolves to its
        :class:`~repro.core.stage.RoutedComponents`."""
        return await self._request(OP_PREDICT, _pickle((instance_id, record, seq)))

    async def predict(self, instance_id: str, record, seq: Optional[int] = None):
        return (await self.predict_components(instance_id, record, seq=seq)).prediction

    async def observe(self, instance_id: str, record, seq: Optional[int] = None) -> None:
        await self._request(OP_OBSERVE, _pickle((instance_id, record, seq)))

    async def register_instance(self, instance) -> int:
        return await self._request(OP_REGISTER, _pickle((instance,)))

    async def reserve_sequence(self, instance_id: str, count: int) -> int:
        return await self._request(OP_RESERVE, _pickle((instance_id, int(count))))

    async def migrate_instance(self, instance_id: str, target_shard: int) -> dict:
        return await self._request(OP_MIGRATE, _pickle((instance_id, int(target_shard))))

    async def resize(self, n_shards: int) -> dict:
        return await self._request(OP_RESIZE, _pickle((int(n_shards),)))

    async def routes(self) -> dict:
        return await self._request(OP_ROUTES)

    async def stats(self) -> dict:
        return await self._request(OP_STATS)

    async def ping(self) -> float:
        start = time.perf_counter()
        await self._request(OP_PING)
        return time.perf_counter() - start

    async def close(self) -> None:
        """GOODBYE handshake, then tear the connection down."""
        if self._closed:
            return
        self._closed = True
        if self._session_error is None:
            with contextlib.suppress(BaseException):
                request_id = next(self._request_ids)
                future = asyncio.get_running_loop().create_future()
                self._pending[request_id] = future
                self._writer.write(encode_frame(OP_GOODBYE, request_id, b""))
                await self._writer.drain()
                await asyncio.wait_for(future, timeout=5.0)
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(BaseException):
                await self._reader_task
        self._writer.close()
        with contextlib.suppress(BaseException):
            await self._writer.wait_closed()


class WireClient:
    """Synchronous facade over :class:`AsyncWireClient`.

    Owns a private event-loop thread; every method is thread-safe and
    the ``*_async`` variants return :class:`concurrent.futures.Future`,
    so many threads can pipeline ops over one connection (the replay
    harness's socket mode drives it exactly that way).
    """

    def __init__(
        self, host: str, port: int, name: str = "wire-client", timeout: float = 60.0
    ):
        self.timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="wire-client-loop", daemon=True
        )
        self._thread.start()
        self._client: Optional[AsyncWireClient] = None
        try:
            self._client = asyncio.run_coroutine_threadsafe(
                AsyncWireClient.connect(host, port, name=name, timeout=timeout), self._loop
            ).result(timeout)
        except BaseException:
            self._shutdown_loop()
            raise

    @property
    def session_info(self) -> Optional[dict]:
        return self._client.session_info if self._client is not None else None

    def _call(self, coro) -> Future:
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    # -- async pipelining ---------------------------------------------
    def predict_async(self, instance_id: str, record, seq: Optional[int] = None) -> Future:
        return self._call(self._client.predict_components(instance_id, record, seq=seq))

    def observe_async(self, instance_id: str, record, seq: Optional[int] = None) -> Future:
        return self._call(self._client.observe(instance_id, record, seq=seq))

    # -- blocking facade ----------------------------------------------
    def predict_components(
        self, instance_id: str, record, seq: Optional[int] = None, timeout: Optional[float] = None
    ):
        return self.predict_async(instance_id, record, seq=seq).result(timeout or self.timeout)

    def predict(
        self, instance_id: str, record, seq: Optional[int] = None, timeout: Optional[float] = None
    ):
        return self.predict_components(instance_id, record, seq=seq, timeout=timeout).prediction

    def observe(
        self, instance_id: str, record, seq: Optional[int] = None, timeout: Optional[float] = None
    ) -> None:
        self.observe_async(instance_id, record, seq=seq).result(timeout or self.timeout)

    def register_instance(self, instance, timeout: Optional[float] = None) -> int:
        return self._call(self._client.register_instance(instance)).result(timeout or self.timeout)

    def reserve_sequence(
        self, instance_id: str, count: int, timeout: Optional[float] = None
    ) -> int:
        return self._call(self._client.reserve_sequence(instance_id, count)).result(
            timeout or self.timeout
        )

    def migrate_instance(
        self, instance_id: str, target_shard: int, timeout: Optional[float] = None
    ) -> dict:
        """Ask the server's gateway to migrate one live instance."""
        return self._call(self._client.migrate_instance(instance_id, target_shard)).result(
            timeout or self.timeout
        )

    def resize(self, n_shards: int, timeout: Optional[float] = None) -> dict:
        """Ask the server's gateway to grow/shrink its shard set."""
        return self._call(self._client.resize(n_shards)).result(timeout or self.timeout)

    def routes(self, timeout: Optional[float] = None) -> dict:
        """Fetch the gateway's versioned routing table."""
        return self._call(self._client.routes()).result(timeout or self.timeout)

    def stats(self, timeout: Optional[float] = None) -> dict:
        return self._call(self._client.stats()).result(timeout or self.timeout)

    def ping(self, timeout: Optional[float] = None) -> float:
        return self._call(self._client.ping()).result(timeout or self.timeout)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._client is not None:
            with contextlib.suppress(BaseException):
                self._call(self._client.close()).result(10.0)
            self._client = None
        self._shutdown_loop()

    def abort(self) -> None:
        """Hard-drop the TCP connection — no GOODBYE, no flush.  This is
        the dirty-disconnect path the lifecycle tests exercise."""
        client = self._client
        self._client = None
        if client is not None:
            with contextlib.suppress(BaseException):
                # reap the reader on the loop before stopping it, so
                # every in-flight future fails (ConnectionError) rather
                # than hanging on a dead loop
                self._call(self._abort_async(client)).result(10.0)
        self._shutdown_loop()

    @staticmethod
    async def _abort_async(client: AsyncWireClient) -> None:
        transport = client._writer.transport
        if transport is not None:
            transport.abort()
        if client._reader_task is not None:
            client._reader_task.cancel()
            with contextlib.suppress(BaseException):
                await client._reader_task

    def _shutdown_loop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        if not self._loop.is_running():
            self._loop.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
