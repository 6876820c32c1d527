"""Fleet gateway: a sharded, multi-process serving tier.

Stage runs *inside* every Redshift instance in a fleet, so the
production shape of this reproduction is not one
:class:`~repro.service.PredictionService` but thousands of them behind a
single front door.  :class:`FleetGateway` is that front door: it shards
one service per instance across ``n_shards`` OS worker processes (built
from the same :func:`repro.parallelism.pool_context` every pool in the
repo uses, so ``REPRO_MP_START_METHOD`` governs it too) and exposes a
thread-safe client API — ``predict(instance_id, record)`` /
``observe(instance_id, record)`` returning futures.

Architecture
------------
- **Routing.** The gateway owns an explicit, versioned routing table
  (``instance id -> shard index``, exposed by :meth:`FleetGateway.routes`).
  Registration seeds each entry from :func:`shard_for` — a pure function
  of ``(instance_id, n_shards)`` built on the workload layer's
  :func:`~repro.workload.seeding.derive_seed`, so an untouched fleet
  routes byte-identically to the static map on every run and machine
  (never Python's salted ``hash``).  The control plane
  (:meth:`migrate_instance`, :meth:`resize`,
  :class:`~repro.service.FleetController`) rewrites entries live; every
  rewrite bumps the table version.  Each shard process owns one
  ``PredictionService`` per instance assigned to it.
- **Batched transport.** Ops travel in *envelopes*.  Every instance op
  enters through :meth:`FleetGateway.submit_batch` (``predict_async``
  and ``observe`` are one-op calls of it): a batch claims its ops'
  sequence slots in order, holds them in each shard's outbox and
  flushes once, so a batch's ops for one shard ship as one envelope
  (one pickle, one queue hop).  A flush that finds another in flight
  leaves its ops to that flusher, which ships everything that
  accumulated as the next envelope — no handoff to a dedicated sender
  thread on the fast path — and the shard
  symmetrically batches acks + responses into ``(credits, responses)``
  envelopes on the way back.  Capacity is
  enforced by a **credit** scheme equivalent to the old bounded queue:
  the parent holds ``queue_size`` credits per shard, each op costs one
  credit to submit, and the shard returns the credit the moment its
  loop dequeues that op from an envelope — so "ops submitted but not
  yet picked up" is capped exactly as before, and an exhausted shard
  fails the submit with :class:`GatewayBackpressureError` after
  ``enqueue_timeout_s``.  Envelope boundaries are invisible: every
  instance op carries its explicit sequence number and the shard-side
  scheduler reorders by sequence, so packing never affects results.
- **One way in, one way out.** An instance enters a shard only by an
  *import* of :func:`~repro.service.registry.encode_state` bytes (plus
  the sequence number its op stream resumes at) and leaves only by an
  *export*, which drains the instance through a cut sequence number,
  pauses its scheduler and returns the quiesced predictor's bytes.
  Registration imports a fresh predictor built in the parent, restore
  imports a snapshot's member bytes, snapshot exports every instance,
  and migration is an export, a release and an import.  Shard
  processes never touch the filesystem.
- **Live migration.** :meth:`migrate_instance` moves one instance
  between shards under traffic with a *cut-sequence* protocol: the
  instance's next unclaimed sequence number becomes the cut; ops below
  it keep flowing to the source shard, which exports the instance at
  the cut, while ops at-or-above it buffer at the gateway.  The bytes
  travel source to parent to target over the shard queues, then the
  routing entry cuts over atomically and the buffer flushes to the
  target.  No sequence gap ever opens, so migration placement is
  invisible in results.
- **Determinism contract** (the PR 3/4 contract, lifted to the fleet):
  results depend only on each instance's sequenced op stream — never on
  shard count, shard assignment, client threading, queue bounds or
  batch knobs.  Every instance op carries an explicit per-instance
  sequence number assigned at the gateway, and the shard-side scheduler
  executes in sequence order, so direct, service and gateway replays
  (``ReplayBackend.mode``) are bit-identical (arrays *and*
  cache/counter accounting) for any shard/client count.
- **Crash containment.** A shard process dying fails exactly that
  shard's in-flight futures with :class:`ShardCrashedError` (carrying
  the instance id); other shards keep serving, and :meth:`close` still
  drains and joins cleanly.
- **Snapshot/restore.** :meth:`snapshot` exports every instance at its
  claimed sequence number and the parent writes one
  :class:`~repro.service.ModelRegistry` snapshot — the members, the
  fleet-shared global model once, and a single manifest — whole or not
  at all.  Because shard assignment never affects results,
  :meth:`restore` rebuilds the fleet bit-for-bit under *any* shard
  count, and a :class:`~repro.service.PredictionService` snapshot (one
  member) restores as a fleet too.
"""

from __future__ import annotations

import itertools
import threading
import time
from multiprocessing import connection as mp_connection
from concurrent.futures import Future
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import GatewayConfig, ServiceConfig, StageConfig
from repro.core.stage import StagePredictor
from repro.global_model.model import GlobalModel
from repro.ml.intervals import (
    merge_width_bins,
    new_width_bins,
    width_percentile_from_bins,
)
from repro.parallelism import pool_context
from repro.workload.instance import InstanceProfile
from repro.workload.seeding import derive_seed

from .registry import ModelRegistry, decode_state, encode_state
from .scheduler import OBSERVE, PREDICT
from .server import PredictionService

__all__ = [
    "FleetGateway",
    "GatewayBackpressureError",
    "ShardCrashedError",
    "shard_for",
]


def shard_for(instance_id: str, n_shards: int) -> int:
    """The shard owning ``instance_id`` — a pure, stable function.

    Built on :func:`~repro.workload.seeding.derive_seed` (keyed blake2b),
    so the same ``(instance_id, n_shards)`` maps to the same shard in
    every process and on every run — a restored fleet re-routes
    identically, and the routing property tests can rely on it.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return derive_seed("gateway-shard", instance_id) % n_shards


class ShardCrashedError(RuntimeError):
    """A shard worker process died with this op in flight (or routed to
    it afterwards).  Carries enough context to re-route or report."""

    def __init__(self, shard_index: int, instance_id: Optional[str] = None):
        self.shard_index = shard_index
        self.instance_id = instance_id
        detail = f" (instance {instance_id!r})" if instance_id is not None else ""
        super().__init__(f"gateway shard {shard_index} crashed{detail}")


class GatewayBackpressureError(TimeoutError):
    """A shard's bounded request queue stayed full past the enqueue
    timeout — the fleet is over capacity, shed load or add shards.

    Carries the shed op's ``instance_id`` (``None`` for control ops,
    mirroring :class:`ShardCrashedError`) and a machine-readable
    ``retry_after_s`` back-off hint, so protocol layers (the wire
    front door's RETRY_AFTER frame) never have to parse the message.
    """

    def __init__(
        self,
        shard_index: int,
        timeout_s: float,
        instance_id: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ):
        self.shard_index = shard_index
        self.timeout_s = timeout_s
        self.instance_id = instance_id
        self.retry_after_s = retry_after_s if retry_after_s is not None else timeout_s
        detail = f" (instance {instance_id!r})" if instance_id is not None else ""
        super().__init__(
            f"gateway shard {shard_index} request queue full for "
            f"{timeout_s:.1f}s{detail}; retry after {self.retry_after_s:.1f}s"
        )


# ---------------------------------------------------------------------------
# shard worker process
# ---------------------------------------------------------------------------
#: control op kinds (instance ops reuse the scheduler's PREDICT/OBSERVE)
_DRAIN = "drain"
_STATS = "stats"
_EXPORT = "export"  # drain through a cut, return the state bytes
_IMPORT = "import"  # serve shipped state bytes, resuming at their cut
_RELEASE = "release"  # migration: drop the exported instance's service
_SLEEP = "sleep"  # fault-injection/backpressure test hook: hold the shard busy
_SHUTDOWN = "shutdown"

_OK = "ok"
_ERR = "err"


@dataclass(frozen=True)
class _ShardInit:
    """Everything a shard worker needs, shipped once at process start
    (the fleet-shared global model rides here, never per-op)."""

    service_config: ServiceConfig
    global_model: Optional[GlobalModel]


#: how long :meth:`FleetGateway.close` may wait to hand each live shard
#: its shutdown op before terminating it; the close deadline bounds it
#: too (the per-shard budget is the smaller of the two)
_SHUTDOWN_ENQUEUE_TIMEOUT_S = 1.0

#: how long an unaccompanied credit ack may wait for a response
#: envelope to carry it before the lazy flusher ships it alone (s)
_ACK_GRACE_S = 0.002


class _Outbox:
    """Single-flusher inline batcher over one process queue.

    :meth:`hold` appends an item without shipping it; :meth:`flush`
    ships what is held *inline* in the calling thread — unless a flush
    is already in flight, in which case that flusher ships whatever
    accumulated as one envelope on its next pass: one pickle and one
    peer wakeup per batch, append order preserved, and no dedicated
    sender thread on the fast path.  :meth:`put` is the two in one.
    The parent uses one per shard for requests (``[ops]`` envelopes);
    a submit batch holds its ops and flushes once, so however many ops
    it carries for a shard ride one envelope.
    """

    def __init__(self, queue):
        self._queue = queue
        self._cond = threading.Condition()
        self._items: List[tuple] = []
        self._sending = False
        #: envelopes shipped and the items they carried
        self.n_envelopes = 0
        self.n_items = 0

    def hold(self, item: tuple) -> None:
        with self._cond:
            self._items.append(item)

    def flush(self) -> None:
        with self._cond:
            if self._sending or not self._items:
                return  # the in-flight flusher ships it next pass
            self._sending = True
        self._ship()

    def put(self, item: tuple) -> None:
        self.hold(item)
        self.flush()

    def _take(self):
        """The next envelope, or ``None`` when dry (lock held)."""
        if not self._items:
            return None
        envelope, self._items = self._items, []
        self.n_envelopes += 1
        self.n_items += len(envelope)
        return envelope

    def _ship(self) -> None:
        """Ship envelopes until dry; only the thread that set
        ``_sending`` runs this loop."""
        while True:
            with self._cond:
                envelope = self._take()
                if envelope is None:
                    self._sending = False
                    self._cond.notify_all()
                    return
            try:
                self._queue.put(envelope)
            except (ValueError, OSError, AssertionError):
                # queue closed under us during teardown
                with self._cond:
                    self._sending = False
                    self._cond.notify_all()
                return

    def wait_idle(self, timeout: float) -> None:
        """Let an in-flight flush finish (before closing the queue)."""
        with self._cond:
            self._cond.wait_for(lambda: not self._sending, timeout=timeout)


class _ResponseOutbox(_Outbox):
    """Shard-side outbox: ``(credits, responses)`` envelopes.

    Credit acks piggyback on response envelopes (a fast op's credit
    release and its answer cost the parent a single wakeup); only when
    an op is slow enough that no response has shipped within a short
    grace does a lazy background flusher send the acks alone, which
    keeps the credit-return bound for ops queued behind a stalled one.
    An op's ack is always taken before the op is handled, so the parent
    can never see a response whose credit it has not already been
    returned.
    """

    def __init__(self, shard_index: int, response_q):
        super().__init__(response_q)
        self._acks = 0
        self._stopped = False
        self._ack_flusher = threading.Thread(
            target=self._ack_loop,
            name=f"gateway-shard-{shard_index}-ack-flusher",
            daemon=True,
        )
        self._ack_flusher.start()

    def ack(self) -> None:
        """Return one credit: this op left the queue and is being handled."""
        with self._cond:
            self._acks += 1
            if self._acks == 1 and not self._sending:
                self._cond.notify_all()  # arm the lazy flusher's grace timer

    def _take(self):
        if not self._acks and not self._items:
            return None
        envelope = (self._acks, self._items)
        self._acks, self._items = 0, []
        return envelope

    def _ack_loop(self) -> None:
        """Ship acks that no response envelope carried within the grace."""
        while True:
            with self._cond:
                while not self._stopped and (not self._acks or self._sending):
                    self._cond.wait()
                if self._stopped:
                    return
                # give an imminent response flush a chance to carry
                # these acks in its own envelope
                self._cond.wait(timeout=_ACK_GRACE_S)
                if self._stopped:
                    return
                if not self._acks or self._sending:
                    continue
                self._sending = True
            self._ship()

    def close(self) -> None:
        """Flush everything still queued, then stop the lazy flusher."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._ack_flusher.join(5.0)
        self.wait_idle(5.0)
        with self._cond:
            self._sending = True
        self._ship()  # ships what is left; returns at once when dry


def _fresh_handoff(state: bytes, artifact: str) -> dict:
    """An :data:`_IMPORT` payload for state whose op stream starts at
    sequence 0; ``artifact`` names it in decode errors."""
    return {"state": state, "next_seq": 0, "scheduler_stats": {}, "artifact": artifact}


def _relay_response(outbox: _ResponseOutbox, op_id: int, future: Future) -> None:
    """Done-callback bridging a service future back to the parent."""
    exc = future.exception()
    if exc is not None:
        outbox.put((op_id, _ERR, exc))
    else:
        outbox.put((op_id, _OK, future.result()))


def _shard_main(shard_index: int, request_q, response_q, init: _ShardInit) -> None:
    """One shard worker: serves the instances it owns, applies ops.

    The request queue carries *envelopes* (lists of ops).  Each op's
    credit is acked the moment the loop reaches it — before it is
    handled — which reproduces the old bounded-queue occupancy exactly:
    ops behind a slow op in the same envelope keep their credits held
    just as they used to keep their queue slots.  Instance ops
    (predict/observe) are submitted to the owning service's sequenced
    scheduler and answered asynchronously via done-callbacks, so the
    shard loop never blocks behind a micro-batch; control ops are
    answered synchronously in arrival order.
    """
    served: Dict[str, PredictionService] = {}
    outbox = _ResponseOutbox(shard_index, response_q)
    while True:
        try:
            envelope = request_q.get()
        except (EOFError, OSError, KeyboardInterrupt):
            outbox.close()
            return
        for op_id, kind, payload in envelope:
            outbox.ack()  # the op left the queue: return its credit now
            if not _apply_shard_op(shard_index, served, outbox, init, op_id, kind, payload):
                outbox.close()
                return


def _apply_shard_op(
    shard_index: int,
    served: Dict[str, PredictionService],
    outbox: _ResponseOutbox,
    init: _ShardInit,
    op_id: int,
    kind: str,
    payload: tuple,
) -> bool:
    """Handle one op; returns False when the shard should shut down."""
    try:
        if kind in (PREDICT, OBSERVE):
            instance_id, record, seq = payload
            service = served[instance_id]
            future = service.scheduler.submit(kind, record, seq=seq)
            future.add_done_callback(partial(_relay_response, outbox, op_id))
            return True
        if kind == _DRAIN:
            for service in served.values():
                service.drain()
            result = len(served)
        elif kind == _STATS:
            result = {iid: service.stats() for iid, service in served.items()}
        elif kind == _EXPORT:
            # Stragglers below the cut are still flowing through this
            # loop, so the drain must not block it: a side thread waits
            # out the prefix, pauses the scheduler, encodes the quiesced
            # predictor to bytes (never the live object: the response is
            # pickled later, on whichever thread flushes it) and answers
            # the op itself.  The instance keeps serving afterwards.
            instance_id, cut_seq = payload
            service = served[instance_id]

            def _export(op_id=op_id, service=service, cut_seq=cut_seq):
                try:
                    service.scheduler.drain_through(cut_seq)
                    with service.scheduler.paused():
                        handoff = {
                            "next_seq": cut_seq,
                            "scheduler_stats": dict(service.scheduler.stats),
                            "state": encode_state(service.stage),
                        }
                    outbox.put((op_id, _OK, handoff))
                except Exception as exc:
                    outbox.put((op_id, _ERR, exc))

            threading.Thread(
                target=_export,
                name=f"gateway-shard-{shard_index}-export-{instance_id}",
                daemon=True,
            ).start()
            return True
        elif kind == _IMPORT:
            instance_id, handoff = payload
            if instance_id in served:
                raise ValueError(f"instance {instance_id!r} already registered")
            stage = decode_state(handoff["state"], init.global_model, handoff["artifact"])
            service = PredictionService.from_stage(stage, service_config=init.service_config)
            # resume exactly at the cut: the prefix ran elsewhere
            service.scheduler.advance_to_seq(handoff["next_seq"])
            service.scheduler.stats.update(handoff["scheduler_stats"])
            served[instance_id] = service
            result = instance_id
        elif kind == _RELEASE:
            (instance_id,) = payload
            service = served.pop(instance_id)
            service.close()
            result = instance_id
        elif kind == _SLEEP:
            (seconds,) = payload
            time.sleep(seconds)
            result = None
        elif kind == _SHUTDOWN:
            for service in served.values():
                service.close()
            outbox.put((op_id, _OK, None))
            return False
        else:
            raise ValueError(f"unknown gateway op kind {kind!r}")
    except Exception as exc:  # surface to the caller, keep the shard alive
        outbox.put((op_id, _ERR, exc))
    else:
        outbox.put((op_id, _OK, result))
    return True


# ---------------------------------------------------------------------------
# parent-side shard handle
# ---------------------------------------------------------------------------
class _Shard:
    """Parent-side state for one shard worker process."""

    __slots__ = (
        "index",
        "process",
        "request_q",
        "response_q",
        "listener",
        "outbox",
        "response_envelopes",
        "credits",
        "depth",
        "credits_cond",
        "pending",
        "pending_lock",
        "crashed",
        "shutdown_op_id",
        "shutdown_acked",
    )

    def __init__(self, index: int, process, request_q, response_q, credits: int):
        self.index = index
        self.process = process
        self.request_q = request_q
        self.response_q = response_q
        self.listener: Optional[threading.Thread] = None
        #: ops awaiting the next envelope (FIFO); flushed inline by the
        #: submitting thread unless a flush is already in flight
        self.outbox = _Outbox(request_q)
        #: ``(credits, responses)`` envelopes the listener has taken in
        self.response_envelopes = 0
        #: submit capacity: one credit per op the shard has not yet
        #: dequeued; ``queue_size`` total, exactly the old queue bound
        self.credits = credits
        #: ops submitted and not yet acked (the live queue-depth stat)
        self.depth = 0
        self.credits_cond = threading.Condition()
        #: op id -> (future, instance id or None) awaiting a response
        self.pending: Dict[int, Tuple[Future, Optional[str]]] = {}
        self.pending_lock = threading.Lock()
        self.crashed = False
        self.shutdown_op_id: Optional[int] = None
        self.shutdown_acked = False


class _Migration:
    """In-flight migration state for one instance (parent side).

    Ops at-or-above ``cut_seq`` buffer here (with their caller-held
    futures) until the routing entry cuts over to the target shard.
    All mutation happens under the instance's submit lock.
    """

    __slots__ = ("instance_id", "cut_seq", "buffer")

    def __init__(self, instance_id: str, cut_seq: int):
        self.instance_id = instance_id
        self.cut_seq = cut_seq
        self.buffer: List[Tuple[str, object, int, Future]] = []


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------
class FleetGateway:
    """Sharded multi-process serving tier, one service per instance.

    Parameters
    ----------
    config:
        Shard/queue knobs (:class:`~repro.core.config.GatewayConfig`);
        its ``service`` field carries the per-instance micro-batching
        knobs.  All capacity dials — never affect a prediction bit.
    stage_config / random_state:
        Forwarded to every instance's :class:`StagePredictor`.
    global_model:
        The fleet-shared model, shipped to each shard **once** at
        process start (the pool-initializer idiom), or ``None``.
    """

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        stage_config: Optional[StageConfig] = None,
        global_model: Optional[GlobalModel] = None,
        random_state: int = 0,
    ):
        # GatewayConfig.__post_init__ validates the knobs, so any config
        # that reaches here is structurally sound
        self.config = config or GatewayConfig()
        self.stage_config = stage_config
        self.global_model = global_model
        self.random_state = random_state
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._op_ids = itertools.count()
        self._op_id_lock = threading.Lock()
        #: the routing table: instance id -> shard index.  Seeded from
        #: :func:`shard_for` at registration, rewritten live by the
        #: control plane; every rewrite bumps ``_routes_version``.
        self._instances: Dict[str, int] = {}
        #: instance id -> next unclaimed per-instance sequence number
        self._instance_seq: Dict[str, int] = {}
        #: instance id -> submit lock serializing sequence claims, the
        #: enqueue (or migration-buffer append) they pair with, and
        #: routing-entry reads/writes for that instance
        self._instance_locks: Dict[str, threading.Lock] = {}
        #: instance id -> in-flight migration (cut-seq buffering state)
        self._migrations: Dict[str, _Migration] = {}
        self._routes_version = 0
        self._registry_lock = threading.Lock()
        #: serializes topology changes (resize, migrate, register,
        #: snapshot) against each other; never held by the data path
        self._resize_lock = threading.RLock()

        self._ctx = pool_context()
        self._shard_init = _ShardInit(service_config=self.config.service, global_model=global_model)
        self._shards: List[_Shard] = []
        for index in range(self.config.n_shards):
            self._shards.append(self._build_shard(index))
        # start everything only after construction can no longer fail
        for shard in self._shards:
            self._start_shard(shard)

    def _build_shard(self, index: int) -> _Shard:
        # SimpleQueues: puts pickle and write in the calling thread (no
        # per-queue feeder thread on the hot path), and capacity is
        # enforced by the credit scheme (see _acquire_credit), not the
        # queue itself, so an envelope put can never block meaningfully
        request_q = self._ctx.SimpleQueue()
        response_q = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_shard_main,
            args=(index, request_q, response_q, self._shard_init),
            name=f"fleet-gateway-shard-{index}",
            daemon=True,
        )
        return _Shard(index, process, request_q, response_q, self.config.queue_size)

    def _start_shard(self, shard: _Shard) -> None:
        shard.process.start()
        shard.listener = threading.Thread(
            target=self._listen,
            args=(shard,),
            name=f"fleet-gateway-listener-{shard.index}",
            daemon=True,
        )
        shard.listener.start()

    # ------------------------------------------------------------------
    # response listeners (one thread per shard)
    # ------------------------------------------------------------------
    def _listen(self, shard: _Shard) -> None:
        """Dispatch response envelopes until shutdown-ack or crash.

        Blocks on a dual fd wait — the response pipe *and* the worker's
        process sentinel — so an idle fleet costs zero wakeups (the old
        loop polled ``get(timeout=0.2)``, spinning 5x/s per shard) and a
        dead worker is still noticed immediately.  Pure fd waits only:
        no parent-side ``put`` is involved in the wakeup, so a worker
        killed while holding the queue's shared write lock can never
        wedge this thread.
        """
        reader = shard.response_q._reader
        process_sentinel = shard.process.sentinel
        while True:
            try:
                ready = mp_connection.wait([reader, process_sentinel])
            except OSError:
                self._mark_crashed(shard)
                return
            if reader in ready:
                try:
                    if not reader.poll():
                        continue
                    envelope = shard.response_q.get()
                except (EOFError, OSError, ValueError):
                    # ValueError: close() closed the queue under a
                    # deadline too tight for this listener to exit first
                    self._mark_crashed(shard)
                    return
                self._dispatch_envelope(shard, envelope)
                if shard.shutdown_acked:
                    return
                continue
            # the process died; late responses may still sit in the pipe
            self._drain_responses_nowait(shard)
            if not shard.shutdown_acked:
                self._mark_crashed(shard)
            return

    def _dispatch_envelope(self, shard: _Shard, envelope) -> None:
        shard.response_envelopes += 1
        credits, responses = envelope
        if credits:
            self._release_credits(shard, credits)
        for op_id, status, value in responses:
            self._dispatch_response(shard, op_id, status, value)

    def _drain_responses_nowait(self, shard: _Shard) -> None:
        while True:
            try:
                if not shard.response_q._reader.poll():
                    return
                envelope = shard.response_q.get()
            except (EOFError, OSError, ValueError):
                return
            self._dispatch_envelope(shard, envelope)

    def _dispatch_response(self, shard: _Shard, op_id: int, status: str, value) -> None:
        with shard.pending_lock:
            entry = shard.pending.pop(op_id, None)
        if op_id == shard.shutdown_op_id:
            shard.shutdown_acked = True
        if entry is None:
            return
        future, _ = entry
        if status == _OK:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _mark_crashed(self, shard: _Shard) -> None:
        """Fail everything in flight on a dead shard; contain the blast."""
        shard.crashed = True
        with shard.credits_cond:
            # wake submitters blocked on credits: none are coming back
            shard.credits_cond.notify_all()
        with shard.pending_lock:
            pending, shard.pending = shard.pending, {}
        for future, instance_id in pending.values():
            if not future.done():
                future.set_exception(ShardCrashedError(shard.index, instance_id))

    def _release_credits(self, shard: _Shard, credits: int) -> None:
        with shard.credits_cond:
            shard.credits += credits
            shard.depth -= credits
            shard.credits_cond.notify_all()

    # ------------------------------------------------------------------
    # submission plumbing
    # ------------------------------------------------------------------
    def _next_op_id(self) -> int:
        with self._op_id_lock:
            return next(self._op_ids)

    def _register_pending(
        self, shard: _Shard, instance_id: Optional[str], future: Optional[Future] = None
    ) -> Tuple[int, Future]:
        op_id = self._next_op_id()
        if future is None:
            future = Future()
        with shard.pending_lock:
            shard.pending[op_id] = (future, instance_id)
        return op_id, future

    def _pop_pending(self, shard: _Shard, op_id: int):
        with shard.pending_lock:
            return shard.pending.pop(op_id, None)

    def _check_open(self, shard: _Shard, instance_id: Optional[str]) -> None:
        if self._closed:
            raise RuntimeError("gateway is closed")
        if shard.crashed:
            raise ShardCrashedError(shard.index, instance_id)

    def _acquire_credit(
        self,
        shard: _Shard,
        timeout: float,
        op_id: int,
        instance_id: Optional[str],
        held: Optional[Dict[int, _Shard]] = None,
    ) -> None:
        """Take one submit credit, or shed the op after ``timeout``.

        Credits mirror the old bounded request queue exactly: the shard
        returns each op's credit when its loop dequeues that op, so
        "submitted but not yet picked up" is capped at ``queue_size``
        and a saturated shard raises the same
        :class:`GatewayBackpressureError` a full queue used to.  A
        crashed shard never returns credits; its waiters are woken by
        :meth:`_mark_crashed` and fall through (the op fails via the
        pending sweep / :meth:`_crash_race_check` instead).  A submit
        batch passes the outboxes it ``held`` ops in: they ship before
        any wait, because the credits the wait needs may be theirs.
        """
        if held:
            with shard.credits_cond:
                must_wait = shard.credits <= 0 and not shard.crashed
            if must_wait:
                self._ship(held)
        deadline = time.monotonic() + timeout
        with shard.credits_cond:
            while shard.credits <= 0 and not shard.crashed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._pop_pending(shard, op_id)
                    raise GatewayBackpressureError(
                        shard.index,
                        timeout,
                        instance_id=instance_id,
                        retry_after_s=self.config.retry_after_s,
                    )
                shard.credits_cond.wait(remaining)
            if shard.crashed:
                return
            shard.credits -= 1
            shard.depth += 1

    @staticmethod
    def _ship(held: Dict[int, _Shard]) -> None:
        """Flush every outbox a submit batch holds ops in."""
        for shard in held.values():
            shard.outbox.flush()
        held.clear()

    def _enqueue(
        self, shard: _Shard, op_id: int, message: tuple, instance_id: Optional[str] = None
    ) -> None:
        self._acquire_credit(shard, self.config.enqueue_timeout_s, op_id, instance_id)
        shard.outbox.put(message)

    def _hold_instance_op(
        self,
        shard: _Shard,
        kind: str,
        instance_id: str,
        record,
        seq: int,
        held: Dict[int, _Shard],
        future: Optional[Future] = None,
    ) -> Tuple[int, Future]:
        """Take a credit for one instance op and hold it in the shard's
        outbox; the caller ships ``held`` when its batch ends."""
        op_id, future = self._register_pending(shard, instance_id, future)
        self._acquire_credit(shard, self.config.enqueue_timeout_s, op_id, instance_id, held)
        shard.outbox.hold((op_id, kind, (instance_id, record, seq)))
        held[shard.index] = shard
        return op_id, future

    def _crash_race_check(self, shard: _Shard, op_id: int, instance_id: Optional[str]) -> None:
        """Close the enqueue-vs-failure-sweep race, identically for
        control and instance ops.

        If the shard died between the enqueue and here, the listener's
        sweep may have already failed our pending future — or may not
        have seen it yet.  Whoever pops the pending entry owns the
        failure: if we win, raise directly (the message is stranded in
        the dead shard's request queue either way); if the sweep won,
        the future already carries :class:`ShardCrashedError`.
        """
        if shard.crashed:
            if self._pop_pending(shard, op_id) is not None:
                raise ShardCrashedError(shard.index, instance_id)

    def _submit_control(self, shard: _Shard, kind: str, payload: tuple = ()) -> Future:
        self._check_open(shard, None)
        op_id, future = self._register_pending(shard, None)
        self._enqueue(shard, op_id, (op_id, kind, payload))
        self._crash_race_check(shard, op_id, None)
        return future

    def _instance_lock(self, instance_id: str) -> threading.Lock:
        try:
            return self._instance_locks[instance_id]
        except KeyError:
            raise KeyError(
                f"instance {instance_id!r} is not registered with this gateway"
            ) from None

    def submit_batch(self, ops: Sequence[tuple]) -> List[object]:
        """Submit instance ops ``(kind, instance_id, record, seq)`` in order.

        The one way an instance op enters the fleet:
        :meth:`predict_async` and :meth:`observe` are one-op calls of
        it, and the wire front door hands it each session's bursts.
        Ops claim their sequence slots one by one, in order, and wait
        in their shards' outboxes; when the batch ends, each shard it
        touched ships them as one envelope.  Whatever the batch holds
        ships before it waits on anything (a credit, another
        submitter's instance lock), so a batch never waits on its own
        held ops.

        Returns one entry per op: its future, or the exception that
        refused it at submit — :class:`GatewayBackpressureError` for a
        shed op (its sequence slot is rolled back), ``KeyError`` for an
        unknown instance, :class:`ShardCrashedError` or
        ``RuntimeError`` for a crashed shard or a closed gateway.  A
        refused op never stops the ops behind it.
        """
        held: Dict[int, _Shard] = {}
        outcomes: List[object] = []
        shipped = []  # (position, shard, op_id, instance_id)
        try:
            for kind, instance_id, record, seq in ops:
                try:
                    future, sent = self._claim_and_hold(kind, instance_id, record, seq, held)
                except Exception as exc:
                    outcomes.append(exc)
                    continue
                if sent is not None:
                    shipped.append((len(outcomes),) + sent)
                outcomes.append(future)
        finally:
            self._ship(held)
        for position, shard, op_id, instance_id in shipped:
            try:
                self._crash_race_check(shard, op_id, instance_id)
            except ShardCrashedError as exc:
                outcomes[position] = exc
        return outcomes

    def _claim_and_hold(self, kind: str, instance_id: str, record, seq, held):
        """Claim one op's sequence slot and hold it for its shard.

        Returns its future and, unless a migration buffered it, the
        ``(shard, op_id, instance_id)`` to crash-check once shipped.
        """
        lock = self._instance_lock(instance_id)
        if not lock.acquire(blocking=False):
            self._ship(held)  # the lock's holder may be waiting on our credits
            lock.acquire()
        try:
            # Sequence claim, routing-entry read, migration check and
            # hold (or buffer append) all happen under the instance's
            # submit lock: a backpressure failure can roll the counter
            # back without leaving a gap, a migration's cut sequence
            # linearizes against every claim (the cut's export op
            # flushes any op held below it, being queued behind it in
            # the same outbox), and a cutover can never interleave with
            # a half-routed op.
            migration = self._migrations.get(instance_id)
            shard = self._shards[self._instances[instance_id]]
            self._check_open(shard, instance_id)
            if seq is None:
                claimed = True
                seq = self._instance_seq[instance_id]
                self._instance_seq[instance_id] = seq + 1
            else:
                claimed = False  # replay mode: range reserved upfront
            if migration is not None and seq >= migration.cut_seq:
                # hold the op at the gateway until the cutover; the
                # target's reorder buffer makes flush order irrelevant
                future: Future = Future()
                migration.buffer.append((kind, record, seq, future))
                return future, None
            try:
                op_id, future = self._hold_instance_op(shard, kind, instance_id, record, seq, held)
            except GatewayBackpressureError:
                if claimed:
                    self._instance_seq[instance_id] = seq
                raise
        finally:
            lock.release()
        return future, (shard, op_id, instance_id)

    def _submit_one(self, kind: str, instance_id: str, record, seq: Optional[int]) -> Future:
        (outcome,) = self.submit_batch([(kind, instance_id, record, seq)])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _live_shards(self) -> List[_Shard]:
        return [shard for shard in self._shards if not shard.crashed]

    def reserve_sequence(self, instance_id: str, count: int) -> int:
        """Claim ``count`` consecutive sequence slots for ``instance_id``.

        Returns the first reserved number.  Replay-style submitters
        (:func:`~repro.service.replay_trace_via_client`, the wire
        protocol's RESERVE op) reserve their whole range up front and
        then submit with explicit ``seq`` values, so any
        client/connection interleaving reproduces the same op stream.
        Every reserved slot must eventually be submitted: the shard
        scheduler executes in sequence order and waits behind gaps.  A
        closed gateway refuses reservations like every other op.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if self._closed:
            raise RuntimeError("gateway is closed")
        lock = self._instance_lock(instance_id)
        with lock:
            base = self._instance_seq[instance_id]
            self._instance_seq[instance_id] = base + count
        return base

    # ------------------------------------------------------------------
    # fleet management
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    @property
    def instance_ids(self) -> Tuple[str, ...]:
        with self._registry_lock:
            return tuple(sorted(self._instances))

    def register_instance(
        self, instance: InstanceProfile, timeout: Optional[float] = None
    ) -> int:
        """Create ``instance``'s service on its shard; returns the shard
        index.  Every instance must be registered before its first op.

        The fresh predictor is built here and imported by the shard as
        :func:`~repro.service.registry.encode_state` bytes, the one way
        any instance enters a shard.

        The routing entry is seeded from :func:`shard_for` under the
        *current* shard count, so an untouched fleet's table is
        byte-identical to the static map.
        """
        instance_id = instance.instance_id
        if self._closed:
            raise RuntimeError("gateway is closed")
        with self._resize_lock:
            with self._registry_lock:
                if instance_id in self._instances:
                    raise ValueError(f"instance {instance_id!r} already registered")
            shard = self._shards[shard_for(instance_id, self.n_shards)]
            stage = StagePredictor(
                instance, config=self.stage_config, random_state=self.random_state
            )
            handoff = _fresh_handoff(encode_state(stage), f"new state of {instance_id!r}")
            future = self._submit_control(shard, _IMPORT, (instance_id, handoff))
            future.result(timeout if timeout is not None else self.config.drain_timeout_s)
            self._add_route(instance_id, shard.index)
            return shard.index

    def _add_route(self, instance_id: str, shard_index: int) -> None:
        """Seed the routing entry of an instance a shard just imported;
        its op stream starts at sequence 0."""
        with self._registry_lock:
            self._instances[instance_id] = shard_index
            self._instance_seq[instance_id] = 0
            self._instance_locks[instance_id] = threading.Lock()

    def routes(self) -> dict:
        """The live routing table: version, shard count, assignments.

        ``assignments`` maps every registered instance id to its current
        shard index, sorted by id.  An untouched fleet reports version 0
        with assignments byte-identical to ``shard_for``; every
        migration or resize bumps the version.
        """
        with self._registry_lock:
            return {
                "version": self._routes_version,
                "n_shards": self.n_shards,
                "assignments": dict(sorted(self._instances.items())),
            }

    # ------------------------------------------------------------------
    # the online protocol
    # ------------------------------------------------------------------
    def predict_async(self, instance_id: str, record, seq: Optional[int] = None) -> Future:
        """Submit one prediction for ``instance_id``; resolves to its
        :class:`~repro.core.stage.RoutedComponents`."""
        return self._submit_one(PREDICT, instance_id, record, seq)

    def predict(
        self,
        instance_id: str,
        record,
        seq: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        """Blocking :meth:`predict_async`; returns the routed prediction."""
        if timeout is None:
            timeout = self.config.drain_timeout_s
        return self.predict_async(instance_id, record, seq=seq).result(timeout).prediction

    def observe(self, instance_id: str, record, seq: Optional[int] = None) -> Future:
        """Feed back one executed query to its instance's service."""
        return self._submit_one(OBSERVE, instance_id, record, seq)

    #: protocol-name alias (:class:`~repro.service.PredictorClient`)
    observe_async = observe

    # ------------------------------------------------------------------
    # control plane: live migration and resharding
    # ------------------------------------------------------------------
    def migrate_instance(
        self, instance_id: str, target_shard: int, timeout: Optional[float] = None
    ) -> dict:
        """Move one live instance to ``target_shard`` under traffic.

        The cut-sequence protocol: the instance's next unclaimed
        sequence number becomes the *cut*.  Ops below it (all already
        claimed, hence already enqueued) keep flowing to the source
        shard, whose scheduler drains through the cut and then encodes
        the quiesced predictor to bytes
        (:func:`~repro.service.registry.encode_state`); ops at-or-above
        it buffer at the gateway.  The bytes ride the control-op
        responses to the target shard, which decodes them with its
        execution cursor advanced to the cut; the routing entry flips
        atomically (bumping the table version), and the buffer flushes.  No sequence gap ever opens,
        so the move is invisible in results — only placement changes.

        Returns a summary dict (source/target shard, cut sequence,
        routing version, buffered op count).  Raises
        :class:`ShardCrashedError` if either end is dead, and
        ``RuntimeError`` on a concurrent migration of the same instance.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._resize_lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            return self._migrate_locked(instance_id, target_shard, timeout)

    def _migrate_locked(self, instance_id: str, target_index: int, timeout: float) -> dict:
        if not 0 <= target_index < len(self._shards):
            raise ValueError(
                f"target shard {target_index} out of range "
                f"(fleet has {len(self._shards)} shards)"
            )
        lock = self._instance_lock(instance_id)
        target = self._shards[target_index]
        with lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            if instance_id in self._migrations:
                raise RuntimeError(f"instance {instance_id!r} is already migrating")
            source = self._shards[self._instances[instance_id]]
            if source.index == target_index:
                with self._registry_lock:
                    version = self._routes_version
                return {
                    "instance_id": instance_id,
                    "source": source.index,
                    "target": target_index,
                    "cut_seq": self._instance_seq[instance_id],
                    "routes_version": version,
                    "buffered_ops": 0,
                }
            if source.crashed:
                raise ShardCrashedError(source.index, instance_id)
            if target.crashed:
                raise ShardCrashedError(target.index, instance_id)
            # every sequence below the cut is already claimed *and*
            # enqueued (claims pair with their enqueue under this lock),
            # so the source can always drain through the cut
            cut_seq = self._instance_seq[instance_id]
            migration = _Migration(instance_id, cut_seq)
            self._migrations[instance_id] = migration
        try:
            handoff = self._submit_control(source, _EXPORT, (instance_id, cut_seq)).result(timeout)
            handoff["artifact"] = f"migration state of {instance_id!r}"
            self._submit_control(source, _RELEASE, (instance_id,)).result(timeout)
            self._submit_control(target, _IMPORT, (instance_id, handoff)).result(timeout)
        except BaseException:
            self._abort_migration(migration)
            raise
        with lock:
            with self._registry_lock:
                self._instances[instance_id] = target_index
                self._routes_version += 1
                version = self._routes_version
            buffered, migration.buffer = migration.buffer, []
            del self._migrations[instance_id]
        self._flush_buffered(target, instance_id, buffered)
        return {
            "instance_id": instance_id,
            "source": source.index,
            "target": target_index,
            "cut_seq": cut_seq,
            "routes_version": version,
            "buffered_ops": len(buffered),
        }

    def _abort_migration(self, migration: _Migration) -> None:
        """Fail everything the doomed migration buffered (the routing
        entry stays on the source; dropped sequences leave a gap there,
        the same terminal state a failed replay reaches)."""
        lock = self._instance_locks.get(migration.instance_id)
        if lock is None:
            buffered, migration.buffer = migration.buffer, []
            self._migrations.pop(migration.instance_id, None)
        else:
            with lock:
                buffered, migration.buffer = migration.buffer, []
                self._migrations.pop(migration.instance_id, None)
        for _kind, _record, seq, future in buffered:
            if not future.done():
                future.set_exception(
                    RuntimeError(
                        f"migration of instance {migration.instance_id!r} failed; "
                        f"buffered op (seq {seq}) was dropped and its sequence "
                        "stream now has a gap — close the gateway"
                    )
                )

    def _flush_buffered(
        self, target: _Shard, instance_id: str, buffered: List[Tuple[str, object, int, Future]]
    ) -> None:
        """Enqueue the cutover buffer on the target, reusing the futures
        callers already hold.  Order is irrelevant (the scheduler's
        reorder buffer sorts by sequence), but a backpressure loss here
        would open a gap, so one failure fails the rest explicitly."""
        failed = False
        for kind, record, seq, future in buffered:
            if not failed:
                try:
                    if target.crashed:
                        raise ShardCrashedError(target.index, instance_id)
                    op_id, _ = self._hold_instance_op(
                        target, kind, instance_id, record, seq, {}, future
                    )
                    target.outbox.flush()
                    self._crash_race_check(target, op_id, instance_id)
                    continue
                except (GatewayBackpressureError, ShardCrashedError):
                    failed = True
            if not future.done():
                future.set_exception(
                    RuntimeError(
                        f"migration cutover of instance {instance_id!r} could not "
                        f"flush buffered op (seq {seq}); its sequence stream now "
                        "has a gap — close the gateway"
                    )
                )

    def resize(self, n_shards: int, timeout: Optional[float] = None) -> dict:
        """Grow or shrink the shard set to ``n_shards``, live.

        Growth spawns the new worker processes first; every instance
        whose canonical placement (``shard_for`` under the new count)
        differs from its current shard is then migrated — so a resized
        fleet's routing table is byte-identical to a fleet *built* at
        ``n_shards`` — and a shrink finally retires the (now empty)
        trailing shards.  In-flight ops are never dropped: each move is
        a cut-sequence migration.

        Returns a summary dict; the fleet keeps serving throughout.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._resize_lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            previous = len(self._shards)
            if n_shards == previous:
                with self._registry_lock:
                    version = self._routes_version
                return {
                    "n_shards": n_shards,
                    "previous": previous,
                    "migrated": [],
                    "routes_version": version,
                }
            for index in range(previous, n_shards):
                shard = self._build_shard(index)
                self._start_shard(shard)
                self._shards.append(shard)
            try:
                with self._registry_lock:
                    assignments = dict(self._instances)
                moves = sorted(
                    (instance_id, shard_for(instance_id, n_shards))
                    for instance_id, current in assignments.items()
                    if shard_for(instance_id, n_shards) != current
                )
                migrated = []
                for instance_id, target_index in moves:
                    self._migrate_locked(instance_id, target_index, timeout)
                    migrated.append(instance_id)
            except BaseException:
                # keep config honest about however many shards now exist
                self.config = replace(self.config, n_shards=len(self._shards))
                raise
            for shard in self._shards[n_shards:]:
                self._retire_shard(shard, timeout)
            del self._shards[n_shards:]
            self.config = replace(self.config, n_shards=n_shards)
            with self._registry_lock:
                self._routes_version += 1
                version = self._routes_version
            return {
                "n_shards": n_shards,
                "previous": previous,
                "migrated": migrated,
                "routes_version": version,
            }

    def _request_shutdown(self, shard: _Shard, deadline: float) -> None:
        """Best-effort clean-shutdown op, bounded by the shared deadline.

        A wedged shard (no credits coming back) fails the acquire within
        the budget and falls through to the hard terminate in the reap
        phase — exactly the old full-queue behavior.
        """
        op_id, _ = self._register_pending(shard, None)
        shard.shutdown_op_id = op_id
        budget = min(_SHUTDOWN_ENQUEUE_TIMEOUT_S, max(deadline - time.monotonic(), 0.0))
        try:
            self._acquire_credit(shard, budget, op_id, None)
        except GatewayBackpressureError:
            return  # pending entry already popped; terminate below
        shard.outbox.put((op_id, _SHUTDOWN, ()))

    def _reap_shard(self, shard: _Shard, deadline: float) -> None:
        """Join / terminate one shard and release its transport."""
        shard.process.join(max(deadline - time.monotonic(), 0.0))
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(5.0)
        # let any in-flight inline outbox flush finish before closing
        # the request queue under it
        shard.outbox.wait_idle(1.0)
        # the listener's dual wait saw the process sentinel fire when
        # the join/terminate above completed, so it is already exiting
        if shard.listener is not None:
            shard.listener.join(max(deadline - time.monotonic(), 1.0))
        self._mark_crashed(shard)  # fail anything still pending
        for q in (shard.request_q, shard.response_q):
            q.close()

    def _retire_shard(self, shard: _Shard, timeout: float) -> None:
        """Shut one (instance-free) shard down and reap its resources."""
        deadline = time.monotonic() + timeout
        if not shard.crashed:
            self._request_shutdown(shard, deadline)
        self._reap_shard(shard, deadline)

    # ------------------------------------------------------------------
    # fleet-wide barriers and accounting
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every live shard has applied its queued ops."""
        if self._closed:
            raise RuntimeError("gateway is closed")
        if timeout is None:
            timeout = self.config.drain_timeout_s
        futures = [self._submit_control(shard, _DRAIN) for shard in self._live_shards()]
        for future in futures:
            future.result(timeout)

    def stats(self) -> dict:
        """Aggregated fleet metrics plus per-shard and per-instance views.

        Per-instance ``stage`` sub-dicts match the replay harness's
        ``stage_stats`` key-for-key (the parity suites compare them
        directly); the ``fleet`` roll-up sums them across shards.
        """
        shard_futures = [
            (shard, self._submit_control(shard, _STATS)) for shard in self._live_shards()
        ]
        instances: Dict[str, dict] = {}
        shards = []
        for shard, future in shard_futures:
            per_instance = future.result(self.config.drain_timeout_s)
            instances.update(per_instance)
            shards.append(
                {
                    "shard": shard.index,
                    "alive": shard.process.is_alive(),
                    "n_instances": len(per_instance),
                    # live pressure: ops sitting in the bounded request
                    # queue right now (the rebalancer's primary signal)
                    "queue_depth": self._queue_depth(shard),
                    # cumulative per-shard load, summed from the owned
                    # instances' scheduler counters
                    "n_predicts": sum(
                        s["scheduler"]["n_predicts"] for s in per_instance.values()
                    ),
                    "n_observes": sum(
                        s["scheduler"]["n_observes"] for s in per_instance.values()
                    ),
                    **self._transport_counters(shard),
                }
            )
        for shard in self._shards:
            if shard.crashed:
                shards.append(
                    {
                        "shard": shard.index,
                        "alive": False,
                        "n_instances": 0,
                        "queue_depth": 0,
                        "n_predicts": 0,
                        "n_observes": 0,
                        **self._transport_counters(shard),
                    }
                )
        shards.sort(key=lambda row: row["shard"])
        fleet = {
            "n_predicts": 0,
            "n_observes": 0,
            "n_immediate": 0,
            "n_deferred": 0,
            "n_batches": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "n_local_retrains": 0,
            "byte_size": 0,
        }
        width_bins = new_width_bins()
        for stats in instances.values():
            scheduler, stage = stats["scheduler"], stats["stage"]
            for key in ("n_predicts", "n_observes", "n_immediate", "n_deferred", "n_batches"):
                fleet[key] += scheduler[key]
            fleet["cache_hits"] += stage["cache_hits"]
            fleet["cache_misses"] += stage["cache_misses"]
            fleet["n_local_retrains"] += stage["n_local_retrains"]
            fleet["byte_size"] += stage["byte_size"]
            # integer histograms merge exactly (elementwise addition),
            # so the fleet percentiles are independent of shard count
            # and of the order instances report in
            width_bins = merge_width_bins(width_bins, stage["interval_width_bins"])
        lookups = fleet["cache_hits"] + fleet["cache_misses"]
        fleet["cache_hit_rate"] = fleet["cache_hits"] / lookups if lookups else 0.0
        fleet["interval_width_bins"] = tuple(width_bins)
        fleet["interval_width_p50"] = width_percentile_from_bins(width_bins, 0.5)
        fleet["interval_width_p90"] = width_percentile_from_bins(width_bins, 0.9)
        return {
            "n_shards": self.n_shards,
            "n_instances": len(instances),
            "fleet": fleet,
            "shards": shards,
            "instances": instances,
            "routes": self.routes(),
        }

    @staticmethod
    def _transport_counters(shard: _Shard) -> dict:
        """How well the shard's transport batches: envelopes shipped to
        it, the ops (control ops included) they carried, and envelopes
        it answered with.  Cumulative over the shard's life."""
        return {
            "request_envelopes": shard.outbox.n_envelopes,
            "request_ops": shard.outbox.n_items,
            "response_envelopes": shard.response_envelopes,
        }

    @staticmethod
    def _queue_depth(shard: _Shard) -> int:
        """Live depth of one shard's submit window: ops submitted but
        not yet dequeued by the worker loop.  A parent-side counter
        (credits taken minus acks received), so it works on every
        platform — no ``sem_getvalue`` dependency."""
        with shard.credits_cond:
            return int(shard.depth)

    # ------------------------------------------------------------------
    # persistence (whole-fleet warm restart)
    # ------------------------------------------------------------------
    def snapshot(self, registry: ModelRegistry, name: str) -> str:
        """Persist the whole fleet under ``name``; returns its path.

        Each instance is exported at its claimed sequence number (read
        under its submit lock, as a migration reads its cut), so every
        member is a consistent op-stream prefix even under traffic; the
        parent then writes the members, the fleet-shared global model
        and the manifest in one :meth:`ModelRegistry.save`.  A crashed
        shard makes the snapshot fail explicitly (its members' states
        cannot be captured), and so does an in-flight migration (its
        instance's state is mid-handoff); either way nothing is written.
        """
        with self._resize_lock:
            migrating = sorted(self._migrations)
            if migrating:
                raise RuntimeError(
                    f"cannot snapshot fleet {name!r}: instances {migrating} "
                    "are migrating (their state is mid-handoff)"
                )
            stranded = sorted(
                instance_id
                for instance_id, index in self._instances.items()
                if self._shards[index].crashed
            )
            if stranded:
                raise RuntimeError(
                    f"cannot snapshot fleet {name!r}: instances {stranded} "
                    "live on crashed shards (their state is unrecoverable)"
                )
            exports = []
            for instance_id in self.instance_ids:
                with self._instance_lock(instance_id):
                    shard = self._shards[self._instances[instance_id]]
                    cut_seq = self._instance_seq[instance_id]
                exports.append(
                    (instance_id, self._submit_control(shard, _EXPORT, (instance_id, cut_seq)))
                )
            states = {
                instance_id: future.result(self.config.drain_timeout_s)["state"]
                for instance_id, future in exports
            }
            return registry.save(name, states, self.n_shards, global_model=self.global_model)

    @classmethod
    def restore(
        cls,
        registry: ModelRegistry,
        name: str,
        config: Optional[GatewayConfig] = None,
        stage_config: Optional[StageConfig] = None,
        random_state: int = 0,
    ) -> "FleetGateway":
        """Rebuild a fleet from a snapshot — under any shard count.

        The manifest's recorded shard count is provenance only; the new
        gateway re-routes every instance with :func:`shard_for` under its
        own ``config.n_shards``, reads each member's state bytes and
        ships them to the shard that now owns it.  Warm restart is
        bit-for-bit, retrains included.
        """
        manifest = registry.load_manifest(name)
        global_model = registry.load_global(name) if manifest["has_global_model"] else None
        gateway = cls(
            config,
            stage_config=stage_config,
            global_model=global_model,
            random_state=random_state,
        )
        try:
            imports = []
            for instance_id in manifest["instances"]:
                shard = gateway._shards[shard_for(instance_id, gateway.n_shards)]
                member = f"{name}/{instance_id}"
                handoff = _fresh_handoff(
                    registry.load_state(name, instance_id), f"snapshot member {member!r}"
                )
                future = gateway._submit_control(shard, _IMPORT, (instance_id, handoff))
                imports.append((instance_id, shard.index, future))
            for instance_id, shard_index, future in imports:
                future.result(gateway.config.drain_timeout_s)
                gateway._add_route(instance_id, shard_index)
        except BaseException:
            gateway.close()
            raise
        return gateway

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut the fleet down: drain live shards, join every process.

        Safe after crashes (dead shards are terminated and their pending
        futures have already failed) and idempotent.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        if timeout is None:
            timeout = self.config.drain_timeout_s
        # one shared monotonic deadline governs both loops below: the
        # shutdown broadcast and the join sweep draw on the same budget,
        # so close(timeout=T) stays bounded by ~T even on a wedged
        # many-shard fleet (past the deadline every wait degrades to a
        # non-blocking poll and the hard terminate takes over)
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            if not shard.crashed:
                self._request_shutdown(shard, deadline)
        for shard in self._shards:
            self._reap_shard(shard, deadline)
        # a migration interrupted by close: fail its buffered futures
        # (the control ops it was waiting on failed above, so its abort
        # path usually beat us here — this is the belt to that brace)
        for migration in list(self._migrations.values()):
            self._abort_migration(migration)

    def __enter__(self) -> "FleetGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # fault-injection instrumentation (tests only)
    # ------------------------------------------------------------------
    def _stall(self, shard_index: int, seconds: float) -> Future:
        """Hold one shard's loop busy for ``seconds`` — the hook the
        fault/backpressure suites use to fill queues deterministically."""
        return self._submit_control(self._shards[shard_index], _SLEEP, (float(seconds),))
