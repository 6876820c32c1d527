"""Micro-batching request scheduler for the online serving layer.

One worker thread owns all predictor state; client threads only enqueue
operations and wait on futures.  Operations carry *sequence numbers* and
are executed strictly in sequence order (a reorder buffer holds early
arrivals), which is the scheduler's determinism contract:

    results depend only on the sequence-ordered op stream — never on
    client thread interleaving, batch boundaries, or wall-clock timing.

Within that order the worker batches the expensive work: a ``predict``
whose answer needs the local ensemble is *deferred* (the underlying
:class:`~repro.core.stage.BatchRouter` snapshots the frozen ensemble),
and the worker flushes one batched ensemble call once
``max_batch_size`` predictions are pending or the in-sequence op
stream stalls with nothing left to pull — whichever comes first.  The
``max_batch_latency_ms`` window only bounds a stall while more work is
on its way: ops queued past a sequence gap, or — when the last predict
pulled was answered immediately — that predict's client coming back (a
closed-loop client with an answer submits again; one blocked on a
deferred predict cannot).  The worker waits up to the window for that
work, then flushes anyway: the cache hits of many concurrent clients
keep flowing while their model-bound queries gather into one ensemble
call, and a lone request-at-a-time client's deferred predict, the last
one pulled, never waits.  Cache hits and cold-start routes resolve
immediately — they never wait for the batch window.  Observes, and the
local retrains they trigger, run inline on the worker thread too: a
retrain delays every op queued behind it, cache hits included, until
the fit returns.  In the serving benchmark's traced runs on a 2-vCPU
host a ``fast_profile`` retrain averages ~120 ms, so each one stalls
its shard for about that long.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.core.config import ServiceConfig
from repro.core.stage import BatchRouter, RoutedSlot

__all__ = ["MicroBatchScheduler"]

#: op kinds understood by the scheduler
PREDICT = "predict"
OBSERVE = "observe"


class _Op:
    __slots__ = ("kind", "record", "future")

    def __init__(self, kind, record, future):
        self.kind = kind
        self.record = record
        self.future = future


class MicroBatchScheduler:
    """Sequenced, micro-batching executor over one :class:`BatchRouter`.

    Parameters
    ----------
    router:
        The batch router owning the predictor state.  Only the worker
        thread ever touches it.
    config:
        Batching knobs (:class:`~repro.core.config.ServiceConfig`).
    """

    def __init__(self, router: BatchRouter, config: Optional[ServiceConfig] = None):
        self.router = router
        # ServiceConfig.__post_init__ validates the knobs
        self.config = config or ServiceConfig()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        #: reorder buffer: sequence number -> queued op
        self._ops: Dict[int, _Op] = {}
        self._next_submit_seq = 0
        self._next_exec_seq = 0
        self._busy = False
        self._paused = False
        self._closed = False
        self.stats = {
            "n_predicts": 0,
            "n_observes": 0,
            "n_immediate": 0,
            "n_deferred": 0,
            "n_batches": 0,
            "max_batch_size": 0,
        }
        #: lazily started on the first submit: a scheduler that never
        #: sees an op never owns a thread, and its cold lifecycle paths
        #: (drain/close/snapshot on a never-started service) stay trivial
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _ensure_worker(self) -> None:
        """Start the worker thread on first use (locked)."""
        if self._worker is None:
            self._worker = threading.Thread(
                target=self._run, name="prediction-service-worker", daemon=True
            )
            self._worker.start()

    def _raise_if_undrainable(self) -> None:
        """Turn a would-be hang into an explicit error (locked).

        Queued ops can only ever be applied by a live worker thread; if
        it is gone (or was never started, which ``submit`` prevents but a
        crashed thread cannot), waiting on them would stall until the
        drain timeout for no reason.
        """
        if not self._ops:
            return
        if self._worker is None or not self._worker.is_alive():
            raise RuntimeError(
                f"scheduler worker is not running; {len(self._ops)} "
                "queued op(s) can never drain"
            )

    def submit(self, kind: str, record, seq: Optional[int] = None) -> Future:
        """Enqueue one op; returns its future.

        ``seq`` defaults to the next submission slot (live mode, where
        arrival order *is* sequence order).  Replay-style callers may
        assign explicit sequence numbers from concurrent threads; every
        sequence number must be submitted exactly once, with no gaps,
        or the stream stalls behind the missing op.
        """
        if kind not in (PREDICT, OBSERVE):
            raise ValueError(f"unknown op kind {kind!r}")
        future: Future = Future()
        with self._cv:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._ensure_worker()
            if seq is None:
                seq = self._next_submit_seq
            elif seq < self._next_exec_seq or seq in self._ops:
                raise ValueError(f"sequence number {seq} already used")
            self._next_submit_seq = max(self._next_submit_seq, seq + 1)
            self._ops[seq] = _Op(kind, record, future)
            self._cv.notify_all()
        return future

    def reserve(self, count: int) -> int:
        """Atomically claim ``count`` sequence slots; returns the base.

        The caller owns ``[base, base + count)`` and must submit every
        slot exactly once (a skipped slot stalls the stream behind the
        gap).  This is the primitive replay drivers use to interleave
        explicit-seq submissions from concurrent clients.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            base = self._next_submit_seq
            self._next_submit_seq = base + count
            return base

    def drain_through(self, seq: int, timeout: Optional[float] = None) -> None:
        """Block until every op below ``seq`` is applied and flushed.

        Unlike :meth:`drain` this does not require the whole stream to
        be quiet — only the prefix ``[0, seq)``.  Used by the migration
        cutover to wait out stragglers below the cut without stalling on
        ops that were intentionally diverted elsewhere.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._cv:
            if self._next_exec_seq >= seq and not self._busy:
                return
            self._raise_if_undrainable()
            drained = self._cv.wait_for(
                lambda: self._next_exec_seq >= seq and not self._busy,
                timeout=timeout,
            )
            if not drained:
                self._raise_if_undrainable()
        if not drained:
            raise TimeoutError(f"scheduler did not reach sequence {seq} in time")

    def advance_to_seq(self, seq: int) -> None:
        """Jump the execution cursor forward to ``seq`` (restore path).

        A restored scheduler resumes a stream whose prefix was executed
        elsewhere (before a snapshot, or on a migration source shard):
        the state already reflects ops ``[0, seq)``, so execution must
        resume at ``seq``.  Only valid while idle with no queued ops.
        """
        if seq < 0:
            raise ValueError("seq must be >= 0")
        with self._cv:
            if self._ops or self._busy:
                raise RuntimeError("cannot advance a scheduler with queued or in-flight ops")
            if seq < self._next_exec_seq:
                raise ValueError(
                    f"cannot rewind execution cursor from {self._next_exec_seq} to {seq}"
                )
            self._next_exec_seq = seq
            self._next_submit_seq = max(self._next_submit_seq, seq)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted op is applied and flushed.

        A never-started scheduler drains immediately (there is nothing
        to wait for); queued ops with no live worker raise an explicit
        :class:`RuntimeError` instead of stalling out the timeout.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._cv:
            self._raise_if_undrainable()
            drained = self._cv.wait_for(lambda: not self._ops and not self._busy, timeout=timeout)
            if not drained:
                self._raise_if_undrainable()
        if not drained:
            raise TimeoutError("scheduler did not drain in time")

    @contextmanager
    def paused(self):
        """Hold the worker idle (e.g. while snapshotting predictor state).

        Entering waits for the in-flight micro-batch to finish; until
        exit the worker applies no further ops, so the predictor state
        is frozen at a consistent op-stream prefix.  Submissions are
        still accepted — they queue and execute on resume.
        """
        with self._cv:
            self._paused = True
            self._cv.wait_for(lambda: not self._busy)
        try:
            yield
        finally:
            with self._cv:
                self._paused = False
                self._cv.notify_all()

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop the worker after the queued (gap-free) ops are applied.

        Idempotent: a second (or later) close is a no-op, and closing a
        never-started scheduler only marks it closed.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._cv:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            self._cv.notify_all()
        if worker is not None:
            worker.join(timeout)
        # ops stranded behind a sequence gap can never run
        with self._cv:
            stranded, self._ops = self._ops, {}
        for op in stranded.values():
            op.future.set_exception(RuntimeError("scheduler closed"))

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _pop_ready_run(self, predict_limit: int) -> List[_Op]:
        """Take the maximal in-sequence run of same-kind ops (locked).

        The run stops at the first missing sequence number, at a kind
        change, or — for predicts — at ``predict_limit``, which callers
        set to the micro-batch headroom so a run can never overfill the
        pending window past ``max_batch_size``.
        """
        run: List[_Op] = []
        while True:
            op = self._ops.get(self._next_exec_seq)
            if op is None:
                break
            if run and op.kind != run[0].kind:
                break
            if op.kind == PREDICT and len(run) >= predict_limit:
                break
            del self._ops[self._next_exec_seq]
            self._next_exec_seq += 1
            run.append(op)
        return run

    def _run(self) -> None:
        while True:
            with self._cv:
                # wait while paused (even when closing: resume must land
                # first) or while the next in-sequence op is missing
                while (not self._closed or self._paused) and (
                    self._paused or self._next_exec_seq not in self._ops
                ):
                    self._cv.wait()
                if self._next_exec_seq not in self._ops:
                    return  # closed, nothing runnable
                self._busy = True
            try:
                self._run_batch()
            finally:
                with self._cv:
                    self._busy = False
                    self._cv.notify_all()

    def _run_batch(self) -> None:
        """Collect and execute one micro-batch of in-sequence ops.

        Ops are pulled as maximal same-kind *runs* so a window of
        consecutive predicts goes through the router's vectorized
        :meth:`~repro.core.stage.BatchRouter.route_batch` in one call —
        bit-identical to routing each op alone (the determinism contract
        already makes batch boundaries invisible), but paying the cache
        probe and state reads once per run instead of once per op.
        """
        cfg = self.config
        stats = self.stats
        deadline: Optional[float] = None
        pending: List[Tuple[RoutedSlot, Future]] = []
        #: the last predict pulled was answered at once, so its client —
        #: unlike one blocked on a deferred predict — is free to submit
        #: again; a closed-loop client does
        returning = False
        while True:
            with self._cv:
                # a pause request ends the batch at the next run boundary
                run = (
                    []
                    if self._paused
                    else self._pop_ready_run(cfg.max_batch_size - len(pending))
                )
                if not run:
                    if not pending:
                        break  # idle: return to the blocking outer wait
                    # The in-sequence stream stalled (queue empty, gap, or
                    # pause) with deferrals pending.  When the deferred
                    # futures are all the stream is blocked on, waiting
                    # out the batch window would stall everyone for
                    # nothing — flush now.  Wait, bounded by the batch
                    # window, only while more work is on its way: ops
                    # already queued past a gap, or the client of an
                    # immediate answer coming back.  A lone client's
                    # deferred predict is the last one pulled, so it
                    # never waits.
                    if not self._ops and not returning:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cv.wait(timeout=remaining)
                    continue
            if run[0].kind == OBSERVE:
                for op in run:
                    stats["n_observes"] += 1
                    try:
                        self.router.observe(op.record)
                    except Exception as exc:  # surface, don't kill worker
                        op.future.set_exception(exc)
                    else:
                        op.future.set_result(None)
                continue
            stats["n_predicts"] += len(run)
            try:
                slots = self.router.route_batch([op.record for op in run])
            except Exception as exc:
                for op in run:
                    op.future.set_exception(exc)
                continue
            for op, slot in zip(run, slots):
                returning = slot.ready
                if slot.ready:
                    # cache hit or cold-start route: answer immediately
                    stats["n_immediate"] += 1
                    op.future.set_result(slot.components)
                else:
                    stats["n_deferred"] += 1
                    pending.append((slot, op.future))
            if len(pending) >= cfg.max_batch_size:
                break
            if pending and deadline is None:
                deadline = time.monotonic() + cfg.max_batch_latency_ms / 1000.0
        # Serve the batch: one ensemble call for every deferred route
        # (plus any component-collection deferrals riding the window).
        if self.router.has_pending:
            try:
                self.router.flush()
            except Exception as exc:
                for _, future in pending:
                    future.set_exception(exc)
                return
        if pending:
            stats["n_batches"] += 1
            stats["max_batch_size"] = max(stats["max_batch_size"], len(pending))
            for slot, future in pending:
                future.set_result(slot.components)
