"""One client protocol for every serving tier.

Four tiers can serve a Stage prediction — in-process
:class:`~repro.service.PredictionService`, the sharded multi-process
:class:`~repro.service.FleetGateway`, and the TCP
:class:`~repro.service.WireClient` — and all of them speak the same
futures-based surface: :class:`PredictorClient`.  The replay harness,
the scenario engine, the serving bench and the fleet control plane
program against this protocol only, so a new tier (or a test double) plugs in by implementing
five methods instead of growing a special case in each of them.

:func:`replay_trace_via_client` is the one replay driver built on it:
given a *client factory* (a zero-arg callable returning a context
manager over a :class:`PredictorClient`) it replays an instance's fused
predict/observe stream from any number of concurrent clients,
reserving the whole sequence range up front so every interleaving —
thread, shard, connection — reproduces the direct replay bit-for-bit.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import Future
from typing import Callable, ContextManager, List, Optional, Protocol, runtime_checkable

__all__ = ["PredictorClient", "replay_trace_via_client", "shared_client"]


@runtime_checkable
class PredictorClient(Protocol):
    """The unified predictor-client surface, implemented by every tier.

    All submission methods are futures-based and thread-safe; ``seq``
    is the per-instance sequence number (``None`` = live mode, where
    arrival order is sequence order).
    """

    def predict_async(self, instance_id: str, record, seq: Optional[int] = None) -> Future:
        """Submit one prediction; resolves to its routed components."""
        ...

    def observe_async(self, instance_id: str, record, seq: Optional[int] = None) -> Future:
        """Feed back one executed query; resolves to ``None``."""
        ...

    def reserve_sequence(self, instance_id: str, count: int) -> int:
        """Claim ``count`` consecutive sequence slots; returns the base."""
        ...

    def stats(self) -> dict:
        """Serving-side accounting (tier-shaped; see each tier's docs)."""
        ...

    def close(self) -> None:
        """Release the client's resources."""
        ...


#: a zero-arg callable yielding a context manager over one client —
#: the unit of connection scope for :func:`replay_trace_via_client`
ClientFactory = Callable[[], ContextManager[PredictorClient]]


def shared_client(client: PredictorClient) -> ClientFactory:
    """A factory handing every caller the same client, never closing it.

    The in-process tiers (service, gateway) multiplex any number of
    threads over one client object; only connection-oriented tiers (the
    wire client) need a real per-caller factory.
    """
    return lambda: contextlib.nullcontext(client)


def replay_trace_via_client(
    client_factory: ClientFactory,
    trace,
    n_clients: int = 1,
    timeout: float = 300.0,
):
    """Replay one instance's fused predict/observe stream, concurrently.

    ``n_clients`` workers each open their own client from the factory
    and submit a strided slice of the trace with explicit sequence
    numbers drawn from one up-front reservation (predict at
    ``base + 2i``, observe at ``base + 2i + 1``), then wait out their
    own futures before closing — so connection-scoped clients stay open
    until their responses land, and any interleaving reproduces the
    direct replay bit-for-bit.  Returns per-query components in trace
    order.

    A *submission* failure means reserved slots were never submitted:
    the sequence stream now has a gap the backend's scheduler will wait
    behind, so it is wrapped in an explicit :class:`RuntimeError`
    telling the caller to close the backend.  A failure carried by a
    *response* future propagates as-is.
    """
    instance_id = trace.instance.instance_id
    n_clients = max(1, int(n_clients))
    with client_factory() as admin:
        base = admin.reserve_sequence(instance_id, 2 * len(trace))
    futures: List[Optional[Future]] = [None] * len(trace)
    observe_futures: List[Optional[Future]] = [None] * len(trace)
    submit_errors: List[Optional[BaseException]] = [None] * n_clients
    wait_errors: List[Optional[BaseException]] = [None] * n_clients
    abort = threading.Event()

    def worker(worker_index: int) -> None:
        try:
            with client_factory() as client:
                mine = []
                try:
                    for i in range(worker_index, len(trace), n_clients):
                        if abort.is_set():
                            return
                        record = trace[i]
                        futures[i] = client.predict_async(
                            instance_id, record, seq=base + 2 * i
                        )
                        observe_futures[i] = client.observe_async(
                            instance_id, record, seq=base + 2 * i + 1
                        )
                        mine.append((futures[i], observe_futures[i]))
                except BaseException as exc:
                    submit_errors[worker_index] = exc
                    abort.set()  # siblings stop instead of waiting out timeouts
                    return
                for predict_future, observe_future in mine:
                    if abort.is_set():
                        return
                    predict_future.result(timeout=timeout)
                    observe_future.result(timeout=timeout)
        except BaseException as exc:
            wait_errors[worker_index] = exc
            abort.set()

    threads = [
        threading.Thread(target=worker, args=(w,), name=f"replay-client-{w}")
        for w in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in submit_errors:
        if error is not None:
            # the reserved slots that were never submitted leave a gap
            # the backend's scheduler will wait behind, so the instance
            # cannot serve again — closing the backend (which fails
            # gap-stranded ops explicitly) is the only exit
            raise RuntimeError(
                f"replay submission failed; instance {instance_id!r}'s "
                "sequence stream now has a gap — close the serving backend"
            ) from error
    for error in wait_errors:
        if error is not None:
            raise error
    return [future.result(timeout=timeout) for future in futures]
