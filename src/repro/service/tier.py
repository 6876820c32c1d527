"""Stand up the serving tier a :class:`~repro.core.config.ReplayBackend` names.

The replay harness and the serving benchmark both need the same thing
from a tier: a live backend with its instances registered, a
:class:`~repro.service.PredictorClient` factory per worker, an admin
client for registration and accounting, and the per-tier wait budget.
:func:`open_tier` is the one place that builds it, so the
FleetGateway + WireServer + admin-connection setup exists once.
"""

from __future__ import annotations

import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.config import ReplayBackend, StageConfig
from repro.global_model.model import GlobalModel

from .client import ClientFactory, PredictorClient, replay_trace_via_client, shared_client
from .gateway import FleetGateway
from .server import PredictionService
from .wire import WireClient, WireServer

__all__ = ["ServingTier", "open_tier"]

#: the socket tier's per-op wait budget (the in-process tiers use their
#: own drain timeout)
SOCKET_TIMEOUT_S = 300.0


@dataclass
class ServingTier:
    """One live serving tier, as :func:`open_tier` yields it."""

    #: ``"service"``, ``"gateway"`` or ``"socket"``
    mode: str
    #: opens one worker's client: the shared in-process tier, or a fresh
    #: TCP connection per call over the socket
    connect: ClientFactory
    #: registration, reservation and accounting client (over the socket
    #: for the socket tier, so accounting crosses the wire too)
    admin: PredictorClient
    #: how long a worker waits on one response
    timeout: float
    #: the in-process gateway behind the ``gateway``/``socket`` tiers
    gateway: Optional[FleetGateway]
    drain: Callable[[], None]

    def instance_stats(self) -> Dict[str, dict]:
        """Per-instance ``{"stage": ..., "scheduler": ...}`` accounting."""
        stats = self.admin.stats()
        if self.mode == "service":
            return {self.admin.instance_id: stats}
        # the wire STATS op wraps the gateway's stats under "gateway"
        return (stats["gateway"] if self.mode == "socket" else stats)["instances"]

    def replay(self, traces: Sequence, n_clients: int, n_submitters: int = 1) -> List[list]:
        """Replay each trace's fused predict/observe stream through the
        one driver, :func:`~repro.service.replay_trace_via_client`;
        ``n_submitters`` traces are in flight at once."""

        def one(trace):
            return replay_trace_via_client(self.connect, trace, n_clients, timeout=self.timeout)

        if n_submitters <= 1:
            return [one(trace) for trace in traces]
        with ThreadPoolExecutor(max_workers=n_submitters) as pool:
            return list(pool.map(one, traces))


@contextlib.contextmanager
def open_tier(
    backend: ReplayBackend,
    instances: Sequence,
    stage_config: Optional[StageConfig] = None,
    global_model: Optional[GlobalModel] = None,
    random_state: int = 0,
    collect_components: bool = False,
) -> Iterator[ServingTier]:
    """Serve ``instances`` on the tier ``backend.mode`` names; closes it on exit.

    ``service`` is one :class:`PredictionService` and takes exactly one
    instance; ``gateway`` is a multi-process :class:`FleetGateway`;
    ``socket`` puts a :class:`WireServer` in front of that gateway.
    ``backend.service`` carries the micro-batching knobs for every tier.
    """
    service_config = replace(backend.service, collect_components=collect_components)
    # closing on exit always stops the tier's worker threads and shard
    # processes, also after a failed run (close fails gap-stranded ops)
    with contextlib.ExitStack() as stack:
        if backend.mode == "service":
            if len(instances) != 1:
                raise ValueError(
                    f"the service tier serves exactly one instance, got {len(instances)}"
                )
            service = stack.enter_context(
                PredictionService(
                    instances[0],
                    global_model=global_model,
                    stage_config=stage_config,
                    service_config=service_config,
                    random_state=random_state,
                )
            )
            yield ServingTier(
                mode=backend.mode,
                connect=shared_client(service),
                admin=service,
                timeout=service.config.drain_timeout_s,
                gateway=None,
                drain=service.drain,
            )
            return
        if backend.mode not in ("gateway", "socket"):
            raise ValueError(
                f'open_tier needs mode "service", "gateway" or "socket", got {backend.mode!r}'
            )
        gateway = FleetGateway(
            replace(backend.gateway, service=service_config),
            stage_config=stage_config,
            global_model=global_model,
            random_state=random_state,
        )
        stack.callback(gateway.close)
        if backend.mode == "socket":
            server = WireServer(gateway, backend.wire)
            stack.callback(server.close)
            host, port = server.start()
            admin = stack.enter_context(WireClient(host, port, name="tier-admin"))
            connection_ids = itertools.count()

            def connect():
                return WireClient(host, port, name=f"tier-client-{next(connection_ids)}")

            timeout = SOCKET_TIMEOUT_S
        else:
            admin = gateway
            connect = shared_client(gateway)
            timeout = gateway.config.drain_timeout_s
        for instance in instances:
            admin.register_instance(instance)
        yield ServingTier(
            mode=backend.mode,
            connect=connect,
            admin=admin,
            timeout=timeout,
            gateway=gateway,
            drain=gateway.drain,
        )
