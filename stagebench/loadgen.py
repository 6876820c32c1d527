"""The wire side of the benchmark: server child lifecycle, registration, warmup and
the open-loop timed phase.

The load generator is one asyncio thread with two connections (one per
core).  Each instance sticks to one connection, so its predict/observe
frames reach the server in trace order and the server's ingress
sequencing reproduces the direct replay's op stream exactly.

Open loop: the timed phase's arrival times (the generator's own, see
``Fleet.ops``) are compressed uniformly so the mean rate equals the
workload's offered rate (each trace's burstiness is kept).  Every query is sent at its due time as a
fused predict + observe pair, whether or not earlier answers came back,
and each predict is timed from its due time, so a stall also charges
the queries that were due while it lasted.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.wire import OP_OBSERVE, OP_PREDICT, AsyncWireClient

from .workloads import N_SHARDS, Fleet, answer_of

N_CONNECTIONS = 2
QUEUE_SIZE = 256
#: the timed phase starts this long after its schedule is built
START_DELAY_S = 0.05
#: how long to wait for the last answers after the last send
ANSWER_TIMEOUT_S = 120.0
CHILD_TIMEOUT_S = 60.0
SERVER_NICENESS = 10


class ServerChild:
    """A ``WireServer`` over a ``FleetGateway``, in its own process."""

    def __init__(self, root: str, global_model, stage_config, random_state: int):
        t0 = time.perf_counter()
        env = dict(os.environ)
        self.rss_kb = 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "stagebench", "server_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            # the server yields to the load generator when both want a
            # core: a late send would be charged to the server
            preexec_fn=lambda: os.nice(SERVER_NICENESS),
            # its own process group, so kill() also reaches the shards;
            # not its own session, whose scheduler autogroup would void
            # the niceness above
            process_group=0,
        )
        try:
            self.proc.stdin.write(
                pickle.dumps(
                    {
                        "n_shards": N_SHARDS,
                        "queue_size": QUEUE_SIZE,
                        "stage_config": stage_config,
                        "global_model": global_model,
                        "random_state": random_state,
                    }
                )
            )
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server child exited before binding its port")
            address = json.loads(line)
        except BaseException:
            self.kill()
            raise
        self.host, self.port = address["host"], address["port"]
        self.spawn_s = time.perf_counter() - t0

    def stop(self) -> None:
        """Ask the child to shut down, collect its peak RSS, reap it."""
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
            line = self.proc.stdout.readline()
            if line:
                self.rss_kb = int(json.loads(line)["rss_kb"])
            self.proc.wait(CHILD_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the child's process group (server and shards); after a
        clean :meth:`stop` the group is already empty."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(CHILD_TIMEOUT_S)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


@dataclass
class PhaseCount:
    """Ops sent, succeeded and failed in one phase."""

    sent: int = 0
    ok: int = 0
    failed: int = 0

    def line(self, name: str) -> str:
        return f"{name}: sent={self.sent} ok={self.ok} failed={self.failed}"


@dataclass
class Session:
    """Open connections plus everything the phases measured."""

    clients: List[AsyncWireClient]
    #: per instance position: the answers, in trace order
    answers: List[List[Optional[tuple]]]
    register_s: float = 0.0
    warmup_s: float = 0.0
    warmup: PhaseCount = field(default_factory=PhaseCount)
    timed: PhaseCount = field(default_factory=PhaseCount)
    #: timed phase, per fused query in due order
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    predict_done: List[Optional[float]] = field(default_factory=list)
    observe_done: List[Optional[float]] = field(default_factory=list)
    predict_ok: List[bool] = field(default_factory=list)
    observe_ok: List[bool] = field(default_factory=list)
    #: position in the timed stream -> (instance position, record)
    timed_ops: list = field(default_factory=list)
    #: CPU time the hypervisor took from this machine during the timed
    #: phase (s), where the host reports it
    steal_s: Optional[float] = None
    stats: Dict = field(default_factory=dict)


def host_steal_s() -> Optional[float]:
    """CPU time the hypervisor has taken from this machine since boot
    (the steal column of Linux ``/proc/stat``), or None elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _answer(components) -> tuple:
    return answer_of(components.prediction)


async def open_session(host: str, port: int, fleet: Fleet) -> Session:
    clients = []
    for k in range(N_CONNECTIONS):
        clients.append(await AsyncWireClient.connect(host, port, name=f"stagebench-{k}"))
    return Session(clients=clients, answers=[[None] * len(t) for t in fleet.traces])


async def close_session(session: Session) -> None:
    for client in session.clients:
        await client.close()


async def register_and_warm(session: Session, fleet: Fleet) -> None:
    """Register every instance, then replay the warmup phase with
    feedback, pipelined (all ops in flight at once, per connection)."""
    t0 = time.perf_counter()
    for trace in fleet.traces:
        await session.clients[0].register_instance(trace.instance)
    session.register_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    futures = []
    for pos, k, record in fleet.ops(timed=False):
        client = session.clients[pos % N_CONNECTIONS]
        iid = fleet.traces[pos].instance.instance_id
        futures.append((pos, k, client.submit_predict(iid, record)))
        futures.append((pos, None, client.submit_observe(iid, record)))
        await client.drain()
    session.warmup.sent = len(futures)
    for pos, k, future in futures:
        try:
            value = await future
        except Exception:
            session.warmup.failed += 1
            continue
        session.warmup.ok += 1
        if k is not None:
            session.answers[pos][k] = _answer(value)
    session.warmup_s = time.perf_counter() - t0


async def timed_phase(session: Session, fleet: Fleet, rate_qps: float) -> None:
    """Send the timed stream open loop at ``rate_qps`` fused queries/s."""
    session.timed_ops = fleet.ops(timed=True)
    n = len(session.timed_ops)
    offsets = fleet.schedule(session.timed_ops, rate_qps)
    session.due = [0.0] * n
    session.sent = [0.0] * n
    session.predict_done = [None] * n
    session.observe_done = [None] * n
    session.predict_ok = [False] * n
    session.observe_ok = [False] * n
    futures = []

    def on_predict(i, pos, k, future):
        session.predict_done[i] = time.perf_counter()
        if not future.cancelled() and future.exception() is None:
            session.predict_ok[i] = True
            session.answers[pos][k] = _answer(future.result())

    def on_observe(i, future):
        session.observe_done[i] = time.perf_counter()
        session.observe_ok[i] = not future.cancelled() and future.exception() is None

    # The generator's own costs stay out of the schedule: payloads (the
    # same frame body serves the predict and the observe) are encoded up
    # front, and its garbage collector is held off while it sends.
    payloads = [
        pickle.dumps(
            (fleet.traces[pos].instance.instance_id, record, None),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for pos, _, record in session.timed_ops
    ]
    gc.collect()
    gc.disable()
    steal_before = host_steal_s()
    try:
        start = time.perf_counter() + START_DELAY_S
        for i, (pos, k, record) in enumerate(session.timed_ops):
            due = start + offsets[i]
            session.due[i] = due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client = session.clients[pos % N_CONNECTIONS]
            try:
                pf = client.submit(OP_PREDICT, payloads[i])
                of = client.submit(OP_OBSERVE, payloads[i])
            except Exception:
                session.sent[i] = time.perf_counter()
                continue
            session.sent[i] = time.perf_counter()
            pf.add_done_callback(lambda f, i=i, pos=pos, k=k: on_predict(i, pos, k, f))
            of.add_done_callback(lambda f, i=i: on_observe(i, f))
            futures.extend((pf, of))
            # no drain: an open-loop sender never waits for the server;
            # under backpressure frames queue in the client's transport
        if futures:
            await asyncio.wait(futures, timeout=ANSWER_TIMEOUT_S)
        # done-callbacks run one loop turn after each future resolves
        await asyncio.sleep(0)
    finally:
        gc.enable()
    steal_after = host_steal_s()
    if steal_before is not None and steal_after is not None:
        session.steal_s = steal_after - steal_before
    session.timed.sent = 2 * n
    session.timed.ok = sum(session.predict_ok) + sum(session.observe_ok)
    session.timed.failed = session.timed.sent - session.timed.ok
    session.stats = await session.clients[0].stats()
