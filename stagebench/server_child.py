"""Child process hosting the wire front door for the serving workloads.

Reads one pickled settings dict from stdin (written by the benchmark
process itself), builds a ``FleetGateway`` with its shard processes and a
``WireServer`` in front of it, and prints ``{"host": ..., "port": ...}``
as one JSON line.  It then serves until a line (or EOF) arrives on
stdin, reads the peak resident set (``VmHWM``) of this process and of
every process below it (the shards), closes server and gateway, and
prints the largest as ``{"rss_kb": ...}``.  ``VmHWM`` starts afresh at
exec, unlike ``getrusage``'s ``ru_maxrss``, which carries over the
forking parent's resident set.
"""

from __future__ import annotations

import json
import os
import pickle
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.config import GatewayConfig, WireConfig  # noqa: E402
from repro.service import FleetGateway, WireServer  # noqa: E402


def _descendants(pid: int) -> list:
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:  # exited since it was listed
        return out
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as f:
                children = [int(child) for child in f.read().split()]
        except FileNotFoundError:
            continue
        for child in children:
            out.append(child)
            out.extend(_descendants(child))
    return out


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _program_peak_rss_kb() -> int:
    """Largest peak resident set of this process and its descendants."""
    peak = _peak_rss_kb(os.getpid())
    for pid in _descendants(os.getpid()):
        try:
            peak = max(peak, _peak_rss_kb(pid))
        except FileNotFoundError:
            pass  # exited since it was listed
    return peak


def main() -> int:
    stdin = sys.stdin.buffer
    settings = pickle.load(stdin)
    gateway = FleetGateway(
        GatewayConfig(n_shards=settings["n_shards"], queue_size=settings["queue_size"]),
        stage_config=settings["stage_config"],
        global_model=settings["global_model"],
        random_state=settings["random_state"],
    )
    server = WireServer(gateway, WireConfig(port=0))
    try:
        host, port = server.start()
        print(json.dumps({"host": host, "port": port}), flush=True)
        stdin.readline()
        peak_kb = _program_peak_rss_kb()
    finally:
        server.close()
        gateway.close()
    print(json.dumps({"rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
