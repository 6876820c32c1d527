"""Tiny-scale self-test of the benchmark command.

Run from the root of a checkout::

    python3 stagebench/selftest.py

For every workload in ``BENCHMARK.json`` it runs ``stagebench/run.py``
at tiny scale (``--seconds 1 --tiny``), untraced and traced, and checks
that the command exits 0, passes its correctness gate, and prints every
``end_to_end`` (untraced) or ``per_layer`` (traced) metric of
``BENCHMARK.json`` with its unit, both in its report and in the JSON
result line.  It also checks that the command fails, without a result
line, in a directory that holds only ``BENCHMARK.json`` and the
benchmark.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def _run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("stagebench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list:
    wanted = spec["per_layer" if trace else "end_to_end"]
    proc = _run(ROOT, workload, trace)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: {got} (want unit {metric['unit']})")
            continue
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: value {got.get('value')!r}")
        if not any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]):
            problems.append(f"{metric['name']}: not in the printed report")
    return problems


def check_bare_directory(spec: dict) -> list:
    """Without the program's sources the command must fail cleanly."""
    bare = os.path.join(ROOT, ".stagebench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    checks = [("bare directory", lambda: check_bare_directory(spec))]
    for workload in spec["workloads"]:
        for trace in (0, 1):
            checks.append((f"{workload['name']} --trace {trace}",
                           lambda w=workload["name"], t=trace: check_workload(spec, w, t)))
    for name, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {name}", flush=True)
        for problem in problems:
            print(f"     {problem}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
