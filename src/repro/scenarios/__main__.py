"""Command-line entry point: ``python -m repro.scenarios``.

Replays the registered scenario matrix through the fleet-sweep engine
and writes the deterministic report to ``results/scenario_matrix.txt``
(``--out`` to change, ``--no-write`` to print only).  Defaults match
the committed report exactly, so a bare run must reproduce it
bit-for-bit — that is what CI's results-drift gate checks.

The ``calibration`` subcommand renders the interval-coverage scorecard
(``results/calibration_scorecard.txt``, also drift-gated): empirical
coverage of the calibrated prediction intervals versus the nominal
confidence, per source.

Examples
--------
::

    PYTHONPATH=src python -m repro.scenarios
    PYTHONPATH=src python -m repro.scenarios --list
    PYTHONPATH=src python -m repro.scenarios --scenarios baseline burst_storm \\
        --jobs 2 --via-service --clients 3 --no-write
    PYTHONPATH=src python -m repro.scenarios calibration
    PYTHONPATH=src python -m repro.scenarios calibration --jobs 2 --no-write
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

from repro.core.config import ReplayBackend, ServiceConfig

from .engine import (
    ScenarioRunner,
    ScenarioSweepConfig,
    get_scenario,
    registered_scenarios,
    render_matrix,
)

#: the committed, CI-drift-gated reference report
DEFAULT_OUT = os.path.join("results", "scenario_matrix.txt")

#: the committed, CI-drift-gated calibration scorecard
CALIBRATION_OUT = os.path.join("results", "calibration_scorecard.txt")


def _calibration_main(argv) -> int:
    """The ``calibration`` subcommand: render the coverage scorecard.

    ``--jobs`` is bit-identical at any value (the sweep engine's parity
    contract), so it never taints the drift-gated default output.
    """
    from .calibration import run_calibration

    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios calibration",
        description="interval-coverage scorecard for the uncertainty pipeline",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (any value is bit-identical)"
    )
    parser.add_argument("--out", default=CALIBRATION_OUT)
    parser.add_argument(
        "--no-write", action="store_true", help="print the scorecard without writing --out"
    )
    args = parser.parse_args(argv)
    _, report = run_calibration(n_jobs=args.jobs)
    print(report)
    if not args.no_write:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            f.write(report + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="declarative stress-scenario matrix over the Stage predictor",
    )
    defaults = ScenarioSweepConfig()
    parser.add_argument("--list", action="store_true", help="list registered scenarios and exit")
    parser.add_argument(
        "--scenarios",
        nargs="+",
        metavar="NAME",
        help="subset of registered scenarios (default: the full matrix)",
    )
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--instances", type=int, default=defaults.n_instances)
    parser.add_argument("--duration-days", type=float, default=defaults.duration_days)
    parser.add_argument("--volume-scale", type=float, default=defaults.volume_scale)
    parser.add_argument(
        "--jobs",
        type=int,
        default=defaults.n_jobs,
        help="worker processes per scenario (any value is bit-identical)",
    )
    parser.add_argument(
        "--via-service",
        action="store_true",
        help="replay through a live PredictionService (bit-identical to direct)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=defaults.backend.clients,
        help="concurrent service clients (with --via-service)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=defaults.backend.service.max_batch_size,
        help="service micro-batch size (with --via-service)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the report without writing --out",
    )
    return parser


def main(argv=None) -> int:
    if argv is None:
        import sys

        argv = sys.argv[1:]
    if argv and argv[0] == "calibration":
        return _calibration_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for scenario in registered_scenarios():
            print(f"{scenario.name:<18} {scenario.description}")
        return 0

    defaults = ScenarioSweepConfig()
    backend = ReplayBackend(
        mode="service" if args.via_service else "direct",
        clients=args.clients,
        service=ServiceConfig(max_batch_size=args.batch_size),
    )
    if not args.via_service and backend != defaults.backend:
        parser.error("--clients/--batch-size only apply with --via-service")
    scenarios = None
    if args.scenarios:
        scenarios = [get_scenario(name) for name in args.scenarios]
    config = ScenarioSweepConfig(
        seed=args.seed,
        n_instances=args.instances,
        duration_days=args.duration_days,
        volume_scale=args.volume_scale,
        backend=backend,
        n_jobs=args.jobs,
    )
    # The default --out is the committed, CI-drift-gated reference file;
    # only a full-matrix run at the default scale may overwrite it
    # (n_jobs excluded: any value is bit-identical).
    deviates = scenarios is not None or replace(config, n_jobs=defaults.n_jobs) != defaults
    if (
        deviates
        and not args.no_write
        and os.path.abspath(args.out) == os.path.abspath(DEFAULT_OUT)
    ):
        parser.error(
            "non-default runs would clobber the drift-gated "
            f"{DEFAULT_OUT}; pass --out <path> or --no-write"
        )

    runner = ScenarioRunner(config, scenarios=scenarios)
    report = render_matrix(runner.run_matrix(), config)
    print(report)
    if not args.no_write:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            f.write(report + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
