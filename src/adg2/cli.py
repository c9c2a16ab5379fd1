"""Command line of adg2.

    adg2 verify --seed N [--suite all|excalc|g2lin|hk|spin] [--no-timing]

runs the exact verify suites and prints their reports as one JSON list, one
document per suite in the layout of verify.Report.dumps.  The exit code is 0
when every check passes and 1 when any fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adg2", description="Adiabatic fibred-geometry toolkit.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("verify", help="run the exact verify suites")
    run.add_argument("--suite", default="all", choices=verify.SUITES + ("all",))
    run.add_argument("--seed", type=int, required=True,
                     help="seed of the random samples the suites check")
    run.add_argument("--no-timing", action="store_true",
                     help="report every runtime_ms as 0, so that equal runs "
                          "print equal text")
    args = parser.parse_args(argv)
    reports = verify.run_suite(args.suite, args.seed)
    docs = [report.to_json(timing=not args.no_timing) for report in reports]
    sys.stdout.write(json.dumps(docs, indent=2, sort_keys=True) + "\n")
    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
