#!/usr/bin/env python3
"""Run every property suite and print a one-line summary per suite.

The --scale flag shrinks the case counts for a quick smoke pass
(e.g. --scale 0.1) or enlarges them for an overnight soak.
"""

import argparse
import inspect
import sys
import time

from contraction_lab.suites import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every case count (default 1.0)")
    parser.add_argument("--only", action="append",
                        help="run only this suite (repeatable)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    names = args.only or sorted(SUITES)
    overall = True
    for name in names:
        # the full count is the suite function's default
        full = inspect.signature(SUITES[name]).parameters["cases"].default
        cases = max(1, int(full * args.scale))
        started = time.perf_counter()
        report = run_suite(name, cases=cases, seed=args.seed)
        elapsed = time.perf_counter() - started
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  {name:28s} cases={report.cases:5d}  {elapsed:7.1f}s")
        for failure in report.failures[:10]:
            print(f"      {failure}")
        overall = overall and report.passed
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
