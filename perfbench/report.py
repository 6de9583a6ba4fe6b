#!/usr/bin/env python3
"""Run every workload once and print the end-to-end metrics side by side.

    python3 perfbench/report.py [--seed 1]

Each workload runs in its own process through run.py with ``--trace 0``
and the ``run_seconds`` of BENCHMARK.json, exactly as a single benchmark
run would; this script only collects the last output line of each and
prints one table, with failed_share = failed / attempted.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = {}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(results[workloads[0]]["metrics"])
    print(f"seed {args.seed}")
    print(f"{'metric':45s} {'unit':6s}" + "".join(f"{w:>14s}" for w in workloads))
    for metric in names:
        unit = results[workloads[0]]["metrics"][metric]["unit"]
        cells = "".join(f"{results[w]['metrics'][metric]['value']:>14.6g}" for w in workloads)
        print(f"{metric:45s} {unit:6s}{cells}")
    shares = "".join(f"{results[w]['failed'] / results[w]['attempted']:>14.6g}" for w in workloads)
    print(f"{'failed_share':45s} {'ratio':6s}{shares}")
    counts = "".join(f"{results[w]['attempted']:>14d}" for w in workloads)
    print(f"{'operations attempted':45s} {'count':6s}{counts}")
    correct = "".join(f"{str(results[w]['correct']):>14s}" for w in workloads)
    print(f"{'correct':45s} {'':6s}{correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
