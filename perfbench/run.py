#!/usr/bin/env python3
"""Benchmark of contraction-lab's oracles, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload shmulyan --seed 1 --seconds 10 --trace 0

The seed draws the workload's matrices; the same seed gives the same
inputs.  With ``--trace 0`` the run reports the end-to-end metrics named
in BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced
pass.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are
a readable summary, and the full record (environment, samples, per-class
latencies, per-call medians) goes to ``perfbench/results/``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 before measuring anything.
"""

import os

# One BLAS thread, set before numpy loads, so the figures do not depend on
# how many cores the host lends to the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec():
    """BENCHMARK.json, or exit 2 when the checkout has none."""
    if not SPEC.is_file():
        _die(f"missing {SPEC}")
    return json.loads(SPEC.read_text())


def _import_library():
    """Import contraction_lab from this checkout's src/, or exit 2."""
    package = SRC / "contraction_lab"
    if not (package / "__init__.py").is_file():
        _die(f"no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import contraction_lab

    if Path(contraction_lab.__file__).resolve().parent != package.resolve():
        _die(f"contraction_lab imported from {contraction_lab.__file__}, not {package}")
    import workloads

    return workloads


def _run_pass(ops, tracer=None):
    """Run every operation once; exceptions are kept as the output."""
    latencies, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # reported as a failed operation
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, latencies, outputs


def _setup_samples(workload, seed):
    """Wall time of fresh processes that import, generate and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # wait() with a timeout polls every 50 ms, which would quantise the
        # figure; without one it blocks until the exit.  The child bounds
        # its own life with an alarm instead (see main).
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
            returncode = proc.wait()
        samples.append(time.perf_counter() - t0)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, cmd)
    return samples


def _environment(seed):
    import numpy

    try:  # show_config(mode=...) is new in numpy 1.25
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        blas = {}
    src_lines = sum(1 for path in SRC.rglob("*.py")
                    for line in path.read_text().splitlines() if line.strip())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": blas.get("version"),
        "src_nonblank_lines": src_lines,
    }


def _check(W, name, ops, outputs):
    outcomes = [W.check(name, op, out) for op, out in zip(ops, outputs)]
    notes = defaultdict(list)
    for op, oc in zip(ops, outcomes):
        if oc.failed:
            notes[f"{op.kind} d={op.d}"].append(oc.note)
    return outcomes, dict(notes)


def _class_medians(ops, latencies):
    by_class = defaultdict(list)
    for op, lat in zip(ops, latencies):
        by_class[f"{op.kind} d={op.d}"].append(lat * 1e3)
    return {k: {"n": len(v), "median_ms": statistics.median(v)}
            for k, v in sorted(by_class.items())}


def _emit(spec_key, values, outcomes, record):
    spec = _spec()[spec_key]
    if sorted(values) != sorted(m["name"] for m in spec):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": not any(oc.wrong for oc in outcomes),
        "attempted": len(outcomes),
        "failed": sum(oc.failed for oc in outcomes),
        "metrics": metrics,
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{record['workload']}-seed{record['env']['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {record['workload']}, seed {record['env']['seed']}: "
          f"{record['ops_per_pass']} operations x {record['passes']} pass(es); "
          f"record in {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_share':45s} {result['failed'] / result['attempted']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']}; correct={result['correct']})")
    for cls, notes in record["failures"].items():
        print(f"  failed: {cls}: {len(notes)} x {notes[0]}")
    print(json.dumps(result))


def run_untraced(W, name, seed, seconds):
    setup = _setup_samples(name, seed)
    ops = W.build(name, seed)
    W.warmup_op(name, ops).run()
    walls, latencies, outputs = [], [], []
    passes = 1
    while len(walls) < passes:
        wall, lat, out = _run_pass(ops)
        walls.append(wall)
        latencies += lat
        outputs += out
        # as many whole passes as fit the time budget, at least one
        passes = max(1, round(seconds / walls[0]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_ops = ops * len(walls)
    outcomes, failures = _check(W, name, all_ops, outputs)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - sum(oc.failed for oc in outcomes) / len(outcomes),
    }
    record = {
        "workload": name, "trace": 0, "env": _environment(seed),
        "ops_per_pass": len(ops), "passes": len(walls), "latency_samples": len(latencies),
        "pass_walls_s": walls, "setup_samples_s": setup,
        "class_latency": _class_medians(all_ops, latencies),
        "failures": failures,
    }
    _emit("end_to_end", values, outcomes, record)


def run_traced(W, name, seed):
    import spans

    ops = W.build(name, seed)
    W.warmup_op(name, ops).run()
    before_wall, _, _ = _run_pass(ops)

    tracer = spans.Tracer()
    tracer.install()
    ops = W.build(name, seed)  # traced set-up: the corpus layer's figures
    tracer.phase = "pass"
    traced_wall, _, outputs = _run_pass(ops, tracer)
    tracer.uninstall()
    outcomes, failures = _check(W, name, ops, outputs)
    # untraced passes on both sides, so a drift in machine speed cancels
    after_wall, _, _ = _run_pass(ops)
    untraced_wall = 0.5 * (before_wall + after_wall)

    values = tracer.metrics()
    values["harnack.estimate_rel_err"] = W.harnack_estimate_rel_err(ops, outputs)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    record = {
        "workload": name, "trace": 1, "env": _environment(seed),
        "ops_per_pass": len(ops), "passes": 1, "spans": len(tracer.spans),
        "untraced_wall_s": [before_wall, after_wall], "traced_wall_s": traced_wall,
        "per_call_median": tracer.baseline_table(),
        "failures": failures,
    }
    print("per-call medians (inclusive):")
    for row in record["per_call_median"]:
        print(f"  {row['call']:30s} {row['size']:28s} n={row['calls']:<6d} "
              f"{row['median_ms']:10.3f} ms")
    _emit("per_layer", values, outcomes, record)


def main(argv=None):
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate and warm up, then exit "
                             "(the fresh process that setup_s times)")
    args = parser.parse_args(argv)

    if args.setup_only:
        signal.alarm(SETUP_TIMEOUT_S)  # the default action ends the process
        W = _import_library()
        W.warmup_op(args.workload, W.build(args.workload, args.seed)).run()
        return 0
    W = _import_library()
    if args.trace:
        run_traced(W, args.workload, args.seed)
    else:
        run_untraced(W, args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
