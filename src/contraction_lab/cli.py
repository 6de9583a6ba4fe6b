"""Command-line front end emitting reproducible JSON reports.

Every command reads matrices in the row-major JSON schema
{"rows": n, "cols": m, "re": [...], "im": [...]} and writes a single JSON
report to stdout.  Reports echo the command, input hashes, and the
tolerances in force, and are bit-for-bit reproducible for fixed inputs,
seed, and tolerances (timing is only included on request for that
reason).

Exit codes: 0 for a delivered true-ish verdict, 1 for a false/negative
verdict, 2 for input errors, 3 for numerical failures or indecision.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .asymptotics import (
    NoConvergenceError,
    asymptotic_limit,
    canonical_triangulation,
    class_of,
    reducing_parts,
)
from .contraction import classify, make_contraction
from .corpus import GenSpec, InvalidSpecError, generate
from .harnack import DOMINATED, NOT_DOMINATED, harnack_dominates
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)
from .schur import SchurPoly, connect_arc, schur_part_member, schur_poly
from .shmulyan import partial_isometry_part, shmulyan_dominates
from .suites import SUITES, run_suite

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


def _tolerances(args) -> Tolerances:
    return Tolerances(**{f.name: getattr(args, f.name)
                         for f in dataclasses.fields(Tolerances)})


def _read_json(path: str):
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    return obj, hashlib.sha256(raw).hexdigest()


def _read_matrix(path: str):
    obj, digest = _read_json(path)
    try:
        return matrix_from_json(obj), digest
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_contraction(path: str, tol: Tolerances):
    mat, digest = _read_matrix(path)
    try:
        return make_contraction(mat, tol), digest
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_schur_poly(path: str, tol: Tolerances) -> tuple:
    obj, digest = _read_json(path)
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError(f"{path}: expected an object with a 'coeffs' list")
    try:
        coeffs = [matrix_from_json(c) for c in obj["coeffs"]]
        return schur_poly(coeffs, tol), digest
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _emit(report: dict, args, started: float) -> None:
    if args.timing:
        report["timing_s"] = round(time.perf_counter() - started, 6)
    json.dump(report, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _base_report(command: str, args, tol: Tolerances, inputs: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "tolerances": dataclasses.asdict(tol),
        "seed": getattr(args, "seed", None),
    }


def _cmd_analyze(args, tol) -> int:
    started = time.perf_counter()
    c, digest = _read_contraction(args.matrix, tol)
    if not c.is_square:
        raise InputError("analyze expects a square matrix")
    report = _base_report("analyze", args, tol, {"matrix": digest})
    try:
        asym = asymptotic_limit(c, tol)
        tri = canonical_triangulation(c, tol)
        parts = reducing_parts(c, tol)
    except NoConvergenceError as exc:
        report["error"] = str(exc)
        _emit(report, args, started)
        return EXIT_NUMERIC
    report.update({
        "classification": sorted(classify(c, tol)),
        "class": class_of(c, tol),
        "asymptotic": {
            "idempotent": asym.idempotent,
            "dim_null": asym.null_s.dim,
            "dim_fixed": asym.fix_s.dim,
        },
        "triangulation": {
            "dim_stable": tri.split[0].dim,
            "dim_persistent": tri.split[1].dim,
            "zero_residual": tri.zero_residual,
            "q_strongly_stable": tri.q_strongly_stable,
            "w_injective_limit": tri.w_injective_limit,
        },
        "parts": {"dim_h_i": parts.h_i.dim, "dim_h_u": parts.h_u.dim},
    })
    _emit(report, args, started)
    return EXIT_TRUE


def _cmd_dominate(args, tol) -> int:
    started = time.perf_counter()
    a, dig_a = _read_contraction(args.a, tol)
    b, dig_b = _read_contraction(args.b, tol)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch {a.shape} vs {b.shape}")
    report = _base_report("dominate", args, tol, {"a": dig_a, "b": dig_b})
    report["order"] = args.order
    report["question"] = "does A dominate B"
    if args.order == "shmulyan":
        verdict = shmulyan_dominates(b, a, tol)
        report["verdict"] = {
            "dominates": verdict.dominates,
            "routes": verdict.route_agreement,
            "residuals": verdict.residuals,
            # the proven segment radius; null when unbounded
            "radius": None if math.isinf(verdict.radius) else verdict.radius,
            "marginal": verdict.marginal,
        }
        _emit(report, args, started)
        return EXIT_TRUE if verdict.dominates else EXIT_FALSE
    if not a.is_square:
        raise InputError("harnack order expects square matrices")
    verdict = harnack_dominates(a, b, tol)
    report["verdict"] = {
        "status": {DOMINATED: "Dominated", NOT_DOMINATED: "NotDominated"}.get(
            verdict.status, "Inconclusive"),
        "constants": verdict.constants,
        "levels": verdict.levels,
        "constant_estimate": verdict.constant_estimate,
        "method": verdict.method,
        "witness": None if verdict.witness is None else
        {"re": [float(x) for x in verdict.witness.real],
         "im": [float(x) for x in verdict.witness.imag]},
    }
    _emit(report, args, started)
    if verdict.status == DOMINATED:
        return EXIT_TRUE
    if verdict.status == NOT_DOMINATED:
        return EXIT_FALSE
    return EXIT_NUMERIC


def _cmd_part(args, tol) -> int:
    started = time.perf_counter()
    w, dig_w = _read_contraction(args.w, tol)
    c, dig_c = _read_contraction(args.candidate, tol)
    report = _base_report("part", args, tol, {"w": dig_w, "candidate": dig_c})
    try:
        part = partial_isometry_part(w, tol)
        membership = part.membership_test(c)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report["verdict"] = {
        "member": membership.member,
        "residual": membership.residual,
        "z_norm": None if membership.z_block is None
        else op_norm(membership.z_block),
    }
    _emit(report, args, started)
    return EXIT_TRUE if membership.member else EXIT_FALSE


def _cmd_arc(args, tol) -> int:
    started = time.perf_counter()
    a, dig_a = _read_contraction(args.a, tol)
    b, dig_b = _read_contraction(args.b, tol)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch {a.shape} vs {b.shape}")
    report = _base_report("arc", args, tol, {"a": dig_a, "b": dig_b})
    result = connect_arc(a, b, tol)
    report["status"] = result.status
    if result.status == "connected":
        cert = result.certificate
        report["certificate"] = {
            "arcs": [
                {"z": [float(x) for x in arc.z],
                 "v": matrix_to_json(arc.v),
                 "lambda": _complex_json(lam),
                 "pivot": arc.pivot,
                 "sup_norm": arc.sup_norm_estimate,
                 "method": arc.method}
                for arc, lam in cert.arcs
            ],
            "bound": cert.kobayashi_bound,
            "endpoint_residuals": list(cert.endpoint_residuals),
        }
        _emit(report, args, started)
        return EXIT_TRUE
    _emit(report, args, started)
    return EXIT_FALSE if result.status == "not_equivalent" else EXIT_NUMERIC


def _cmd_schur_member(args, tol) -> int:
    started = time.perf_counter()
    w, dig_w = _read_contraction(args.w, tol)
    f, dig_f = _read_schur_poly(args.symbol, tol)
    report = _base_report("schur-member", args, tol,
                          {"w": dig_w, "symbol": dig_f})
    try:
        verdict = schur_part_member(w, f, tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report["verdict"] = {
        "member": verdict.member,
        "sup_norm": verdict.sup_norm,
        "residual": verdict.residual,
        "marginal": verdict.marginal,
        "sup_method": verdict.sup_method,
    }
    _emit(report, args, started)
    return EXIT_TRUE if verdict.member else EXIT_FALSE


def _cmd_gen(args, tol) -> int:
    started = time.perf_counter()
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise InputError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            params[key] = value
    spec = GenSpec(dim=args.dim, kind=args.kind, seed=args.seed, params=params)
    try:
        out = generate(spec, tol)
    except InvalidSpecError as exc:
        raise InputError(str(exc)) from exc
    report = _base_report("gen", args, tol, {})
    report["kind"] = args.kind
    report["dim"] = args.dim
    if isinstance(out, tuple):
        report["pair"] = [matrix_to_json(out[0].mat), matrix_to_json(out[1].mat)]
    else:
        report["matrix"] = matrix_to_json(out.mat)
    _emit(report, args, started)
    return EXIT_TRUE


def _cmd_suite(args, tol) -> int:
    started = time.perf_counter()
    if args.name not in SUITES:
        raise InputError(f"unknown suite {args.name!r}; "
                         f"choose from {sorted(SUITES)}")
    report = _base_report("suite", args, tol, {})
    outcome = run_suite(args.name, cases=args.cases, seed=args.seed, tol=tol)
    report["suite"] = outcome.to_dict()
    report["suite"]["failures"] = sorted(outcome.failures)
    _emit(report, args, started)
    return EXIT_TRUE if outcome.passed else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contraction-lab",
        description="Oracles for the order geometry of matrix contractions.")
    for f in dataclasses.fields(Tolerances):
        default = getattr(DEFAULT_TOL, f.name)
        parser.add_argument("--" + f.name.replace("_", "-"),
                            type=type(default), default=default)
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the report "
                             "(breaks bit-for-bit reproducibility)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="classification and structure report")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("dominate", help="does A dominate B in the given order")
    p.add_argument("--order", choices=["harnack", "shmulyan"], required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_dominate)

    p = sub.add_parser("part", help="membership of a candidate in the part of a contraction W")
    p.add_argument("w")
    p.add_argument("candidate")
    p.set_defaults(fn=_cmd_part)

    p = sub.add_parser("arc", help="connect two contractions by a Moebius arc")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_arc)

    p = sub.add_parser("schur-member",
                       help="membership of a polynomial symbol in the "
                            "function part of a constant contraction W")
    p.add_argument("w")
    p.add_argument("symbol")
    p.set_defaults(fn=_cmd_schur_member)

    p = sub.add_parser("gen", help="emit a corpus matrix (or pair)")
    p.add_argument("--kind", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append",
                   help="kind-specific parameter key=value (repeatable)")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("suite", help="run a named property suite")
    p.add_argument("--name", required=True)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        json.dump({"error": f"bad tolerances: {exc}"}, sys.stdout)
        sys.stdout.write("\n")
        return EXIT_INPUT
    try:
        return args.fn(args, tol)
    except InputError as exc:
        json.dump({"error": str(exc)}, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_INPUT
    except NoConvergenceError as exc:
        json.dump({"error": str(exc)}, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
