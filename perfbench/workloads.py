"""Inputs, operations and output checks for the four benchmark workloads.

Every workload is a fixed list of operation classes, each a (kind, d,
count) row of a table below.  The seed only draws the matrices inside
each class, so the mix of work -- and with it the latency quantiles --
does not move between seeds.  The counts are chosen so that the median
and the 90th percentile of the per-operation latencies each fall inside
one class of similar cost rather than on the step between two classes.
README.md in this directory says why each workload, class and dimension
is there.

One operation is one user question, composed as the matching CLI
subcommand composes it: the contractions are validated from raw arrays
with ``make_contraction`` inside the operation, so no cached defect data
carries over from one operation, or one pass, to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import contraction_lab as cl

TOL = cl.DEFAULT_TOL
SLACK = TOL.contraction_slack
RESIDUAL_TOL = 1e-8
KERNEL_FLOOR = -1e-9


@dataclass
class Op:
    """One timed question plus what its construction guarantees."""

    kind: str
    d: int
    run: Callable[[], object]
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Check result of one operation.

    ``wrong`` marks an answer that contradicts the construction (or an
    exception); ``failed`` also covers failed certificate checks and
    undecided verdicts on pairs whose answer is known.
    """

    failed: bool
    wrong: bool
    note: str = ""


def _contraction(mat):
    return cl.make_contraction(mat, TOL)


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _with_norm(g, norm):
    return g * (norm / cl.op_norm(g))


def _gen(kind, d, seed, **params):
    # looked up through the module so a traced run sees the call
    return cl.corpus.generate(cl.corpus.GenSpec(d, kind, seed, params), TOL)


def _ball_member(a, rng, x_norm):
    """a + D_{a*} X D_a with ||X|| = x_norm < 1: dominated by a."""
    dd = cl.defect_data(a, TOL)
    x = _with_norm(_gaussian(rng, *a.shape), x_norm)
    return (a.mat + dd.d_tstar @ x @ dd.d_t).copy()


def _part_member(w, rng, z_norm):
    """U + Z in the bases of the partial isometry w, with ||Z|| = z_norm."""
    part = cl.partial_isometry_part(w, TOL)
    k = part.null_in.dim
    z = _with_norm(_gaussian(rng, k, k), z_norm)
    return w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T


def _partial_isometry(d, seed, i):
    # ranks cycle through 1 .. d-1 so every class sees several defect sizes
    return _gen("partial_isometry", d, seed, rank=1 + i % max(d - 1, 1))


def _u_plus_strict(d, seed, i):
    return _gen("direct_sum_U_plus_Q", d, seed,
                unitary_dim=1 + i % max(d - 1, 1), norm_bound=0.6)


# --------------------------------------------------------------- shmulyan

# (kind, d, count): the kinds are "dom-<dominator>", "notdom-<dominator>"
# and "equiv"; the comments give the measured cost band of each group.
SHMULYAN_MIX = (
    # 2-20 ms: not-dominated pairs exit at the radius floor; a unitary's
    # only dominated pair is itself, a constant segment
    ("notdom-unitary", 4, 8), ("notdom-pi", 4, 8),
    ("notdom-unitary", 16, 5), ("notdom-pi", 16, 5),
    ("dom-unitary", 4, 2), ("dom-unitary", 16, 2), ("dom-unitary", 32, 1),
    # 20-40 ms: dominated at d = 4, the median
    ("dom-pi", 4, 17), ("dom-usum", 4, 17),
    # 40-90 ms
    ("notdom-unitary", 32, 4), ("notdom-pi", 32, 4), ("equiv", 4, 8),
    # 0.13-0.3 s: dominated at d = 16, the 90th percentile
    ("dom-pi", 16, 9), ("dom-usum", 16, 9),
    # 0.35-1.7 s
    ("equiv", 16, 3), ("dom-pi", 32, 1), ("dom-usum", 32, 1), ("equiv", 32, 1),
)


def _shmulyan_dominates(a_mat, b_mat):
    # CLI "dominate --order shmulyan A B": is B dominated by A
    return cl.shmulyan_dominates(_contraction(b_mat), _contraction(a_mat), TOL)


def _shmulyan_equivalent(a_mat, b_mat):
    return cl.shmulyan_equivalent(_contraction(a_mat), _contraction(b_mat), TOL)


def _shmulyan_op(kind, d, seed, i, rng):
    if kind == "equiv":
        w = _partial_isometry(d, seed, i)
        b = _part_member(w, rng, rng.uniform(0.2, 0.8))
        return Op(kind, d, lambda a=w.mat, b=b: _shmulyan_equivalent(a, b),
                  {"verdict": True})
    verdict, dominator = kind.split("-")
    if dominator == "unitary":
        a = _gen("unitary", d, seed)
    elif dominator == "pi":
        a = _partial_isometry(d, seed, i)
    else:
        a = _u_plus_strict(d, seed, i)
    if verdict == "dom":
        b = _ball_member(a, rng, rng.uniform(0.2, 0.8))
    else:
        b = _gen("strict", d, seed + 1).mat
    return Op(kind, d, lambda a=a.mat, b=b: _shmulyan_dominates(a, b),
              {"verdict": verdict == "dom"})


def _check_shmulyan(op, out):
    verdicts = [out.a_dominates_b, out.b_dominates_a] if op.kind == "equiv" else [out]
    got = out.equivalent if op.kind == "equiv" else out.dominates
    if got != op.expect["verdict"]:
        return Outcome(True, True, f"verdict {got}")
    for v in verdicts:
        routes = set(v.route_agreement.values())
        if routes != {got}:
            return Outcome(True, False, f"routes disagree {v.route_agreement}")
    return Outcome(False, False)


# ---------------------------------------------------------------- harnack

# Closed-form pairs "closed-r<r>": 0 against a normal b of spectral radius
# r.  The whitened Gram problem splits over b's eigenvectors, so the level
# trace (and the cost) depends only on r and d: r = 0.8 stops at level 23,
# r = 0.9 at level 47.
HARNACK_MIX = (
    # 0.3-7 ms: kernel escapes, non-strict and generic strict pairs
    ("escape-uz1", 4, 3), ("escape-uz1", 8, 3), ("escape-uz1", 16, 2),
    ("escape-nilp", 4, 3), ("escape-nilp", 8, 3), ("escape-nilp", 16, 2),
    ("w-vs-uz", 4, 3), ("uz-vs-w", 4, 3), ("w-vs-uz", 8, 3), ("uz-vs-w", 8, 3),
    ("w-vs-uz", 16, 3), ("uz-vs-w", 16, 3),
    ("strict", 4, 2), ("strict", 8, 2), ("strict", 16, 2),
    # 13 ms, level 23: the median
    ("closed-r0.8", 4, 22),
    # 17-60 ms
    ("closed-r0.9", 1, 6), ("scalar-099", 1, 1), ("closed-r0.9", 4, 15),
    # 0.23 s, level 47: the 90th percentile
    ("closed-r0.9", 8, 12),
    # 1.5 s, level 47, Gram size 768
    ("closed-r0.9", 16, 4),
)


def _harnack_dominates(a_mat, b_mat):
    # CLI "dominate --order harnack A B": does A dominate B
    return cl.harnack_dominates(_contraction(a_mat), _contraction(b_mat), TOL)


def _norm_one_small_radius(rng, d):
    """Upper triangular, norm one, eigenvalue moduli at most 0.6."""
    g = np.triu(_gaussian(rng, d, d), 1)
    g[0, -1] += 2.0
    g = g + np.diag(rng.uniform(0.0, 0.6, d) * np.exp(2j * np.pi * rng.uniform(size=d)))
    return g / cl.op_norm(g)


def _harnack_op(kind, d, seed, i, rng):
    zero = np.zeros((d, d), dtype=complex)
    expect = {"status": cl.DOMINATED}
    if kind.startswith("closed"):
        r = float(kind.split("-r")[1])
        lam = np.concatenate([[r], rng.uniform(0.0, r, d - 1)])
        u = cl.corpus.random_unitary(rng, d)
        b = u @ np.diag(lam * np.exp(2j * np.pi * rng.uniform(size=d))) @ u.conj().T
        a = zero
        expect["c2"] = (1.0 + r) / (1.0 - r)
    elif kind == "scalar-099":
        a, b = zero, np.full((1, 1), 0.99, dtype=complex)
        expect["c2"] = 199.0
    elif kind == "strict":
        a = _gen("strict", d, seed, norm_bound=0.8).mat
        b = _gen("strict", d, seed + 1, norm_bound=0.8).mat
    elif kind in ("w-vs-uz", "uz-vs-w", "escape-uz1"):
        w = _gen("partial_isometry", d, seed, rank=d // 2)
        if kind == "escape-uz1":
            a, b = _part_member(w, rng, 1.0), w.mat
            expect["status"] = cl.NOT_DOMINATED
        else:
            m = _part_member(w, rng, rng.uniform(0.2, 0.8))
            a, b = (w.mat, m) if kind == "w-vs-uz" else (m, w.mat)
    else:  # escape-nilp: a norm-one matrix of small spectral radius vs 0
        a, b = _norm_one_small_radius(rng, d), zero
        expect["status"] = cl.NOT_DOMINATED
    return Op(kind, d, lambda a=a, b=b: _harnack_dominates(a, b), expect)


def _check_harnack(op, out):
    want = op.expect["status"]
    if out.status != want:
        wrong = out.status != cl.INCONCLUSIVE
        return Outcome(True, wrong, f"status {out.status}")
    if want == cl.NOT_DOMINATED and out.witness is None:
        return Outcome(True, False, "escape without witness")
    if out.kernel_floor < KERNEL_FLOOR:
        return Outcome(True, False, f"kernel floor {out.kernel_floor:.3e}")
    cs = out.constants
    for lo, hi in zip(cs, cs[1:]):
        if hi < lo - 1e-8 * max(1.0, lo):
            return Outcome(True, False, f"constants decrease {lo} -> {hi}")
    c2 = op.expect.get("c2")
    if c2 is not None and cs and max(cs) > c2 * (1.0 + 1e-6):
        return Outcome(True, False, f"level constant {max(cs)} above c^2 {c2}")
    return Outcome(False, False)


def harnack_estimate_rel_err(ops, outs):
    """Median |estimate - c^2| / c^2 over decided closed-form pairs."""
    errs = [abs(out.constant_estimate - op.expect["c2"]) / op.expect["c2"]
            for op, out in zip(ops, outs)
            if "c2" in op.expect and getattr(out, "constant_estimate", None) is not None]
    return float(np.median(errs)) if errs else 0.0


# ------------------------------------------------------------------- arcs

ARCS_MIX = (
    # rejections of 3-17 ms
    ("neq-phases", 2, 4), ("neq-phases", 3, 4), ("neq-phases", 4, 4),
    ("neq-phases", 8, 4), ("neq-phases", 16, 4),
    ("neq-unitaries", 2, 5), ("neq-unitaries", 3, 5), ("neq-unitaries", 4, 4),
    ("neq-unitaries", 8, 4), ("neq-pi-strict", 2, 4),
    # rejections of 28-36 ms: the median
    ("neq-pi-strict", 3, 6), ("neq-pi-strict", 4, 6), ("neq-unitaries", 16, 5),
    ("neq-unitary-strict", 4, 5),
    # 40-210 ms
    ("schur-out", 2, 2), ("schur-out", 3, 2), ("schur-out", 4, 2),
    ("neq-pi-strict", 8, 4), ("neq-unitary-strict", 8, 3), ("neq-pi-strict", 16, 2),
    ("eq-strict", 2, 1), ("eq-strict", 3, 1),
    # 0.55-0.8 s: the 90th percentile
    ("schur-in", 2, 2), ("schur-in", 3, 2), ("schur-in", 4, 2),
    ("eq-strict", 4, 1), ("eq-w-member", 2, 1), ("eq-w-member", 3, 1),
    ("eq-w-member", 4, 1), ("eq-ball", 2, 1), ("eq-ball", 3, 1), ("eq-ball", 4, 1),
    # 0.85-2 s
    ("eq-w-member", 8, 1), ("eq-strict", 8, 1), ("eq-ball", 8, 1),
    ("eq-members", 3, 1), ("eq-w-member", 16, 1), ("eq-strict", 16, 1),
)


def _connect_arc(a_mat, b_mat):
    return cl.connect_arc(_contraction(a_mat), _contraction(b_mat), TOL)


def _schur_member(w_mat, coeffs):
    # CLI "schur-member W F": validate w, certify the symbol, then decide
    w = _contraction(w_mat)
    f = cl.schur_poly(coeffs, TOL)
    return cl.schur_part_member(w, f, TOL)


def _arc_pair(kind, d, seed, i, rng):
    if kind == "eq-strict":
        return (_gen("strict", d, seed, norm_bound=0.85).mat,
                _gen("strict", d, seed + 1, norm_bound=0.85).mat)
    if kind == "eq-w-member":
        w = _partial_isometry(d, seed, i)
        return w.mat, _part_member(w, rng, rng.uniform(0.1, 0.9))
    if kind == "eq-members":
        w = _partial_isometry(d, seed, i)
        return (_part_member(w, rng, rng.uniform(0.1, 0.9)),
                _part_member(w, rng, rng.uniform(0.1, 0.9)))
    if kind == "eq-ball":
        a = _u_plus_strict(d, seed, i)
        return a.mat, _ball_member(a, rng, rng.uniform(0.1, 0.85))
    if kind == "neq-pi-strict":
        return _partial_isometry(d, seed, i).mat, _gen("strict", d, seed + 1).mat
    if kind == "neq-unitaries":
        return _gen("unitary", d, seed).mat, _gen("unitary", d, seed + 1).mat
    if kind == "neq-unitary-strict":
        return _gen("unitary", d, seed).mat, _gen("strict", d, seed + 1).mat
    # neq-phases: one boundary eigenvalue with different phases
    phases = np.exp(2j * np.pi * (rng.uniform() + np.array([0.0, rng.uniform(0.2, 0.8)])))
    return (np.diag([phases[0]] + [0.3] * (d - 1)),
            np.diag([phases[1]] + [0.3] * (d - 1)))


def _schur_op(kind, d, seed, i, rng):
    """Defect-supported symbol of degree 1-3 rescaled to sup 0.999 or 1.001."""
    w = _partial_isometry(d, seed, i)
    dd = cl.defect_data(w, TOL)
    d_in, d_out = dd.defect_space, dd.defect_space_star
    degree = 1 + i % 3
    raw = [_gaussian(rng, d_out.dim, d_in.dim) for _ in range(degree + 1)]
    target = 0.999 if kind == "schur-in" else 1.001
    scale = target / cl.schur_poly(raw, TOL).sup_norm_estimate
    coeffs = [d_out.basis @ (c * scale) @ d_in.basis.conj().T for c in raw]
    coeffs[0] = coeffs[0] + w.mat
    return Op(kind, d, lambda w=w.mat, f=coeffs: _schur_member(w, f),
              {"member": kind == "schur-in"})


def _arcs_op(kind, d, seed, i, rng):
    if kind.startswith("schur"):
        return _schur_op(kind, d, seed, i, rng)
    a, b = _arc_pair(kind, d, seed, i, rng)
    return Op(kind, d, lambda a=a, b=b: _connect_arc(a, b),
              {"connected": kind.startswith("eq")})


def _check_arcs(op, out):
    if "member" in op.expect:
        if out.member != op.expect["member"]:
            return Outcome(True, True, f"member {out.member} sup {out.sup_norm}")
        return Outcome(False, False)
    want = "connected" if op.expect["connected"] else "not_equivalent"
    if out.status != want:
        wrong = out.status != "budget_exhausted"
        return Outcome(True, wrong, f"status {out.status}")
    if out.status != "connected":
        return Outcome(False, False)
    cert = out.certificate
    if max(cert.endpoint_residuals, default=0.0) > RESIDUAL_TOL:
        return Outcome(True, False, "endpoint residual")
    worst = max((arc.sup_norm_estimate for arc, _ in cert.arcs), default=0.0)
    if worst > 1.0 + SLACK:
        return Outcome(True, False, f"certified sup {worst:.10f}")
    return Outcome(False, False)


# ---------------------------------------------------------------- analyze

ANALYZE_KINDS = ("generic", "u-plus-q", "quasi-isometry", "nilpotent", "normal-boundary")
# d = 4 below the median, d = 8 around it (4-27 ms), and 12 of 100 at d = 16
# (1.7-2.1 s), so the 90th percentile falls among the d = 16 operations.
ANALYZE_MIX = tuple((k, 4, 4) for k in ANALYZE_KINDS) + \
    tuple((k, 8, 14) for k in ANALYZE_KINDS[:3]) + \
    tuple((k, 8, 13) for k in ANALYZE_KINDS[3:]) + \
    (("generic", 16, 2), ("u-plus-q", 16, 2), ("quasi-isometry", 16, 2),
     ("nilpotent", 16, 2), ("normal-boundary", 16, 4))


def _analyze(mat):
    # CLI "analyze M": the report's structural fields
    c = _contraction(mat)
    asym = cl.asymptotic_limit(c, TOL)
    tri = cl.canonical_triangulation(c, TOL)
    parts = cl.reducing_parts(c, TOL)
    return {
        "classification": sorted(cl.classify(c, TOL)),
        "class": cl.class_of(c, TOL),
        "idempotent": asym.idempotent,
        "zero_residual": tri.zero_residual,
        "h_i": parts.h_i.dim,
        "h_u": parts.h_u.dim,
    }


def _analyze_op(kind, d, seed, i, rng):
    k = 1 + i % (d - 1)  # size of the unitary / isometric block
    if kind == "generic":
        c = _gen("generic", d, seed)
        expect = {"class": "C00", "h_i": 0, "h_u": 0}
    elif kind == "u-plus-q":
        c = _gen("direct_sum_U_plus_Q", d, seed, unitary_dim=k)
        expect = {"class": "mixed", "h_i": k, "h_u": k}
    elif kind == "quasi-isometry":
        c = _gen("quasi_isometry", d, seed, isometry_dim=k, rotate=True)
        expect = {"class": "mixed", "h_i": k, "h_u": k}
    elif kind == "nilpotent":
        c = _gen("nilpotent_shift", d, seed)
        expect = {"class": "C00", "h_i": 0, "h_u": 0}
    else:
        c = _gen("normal", d, seed, boundary_count=k)
        expect = {"class": "mixed", "h_i": k, "h_u": k}
    return Op(kind, d, lambda m=c.mat: _analyze(m), expect)


def _check_analyze(op, out):
    for key, want in op.expect.items():
        if out[key] != want:
            return Outcome(True, True, f"{key} {out[key]} != {want}")
    if out["zero_residual"] > RESIDUAL_TOL:
        return Outcome(True, False, f"zero residual {out['zero_residual']:.3e}")
    return Outcome(False, False)


# --------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    mix: tuple
    make: Callable
    check: Callable
    warmup: tuple  # (kind, d) of the class whose first op warms up


WORKLOADS = {
    "shmulyan": Workload(SHMULYAN_MIX, _shmulyan_op, _check_shmulyan, ("dom-pi", 4)),
    "harnack": Workload(HARNACK_MIX, _harnack_op, _check_harnack, ("strict", 4)),
    "arcs": Workload(ARCS_MIX, _arcs_op, _check_arcs, ("neq-pi-strict", 4)),
    "analyze": Workload(ANALYZE_MIX, _analyze_op, _check_analyze, ("generic", 4)),
}


def build(name, seed):
    """The workload's operations for this seed.

    The order is shuffled once per workload, not per seed: every class is
    spread over the pass, and every seed allocates the same shapes in the
    same order, so peak memory does not move with the seed.
    """
    wl = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng((seed, index))
    ops = []
    for row, (kind, d, count) in enumerate(wl.mix):
        for i in range(count):
            gen_seed = int(seed) * 100_000 + row * 1_000 + i * 2
            ops.append(wl.make(kind, d, gen_seed, i, rng))
    order = np.random.default_rng(index).permutation(len(ops))
    return [ops[j] for j in order]


def warmup_op(name, ops):
    kind, d = WORKLOADS[name].warmup
    return next(op for op in ops if (op.kind, op.d) == (kind, d))


def check(name, op, out):
    """Outcome of one operation; an exception is passed as ``out``."""
    if isinstance(out, Exception):
        return Outcome(True, True, f"raised {type(out).__name__}: {out}")
    return WORKLOADS[name].check(op, out)
