"""Named property suites tying the oracles to the structure theory.

Each suite draws structured instances from the corpus, evaluates one
family of structural properties, and returns a report listing every
violated case.  The suites are deterministic in their seed, audit the
soundness of every Harnack invocation they make (PSD kernels, monotone
constant traces), and are runnable both from the acceptance tests and the
command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    _on_circle,
    asymptotic_limit,
    reducing_isometric_part,
    reducing_unitary_part,
    stability_flags,
)
from .contraction import (
    Contraction,
    classify,
    defect_data,
    make_contraction,
    nearest_part_partial_isometry,
    ttstar_power_limit,
)
from .corpus import GenSpec, generate
from .harnack import (
    DOMINATED,
    NOT_DOMINATED,
    HarnackVerdict,
    harnack_dominates,
    harnack_falsify,
    harnack_kernel,
    quasi_normal_equivalence_report,
)
from .linalg import DEFAULT_TOL, Tolerances, compress, op_norm
from .schur import connect_arc, schur_poly, schur_part_member
from .shmulyan import _chart_equivalent, partial_isometry_part, shmulyan_dominates

__all__ = ["SUITES", "SuiteReport", "run_suite"]

BLOCK_RTOL = 1e-8
KERNEL_FLOOR = -1e-9


@dataclass
class SuiteReport:
    name: str
    cases: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": list(self.failures),
            "passed": self.passed,
            "details": {k: v for k, v in self.details.items()
                        if isinstance(v, (int, float, str, bool))},
        }


def _audit(verdict: HarnackVerdict, failures: list, label: str):
    """Soundness of a single hierarchy run: PSD kernels, monotone trace."""
    if verdict.kernel_floor < KERNEL_FLOOR:
        failures.append(f"{label}: Gram eigenvalue {verdict.kernel_floor:.3e}")
    cs = verdict.constants
    for i in range(len(cs) - 1):
        if cs[i + 1] < cs[i] - 1e-8 * max(1.0, cs[i]):
            failures.append(f"{label}: constants decrease {cs[i]} -> {cs[i + 1]}")


def _ball_member(a: Contraction, rng, tol: Tolerances, x_norm: float) -> Contraction:
    """Random contraction a + D_{a*} X D_a with ||X|| = x_norm <= 1."""
    dd = defect_data(a, tol)
    rows, cols = a.shape
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    n = op_norm(g)
    x = g * (x_norm / n) if n > 0 else g
    return make_contraction(a.mat + dd.d_tstar @ x @ dd.d_t, tol)


def _structured_dominator(rng, d: int, seed: int, tol: Tolerances) -> Contraction:
    kind = ["partial_isometry", "unitary", "direct_sum_U_plus_Q"][int(rng.integers(3))]
    params = {}
    if kind == "partial_isometry" and d > 1:
        params["rank"] = int(rng.integers(1, d))
    if kind == "direct_sum_U_plus_Q":
        params = {"unitary_dim": int(rng.integers(1, d + 1)), "norm_bound": 0.6}
    return generate(GenSpec(dim=d, kind=kind, seed=seed, params=params), tol)


def route_agreement_pairs(cases: int = 1000, seed: int = 101,
                          tol: Tolerances = DEFAULT_TOL):
    """Criterion-1 cases (i, d, dominator a, candidate b)."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        d = int(rng.integers(1, 7))
        pick = rng.uniform()
        if pick < 0.35:
            b = generate(GenSpec(d, "generic", seed=7 * i + 1,
                                 params={"norm_bound": float(rng.uniform(0.2, 0.95))}), tol)
            a = generate(GenSpec(d, "generic", seed=7 * i + 2,
                                 params={"norm_bound": float(rng.uniform(0.2, 0.95))}), tol)
        elif pick < 0.55:
            a = _structured_dominator(rng, d, 7 * i + 3, tol)
            b = _ball_member(a, rng, tol, float(rng.uniform(0.1, 0.9)))
        elif pick < 0.8:
            a = _structured_dominator(rng, d, 7 * i + 4, tol)
            b = generate(GenSpec(d, "strict", seed=7 * i + 5), tol)
        elif pick < 0.9:
            a = _structured_dominator(rng, d, 7 * i + 6, tol)
            b = a
        else:
            phase = math.e ** (2j * math.pi * rng.uniform())
            a = make_contraction(np.full((1, 1), phase), tol)
            choice = rng.uniform()
            if choice < 0.4:
                b = a
            elif choice < 0.7:
                b = make_contraction(np.full((1, 1), 0.5 * phase), tol)
            else:
                b = make_contraction(
                    np.full((1, 1), math.e ** (2j * math.pi * rng.uniform())), tol)
            d = 1
        yield i, d, a, b


def run_route_agreement(cases: int = 1000, seed: int = 101,
                        tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Shmul'yan routes (defect factor, cross Gram, segment) agree exactly."""
    failures = []
    for i, d, a, b in route_agreement_pairs(cases, seed, tol):
        verdict = shmulyan_dominates(b, a, tol)
        if len(set(verdict.route_agreement.values())) != 1:
            failures.append(
                f"case {i} (dim {d}): routes disagree {verdict.route_agreement} "
                f"residuals {verdict.residuals} radius {verdict.radius}")
    return SuiteReport("route-agreement", cases, failures)


def _norm_one_small_radius(rng, d: int) -> np.ndarray:
    """Upper-triangular matrix of norm one with eigenvalue moduli <= 0.6."""
    g = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
    if d > 1:
        g[0, -1] += 2.0  # keep the norm dominated by the nilpotent part
    diag = rng.uniform(0.0, 0.6, size=d) * np.exp(2j * np.pi * rng.uniform(size=d))
    g = g + np.diag(diag)
    return g / op_norm(g)


def run_strict_part(cases: int = 200, boundary_cases: int = 50, seed: int = 102,
                    tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """The part of the null operator: strict vs norm-one contractions."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        d = int(rng.integers(1, 5))
        t = generate(GenSpec(d, "generic", seed=11 * i,
                             params={"norm_bound": float(rng.uniform(0.1, 0.9))}), tol)
        zero = make_contraction(np.zeros((d, d)), tol)
        fwd = harnack_dominates(t, zero, tol)
        bwd = harnack_dominates(zero, t, tol)
        _audit(fwd, failures, f"strict case {i} fwd")
        _audit(bwd, failures, f"strict case {i} bwd")
        if fwd.status != DOMINATED or bwd.status != DOMINATED:
            failures.append(
                f"strict case {i} (dim {d}): ({fwd.status}, {bwd.status})")
    for i in range(boundary_cases):
        d = int(rng.integers(2, 5))
        t = make_contraction(_norm_one_small_radius(rng, d), tol)
        zero = make_contraction(np.zeros((d, d)), tol)
        fwd = harnack_dominates(t, zero, tol)   # does t dominate 0
        bwd = harnack_dominates(zero, t, tol)   # does 0 dominate t
        _audit(fwd, failures, f"boundary case {i} fwd")
        _audit(bwd, failures, f"boundary case {i} bwd")
        if bwd.status != DOMINATED:
            failures.append(f"boundary case {i}: (0, t) gave {bwd.status}")
        if fwd.status != NOT_DOMINATED or fwd.witness is None:
            failures.append(
                f"boundary case {i}: (t, 0) gave {fwd.status}, "
                f"witness {'present' if fwd.witness is not None else 'missing'}")
    return SuiteReport("strict-part", cases + boundary_cases, failures)


def run_scalar_constant(cases: int = 1, seed: int = 0,
                        tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Level-64 constant for the scalar pair 0.5 vs 0 against (1+t)/(1-t)."""
    del cases, seed
    failures = []
    t = 0.5
    oracle = (1.0 + t) / (1.0 - t)  # classical scalar bound, derived separately
    verdict = harnack_dominates(make_contraction([[t]], tol),
                                make_contraction([[0.0]], tol),
                                tol, full_trace=True)
    _audit(verdict, failures, "scalar constant")
    c64 = verdict.constants[-1] if verdict.constants else float("nan")
    if verdict.status != DOMINATED:
        failures.append(f"status {verdict.status}")
    if not (2.9 <= c64 <= 3.0):
        failures.append(f"level-64 constant {c64} outside [2.9, 3.0]")
    if verdict.constant_estimate is None or \
            abs(verdict.constant_estimate - oracle) > 0.05:
        failures.append(f"constant {verdict.constant_estimate} "
                        f"far from oracle {oracle}")
    return SuiteReport("scalar-constant", 1, failures,
                       details={"level_64": c64, "oracle": oracle})


def partial_isometry_pairs(cases: int = 200, seed: int = 104,
                           tol: Tolerances = DEFAULT_TOL):
    """Criterion-4 cases (i, w, part of w, [(||Z||, w + Z)] or None if degenerate)."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, d))
        w = generate(GenSpec(d, "partial_isometry", seed=13 * i,
                             params={"rank": rank}), tol)
        part = partial_isometry_part(w, tol)
        k = part.null_in.dim
        if k == 0 or part.null_out.dim != k:
            yield i, w, part, None
            continue
        candidates = []
        for z_norm in (0.3, 0.9, 1.0):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            z = g * (z_norm / op_norm(g))
            candidates.append((z_norm, make_contraction(
                w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T, tol)))
        yield i, w, part, candidates


def _other_partial_isometry(i: int, w: Contraction, part, tol: Tolerances) -> Contraction:
    """The partial isometry of w's rank that criterion 4 tests against w's part."""
    return generate(GenSpec(w.dim, "partial_isometry", seed=13 * i + 7,
                            params={"rank": w.dim - part.null_in.dim}), tol)


def run_partial_isometry_parts(cases: int = 200, seed: int = 104,
                               tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Parts of partial isometries: membership, factorization, Harnack agree.

    Members are U + Z with ||Z|| < 1, are Harnack equivalent to w and are
    joined to w by a certified arc.  At ||Z|| = 1 the candidate must be
    rejected by the membership test and by connect_arc as not equivalent;
    it never dominates w (a kernel escape), and w dominates it exactly when
    it has no eigenvalue on the unit circle (else a Fejer witness refutes).
    No partial isometry besides w itself may pass.
    """
    failures = []
    for i, w, part, candidates in partial_isometry_pairs(cases, seed, tol):
        if candidates is None:
            failures.append(f"case {i}: degenerate defect dimensions")
            continue
        for z_norm, cand in candidates:
            wanted = z_norm < 1.0
            mem = part.membership_test(cand)
            arc = connect_arc(w, cand, tol)
            fwd = harnack_dominates(w, cand, tol)
            bwd = harnack_dominates(cand, w, tol)
            _audit(fwd, failures, f"part case {i} z={z_norm} fwd")
            _audit(bwd, failures, f"part case {i} z={z_norm} bwd")
            on_circle = np.any(_on_circle(np.linalg.eigvals(cand.mat), tol))
            expected = (DOMINATED, DOMINATED) if wanted else \
                (NOT_DOMINATED if on_circle else DOMINATED, NOT_DOMINATED)
            if mem.member != wanted:
                failures.append(f"case {i} z={z_norm}: membership {mem.member}")
            if arc.status != ("connected" if wanted else "not_equivalent"):
                failures.append(f"case {i} z={z_norm}: arc {arc.status}")
            elif wanted:
                _check_arc(arc.certificate, failures, f"case {i} z={z_norm}", tol)
            if (fwd.status, bwd.status) != expected:
                failures.append(
                    f"case {i} z={z_norm}: harnack ({fwd.status}, {bwd.status})")
            if wanted and z_norm > 0 and \
                    "partial_isometry" in classify(cand, tol):
                failures.append(f"case {i} z={z_norm}: member is a partial isometry")
        if not part.membership_test(w).member:
            failures.append(f"case {i}: w rejected from its own part")
        other = _other_partial_isometry(i, w, part, tol)
        if op_norm(other.mat - w.mat) > 1e-6 and part.membership_test(other).member:
            failures.append(f"case {i}: another partial isometry passed")
    return SuiteReport("partial-isometry-parts", cases, failures)


def _te21_checks(t: Contraction, t_prime: Contraction, failures: list,
                 label: str, tol: Tolerances):
    at = asymptotic_limit(t, tol)
    atp = asymptotic_limit(t_prime, tol)
    if not at.null_s.equals(atp.null_s):
        failures.append(f"{label}: kernels of the asymptotic limits differ")
        return
    ns = at.null_s
    rs = ns.complement()
    w = compress(t.mat, rs, rs)
    w_p = compress(t_prime.mat, rs, rs)
    if op_norm(w - w_p) > BLOCK_RTOL:
        failures.append(f"{label}: persistent blocks differ by {op_norm(w - w_p):.2e}")
    q = compress(t.mat, ns, ns)
    q_p = compress(t_prime.mat, ns, ns)
    r = compress(t.mat, ns, rs)
    r_p = compress(t_prime.mat, ns, rs)
    resid = op_norm(q @ r_p - q_p @ r - (r_p - r) @ w)
    if resid > BLOCK_RTOL:
        failures.append(f"{label}: block identity residual {resid:.2e}")


def run_commuting_triangulation(cases: int = 300, seed: int = 105,
                                tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Commuting pairs in verified domination share their triangulation.

    Checks: equal kernels of the asymptotic limits with equal persistent
    blocks and the mixed block identity; rigidity when the dominated
    operator has an injective asymptotic limit (it must equal the
    dominator); inclusion and agreement of reducing isometric parts, with
    equality under equivalence; equal reducing unitary parts for
    hyponormal dominated operators; and the fixed-space invariance
    equivalence.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        d = int(rng.integers(2, 5))
        pick = rng.uniform()
        if pick < 0.35:
            t, t_p = generate(GenSpec(d, "commuting_pair", seed=17 * i,
                                      params={"norm_bound": 0.6}), tol)
        elif pick < 0.7:
            t, t_p = generate(GenSpec(d, "commuting_pair", seed=17 * i,
                                      params={"norm_bound": 0.6,
                                              "unitary_dim": int(rng.integers(1, d))}),
                              tol)
        elif pick < 0.85:
            t = generate(GenSpec(d, "direct_sum_U_plus_Q", seed=17 * i,
                                 params={"norm_bound": 0.6}), tol)
            t_p = t
        else:
            t = generate(GenSpec(d, "unitary", seed=17 * i), tol)
            t_p = t
        verdict = harnack_dominates(t_p, t, tol)  # t dominated by t'
        _audit(verdict, failures, f"commuting case {i}")
        if verdict.status != DOMINATED:
            failures.append(f"case {i}: domination not verified ({verdict.status})")
            continue
        _te21_checks(t, t_p, failures, f"case {i}", tol)

        flags = stability_flags(t, tol)
        if (flags.injective or flags.star_injective) and \
                op_norm(t.mat - t_p.mat) > BLOCK_RTOL:
            failures.append(f"case {i}: rigidity violated for injective limit")

        h_i = reducing_isometric_part(t, tol)
        h_i_p = reducing_isometric_part(t_p, tol)
        if not h_i.contains(h_i_p):
            failures.append(f"case {i}: reducing isometric part not included")
        if h_i_p.dim and op_norm((t.mat - t_p.mat) @ h_i_p.basis) > BLOCK_RTOL:
            failures.append(f"case {i}: operators differ on the smaller part")
        back = harnack_dominates(t, t_p, tol)
        _audit(back, failures, f"commuting case {i} back")
        if back.status == DOMINATED and not h_i.equals(h_i_p):
            failures.append(f"case {i}: equivalence but unequal isometric parts")

        if "hyponormal" in classify(t, tol):
            h_u = reducing_unitary_part(t, tol)
            h_u_p = reducing_unitary_part(t_p, tol)
            if not h_u.equals(h_u_p):
                failures.append(f"case {i}: unitary parts differ for hyponormal t")

        fix = asymptotic_limit(t, tol).fix_s
        fix_p = asymptotic_limit(t_p, tol).fix_s
        if fix.dim:
            img = t_p.mat @ fix.basis
            invariant = op_norm(img - fix.projector() @ img) <= BLOCK_RTOL
        else:
            invariant = True
        if invariant != fix.equals(fix_p):
            failures.append(f"case {i}: fixed-space invariance mismatch")
    return SuiteReport("commuting-triangulation", cases, failures)


def quasi_normal_pairs(cases: int = 300, seed: int = 106,
                       tol: Tolerances = DEFAULT_TOL):
    """Criterion-6 cases (i, pick, t, t'), boundary eigenvalues from pick 0.55 on."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        d = int(rng.integers(2, 6))
        pick = rng.uniform()
        params = {"max_modulus": 0.65}
        if pick < 0.55:
            pass
        elif pick < 0.75:
            params.update({"boundary_count": int(rng.integers(1, 3))})
        else:
            params.update({"boundary_count": int(rng.integers(1, 3)),
                           "boundary_mismatch": True})
        yield (i, pick, *generate(GenSpec(d, "doubly_commuting_pair", seed=19 * i,
                                          params=params), tol))


def run_quasi_normal_pipeline(cases: int = 300, seed: int = 106,
                              tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Doubly commuting normal pairs: the characterizations agree pairwise."""
    failures = []
    arc_budget = 30
    for i, pick, t, t_p in quasi_normal_pairs(cases, seed, tol):
        witness_arc = arc_budget > 0 and pick < 0.55
        if witness_arc:
            arc_budget -= 1
        report = quasi_normal_equivalence_report(t, t_p, tol,
                                                 witness_arc=witness_arc)
        if not all(report.hypotheses.values()):
            failures.append(f"case {i}: hypotheses violated {report.hypotheses}")
            continue
        core = [report.statements["harnack_dominated"],
                report.statements["shmulyan_equivalent"],
                report.statements["intertwiner"]]
        if len(set(core)) != 1:
            failures.append(f"case {i}: statements disagree {report.statements}")
        if report.statements["harnack_equivalent"] != core[0]:
            failures.append(f"case {i}: equivalence breaks the chain")
        if "arc" in report.statements and report.statements["arc"] != core[0]:
            failures.append(f"case {i}: arc statement disagrees")
        if report.statements["intertwiner"]:
            resid = report.details["intertwiner_residual"]
            if resid is None or resid > BLOCK_RTOL:
                failures.append(f"case {i}: factorization residual {resid}")
    return SuiteReport("quasi-normal-pipeline", cases, failures)


def _equivalent_pair(rng, d: int, seed: int, tol: Tolerances):
    pick = rng.uniform()
    if pick < 0.35:
        a = generate(GenSpec(d, "strict", seed=seed,
                             params={"norm_bound": 0.85}), tol)
        b = generate(GenSpec(d, "strict", seed=seed + 1,
                             params={"norm_bound": 0.85}), tol)
        return a, b
    if pick < 0.75 and d >= 2:
        rank = int(rng.integers(1, d))
        w = generate(GenSpec(d, "partial_isometry", seed=seed,
                             params={"rank": rank}), tol)
        part = partial_isometry_part(w, tol)
        k = part.null_in.dim

        def member():
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            z = g * (rng.uniform(0.1, 0.9) / op_norm(g))
            return make_contraction(
                w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T,
                tol)

        if pick < 0.55:
            return w, member()
        return member(), member()  # two pure blocks in the same part
    a = _structured_dominator(rng, d, seed, tol)
    b = _ball_member(a, rng, tol, float(rng.uniform(0.1, 0.85)))
    return a, b


def _inequivalent_pair(rng, d: int, seed: int, tol: Tolerances):
    pick = rng.uniform()
    if pick < 0.3 and d >= 2:
        a = generate(GenSpec(d, "partial_isometry", seed=seed,
                             params={"rank": int(rng.integers(1, d))}), tol)
        b = generate(GenSpec(d, "strict", seed=seed + 1), tol)
        return a, b
    if pick < 0.6:
        a = generate(GenSpec(d, "unitary", seed=seed), tol)
        b = generate(GenSpec(d, "unitary", seed=seed + 1), tol)
        return a, b
    if pick < 0.8:
        a = generate(GenSpec(d, "unitary", seed=seed), tol)
        b = generate(GenSpec(d, "strict", seed=seed + 1), tol)
        return a, b
    phase1 = math.e ** (2j * math.pi * rng.uniform())
    phase2 = math.e ** (2j * math.pi * rng.uniform())
    a = make_contraction(np.diag([phase1] + [0.3] * (d - 1)), tol)
    b = make_contraction(np.diag([phase2] + [0.3] * (d - 1)), tol)
    return a, b


def arc_connectivity_pairs(cases: int = 200, seed: int = 107, tol: Tolerances = DEFAULT_TOL):
    """Criterion-7 cases (i, equivalent, a, b), the equivalent pairs first."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        yield (i, True) + _equivalent_pair(rng, int(rng.integers(1, 5)), 23 * i, tol)
    for i in range(cases):
        yield (i, False) + _inequivalent_pair(rng, max(int(rng.integers(1, 5)), 2), 29 * i, tol)


def _check_arc(cert, failures: list, label: str, tol: Tolerances):
    """A connecting certificate has a finite bound, arcs of certified sup
    within 1 + slack and endpoint residuals within BLOCK_RTOL."""
    if not math.isfinite(cert.kobayashi_bound):
        failures.append(f"{label}: infinite bound")
    for arc, _lam in cert.arcs:
        if arc.sup_norm_estimate > 1.0 + tol.contraction_slack:
            failures.append(f"{label}: certified sup "
                            f"{arc.sup_norm_estimate:.12f} above 1 + slack")
    if any(r > BLOCK_RTOL for r in cert.endpoint_residuals):
        failures.append(f"{label}: endpoint residuals "
                        f"{max(cert.endpoint_residuals):.2e}")


def run_arc_connectivity(cases: int = 200, seed: int = 107,
                         tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Arcs exist exactly on Shmul'yan-equivalent pairs, with sound bounds."""
    failures = []
    for i, equivalent, a, b in arc_connectivity_pairs(cases, seed, tol):
        if not equivalent and op_norm(a.mat - b.mat) < 0.05:
            continue  # rare coincident draws carry no information
        result = connect_arc(a, b, tol)
        if result.status != ("connected" if equivalent else "not_equivalent"):
            failures.append(f"{'' if equivalent else 'in'}equivalent case {i}: {result.status}")
        if not equivalent or result.status != "connected":
            continue
        _check_arc(result.certificate, failures, f"equivalent case {i}", tol)
    scalar = connect_arc(make_contraction([[0.0]], tol), make_contraction([[0.5]], tol), tol)
    if scalar.status != "connected" or scalar.certificate.kobayashi_bound > math.atanh(0.5) + 1e-6:
        failures.append(f"scalar pair bound "
                        f"{scalar.certificate and scalar.certificate.kobayashi_bound}")
    return SuiteReport("arc-connectivity", 2 * cases + 1, failures)


def run_schur_part_strictness(cases: int = 100, seed: int = 108,
                              tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Strict unit-ball boundary for function-part membership.

    Symbol families rescaled to certified sup-norm 0.999 must be accepted,
    1.001 rejected, and the lifted symbol's own certificate must call it
    Schur class exactly at 0.999; the constant symbol always belongs; the
    scalar identity function never belongs to the part of the zero operator.
    """
    rng = np.random.default_rng(seed)
    failures = []
    ident = schur_poly([np.zeros((1, 1)), np.eye(1)], tol)
    verdict = schur_part_member(make_contraction([[0.0]], tol), ident, tol)
    if verdict.member:
        failures.append("identity function accepted by the part of 0")
    for i in range(cases):
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d))
        w = generate(GenSpec(d, "partial_isometry", seed=31 * i,
                             params={"rank": rank}), tol)
        dd = defect_data(w, tol)
        k_in, k_out = dd.defect_space.dim, dd.defect_space_star.dim
        deg = int(rng.integers(1, 4))
        raw = [rng.standard_normal((k_out, k_in)) +
               1j * rng.standard_normal((k_out, k_in)) for _ in range(deg + 1)]
        base = schur_poly(raw, tol).sup_norm_estimate
        for target, wanted in ((0.999, True), (1.001, False)):
            scale = target / base
            lift = [dd.defect_space_star.basis @ (c * scale) @ dd.defect_space.basis.conj().T
                    for c in raw]
            f = schur_poly([w.mat + lift[0]] + lift[1:], tol)
            got = schur_part_member(w, f, tol)
            if got.member != wanted:
                failures.append(f"case {i} target {target}: member={got.member} "
                                f"sup={got.sup_norm:.6f}")
            if f.is_schur_class(tol) != wanted:
                failures.append(f"case {i} target {target}: symbol sup "
                                f"{f.sup_norm_estimate:.12f} ({f.method})")
        const = schur_part_member(w, schur_poly([w.mat], tol), tol)
        if not const.member:
            failures.append(f"case {i}: constant symbol rejected")
    return SuiteReport("schur-part-strictness", 4 * cases + cases + 1, failures)


def defect_regularity_draws(cases: int = 500, seed: int = 109,
                            tol: Tolerances = DEFAULT_TOL):
    """Criterion-9 cases (i, kind, t)."""
    rng = np.random.default_rng(seed)
    kinds = ["generic", "strict", "direct_sum_U_plus_Q", "partial_isometry",
             "normal", "nilpotent_shift", "unitary"]
    for i in range(cases):
        d = int(rng.integers(1, 7))
        kind = kinds[int(rng.integers(len(kinds)))]
        params = {}
        if kind == "partial_isometry" and d > 1:
            params = {"rank": int(rng.integers(1, d))}
        if kind == "direct_sum_U_plus_Q":
            params = {"unitary_dim": int(rng.integers(1, d + 1)),
                      "norm_bound": 0.9}
        if kind == "nilpotent_shift":
            params = {"lam": float(rng.uniform(0.0, 1.0))}
        yield i, kind, generate(GenSpec(d, kind, seed=37 * i, params=params), tol)


def run_defect_regularity(cases: int = 500, seed: int = 109,
                          tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Powers of T*T meet the defect-kernel projection; the partial
    isometry split of any matrix contraction stays in its part."""
    failures = []
    for i, kind, t in defect_regularity_draws(cases, seed, tol):
        limit = ttstar_power_limit(t, tol)
        if not limit.converged or limit.residual >= tol.conv_tol:
            failures.append(f"case {i} ({kind}, dim {t.dim}): power residual "
                            f"{limit.residual:.2e} after {limit.power}")
        w = nearest_part_partial_isometry(t, tol)
        if "partial_isometry" not in classify(w, tol):
            failures.append(f"case {i} ({kind}): split is not a partial isometry")
        if not _chart_equivalent(t, w, tol):
            failures.append(f"case {i} ({kind}): split left the part")
    return SuiteReport("defect-regularity", cases, failures)


def run_kernel_soundness(cases: int = 200, seed: int = 110,
                         tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Dilation Gram matrices are PSD; constant traces never decrease."""
    rng = np.random.default_rng(seed)
    failures = []
    kinds = ["generic", "unitary", "partial_isometry", "direct_sum_U_plus_Q",
             "nilpotent_shift", "normal"]
    floor = 0.0
    for i in range(cases):
        d = int(rng.integers(1, 7))
        kind = kinds[int(rng.integers(len(kinds)))]
        t = generate(GenSpec(d, kind, seed=41 * i), tol)
        level = int(rng.integers(0, 13))
        kern = harnack_kernel(t, level, tol)
        scale = max(1.0, op_norm(kern.base))
        floor = min(floor, kern.min_eig / scale)
        if kern.min_eig < KERNEL_FLOOR * scale:
            failures.append(f"case {i}: kernel eigenvalue {kern.min_eig:.3e}")
        if level >= 1:
            sub = harnack_kernel(t, level - 1, tol)
            n = sub.base.shape[0]
            if op_norm(kern.base[:n, :n] - sub.base) > 1e-12:
                failures.append(f"case {i}: nesting violated at level {level}")
    for i in range(40):
        d = int(rng.integers(1, 5))
        a = generate(GenSpec(d, "generic", seed=43 * i,
                             params={"norm_bound": float(rng.uniform(0.2, 0.9))}), tol)
        b = generate(GenSpec(d, "generic", seed=43 * i + 1,
                             params={"norm_bound": float(rng.uniform(0.2, 0.9))}), tol)
        verdict = harnack_dominates(a, b, tol)
        _audit(verdict, failures, f"pair {i}")
    return SuiteReport("kernel-soundness", cases + 40, failures,
                       details={"kernel_floor": floor})


def run_falsifier_consistency(cases: int = 40, seed: int = 111,
                              tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """No sampled positive-real polynomial beats a Dominated constant."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(cases):
        d = int(rng.integers(1, 4))
        a = generate(GenSpec(d, "generic", seed=47 * i,
                             params={"norm_bound": float(rng.uniform(0.2, 0.8))}), tol)
        b = generate(GenSpec(d, "generic", seed=47 * i + 1,
                             params={"norm_bound": float(rng.uniform(0.2, 0.8))}), tol)
        verdict = harnack_dominates(a, b, tol)
        if verdict.status != DOMINATED:
            failures.append(f"case {i}: expected domination, got {verdict.status}")
            continue
        c = verdict.constant_estimate * 1.1
        hit = harnack_falsify(a, b, c, trials=60, tol=tol, seed=53 * i)
        if hit is not None:
            failures.append(f"case {i}: constant {c:.4f} falsified "
                            f"(lambda_min {hit.lam_min:.3e})")
    return SuiteReport("falsifier-consistency", cases, failures)


SUITES = {
    "route-agreement": run_route_agreement,
    "strict-part": run_strict_part,
    "scalar-constant": run_scalar_constant,
    "partial-isometry-parts": run_partial_isometry_parts,
    "commuting-triangulation": run_commuting_triangulation,
    "quasi-normal-pipeline": run_quasi_normal_pipeline,
    "arc-connectivity": run_arc_connectivity,
    "schur-part-strictness": run_schur_part_strictness,
    "defect-regularity": run_defect_regularity,
    "kernel-soundness": run_kernel_soundness,
    "falsifier-consistency": run_falsifier_consistency,
}


def run_suite(name: str, cases: int | None = None, seed: int | None = None,
              tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    kwargs = {"tol": tol}
    if cases is not None:
        kwargs["cases"] = cases
    if seed is not None:
        kwargs["seed"] = seed
    return fn(**kwargs)
