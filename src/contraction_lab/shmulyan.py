"""Shmul'yan domination and equivalence oracles.

A contraction b is Shmul'yan dominated by a when b = a + D_{a*} X D_a for
some bounded X.  Three independent decision routes are implemented and
must agree: the defining defect factorization, the cross-Gram
factorization I - b*a = D_a Y D_a, and the segment criterion (some disc
(1-eps)a + eps b of positive radius stays inside the unit ball; its radius
is segments.proven_radius, from the dominator's cached SVD).  X exists
exactly when b - a vanishes on N(D_a) and (b - a)* on N(D_{a*}): the
decision is the two-sided segments._kernel_leak.  On top
of the directed oracle sit the part of any contraction and the structured
criteria for quasi-isometries, column splits, and pure corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import math

import numpy as np

from .asymptotics import asymptotic_limit
from .contraction import (
    Contraction,
    _factored,
    classify,
    defect_data,
    make_contraction,
)
from .linalg import (
    DEFAULT_TOL,
    ANGLE_TOL,
    ShapeMismatchError,
    Subspace,
    Tolerances,
    compress,
    herm,
    op_norm,
    range_of,
)
# circle_max_norm and radius_search are unused here; perfbench/spans.py checks
# that these bindings resolve to their traced wrappers, so they stay
from .segments import circle_max_norm, radius_search  # noqa: F401
# the residual threshold of the audit routes is the leak threshold: one policy
from .segments import LEAK_RTOL as ROUTE_RTOL, _disc_radius, _factored_disc, _kernel_leak

__all__ = [
    "ColumnCriterion",
    "IncompatibleSplitsError",
    "Membership",
    "NotQuasiIsometryError",
    "PartDescription",
    "ShmulyanEquivalence",
    "ShmulyanVerdict",
    "column_criterion",
    "corner_norm_criterion",
    "partial_isometry_part",
    "pure_corner_conditions",
    "quasi_isometry_criterion",
    "shmulyan_dominates",
    "shmulyan_equivalent",
]

class NotQuasiIsometryError(ValueError):
    """Operator fails the defining identity T*T = T*^2 T^2."""


class IncompatibleSplitsError(ValueError):
    """Requested block split does not fit the operator shapes."""


@dataclass(frozen=True)
class ShmulyanVerdict:
    """Directed verdict for "b is dominated by a".

    dominates        primary decision (defect-factorization route)
    x_solution       X with b = a + D_{a*} X D_a (minimal Frobenius norm)
    route_agreement  per-route booleans; disagreement is a test failure
    witness          unit vector certifying infeasibility, when not dominated
    radius           segments.proven_radius(a, b - a): a proven lower bound
                     of the largest r with ||a + eps (b - a)|| <= 1 +
                     contraction_slack on the whole disc |eps| <= r; 0.0
                     when not dominated, math.inf above segments.RADIUS_CAP
    residuals        the leak of the deciding route ("defect_factor") and
                     the residual norm of the cross-Gram route
    marginal         the leak or the cross-Gram residual fell within a
                     decade of its threshold
    """

    dominates: bool
    x_solution: Optional[np.ndarray]
    route_agreement: dict
    witness: Optional[np.ndarray]
    radius: float
    residuals: dict
    marginal: bool


def _two_sided_solve(left, left_pinv, mid, right, right_pinv):
    """Minimal-norm X with mid = left @ X @ right, its residual, and the
    residual bound ROUTE_RTOL * max(1, ||mid||) of the factorization routes."""
    x = left_pinv @ mid @ right_pinv
    return x, op_norm(mid - left @ x @ right), ROUTE_RTOL * max(1.0, op_norm(mid))


def _factor_dominates(b: Contraction, a: Contraction, tol: Tolerances) -> bool:
    """The decision of :func:`shmulyan_dominates`, without its audit routes."""
    dd = defect_data(a, tol)
    leak, bound = _kernel_leak(b.mat - a.mat, dd.null_dt.basis, dd.null_dtstar.basis)
    return leak <= bound


def _chart_equivalent(a: Contraction, b: Contraction, tol: Tolerances) -> bool:
    """The decision of :func:`shmulyan_equivalent`, the two leak tests without
    audit routes: b dominated by a, then a by b."""
    return _factor_dominates(b, a, tol) and _factor_dominates(a, b, tol)


def shmulyan_dominates(b: Contraction, a: Contraction,
                       tol: Tolerances = DEFAULT_TOL) -> ShmulyanVerdict:
    """Decide whether b is Shmul'yan dominated by a (b = a + D_{a*} X D_a).

    All three routes are evaluated, and the verdict records each so
    disagreement can be asserted against.  The segment route reads the same
    leak test as the decision, so those two agree by construction; the
    cross-Gram route is second order in the leak (its residual is about
    leak^2 / 2), so it accepts leaks up to about 1e-4 that the decision
    rejects.
    """
    if b.shape != a.shape:
        raise ShapeMismatchError(f"shape mismatch {b.shape} vs {a.shape}")
    dd = defect_data(a, tol)
    diff = b.mat - a.mat
    leak, bound = _kernel_leak(diff, dd.null_dt.basis, dd.null_dtstar.basis)
    feasible_factor = leak <= bound
    x = dd.d_tstar_pinv @ diff @ dd.d_t_pinv  # minimal-norm X when feasible

    gram = np.eye(a.shape[1], dtype=complex) - b.mat.conj().T @ a.mat
    _, res_y, bound_y = _two_sided_solve(dd.d_t, dd.d_t_pinv, gram, dd.d_t, dd.d_t_pinv)
    feasible_gram = res_y <= bound_y

    # the disc of the SVD that defect_data read, and of the decision's leak
    radius = _disc_radius(_factored_disc(_factored(a), diff, tol, (leak, bound)), tol)
    feasible_segment = radius > 0.0

    witness = None
    if not feasible_factor and diff.size:
        _, _, vh = np.linalg.svd(diff - dd.d_tstar @ x @ dd.d_t)
        witness = vh[0].conj()  # a copy: the row view would pin all of vh

    marginal = any(bnd / 10.0 <= res <= 10.0 * bnd
                   for res, bnd in ((leak, bound), (res_y, bound_y)))

    return ShmulyanVerdict(
        dominates=feasible_factor,
        x_solution=x if feasible_factor else None,
        route_agreement={
            "defect_factor": feasible_factor,
            "cross_gram": feasible_gram,
            "segment": feasible_segment,
        },
        witness=witness,
        radius=radius,
        residuals={"defect_factor": leak, "cross_gram": res_y},
        marginal=marginal,
    )


@dataclass(frozen=True)
class ShmulyanEquivalence:
    """Both directed verdicts plus the mixed-defect factors when equivalent.

    x_tilde solves b = a + D_{b*} X~ D_a and y_tilde solves
    I - a*b = D_a Y~ D_b; both exist exactly on equivalent pairs.
    """

    a_dominates_b: ShmulyanVerdict
    b_dominates_a: ShmulyanVerdict
    equivalent: bool
    x_tilde: Optional[np.ndarray]
    y_tilde: Optional[np.ndarray]
    mixed_residuals: dict


def shmulyan_equivalent(a: Contraction, b: Contraction,
                        tol: Tolerances = DEFAULT_TOL) -> ShmulyanEquivalence:
    fwd = shmulyan_dominates(b, a, tol)  # b dominated by a
    bwd = shmulyan_dominates(a, b, tol)  # a dominated by b
    equivalent = fwd.dominates and bwd.dominates
    x_tilde = y_tilde = None
    mixed = {}
    if equivalent:
        dd_a = defect_data(a, tol)
        dd_b = defect_data(b, tol)
        x_tilde, res_xt, bound_xt = _two_sided_solve(
            dd_b.d_tstar, dd_b.d_tstar_pinv, b.mat - a.mat, dd_a.d_t, dd_a.d_t_pinv)
        gram = np.eye(a.shape[1], dtype=complex) - a.mat.conj().T @ b.mat
        y_tilde, res_yt, bound_yt = _two_sided_solve(
            dd_a.d_t, dd_a.d_t_pinv, gram, dd_b.d_t, dd_b.d_t_pinv)
        mixed = {"x_tilde": res_xt, "y_tilde": res_yt}
        if res_xt > bound_xt:
            x_tilde = None
        if res_yt > bound_yt:
            y_tilde = None
    return ShmulyanEquivalence(
        a_dominates_b=fwd,
        b_dominates_a=bwd,
        equivalent=equivalent,
        x_tilde=x_tilde,
        y_tilde=y_tilde,
        mixed_residuals=mixed,
    )


@dataclass(frozen=True)
class Membership:
    """Verdict of :attr:`PartDescription.membership_test` on a candidate c.

    member    c and w are Shmul'yan equivalent
    z_block   Z, the compression of c to the defect spaces of w
    residual  the leak of c - w onto N(D_w) and N(D_{w*})
    """

    member: bool
    z_block: Optional[np.ndarray]
    residual: float


@dataclass(frozen=True)
class PartDescription:
    """Shmul'yan part of a contraction w = W (+) C, in the defect chart of
    w (:func:`contraction.defect_data`): the part of the partial isometry
    W (+) 0, with W = compress(w, range_out, range_in).

    Members are exactly the contractions W + Z in the same bases with
    ||Z|| < 1.  membership_test decides it as ``shmulyan_equivalent``
    does: c - w must not leak onto N(D_w) and N(D_{w*}), and w - c not
    onto N(D_c) and N(D_{c*}), which holds exactly when 1 - ||Z||^2 is
    above the psd_atol clamp of the defect roots.
    """

    u_block: np.ndarray   # W
    range_in: Subspace    # N(D_w); R(w*) when w is a partial isometry
    null_in: Subspace     # the defect space of w
    range_out: Subspace   # N(D_{w*})
    null_out: Subspace    # the defect space of w*
    membership_test: Callable[[Contraction], Membership]


def partial_isometry_part(w: Contraction,
                          tol: Tolerances = DEFAULT_TOL) -> PartDescription:
    """The part of w, which is that of the partial isometry W (+) 0 of the
    chart of ``defect_data(w)``: its kernels have one dimension, so W maps
    N(D_w) unitarily onto N(D_{w*}) for any contraction w.

    membership_test(c) is the Shmul'yan equivalence decision of w and c,
    the two leak tests, and reports the leak of c - w as its residual.
    """
    dd = defect_data(w, tol)
    range_in, null_in = dd.null_dt, dd.defect_space
    range_out, null_out = dd.null_dtstar, dd.defect_space_star

    def membership(c: Contraction) -> Membership:
        if c.shape != w.shape:
            raise ShapeMismatchError(f"shape mismatch {c.shape} vs {w.shape}")
        leak, bound = _kernel_leak(c.mat - w.mat, range_in.basis, range_out.basis)
        member = leak <= bound and _factor_dominates(w, c, tol)
        return Membership(member=member, z_block=compress(c.mat, null_out, null_in),
                          residual=leak)

    return PartDescription(
        u_block=compress(w.mat, range_out, range_in),
        range_in=range_in, null_in=null_in,
        range_out=range_out, null_out=null_out,
        membership_test=membership,
    )


@dataclass(frozen=True)
class ColumnCriterion:
    """Outcome of the block-column sufficiency test for equivalence."""

    conditions_hold: bool
    column0_equivalent: bool
    column1_equivalent: bool

    @property
    def equivalent(self) -> bool:
        return self.conditions_hold and self.column0_equivalent and \
            self.column1_equivalent

    def __bool__(self) -> bool:
        return self.equivalent


def column_criterion(t: Contraction, t_prime: Contraction,
                     dom_split: int, cod_split: int,
                     tol: Tolerances = DEFAULT_TOL) -> ColumnCriterion:
    """Column sufficiency test over coordinate splits.

    With T = [[T0, T1], [T2, T3]] over C^k + C^(cols-k) -> C^m + C^(rows-m)
    and likewise T', checks the four cross-orthogonality conditions
    T0*T1 + T2*T3 = 0 (both operators and both mixed variants); when they
    hold, equivalence of the column pairs implies equivalence of the full
    pair.  Each column pair is decided by the two leak tests of
    :func:`shmulyan_equivalent`, without its audit routes.
    """
    if t.shape != t_prime.shape:
        raise IncompatibleSplitsError(f"shape mismatch {t.shape} vs {t_prime.shape}")
    rows, cols = t.shape
    k, m = dom_split, cod_split
    if not (0 <= k <= cols and 0 <= m <= rows):
        raise IncompatibleSplitsError(
            f"split ({k}, {m}) does not fit shape {t.shape}")

    def blocks(mat):
        return mat[:m, :k], mat[:m, k:], mat[m:, :k], mat[m:, k:]

    t0, t1, t2, t3 = blocks(t.mat)
    p0, p1, p2, p3 = blocks(t_prime.mat)
    conds = [
        t0.conj().T @ t1 + t2.conj().T @ t3,
        p0.conj().T @ p1 + p2.conj().T @ p3,
        t0.conj().T @ p1 + t2.conj().T @ p3,
        t1.conj().T @ p0 + t3.conj().T @ p2,
    ]
    conditions_hold = all(op_norm(cnd) <= ROUTE_RTOL for cnd in conds)
    col0, col1 = (_chart_equivalent(make_contraction(t.mat[:, side], tol),
                                    make_contraction(t_prime.mat[:, side], tol), tol)
                  for side in (np.s_[:k], np.s_[k:]))
    return ColumnCriterion(conditions_hold, col0, col1)


def _fix_split(t: Contraction, tol: Tolerances):
    """Orthonormal bases of N(I - S_T) = H_u and its complement, from the
    unitary split that asymptotic_limit reads."""
    lim = asymptotic_limit(t, tol)
    return lim.fix_s, lim.null_s


def quasi_isometry_criterion(t: Contraction, t_prime: Contraction,
                             tol: Tolerances = DEFAULT_TOL):
    """Equivalence test of t' against a quasi-isometry t.

    Over H0 = N(I - S_t) the quasi-isometry has the form [[V, R], [0, 0]]
    with V an isometry; t' is equivalent exactly when H0 is t'-invariant,
    R(Q') sits inside R(D_R) = R(D_t'), V' = V (forced, V being an
    isometry) and R' is dominated by R.  Returns the conjunction plus the
    individual diagnostics.
    """
    if "quasi_isometry" not in classify(t, tol):
        raise NotQuasiIsometryError("first operator is not a quasi-isometry")
    if t.shape != t_prime.shape:
        raise ShapeMismatchError(f"shape mismatch {t.shape} vs {t_prime.shape}")
    h0, h1 = _fix_split(t, tol)
    v = compress(t.mat, h0, h0)
    r = compress(t.mat, h0, h1)
    v_p = compress(t_prime.mat, h0, h0)
    r_p = compress(t_prime.mat, h0, h1)
    q_p = compress(t_prime.mat, h1, h1)
    leak = op_norm(compress(t_prime.mat, h1, h0))
    invariance = leak <= ROUTE_RTOL

    range_dr = defect_data(Contraction(r), tol).defect_space
    range_qp = range_of(q_p, tol)
    # embed h1-coordinate subspaces into the ambient space
    amb = h1.ambient_dim
    emb_dr = Subspace._trusted(amb, h1.basis @ range_dr.basis)
    emb_qp = Subspace._trusted(amb, h1.basis @ range_qp.basis)
    range_dtp = defect_data(t_prime, tol).defect_space
    range_inclusion = emb_dr.contains(emb_qp) and emb_dr.equals(range_dtp)

    v_dom = op_norm(v - v_p) <= ROUTE_RTOL
    r_dom = True
    if h1.dim:
        r_dom = shmulyan_dominates(
            make_contraction(r_p, tol), make_contraction(r, tol), tol).dominates
    result = invariance and range_inclusion and v_dom and r_dom
    diagnostics = {
        "invariance": invariance,
        "range_inclusion": range_inclusion,
        "v_dom": v_dom,
        "r_dom": r_dom,
    }
    return result, diagnostics


def pure_corner_conditions(t: Contraction, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Three equivalent shape conditions on a square contraction.

    (i) N(D_T) is T-invariant, (ii) N(D_T*) is contained in N(D_T),
    (iii) the corner of T on the complement of N(I - S_T) is a pure
    contraction.  Returns the three booleans plus their agreement flag.
    """
    if not t.is_square:
        raise ValueError("pure_corner_conditions expects a square contraction")
    dd = defect_data(t, tol)
    null = dd.null_dt
    if null.dim:
        img = t.mat @ null.basis
        leak = op_norm(img - null.projector() @ img)
        cond_i = leak <= ROUTE_RTOL
    else:
        cond_i = True
    cond_ii = dd.null_dt.contains(dd.null_dtstar, ANGLE_TOL)
    _, h1 = _fix_split(t, tol)
    q = compress(t.mat, h1, h1)
    cond_iii = (h1.dim == 0) or (op_norm(q) < 1.0 - tol.contraction_slack)
    return {
        "kernel_invariant": cond_i,
        "star_kernel_included": cond_ii,
        "corner_pure": cond_iii,
        "agree": cond_i == cond_ii == cond_iii,
    }


def corner_norm_criterion(t: Contraction, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Norm test ||R*R + Q*Q|| < 1 for membership next to a partial isometry.

    R, Q are the corners of T mapping the complement of N(I - S_T) into
    the two summands.  When N(D_T*) is contained in N(D_T) the norm test
    is equivalent to "the part of T contains a partial isometry and Q is
    pure"; the hypothesis flag is reported so callers can scope the
    equivalence assertion.
    """
    if not t.is_square:
        raise ValueError("corner_norm_criterion expects a square contraction")
    h0, h1 = _fix_split(t, tol)
    r = compress(t.mat, h0, h1)
    q = compress(t.mat, h1, h1)
    if h1.dim:
        gram = herm(r.conj().T @ r + q.conj().T @ q)
        cond_ii = op_norm(gram) < 1.0 - tol.contraction_slack
    else:
        cond_ii = True
    dd = defect_data(t, tol)
    # ||Z|| of the chart T = W (+) Z is its largest kept singular value
    contains_pi = dd.z.max(initial=0.0) < 1.0 - tol.contraction_slack
    q_pure = (h1.dim == 0) or (op_norm(q) < 1.0 - tol.contraction_slack)
    cond_i = contains_pi and q_pure
    hypothesis = dd.null_dt.contains(dd.null_dtstar, ANGLE_TOL)
    return {
        "cond_i": cond_i,
        "cond_ii": cond_ii,
        "hypothesis": hypothesis,
        "agree_under_hypothesis": (cond_i == cond_ii) if hypothesis else True,
    }
