"""Schur-class matrix polynomials and the arc machinery.

Polynomials F(lambda) = sum coeffs[k] lambda^k with contractive values on
the disc connect Shmul'yan-equivalent contractions; chains of such arcs
bound the Kobayashi pseudo-distance from above by summed hyperbolic hop
lengths.  An arc the library builds (a hop of ``connect_arc``, the arc of
``partial_isometry_arc``) is degree 1 and carries the whitened
numerical-radius bound of ``segments`` alone, the bound that sized it.  A
polynomial the library is given is certified by ``schur_poly``: circle
sampling plus a derivative (Lipschitz) error term on every grid arc, with
best-first refinement (the arcs sit on a binary heap keyed by their bound,
the worst arc is bisected next, and ties go to the oldest arc), capped on
degree 1 by the whitened bound.  Every reported bound is a true upper
bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contraction import Contraction, _factored, classify, defect_data, make_contraction
from .linalg import (
    DEFAULT_TOL,
    ShapeMismatchError,
    Tolerances,
    as_matrix,
    compress,
    op_norm,
)
# circle_max_norm, radius_search and shmulyan_equivalent are unused here;
# perfbench/spans.py checks that these bindings resolve to their traced
# wrappers, so they stay
from .segments import (  # noqa: F401
    _disc_radius,
    _factored_disc,
    _whitened_disc,
    circle_max_norm,
    poly_norms,
    poly_value,
    proven_radius,
    radius_search,
    unit_circle,
)
from .shmulyan import (  # noqa: F401
    NotPartialIsometryError,
    _factor_dominates,
    partial_isometry_part,
    shmulyan_equivalent,
)

__all__ = [
    "ArcCertificate",
    "ArcResult",
    "NotMemberError",
    "SchurMemberVerdict",
    "SchurPoly",
    "connect_arc",
    "kobayashi_upper_bound",
    "partial_isometry_arc",
    "schur_part_member",
    "schur_poly",
    "segment_radius",
]

ENDPOINT_RTOL = 1e-8
HOP_FRACTION = 0.9
# Each hop coefficient is (1 - HOP_MARGIN) times the proven radius, so that
# recomputing the bound on the hop's own coefficient, with its rounding,
# stays at or below 1 (within the slack when a leak is charged).  At most about 1.4e-6: the scalar hop 0 -> 0.5 must
# stay within 1e-6 of atanh(0.5).
HOP_MARGIN = 1e-6
HOP_BUDGET = 64
SPLIT_BUDGET = 400
SUP_GAP = 1e-9


class NotMemberError(ValueError):
    """Candidate does not belong to the required Shmul'yan part."""


@dataclass(frozen=True)
class SchurPoly:
    """Matrix polynomial with a certified sup-norm over the unit disc."""

    coeffs: tuple
    sup_norm_estimate: float
    method: str

    @property
    def shape(self):
        return self.coeffs[0].shape

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, lam: complex) -> np.ndarray:
        return poly_value(self.coeffs, lam)

    def is_schur_class(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """The certified sup-norm stays inside the ball (maximum principle)."""
        return self.sup_norm_estimate <= 1.0 + tol.contraction_slack


def _certified_sup(coeffs, tol: Tolerances):
    """Certified upper bound of sup_{|lam|=1} ||F(lam)||, with its method.

    The grid bound of :func:`_grid_sup`, capped on degree 1 by the bound
    of :func:`_whitened_sup`, method "whitened" when that cap wins.
    """
    cap = _whitened_sup(coeffs, tol) if len(coeffs) == 2 and coeffs[0].size else math.inf
    return _grid_sup(coeffs, tol, cap)


def _whitened_sup(coeffs, tol: Tolerances) -> float:
    """Bound of sup ||c0 + lam c1|| from the whitened numerical radius.

    ``segments._whitened_disc`` gives omega, an overshoot and a leak with
    ||c0 + eps c1|| <= rho(|eps|) = 1 + overshoot + 4 |eps| leak on the
    disc |eps| <= 1/omega.  Then, with n0 = ||c0||:
    - omega <= 1: t -> ||c0 + t e^{i theta} c1|| is convex on [0, 1/omega],
      so at t = 1 it is at most (1 - omega) n0 + omega rho(1/omega);
    - omega > 1: the circle of radius 1/omega is inside the rho(1/omega)
      ball, and the triangle inequality adds (1 - 1/omega) ||c1||.
    With a center in the ball and no leak these are n0 + (1 - n0) omega
    and 1 + (1 - 1/omega) ||c1||.  math.inf when ||c0|| > 1 +
    contraction_slack or there is no disc.
    """
    c0, c1 = coeffs
    n0 = op_norm(c0)
    if n0 > 1.0 + tol.contraction_slack:
        return math.inf
    omega, overshoot, leak = _whitened_disc(c0, c1, tol)
    if math.isinf(omega):
        return math.inf
    if omega <= 1.0:
        return (1.0 - omega) * n0 + omega * (1.0 + overshoot) + 4.0 * leak
    return 1.0 + overshoot + 4.0 * leak / omega + (1.0 - 1.0 / omega) * op_norm(c1)


def _grid_sup(coeffs, tol: Tolerances, cap: float = math.inf):
    """Certified upper bound of sup ||F|| from the circle grid.

    Each grid arc carries the bound max(end values) + min(L h/2, L2 h^2/8)
    with L = sum k ||c_k|| and L2 = sum k^2 ||c_k||; the norm is a pointwise
    max of smooth branches with those derivative bounds, so the arc bounds
    are true.  The arcs sit on a heap keyed by (-bound, insertion index),
    grid arcs numbered in theta order and each split's lower half before
    its upper half.  So the worst arc is bisected next and ties go to the
    oldest arc, the arc a linear scan for the first maximum of an
    insertion-ordered list picks: the bounds are the same floats, found at
    O(log n) per split.  Refinement stops when min(top bound, cap) is
    within SUP_GAP of the best observed value, method "grid", or after
    SPLIT_BUDGET splits, leaving a slightly larger but still valid bound,
    method "grid-budget".  ``cap`` is another proven bound: when it is below
    the top grid bound it is returned instead, method "whitened", but never
    below the best sampled value.
    """
    if coeffs[0].size == 0:
        return 0.0, "exact-diagonal"
    if len(coeffs) == 1:
        return op_norm(coeffs[0]), "exact-diagonal"
    samples = tol.grid_points
    lip = sum(k * op_norm(c) for k, c in enumerate(coeffs))
    lip2 = sum(k * k * op_norm(c) for k, c in enumerate(coeffs))
    theta, lam = unit_circle(samples)
    theta = list(theta) + [2.0 * np.pi]
    vals = list(poly_norms(coeffs, lam))
    vals.append(vals[0])

    def arc(index, lo, hi, vlo, vhi):
        h = hi - lo
        bound = max(vlo, vhi) + min(0.5 * lip * h, 0.125 * lip2 * h * h)
        return (-bound, index, lo, hi, vlo, vhi)

    def closed(top, best):
        return min(top, cap) - best <= SUP_GAP * max(1.0, best)

    arcs = [arc(i, theta[i], theta[i + 1], vals[i], vals[i + 1])
            for i in range(samples)]
    heapq.heapify(arcs)
    best_val = max(vals)
    for split in range(SPLIT_BUDGET):
        neg_bound, _, lo, hi, vlo, vhi = arcs[0]
        if closed(-neg_bound, best_val):
            break
        mid = 0.5 * (lo + hi)
        vmid = op_norm(poly_value(coeffs, complex(math.cos(mid), math.sin(mid))))
        best_val = max(best_val, vmid)
        index = samples + 2 * split
        heapq.heapreplace(arcs, arc(index, lo, mid, vlo, vmid))
        heapq.heappush(arcs, arc(index + 1, mid, hi, vmid, vhi))
    bound = float(-arcs[0][0])
    if cap < bound:
        return max(cap, best_val), "whitened"
    return bound, "grid" if closed(bound, best_val) else "grid-budget"


def schur_poly(coeffs, tol: Tolerances = DEFAULT_TOL) -> SchurPoly:
    """Build a SchurPoly with its certified sup-norm estimate."""
    mats = tuple(as_matrix(c) for c in coeffs)
    if not mats:
        raise ValueError("a Schur polynomial needs at least one coefficient")
    shape = mats[0].shape
    for c in mats[1:]:
        if c.shape != shape:
            raise ShapeMismatchError("all coefficients must share one shape")
    est, method = _certified_sup(mats, tol)
    return SchurPoly(coeffs=mats, sup_norm_estimate=est, method=method)


def segment_radius(a: Contraction, b: Contraction,
                   tol: Tolerances = DEFAULT_TOL) -> float:
    """Proven lower bound of the largest r with ||(1-eps)a + eps b|| <= 1 +
    tol.contraction_slack on the whole disc |eps| <= r.

    ``segments.proven_radius`` of the segment, from a's cached SVD
    (``contraction._factored``): positive exactly when b is Shmul'yan
    dominated by a (up to the leak threshold), math.inf for (essentially)
    constant segments.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return _disc_radius(_factored_disc(_factored(a), b.mat - a.mat, tol), tol)


@dataclass(frozen=True)
class ArcCertificate:
    """Chain of Schur-class arcs joining two contractions.

    Each entry is (F_j, lambda_j) with F_1(0) the start, F_j(lambda_j)
    = F_{j+1}(0), and the last value the end point; the hyperbolic hop
    lengths sum to the Kobayashi upper bound.
    """

    arcs: tuple
    kobayashi_bound: float
    endpoint_residuals: tuple


@dataclass(frozen=True)
class ArcResult:
    status: str  # "connected" | "not_equivalent" | "budget_exhausted"
    certificate: Optional[ArcCertificate]


def connect_arc(t: Contraction, t_prime: Contraction,
                tol: Tolerances = DEFAULT_TOL) -> ArcResult:
    """Greedy affine chain from t to t_prime inside the unit ball.

    Arcs exist exactly for Shmul'yan-equivalent pairs, so inequivalence
    is reported as proven NotConnected; running out of hop budget is the
    distinct "budget_exhausted" outcome.  Equivalence is the decision of
    ``shmulyan_dominates`` in both directions, without its audit routes.
    Each hop from the point p on the segment is p + lambda s u with s =
    (1 - HOP_MARGIN) times the proven radius of p along u, and carries the
    whitened bound of :func:`_whitened_sup`, the bound that sized it, as
    its sup-norm: at most 1 + contraction_slack by construction.
    """
    if t.shape != t_prime.shape:
        raise ShapeMismatchError(f"shape mismatch {t.shape} vs {t_prime.shape}")
    u = t_prime.mat - t.mat
    if op_norm(u) <= 1e-12:
        return ArcResult("connected", ArcCertificate((), 0.0, ()))
    if not (_factor_dominates(t_prime, t, tol) and _factor_dominates(t, t_prime, tol)):
        return ArcResult("not_equivalent", None)

    arcs = []
    residuals = []
    bound = 0.0
    tau = 0.0
    for _ in range(HOP_BUDGET):
        point = t.mat + tau * u
        s_max = (1.0 - HOP_MARGIN) * proven_radius(point, u, tol)
        if s_max == 0.0:
            return ArcResult("budget_exhausted", None)
        if math.isinf(s_max):
            s_max = max(4.0 * (1.0 - tau), 1.0)
        coeffs = (point, s_max * u)
        arc = SchurPoly(coeffs, _whitened_sup(coeffs, tol), "whitened")
        final = 1.0 - tau <= s_max * 0.97
        lam = (1.0 - tau) / s_max if final else HOP_FRACTION
        arcs.append((arc, complex(lam)))
        residuals.append(op_norm(arc.eval_at(lam) - t_prime.mat) if final else 0.0)
        bound += math.atanh(lam)
        if final:
            break
        tau += lam * s_max
    else:
        return ArcResult("budget_exhausted", None)

    residuals.insert(0, op_norm(arcs[0][0].eval_at(0.0) - t.mat))
    return ArcResult("connected", ArcCertificate(
        arcs=tuple(arcs),
        kobayashi_bound=bound,
        endpoint_residuals=tuple(residuals),
    ))


def partial_isometry_arc(w: Contraction, t_prime: Contraction,
                         tol: Tolerances = DEFAULT_TOL) -> ArcCertificate:
    """Single-arc certificate inside the part of a partial isometry.

    With Z the member's pure block and rho = ||Z||, the arc
    F(lambda) = w + lambda * (embedded Z / sqrt(rho)) reaches t_prime at
    lambda = sqrt(rho) and stays contractive since its defect coefficient
    has norm sqrt(rho) < 1; the bound is atanh(sqrt(rho)).  The arc
    carries the whitened bound of :func:`_whitened_sup` as its sup-norm.
    """
    part = partial_isometry_part(w, tol)
    membership = part.membership_test(t_prime)
    if not membership.member:
        raise NotMemberError("t_prime is not in the part of w")
    z = membership.z_block
    rho = op_norm(z)
    if rho <= tol.contraction_slack:
        return ArcCertificate((), 0.0, ())
    lam0 = math.sqrt(rho)
    embedded = part.null_out.basis @ (z / lam0) @ part.null_in.basis.conj().T
    coeffs = (w.mat, embedded)
    arc = SchurPoly(coeffs, _whitened_sup(coeffs, tol), "whitened")
    resid = (op_norm(arc.eval_at(0.0) - w.mat),
             op_norm(arc.eval_at(lam0) - t_prime.mat))
    return ArcCertificate(
        arcs=((arc, complex(lam0)),),
        kobayashi_bound=math.atanh(lam0),
        endpoint_residuals=resid,
    )


def kobayashi_upper_bound(t: Contraction, t_prime: Contraction,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Upper bound on the Kobayashi pseudo-distance; inf iff inequivalent."""
    if t.shape != t_prime.shape:
        raise ShapeMismatchError(f"shape mismatch {t.shape} vs {t_prime.shape}")
    best = math.inf
    result = connect_arc(t, t_prime, tol)
    if result.status == "not_equivalent":
        return math.inf
    if result.status == "connected":
        best = result.certificate.kobayashi_bound
    if t.is_square and "partial_isometry" in classify(t, tol):
        try:
            cert = partial_isometry_arc(t, t_prime, tol)
            best = min(best, cert.kobayashi_bound)
        except NotMemberError:
            pass
    return best


@dataclass(frozen=True)
class SchurMemberVerdict:
    member: bool
    sup_norm: float
    residual: float
    marginal: bool


def schur_part_member(w: Contraction, f: SchurPoly,
                      tol: Tolerances = DEFAULT_TOL) -> SchurMemberVerdict:
    """Membership of f in the Toeplitz-order part of the constant w.

    For a partial isometry w the part consists exactly of the functions
    w + D_{w*} F0 D_w with F0 mapping defect space to defect space and
    certified sup-norm strictly below one.  The residual measures how far
    f strays from that shape; verdicts within 1e-6 of the unit boundary
    are flagged marginal.
    """
    if "partial_isometry" not in classify(w, tol):
        raise NotPartialIsometryError("constant symbol must be a partial isometry")
    if f.shape != w.shape:
        raise ShapeMismatchError(f"shape mismatch {f.shape} vs {w.shape}")
    dd = defect_data(w, tol)
    d_in, d_out = dd.defect_space, dd.defect_space_star
    residual = 0.0
    f0_coeffs = []
    for k, c in enumerate(f.coeffs):
        base = c - w.mat if k == 0 else c
        inner = compress(base, d_out, d_in)
        back = d_out.basis @ inner @ d_in.basis.conj().T
        residual = max(residual, op_norm(base - back))
        f0_coeffs.append(inner)
    if d_in.dim == 0 or d_out.dim == 0:
        sup = 0.0
    else:
        sup = schur_poly(f0_coeffs, tol).sup_norm_estimate
    member = residual <= ENDPOINT_RTOL and sup < 1.0
    marginal = abs(sup - 1.0) <= 1e-6
    return SchurMemberVerdict(member=member, sup_norm=sup,
                              residual=residual, marginal=marginal)
