"""Schur-class matrix polynomials and the arc machinery.

Polynomials F(lambda) = sum coeffs[k] lambda^k with contractive values on
the disc are certified by ``schur_poly``.  The isometric block of c0 is
split off first when no coefficient leaks onto it (the defect chart of
c0, ``_chart_split``), since its flat norm is where no grid can close.
The rest is certified by circle sampling plus a derivative (Lipschitz)
error term on every grid arc, with best-first refinement of the worst arc
over the arcs that can reach the top, capped on degree 1 by the whitened
numerical-radius bound of ``segments``.  Shmul'yan-equivalent contractions
are joined by ``connect_arc``: one Moebius arc in the defect chart of one
end, whose ball automorphism gives the exact Kobayashi distance of that
ball and whose contractivity is one small eigenvalue check.  Every
reported bound is a true upper bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contraction import Contraction, _factored, defect_data
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
    LEAK_RTOL,
    _kernel_leak,
    _whitened_disc,
    circle_max_norm,
    poly_norms,
    poly_value,
    radius_search,
    unit_circle,
)
from .shmulyan import (  # noqa: F401
    _chart_equivalent,
    partial_isometry_part,
    shmulyan_equivalent,
)

__all__ = [
    "ArcCertificate",
    "ArcResult",
    "MobiusArc",
    "SchurMemberVerdict",
    "SchurPoly",
    "connect_arc",
    "schur_part_member",
    "schur_poly",
]

# connect_arc scales V to norm 1 / (1 + MOBIUS_MARGIN): a gap of 6e-14 in I - V*V
# over the rounding of its check, costing MOBIUS_MARGIN lambda0 / (1 - lambda0^2)
MOBIUS_MARGIN = 3e-14
SPLIT_BUDGET = 400
SUP_GAP = 1e-9


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

    When :func:`_chart_split` splits F into an isometric block of c0 and a
    remainder G, the bound is max(top, sup ||G||) + charge, method "chart"
    ("grid-budget" when the grid of G spent its budget).  Otherwise, and
    for G, it is the grid bound of :func:`_grid_sup`, capped on degree 1 by
    the bound of :func:`_whitened_sup`, method "whitened" when that cap wins.
    """
    chart = _chart_split(coeffs, tol) if len(coeffs) > 1 and coeffs[0].size else None
    if chart is None:
        return _plain_sup(coeffs, tol)
    rest, top, charge = chart
    sup, method = _plain_sup(rest, tol, floor=top)
    return max(top, sup) + charge, "grid-budget" if method == "grid-budget" else "chart"


def _plain_sup(coeffs, tol: Tolerances, floor: float = 0.0):
    """:func:`_grid_sup` with the cap of :func:`_whitened_sup` on degree 1."""
    cap = _whitened_sup(coeffs, tol) if len(coeffs) == 2 and coeffs[0].size else math.inf
    return _grid_sup(coeffs, tol, cap, floor)


def _chart_split(coeffs, tol: Tolerances):
    """(G, top, charge) when F is an isometric block of c0 plus G, else None.

    With c0 = U S V*, the pairs I with |1 - s^2| <= psd_atol (the clamp of
    ``linalg._defect_roots``) give K_in = V_I and K_out = U_I, and top =
    max s_I.  When every c_k, k >= 1, passes ``segments._kernel_leak`` onto
    them, F = U (S_I (+) G) V* + E with G = R_out* F R_in on the complements
    R (its constant term the exact diagonal of the other s), and the part of
    c_k that E keeps, c_k K_in K_in* + K_out K_out* c_k R_in R_in*, has norm
    at most 2 leak_k.  So sup ||F|| <= max(top, sup ||G||) + charge with
    charge = sum_k 2 leak_k + ||c0 - U S V*||_F + 8 m eps sum_k ||c_k||_F,
    the last term for the rounding of the bases and of G.  None when no
    singular value of c0 is that close to 1 or a coefficient leaks.
    """
    c0 = coeffs[0]
    u, s, vh = np.linalg.svd(c0)
    flat = np.abs((1.0 - s) * (1.0 + s)) <= tol.psd_atol
    if not flat.any():
        return None
    k_in, k_out = vh[:s.size][flat].conj().T, u[:, :s.size][:, flat]
    leaks = [_kernel_leak(c, k_in, k_out) for c in coeffs[1:]]
    if any(leak > bound for leak, bound in leaks):
        return None
    (m, n), k = c0.shape, s.size
    rest_out = np.concatenate([~flat, np.ones(m - k, bool)])
    rest_in = np.concatenate([~flat, np.ones(n - k, bool)])
    r_out, r_in = u[:, rest_out], vh[rest_in].conj().T
    kept = s[~flat]
    g0 = np.zeros((r_out.shape[1], r_in.shape[1]), dtype=complex)
    g0[np.arange(kept.size), np.arange(kept.size)] = kept
    rest = [g0] + [r_out.conj().T @ c @ r_in for c in coeffs[1:]]
    residual = np.linalg.norm(c0 - (u[:, :k] * s) @ vh[:k])
    rounding = 8.0 * max(m, n) * np.finfo(float).eps * sum(np.linalg.norm(c) for c in coeffs)
    charge = 2.0 * sum(leak for leak, _ in leaks) + float(residual) + float(rounding)
    return rest, float(s[flat].max()), charge


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


def _grid_sup(coeffs, tol: Tolerances, cap: float = math.inf, floor: float = 0.0):
    """Certified upper bound of sup ||F|| from the circle grid.

    Each grid arc carries the bound max(end values) + min(L h/2, L2 h^2/8)
    with L = sum k ||c_k|| and L2 = sum k^2 ||c_k||; the norm is a pointwise
    max of smooth branches with those derivative bounds, so the arc bounds
    are true.  The arcs sit on a heap keyed by (-bound, insertion index),
    grid arcs numbered in theta order and each split's lower half before
    its upper half.  So the worst arc is bisected next and ties go to the
    oldest arc, the arc a linear scan for the first maximum of an
    insertion-ordered list picks: the bounds are the same floats, found at
    O(log n) per split.  The grid bounds are computed in one numpy pass,
    and only the arcs whose bound reaches the best sample enter the heap:
    the top bound never falls below the best sample, so no other arc is
    ever split or on top.  Refinement stops when min(top bound, cap) is
    within SUP_GAP of the best observed value or of ``floor`` (a value the
    caller takes the maximum with), method "grid", or after SPLIT_BUDGET
    splits, leaving a slightly larger but still valid bound, method
    "grid-budget".  ``cap`` is another proven bound: when it is below the
    top grid bound it is returned instead, method "whitened", but never
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
    theta = np.append(theta, 2.0 * np.pi)
    vals = poly_norms(coeffs, lam)
    vals = np.append(vals, vals[0])
    h = np.diff(theta)
    bounds = np.maximum(vals[:-1], vals[1:]) + np.minimum(0.5 * lip * h, 0.125 * lip2 * h * h)
    best_val = float(vals.max())

    def arc(index, lo, hi, vlo, vhi):
        h = hi - lo
        bound = max(vlo, vhi) + min(0.5 * lip * h, 0.125 * lip2 * h * h)
        return (-bound, index, lo, hi, vlo, vhi)

    def closed(top, best):
        level = max(best, floor)
        return min(top, cap) - level <= SUP_GAP * max(1.0, level)

    keep = np.flatnonzero(bounds >= best_val)
    arcs = list(zip((-bounds[keep]).tolist(), keep.tolist(), theta[keep].tolist(),
                    theta[keep + 1].tolist(), vals[keep].tolist(), vals[keep + 1].tolist()))
    heapq.heapify(arcs)
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


@dataclass(frozen=True, slots=True)
class MobiusArc:
    """F(lam) = t + K_out (phi_{-Z}(lam V) - Z) K_in*, the arc of
    :func:`connect_arc` in the defect chart of t = U S V*.

    K_in and K_out are the defect-space bases of ``defect_data``, and Z =
    K_out* t K_in is the rectangular diagonal of the kept singular values
    z, so D_Z and D_{Z*} are the diagonals root_in and root_out of the kept
    defect roots.  The chart term D_{Z*} Y (I + Z*Y)^{-1} D_Z, Y = lam V, is
    0 at lam = 0.  A pivot p runs the arc backwards: mu -> F((p - mu) / (1 -
    p mu)).  The arc keeps references to t.mat and the cached bases.
    """

    base: np.ndarray
    k_in: np.ndarray
    k_out: np.ndarray
    z: np.ndarray
    root_in: np.ndarray
    root_out: np.ndarray
    v: np.ndarray
    sup_norm_estimate: float
    method: str = "mobius"
    pivot: Optional[float] = None

    @property
    def shape(self):
        return self.base.shape

    def eval_at(self, lam: complex) -> np.ndarray:
        if self.pivot is not None:
            lam = (self.pivot - lam) / (1.0 - self.pivot * lam)
        y = lam * self.v
        step = self.root_out[:, None] * _chart_quotient(self.z, y, y, 1.0) * self.root_in
        return self.base + self.k_out @ step @ self.k_in.conj().T

    is_schur_class = SchurPoly.is_schur_class


def _chart_quotient(z, num, den, sign: float) -> np.ndarray:
    """num (I + sign Z* den)^{-1}, with Z the rectangular diagonal of z (real)."""
    gram = np.eye(den.shape[1], dtype=complex)
    gram[:z.size] += sign * z[:, None] * den[:z.size]
    return np.linalg.solve(gram.T, num.T).T


@dataclass(frozen=True, slots=True)
class ArcCertificate:
    """The arcs (F, lambda) of connect_arc, one or none: F(0) and F(lambda) are the
    ends up to the residuals, and atanh |lambda| is the Kobayashi bound."""

    arcs: tuple
    kobayashi_bound: float
    endpoint_residuals: tuple


@dataclass(frozen=True, slots=True)
class ArcResult:
    status: str  # "connected" | "not_equivalent" | "budget_exhausted"
    certificate: Optional[ArcCertificate]


def connect_arc(t: Contraction, t_prime: Contraction,
                tol: Tolerances = DEFAULT_TOL) -> ArcResult:
    """One Moebius arc from t to t_prime in the defect chart of t (:class:`MobiusArc`).

    Arcs exist exactly for Shmul'yan-equivalent pairs (the two leak tests of
    ``shmulyan_equivalent``, without its audit routes), so
    inequivalence is proven "not_equivalent".  phi_Z(X) = D_{Z*}^{-1} (X - Z)
    (I - Z*X)^{-1} D_Z sends Z to 0 and Z' = K_out* t_prime K_in to X; with
    lambda0 = ||X|| (1 + MOBIUS_MARGIN) and V = X / lambda0, atanh lambda0 is
    the Kobayashi distance of the chart ball (L. A. Harris, LNM 364, 1974).
    I - M*M = D_Z K* (I - Y*Y) K D_Z for Y = lambda V, M = phi_{-Z}(Y), K =
    (I + Z*Y)^{-1}, so ||M|| <= 1 once one eigvalsh of I - V*V is >= 0.  The
    endpoint residual, the part of t_prime - t off the chart (diff Q_in +
    Q_out diff (I - Q_in) for the kernel projections Q), is at most twice the
    leak the decision accepted.  With t_prime on the boundary of the chart,
    the arc in the chart of t_prime is run backwards.  "budget_exhausted":
    both failed (the check, lambda0 < 1, the sup-norm or that residual bound).
    """
    if t.shape != t_prime.shape:
        raise ShapeMismatchError(f"shape mismatch {t.shape} vs {t_prime.shape}")
    gap = op_norm(t_prime.mat - t.mat)
    if gap <= 1e-12:
        return ArcResult("connected", ArcCertificate((), 0.0, ()))
    if not _chart_equivalent(t, t_prime, tol):
        return ArcResult("not_equivalent", None)
    for start, end, turned in ((t, t_prime, False), (t_prime, t, True)):
        arc, lam = _chart_arc(start, end, turned, tol)
        # the arc is exact at start (lam = 0 in its chart): only end leaves a residual
        residual = op_norm(arc.eval_at(0.0 if turned else lam) - end.mat)
        if lam < 1.0 and arc.is_schur_class(tol) and residual <= 2.0 * LEAK_RTOL * max(1.0, gap):
            cert = ArcCertificate(((arc, complex(lam)),), math.atanh(lam),
                                  (residual, 0.0) if turned else (0.0, residual))
            return ArcResult("connected", cert)
    return ArcResult("budget_exhausted", None)


def _chart_arc(t: Contraction, t_prime: Contraction, turned: bool, tol: Tolerances):
    """The arc of :func:`connect_arc` in the chart of t (pivoted when turned) and
    lambda0.  Sup-norm: 1 + max(0, s_0 - 1), the chart residual ||t - U S V*||_F
    and 8 m eps for the rounding of the stored roots and bases."""
    u, s, vh = _factored(t)
    dd = defect_data(t, tol)
    target = dd.defect_space_star.basis.conj().T @ t_prime.mat @ dd.defect_space.basis
    diff = target.copy()
    diff[np.arange(dd.z.size), np.arange(dd.z.size)] -= dd.z
    x = _chart_quotient(dd.z, diff, target, -1.0) * dd.root_in / dd.root_out[:, None]
    lam = op_norm(x) * (1.0 + MOBIUS_MARGIN)
    v = x / lam if lam else x
    checked = np.linalg.eigvalsh(np.eye(v.shape[1]) - v.conj().T @ v).min(initial=1.0) >= 0.0
    rounding = 8.0 * max(t.shape) * np.finfo(float).eps  # on a chart term of norm <= 2
    chart = np.linalg.norm(t.mat - (u[:, :s.size] * s) @ vh[:s.size])
    sup = 1.0 + max(0.0, float(s[0]) - 1.0) + float(chart) + rounding
    return MobiusArc(t.mat, dd.defect_space.basis, dd.defect_space_star.basis, dd.z,
                     dd.root_in, dd.root_out, v, sup if checked else math.inf,
                     pivot=lam if turned else None), lam


@dataclass(frozen=True, slots=True)
class SchurMemberVerdict:
    """Verdict of :func:`schur_part_member`.

    member    every coefficient passes the leak test and F0 passes the clamp
    sup_norm  the certified sup-norm of F0
    residual  the largest leak of a coefficient (c0 - w first) onto the
              kernels N(D_w), N(D_{w*})
    marginal  sup_norm within 1e-6 of 1
    sup_method  the method of F0's certificate ("grid-budget" when its
              grid spent the split budget)
    """

    member: bool
    sup_norm: float
    residual: float
    marginal: bool
    sup_method: str


def schur_part_member(w: Contraction, f: SchurPoly,
                      tol: Tolerances = DEFAULT_TOL) -> SchurMemberVerdict:
    """Membership of f in the Toeplitz-order part of the constant w.

    w may be any contraction W (+) C in its defect chart: by ter Horst's
    extension of the Shmul'yan order (J. Operator Th. 72, 2014) the part
    of the constant w is that of the partial isometry W (+) 0, the
    functions W + F0 in the chart of :func:`shmulyan.partial_isometry_part`,
    F0 mapping defect space to defect space with sup-norm below one.  So
    each coefficient, c0 - w first, must pass the leak test of the
    Shmul'yan decision onto the chart's kernels, and F0, the Z blocks of
    the coefficients, must have (1 - sup)(1 + sup) above psd_atol for its
    certified sup-norm: the clamp of the defect roots, with which the
    decision settles the constant case.  Verdicts within 1e-6 of the unit
    boundary are flagged marginal.
    """
    part = partial_isometry_part(w, tol)
    if f.shape != w.shape:
        raise ShapeMismatchError(f"shape mismatch {f.shape} vs {w.shape}")
    leaks = [_kernel_leak(c - w.mat if k == 0 else c, part.range_in.basis, part.range_out.basis)
             for k, c in enumerate(f.coeffs)]
    residual = max(leak for leak, _ in leaks)
    f0 = [compress(c, part.null_out, part.null_in) for c in f.coeffs]
    sup, method = _certified_sup(f0, tol)
    member = all(leak <= bound for leak, bound in leaks) and \
        (1.0 - sup) * (1.0 + sup) > tol.psd_atol
    return SchurMemberVerdict(member=member, sup_norm=sup, residual=residual,
                              marginal=abs(sup - 1.0) <= 1e-6, sup_method=method)
