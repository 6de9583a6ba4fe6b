"""Asymptotic limits, canonical triangulations, and reducing parts.

The asymptotic limit of a contraction T is the strong limit of T*^n T^n.
Its kernel and fixed space drive the canonical triangulation into a
strongly stable block and a block whose orbits never die, and intersecting
fixed spaces of T and T* yields the reducing unitary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import MAX_DOUBLINGS, Contraction, defect_data
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    compress,
    op_norm,
    range_of,
)

__all__ = [
    "AsymptoticData",
    "ClassFlags",
    "NoConvergenceError",
    "Triangulation",
    "asymptotic_limit",
    "canonical_triangulation",
    "class_of",
    "PartsData",
    "reducing_isometric_part",
    "reducing_parts",
    "reducing_unitary_part",
    "stability_flags",
]

# Residual threshold for block identities derived from converged limits.
BLOCK_RTOL = 1e-8


class NoConvergenceError(RuntimeError):
    """Fixed-point iteration hit its cap before meeting conv_tol, or left the ball."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no convergence after effective power {iterations} "
            f"(residual {residual:.3e})")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class AsymptoticData:
    """Limit of T*^n T^n with its ascending eigenvalues, kernel and fixed space."""

    s_t: np.ndarray
    eigenvalues: np.ndarray
    null_s: Subspace
    fix_s: Subspace
    iterations: int
    idempotent: bool


def asymptotic_limit(c: Contraction,
                     tol: Tolerances = DEFAULT_TOL) -> AsymptoticData:
    """Compute S_T = lim T*^n T^n for a square contraction (cached).

    The quadratic forms of A_n = T*^n T^n decrease monotonically, so the
    subsampled sequence at powers 2^k converges; doubling the power keeps
    the iteration faithful to the definition while reaching the limit in
    logarithmically many multiplies even for non-diagonalizable T.  A
    power A_n whose largest diagonal entry, a lower bound of its norm,
    exceeds 1 + contraction_slack proves T no contraction and raises
    NoConvergenceError.  The result is cached on c per tolerances, so its
    arrays are read-only.
    """
    if not c.is_square:
        raise ValueError("asymptotic_limit expects a square contraction")
    data = c._limit_cache.get(tol)
    if data is None:
        data = _compute_limit(c, tol)
        for a in (data.s_t, data.eigenvalues, data.null_s.basis, data.fix_s.basis):
            a.setflags(write=False)
        c._limit_cache[tol] = data
    return data


def _compute_limit(c: Contraction, tol: Tolerances) -> AsymptoticData:
    d = c.dim
    if d == 0:
        z = np.zeros((0, 0), dtype=complex)
        empty = Subspace._trusted(0, z)
        return AsymptoticData(z, np.zeros(0), empty, empty, 0, True)
    m = c.mat  # T^(2^k) as k grows
    a_prev = m.conj().T @ m
    power = 1
    for _ in range(MAX_DOUBLINGS):
        m = m @ m
        power *= 2
        a = m.conj().T @ m
        if a.diagonal().real.max() > 1.0 + tol.contraction_slack:
            break
        resid = op_norm(a - a_prev)
        a_prev = a
        if resid < tol.conv_tol:
            s = 0.5 * (a + a.conj().T)
            idem = op_norm(s @ s - s) <= BLOCK_RTOL * max(1.0, op_norm(s))
            # the kernels of S and I - S share one eigenbasis
            w, v = np.linalg.eigh(s)
            cut = _limit_cut(w, tol)
            return AsymptoticData(
                s_t=s,
                eigenvalues=w,
                null_s=Subspace._trusted(d, v[:, w <= cut]),
                fix_s=Subspace._trusted(d, v[:, 1.0 - w <= cut]),
                iterations=power,
                idempotent=idem,
            )
    raise NoConvergenceError(op_norm(a - a_prev), power)


def _limit_cut(w: np.ndarray, tol: Tolerances) -> float:
    """Rank cut for the ascending spectrum w of a limit 0 <= S <= I.

    Taken against 1, not against a possibly round-off eigenvalue, so that
    the kernels of S and of I - S are cut alike.
    """
    return tol.rank_rtol * max(1.0, w[-1], 1.0 - w[0]) if w.size else tol.rank_rtol


@dataclass(frozen=True)
class Triangulation:
    """Block form of T over N(S_T) + closure R(S_T).

    The lower-left block vanishes; the q block is strongly stable and the
    w block admits no orbit decaying to zero.
    """

    split: tuple  # (null_s, range_s)
    q_block: np.ndarray
    r_block: np.ndarray
    w_block: np.ndarray
    zero_residual: float
    q_strongly_stable: bool
    w_injective_limit: bool


def canonical_triangulation(c: Contraction,
                            tol: Tolerances = DEFAULT_TOL) -> Triangulation:
    data = asymptotic_limit(c, tol)
    null_s = data.null_s
    range_s = null_s.complement()
    t = c.mat
    q = compress(t, null_s, null_s)
    r = compress(t, null_s, range_s)
    w = compress(t, range_s, range_s)
    zero = compress(t, range_s, null_s)
    zero_res = op_norm(zero)
    q_stable = True
    if null_s.dim:
        q_stable = op_norm(asymptotic_limit(
            Contraction(q), tol).s_t) <= 10.0 * tol.rank_rtol
    w_c1 = True
    if range_s.dim:
        w_c1 = asymptotic_limit(Contraction(w), tol).null_s.dim == 0
    return Triangulation(
        split=(null_s, range_s),
        q_block=q, r_block=r, w_block=w,
        zero_residual=zero_res,
        q_strongly_stable=q_stable,
        w_injective_limit=w_c1,
    )


@dataclass(frozen=True)
class ClassFlags:
    """Strong-stability flags for T and T* with an indeterminacy marker.

    Eigenvalues of the asymptotic limit within a decade of the rank cutoff
    cannot be numerically told apart from zero; such cases set
    ``indeterminate`` instead of silently picking a side.
    """

    stable: bool        # S_T = 0
    injective: bool     # N(S_T) = {0}
    star_stable: bool   # S_T* = 0
    star_injective: bool
    indeterminate: bool


def _near_cut(data: AsymptoticData, tol: Tolerances) -> bool:
    w = data.eigenvalues
    cut = _limit_cut(w, tol)
    return bool(np.any((w > cut) & (w <= 10.0 * cut)))


def stability_flags(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> ClassFlags:
    """Flags read off the cached limits of T and T*, at their one rank cut."""
    lim = asymptotic_limit(c, tol)
    lim_star = asymptotic_limit(c.adjoint(), tol)
    return ClassFlags(
        stable=lim.null_s.dim == c.dim,
        injective=lim.null_s.dim == 0,
        star_stable=lim_star.null_s.dim == c.dim,
        star_injective=lim_star.null_s.dim == 0,
        indeterminate=_near_cut(lim, tol) or _near_cut(lim_star, tol),
    )


def _class_label(flags: ClassFlags) -> str:
    first = "0" if flags.stable else ("1" if flags.injective else None)
    second = "0" if flags.star_stable else ("1" if flags.star_injective else None)
    if first is None or second is None:
        return "mixed"
    return f"C{first}{second}"


def class_of(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> str:
    """Stability class label: C00, C01, C10, C11, or mixed."""
    return _class_label(stability_flags(c, tol))


def reducing_isometric_part(c: Contraction,
                            tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Largest reducing subspace on which c acts isometrically.

    The orthogonal complement of the reducing hull of R(D_T), the smallest
    subspace containing R(D_T) that T and T* leave invariant, grown as
    S <- span{S, T S, T* S} until its dimension stops growing (at most d
    steps).  The complement of the hull reduces T and lies in N(D_T); any
    reducing subspace inside N(D_T) is orthogonal to the hull.
    """
    if not c.is_square:
        raise ValueError("reducing_isometric_part expects a square contraction")
    t = c.mat
    hull = defect_data(c, tol).defect_space
    while 0 < hull.dim < c.dim:
        q = hull.basis
        grown = range_of(np.hstack([q, t @ q, t.conj().T @ q]), tol)
        if grown.dim == hull.dim:
            break
        hull = grown
    return hull.complement()


def reducing_unitary_part(c: Contraction,
                          tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of the fixed spaces of S_T and S_T*."""
    if not c.is_square:
        raise ValueError("reducing_unitary_part expects a square contraction")
    fix = asymptotic_limit(c, tol).fix_s
    fix_star = asymptotic_limit(c.adjoint(), tol).fix_s
    return fix.intersect(fix_star)


@dataclass(frozen=True)
class PartsData:
    """Reducing isometric/unitary parts and the stability class label."""

    h_i: Subspace
    h_u: Subspace
    class_label: str
    flags: ClassFlags


def reducing_parts(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> PartsData:
    flags = stability_flags(c, tol)
    return PartsData(
        h_i=reducing_isometric_part(c, tol),
        h_u=reducing_unitary_part(c, tol),
        class_label=_class_label(flags),
        flags=flags,
    )
