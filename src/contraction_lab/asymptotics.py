"""Asymptotic limits, canonical triangulations, and reducing parts.

Every finite-dimensional contraction is T = U + T_0 over H_u + H_u^perp,
with U unitary and T_0 completely non-unitary (Sz.-Nagy-Foias, Harmonic
Analysis of Operators on Hilbert Space, Thm I.3.2).  An eigenvector x of T
with |lambda| = 1 has ||T* x - conj(lambda) x||^2 = ||T* x||^2 - 1 <= 0, so
span{x} reduces T; hence T_0 has no unimodular eigenvalue, rho(T_0) < 1 and
T_0^n -> 0.  The asymptotic limits S_T = lim T*^n T^n and S_T* are both the
projection onto H_u, the reducing isometric and unitary parts are H_u, and
the canonical triangulation is T_0 + U.  One eigendecomposition of T, its
unitary split, yields all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import Contraction
from .linalg import DEFAULT_TOL, Subspace, Tolerances, compress, op_norm

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

# Bound on ||T P - P T|| for the projection P onto the split's H_u.
BLOCK_RTOL = 1e-8

# Rounding allowance, per unit of dimension, for |lambda|^2 - 1 above 0.
EIG_ROUND = 16 * np.finfo(float).eps


class NoConvergenceError(RuntimeError):
    """The unitary split failed: an eigenvalue left the unit disc, or the
    eigenvectors on the circle do not span a reducing subspace."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class AsymptoticData:
    """S_T = S_T* = P_{H_u} with its ascending eigenvalues, kernel and fixed space."""

    s_t: np.ndarray
    eigenvalues: np.ndarray
    null_s: Subspace
    fix_s: Subspace
    idempotent: bool


@dataclass(frozen=True)
class _UnitarySplit:
    """H_u of T and T*, with the certificate ||T P - P T|| <= BLOCK_RTOL."""

    limit: AsymptoticData  # fix_s = H_u, null_s = its complement
    residual: float
    near_circle: bool  # an eigenvalue with 1 - |lambda|^2 in (psd_atol, 10 psd_atol]


def _on_circle(spectrum: np.ndarray, tol: Tolerances) -> np.ndarray:
    """1 - |lambda|^2 <= psd_atol: the clamp puts such eigenvectors in ker D."""
    return 1.0 - np.abs(spectrum) ** 2 <= tol.psd_atol


def _unitary_split(c: Contraction, tol: Tolerances) -> _UnitarySplit:
    """The split of c, cached per tolerances (the adjoint shares the cache).

    np.linalg.eig of T; the eigenvectors that _on_circle keeps, made
    orthonormal by one complete QR, are a basis of H_u and the remaining
    QR columns one of its complement.  Raises NoConvergenceError when an
    eigenvalue has |lambda|^2 - 1 beyond rounding (T is no contraction) or
    when P = P_{H_u} misses ||T P - P T|| <= BLOCK_RTOL.  Its arrays are
    read-only.
    """
    split = c._split_cache.get(tol)
    if split is not None:
        return split
    d = c.dim
    lam, vec = np.linalg.eig(c.mat)
    gap = 1.0 - np.abs(lam) ** 2
    if d and gap.min() < -EIG_ROUND * d:
        raise NoConvergenceError("an eigenvalue lies outside the unit disc", -gap.min())
    on = _on_circle(lam, tol)
    k = int(on.sum())
    q, _ = np.linalg.qr(vec[:, on], mode="complete")
    q.setflags(write=False)
    fix, rest = Subspace._trusted(d, q[:, :k]), Subspace._trusted(d, q[:, k:])
    p = fix.projector()
    residual = op_norm(c.mat @ p - p @ c.mat) if 0 < k < d else 0.0
    if residual > BLOCK_RTOL:
        raise NoConvergenceError("the unimodular eigenvectors do not reduce T", residual)
    eigenvalues = np.repeat([0.0, 1.0], [d - k, k])
    for a in (p, eigenvalues):
        a.setflags(write=False)
    split = _UnitarySplit(
        limit=AsymptoticData(p, eigenvalues, rest, fix, idempotent=True),
        residual=residual,
        near_circle=bool(np.any(~on & (gap <= 10.0 * tol.psd_atol))),
    )
    c._split_cache[tol] = split
    return split


def asymptotic_limit(c: Contraction,
                     tol: Tolerances = DEFAULT_TOL) -> AsymptoticData:
    """S_T = lim T*^n T^n = P_{H_u} for a square contraction (cached).

    Read off the unitary split: T_0^n -> 0 on the complement of H_u, and
    T*^n T^n = I on H_u.  The same object serves T*, whose limit is equal.
    """
    if not c.is_square:
        raise ValueError("asymptotic_limit expects a square contraction")
    return _unitary_split(c, tol).limit


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
    """Blocks of T over the unitary split: q = T_0 has no eigenvalue on the
    circle, so it is strongly stable, and w = U is unitary, so its limit is
    the identity; the split's certificate bounds the r and zero blocks."""
    data = asymptotic_limit(c, tol)
    null_s, range_s = data.null_s, data.fix_s
    t = c.mat
    return Triangulation(
        split=(null_s, range_s),
        q_block=compress(t, null_s, null_s),
        r_block=compress(t, null_s, range_s),
        w_block=compress(t, range_s, range_s),
        zero_residual=op_norm(compress(t, range_s, null_s)),
        q_strongly_stable=True,
        w_injective_limit=True,
    )


@dataclass(frozen=True)
class ClassFlags:
    """Strong-stability flags for T and T* with an indeterminacy marker.

    An eigenvalue of T just outside the clamp of the split, with 1 -
    |lambda|^2 in (psd_atol, 10 psd_atol], cannot be numerically told apart
    from one on the circle; such cases set ``indeterminate`` instead of
    silently picking a side.
    """

    stable: bool        # S_T = 0
    injective: bool     # N(S_T) = {0}
    star_stable: bool   # S_T* = 0
    star_injective: bool
    indeterminate: bool


def stability_flags(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> ClassFlags:
    """Flags read off the cached split; S_T* = S_T, so T and T* agree."""
    split = _unitary_split(c, tol)
    k = split.limit.fix_s.dim
    return ClassFlags(
        stable=k == 0,
        injective=k == c.dim,
        star_stable=k == 0,
        star_injective=k == c.dim,
        indeterminate=split.near_circle,
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

    An isometry of a finite-dimensional space is unitary, so this is H_u
    of the unitary split.
    """
    if not c.is_square:
        raise ValueError("reducing_isometric_part expects a square contraction")
    return _unitary_split(c, tol).limit.fix_s


def reducing_unitary_part(c: Contraction,
                          tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """H_u, the fixed space of S_T and of S_T*."""
    if not c.is_square:
        raise ValueError("reducing_unitary_part expects a square contraction")
    return _unitary_split(c, tol).limit.fix_s


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
