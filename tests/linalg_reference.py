"""Reference factorizations the tests check the library against.

Each takes its own eigendecomposition, SVD or power iteration of the
matrix it is given, independently of the cached factorizations that
``contraction_lab`` reads, so a test comparing the two compares separate
computations.
"""

from __future__ import annotations

import numpy as np

from contraction_lab.contraction import MAX_DOUBLINGS
from contraction_lab.linalg import (
    DEFAULT_TOL,
    NotPSDError,
    Subspace,
    Tolerances,
    _check_hermitian,
    _rank,
    as_matrix,
    herm,
    op_norm,
)


def psd_sqrt(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues within ``psd_atol`` of zero are clamped to exactly zero
    (both signs), anything below the floor raises NotPSDError.
    """
    a = as_matrix(m)
    _check_hermitian(a, tol, "psd_sqrt input")
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh(herm(a))
    if w[0] < -tol.psd_atol:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -psd_atol")
    w = np.where(np.abs(w) <= tol.psd_atol, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def rank_of(m, tol: Tolerances = DEFAULT_TOL) -> int:
    a = as_matrix(m)
    if a.size == 0:
        return 0
    return _rank(np.linalg.svd(a, compute_uv=False), tol)


def pinv(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the relative rank cutoff."""
    a = as_matrix(m)
    if a.size == 0:
        return a.conj().T.copy()
    u, s, vh = np.linalg.svd(a)
    k, n = _rank(s, tol), s.size
    inv = np.zeros(n)
    inv[:k] = 1.0 / s[:k]
    return vh.conj().T[:, :n] @ np.diag(inv) @ u.conj().T[:n, :]


def kernel_of(m, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical kernel, checked by Subspace."""
    a = as_matrix(m)
    if a.size == 0:
        return Subspace(a.shape[1], np.eye(a.shape[1], dtype=complex))
    _, s, vh = np.linalg.svd(a)
    return Subspace(a.shape[1], vh.conj().T[:, _rank(s, tol):])


def power_doubling_limit(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """S_T = lim T*^n T^n by powers n = 2^k, for a square contraction m.

    The quadratic forms of T*^n T^n decrease monotonically, so the
    subsequence at n = 2^k converges; squaring stops once consecutive
    terms differ by less than conv_tol in norm, within MAX_DOUBLINGS
    squarings.  A term whose largest diagonal entry, a lower bound of its
    norm, exceeds 1 + contraction_slack proves m no contraction.
    """
    t = as_matrix(m)
    a_prev = t.conj().T @ t
    for _ in range(MAX_DOUBLINGS):
        t = t @ t
        a = t.conj().T @ t
        if a.diagonal().real.max() > 1.0 + tol.contraction_slack:
            raise ValueError("a power left the unit ball")
        if op_norm(a - a_prev) < tol.conv_tol:
            return herm(a)
        a_prev = a
    raise RuntimeError(f"no convergence after {MAX_DOUBLINGS} squarings")
