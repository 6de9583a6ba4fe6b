"""Validated contractions, defect operators, and the unitary/pure split."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _defect_roots,
    as_matrix,
    compress,
    herm,
    op_norm,
    psd_order_leq,
)

__all__ = [
    "Contraction",
    "DefectData",
    "NotAContractionError",
    "NotDecomposableError",
    "PowerLimit",
    "UPDecomposition",
    "classify",
    "defect_data",
    "make_contraction",
    "nearest_part_partial_isometry",
    "ttstar_power_limit",
    "up_decompose",
]

# Spectral-norm residual threshold, relative to max(1, ||T||^2), for the
# defining identities of the classification predicates (polynomial of
# degree <= 4 in a contraction).
PREDICATE_RTOL = 1e-8
# Cap on repeated squarings of a power iteration: effective power 2^60.
MAX_DOUBLINGS = 60


class NotAContractionError(ValueError):
    """Operator norm exceeds 1 + contraction_slack."""

    def __init__(self, norm: float):
        super().__init__(f"operator norm {norm!r} exceeds the unit ball")
        self.norm = norm


class NotDecomposableError(ValueError):
    """The defect kernels do not reduce the operator within tolerance."""


@dataclass(frozen=True)
class DefectData:
    """Defect operators, their pseudoinverses and the four canonical
    subspaces of a contraction T = U S V*, all from that one SVD.

    d_t, d_tstar        (I - T*T)^(1/2) = V r V* and (I - TT*)^(1/2) = U r U*
    defect_space(.star) closures of their ranges
    null_dt(.star)      their kernels (where T acts isometrically)
    d_t(star)_pinv      their Moore-Penrose inverses V r^+ V* and U r^+ U*
    """

    d_t: np.ndarray
    d_tstar: np.ndarray
    defect_space: Subspace
    defect_space_star: Subspace
    null_dt: Subspace
    null_dtstar: Subspace
    d_t_pinv: np.ndarray
    d_tstar_pinv: np.ndarray


class Contraction:
    """Element of the closed unit ball of complex matrices.

    The matrix is stored read-only.  Its full SVD is taken once, on first
    use, and kept read-only (see :func:`_factored`); defect data and the
    asymptotic limit are computed lazily and cached per tolerance instance
    (recompute-equal semantics), and the cached adjoint has this instance
    as its adjoint.
    """

    __slots__ = ("mat", "tags", "_factors", "_defect_cache", "_limit_cache", "_adjoint")

    def __init__(self, mat: np.ndarray, tags: frozenset = frozenset()):
        m = as_matrix(mat).copy()
        m.setflags(write=False)
        self.mat = m
        self.tags = frozenset(tags)
        self._factors: Optional[tuple] = None
        self._defect_cache: dict = {}
        self._limit_cache: dict = {}
        self._adjoint: Optional["Contraction"] = None

    @property
    def shape(self):
        return self.mat.shape

    @property
    def dim(self) -> int:
        if self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("dim is only defined for square contractions")
        return self.mat.shape[0]

    @property
    def is_square(self) -> bool:
        return self.mat.shape[0] == self.mat.shape[1]

    def adjoint(self) -> "Contraction":
        if self._adjoint is None:
            self._adjoint = Contraction(self.mat.conj().T, self.tags)
            self._adjoint._adjoint = self
        return self._adjoint

    def __repr__(self):
        return f"Contraction(shape={self.mat.shape}, norm={op_norm(self.mat):.6f})"


def make_contraction(m, tol: Tolerances = DEFAULT_TOL,
                     tags: frozenset = frozenset()) -> Contraction:
    """Validate m as a contraction.

    Norms inside (1, 1 + contraction_slack] are rescaled back onto the unit
    sphere; anything larger raises :class:`NotAContractionError` carrying
    the computed norm.
    """
    a = as_matrix(m)
    norm = op_norm(a)
    if norm > 1.0 + tol.contraction_slack:
        raise NotAContractionError(norm)
    if norm > 1.0:
        a = a / norm
    return Contraction(a, tags)


def _factored(c: Contraction) -> tuple:
    """The full SVD (u, s, vh) of c.mat: taken once per contraction, read-only.

    It does not depend on the tolerances; defect data, Harnack level 1, the
    symbol sweep, the partial-isometry part and classify all read it.
    """
    if c._factors is None:
        factors = np.linalg.svd(c.mat)
        for f in factors:
            f.setflags(write=False)
        c._factors = tuple(factors)
    return c._factors


def _defect_side(basis: np.ndarray, r: np.ndarray, keep: np.ndarray):
    """D = B r B*, its range, kernel and pseudoinverse (r: linalg._defect_roots)."""
    n = basis.shape[1]
    kept = basis[:, keep]
    return ((basis * r) @ basis.conj().T, Subspace._trusted(n, kept),
            Subspace._trusted(n, basis[:, ~keep]), (kept / r[keep]) @ kept.conj().T)


def defect_data(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> DefectData:
    """Defect data from the SVD of T (:func:`_factored`), with r = (1 - s^2)^(1/2)."""
    cached = c._defect_cache.get(tol)
    if cached is not None:
        return cached
    u, s, vh = _factored(c)
    side_in, side_out = _defect_roots(s, tol, vh.shape[0], u.shape[0])
    d_t, defect_space, null_dt, d_t_pinv = _defect_side(vh.conj().T, *side_in)
    d_tstar, defect_space_star, null_dtstar, d_tstar_pinv = _defect_side(u, *side_out)
    data = DefectData(d_t, d_tstar, defect_space, defect_space_star,
                      null_dt, null_dtstar, d_t_pinv, d_tstar_pinv)
    c._defect_cache[tol] = data
    return data


def classify(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> frozenset:
    """Predicates holding for c, each checked by its defining identity.

    Square-only predicates (quasi_normal, quasi_isometry, hyponormal) are
    skipped for rectangular inputs.  In finite dimension several of these
    collapse (pure = strict, quasi-normal = normal); the identities are
    still evaluated directly so the oracles mirror the definitions.
    """
    t = c.mat
    rows, cols = t.shape
    tt = t.conj().T
    s = _factored(c)[1]
    norm = float(s[0]) if s.size else 0.0
    bound = PREDICATE_RTOL * max(1.0, norm ** 2)

    def small(m) -> bool:
        return op_norm(m) <= bound

    out = set()
    if small(tt @ t - np.eye(cols)):
        out.add("isometry")
    if small(t @ tt - np.eye(rows)):
        out.add("coisometry")
    if "isometry" in out and "coisometry" in out:
        out.add("unitary")
    if small(t @ tt @ t - t):
        out.add("partial_isometry")
    if rows == cols:
        if small(t @ (tt @ t) - (tt @ t) @ t):
            out.add("quasi_normal")
        if small(tt @ t - tt @ tt @ t @ t):
            out.add("quasi_isometry")
        if psd_order_leq(herm(t @ tt), herm(tt @ t), tol):
            out.add("hyponormal")
    if norm < 1.0 - tol.contraction_slack:
        out.add("strict")
    if defect_data(c, tol).null_dt.dim == 0:
        out.add("pure")
    return frozenset(out)


@dataclass(frozen=True)
class UPDecomposition:
    """T = U + Q over N(D_T) + D_T -> N(D_T*) + D_T* with U unitary, Q pure."""

    basis_in: tuple  # (null_dt, defect_space)
    basis_out: tuple  # (null_dtstar, defect_space_star)
    u_block: np.ndarray
    q_block: np.ndarray

    def reassemble(self) -> np.ndarray:
        n_in, d_in = self.basis_in
        n_out, d_out = self.basis_out
        return (n_out.basis @ self.u_block @ n_in.basis.conj().T
                + d_out.basis @ self.q_block @ d_in.basis.conj().T)


def up_decompose(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> UPDecomposition:
    """Split c into its unitary and pure parts along the defect kernels.

    The bases of :func:`defect_data` are singular vectors of T, which maps
    each right singular vector onto a multiple of the left one.  So T maps
    N(D_T) isometrically onto N(D_T*) and the defect spaces into each other
    by construction, and the NotDecomposable branch only fires when the
    rank cuts of a rectangular T leave kernels of different dimensions.
    """
    dd = defect_data(c, tol)
    n_in, d_in = dd.null_dt, dd.defect_space
    n_out, d_out = dd.null_dtstar, dd.defect_space_star
    if n_in.dim != n_out.dim:
        raise NotDecomposableError(
            f"defect kernels have mismatched dimensions {n_in.dim} != {n_out.dim}")
    return UPDecomposition(
        basis_in=(n_in, d_in), basis_out=(n_out, d_out),
        u_block=compress(c.mat, n_out, n_in), q_block=compress(c.mat, d_out, d_in),
    )


def nearest_part_partial_isometry(c: Contraction,
                                  tol: Tolerances = DEFAULT_TOL) -> Contraction:
    """Partial isometry U + 0 in the bases of :func:`up_decompose`.

    The result shares its Shmul'yan (equivalently Harnack) part with c:
    dropping a strictly contractive pure block keeps the class.
    """
    if not c.is_square:
        raise ValueError("nearest_part_partial_isometry expects a square contraction")
    decomp = up_decompose(c, tol)
    n_in, _ = decomp.basis_in
    n_out, _ = decomp.basis_out
    w = n_out.basis @ decomp.u_block @ n_in.basis.conj().T
    return make_contraction(w, tol)


@dataclass(frozen=True)
class PowerLimit:
    """Outcome of iterating (T*T)^n against the kernel projection of D_T."""

    converged: bool
    power: int
    residual: float
    projection: np.ndarray


def ttstar_power_limit(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> PowerLimit:
    """Iterate (T*T)^n by repeated squaring until it meets P_{N(D_T)}.

    Every matrix contraction has closed defect range, so the powers
    converge in norm to the orthogonal projection onto N(D_T); the number
    of squarings needed depends on the spectral gap of T*T at 1.  A power
    whose largest diagonal entry, a lower bound of its norm, exceeds 1 +
    contraction_slack proves T no contraction: converged is False.
    """
    if not c.is_square:
        raise ValueError("ttstar_power_limit expects a square contraction")
    p = defect_data(c, tol).null_dt.projector()
    a = c.mat.conj().T @ c.mat
    power = 1
    resid = op_norm(a - p)
    for _ in range(MAX_DOUBLINGS):
        if resid < tol.conv_tol:
            return PowerLimit(True, power, resid, p)
        a = a @ a
        power *= 2
        resid = op_norm(a - p)
        if a.diagonal().real.max() > 1.0 + tol.contraction_slack:
            return PowerLimit(False, power, resid, p)
    return PowerLimit(resid < tol.conv_tol, power, resid, p)
