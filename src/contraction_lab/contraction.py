"""Validated contractions, defect operators, and the defect chart T = W (+) Z."""

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
    op_norm,
)

__all__ = [
    "Contraction",
    "DefectData",
    "NotAContractionError",
    "PowerLimit",
    "classify",
    "defect_data",
    "make_contraction",
    "nearest_part_partial_isometry",
    "ttstar_power_limit",
]

# Spectral-norm residual threshold, relative to max(1, ||T||^2), for the
# commutator T*T - TT* of the normal-class labels and the quasi-isometry
# identity (polynomials of degree <= 4 in a contraction).
PREDICATE_RTOL = 1e-8
# Cap on repeated squarings of a power iteration: effective power 2^60.
MAX_DOUBLINGS = 60


class NotAContractionError(ValueError):
    """Operator norm exceeds 1 + contraction_slack."""

    def __init__(self, norm: float):
        super().__init__(f"operator norm {norm!r} exceeds the unit ball")
        self.norm = norm


@dataclass(frozen=True)
class DefectData:
    """The defect chart of a contraction T = U S V*, all from that one SVD.

    d_t, d_tstar        (I - T*T)^(1/2) = V r V* and (I - TT*)^(1/2) = U r U*
    defect_space(.star) closures of their ranges
    null_dt(.star)      their kernels (where T acts isometrically)
    d_t(star)_pinv      their Moore-Penrose inverses V r^+ V* and U r^+ U*
    z, root_in,         the kept singular values and roots (``linalg._defect_roots``):
    root_out            the diagonals of Z, D_Z and D_{Z*} in T = W (+) Z

    One rank cut serves both sides, so the kernels have one dimension and
    W = compress(T, null_dtstar, null_dt) is the diagonal of the flat
    singular values (those the cut drops) in the kernel bases: it maps
    null_dt unitarily onto null_dtstar.
    """

    d_t: np.ndarray
    d_tstar: np.ndarray
    defect_space: Subspace
    defect_space_star: Subspace
    null_dt: Subspace
    null_dtstar: Subspace
    d_t_pinv: np.ndarray
    d_tstar_pinv: np.ndarray
    z: np.ndarray
    root_in: np.ndarray
    root_out: np.ndarray


class Contraction:
    """Element of the closed unit ball of complex matrices.

    The matrix is stored read-only.  Its full SVD is taken once, on first
    use, and kept read-only (see :func:`_factored`); defect data and the
    unitary split (``asymptotics._unitary_split``) are computed lazily and
    cached per tolerance instance (recompute-equal semantics), and the
    cached adjoint has this instance as its adjoint and shares its split
    cache.
    """

    __slots__ = ("mat", "tags", "_factors", "_defect_cache", "_split_cache", "_adjoint")

    def __init__(self, mat: np.ndarray, tags: frozenset = frozenset()):
        m = as_matrix(mat).copy()
        m.setflags(write=False)
        self.mat = m
        self.tags = frozenset(tags)
        self._factors: Optional[tuple] = None
        self._defect_cache: dict = {}
        self._split_cache: dict = {}
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
            self._adjoint._split_cache = self._split_cache  # T and T* share H_u
        return self._adjoint

    def __repr__(self):
        return f"Contraction(shape={self.mat.shape}, norm={op_norm(self.mat):.6f})"


def make_contraction(m, tol: Tolerances = DEFAULT_TOL,
                     tags: frozenset = frozenset()) -> Contraction:
    """Validate m as a contraction.

    Norms inside (1, 1 + contraction_slack] are rescaled back onto the unit
    sphere; anything larger raises :class:`NotAContractionError` carrying
    the computed norm.  The norm is read from the full SVD, which seeds the
    cache of :func:`_factored` (singular values divided by the norm on
    rescale), so a new contraction is factored once.
    """
    a = as_matrix(m)
    u, s, vh = np.linalg.svd(a)
    norm = float(s[0]) if s.size else 0.0
    if norm > 1.0 + tol.contraction_slack:
        raise NotAContractionError(norm)
    if norm > 1.0:
        a, s = a / norm, s / norm
    c = Contraction(a, tags)
    _keep_factors(c, (u, s, vh))
    return c


def _factored(c: Contraction) -> tuple:
    """The read-only full SVD (u, s, vh) of c.mat, taken once (make_contraction seeds it).

    It does not depend on the tolerances; defect data, Harnack level 1, the
    symbol sweep, the partial-isometry part and classify all read it.
    """
    if c._factors is None:
        _keep_factors(c, np.linalg.svd(c.mat))
    return c._factors


def _keep_factors(c: Contraction, factors) -> None:
    for f in factors:
        f.setflags(write=False)
    c._factors = tuple(factors)


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
    (r_in, keep_in), (r_out, keep_out) = _defect_roots(s, tol, vh.shape[0], u.shape[0])
    d_t, defect_space, null_dt, d_t_pinv = _defect_side(vh.conj().T, r_in, keep_in)
    d_tstar, defect_space_star, null_dtstar, d_tstar_pinv = _defect_side(u, r_out, keep_out)
    data = DefectData(d_t, d_tstar, defect_space, defect_space_star,
                      null_dt, null_dtstar, d_t_pinv, d_tstar_pinv,
                      s[keep_in[:s.size]], r_in[keep_in], r_out[keep_out])
    c._defect_cache[tol] = data
    return data


def classify(c: Contraction, tol: Tolerances = DEFAULT_TOL) -> frozenset:
    """Predicates holding for c.

    isometry, coisometry (so unitary) and partial_isometry read the defect
    chart T = W (+) Z of :func:`defect_data`, the chart of every part and
    arc: no defect space on the right, none on the left, and Z = 0 up to
    the rank cut (T is the W (+) 0 of its chart).  On square inputs,
    quasi_normal and hyponormal are one label: a quasi-normal T is
    hyponormal in any dimension, and in finite dimensions a hyponormal T is
    normal, since T*T - TT* >= 0 has trace 0; so both hold exactly when the
    commutator T*T - TT* is zero up to PREDICATE_RTOL.  quasi_isometry is
    checked by its defining identity T*T = T*^2 T^2.
    """
    t = c.mat
    rows, cols = t.shape
    tt = t.conj().T
    s = _factored(c)[1]
    norm = float(s[0]) if s.size else 0.0
    bound = PREDICATE_RTOL * max(1.0, norm ** 2)
    dd = defect_data(c, tol)

    def small(m) -> bool:
        return op_norm(m) <= bound

    out = set()
    if dd.defect_space.dim == 0:
        out.add("isometry")
    if dd.defect_space_star.dim == 0:
        out.add("coisometry")
    if "isometry" in out and "coisometry" in out:
        out.add("unitary")
    if not np.any(dd.z > tol.rank_rtol * norm):
        out.add("partial_isometry")
    if rows == cols:
        if small(tt @ t - t @ tt):
            out.update(("quasi_normal", "hyponormal"))
        if small(tt @ t - tt @ tt @ t @ t):
            out.add("quasi_isometry")
    if norm < 1.0 - tol.contraction_slack:
        out.add("strict")
    if dd.null_dt.dim == 0:
        out.add("pure")
    return frozenset(out)


def nearest_part_partial_isometry(c: Contraction,
                                  tol: Tolerances = DEFAULT_TOL) -> Contraction:
    """The partial isometry W (+) 0 of c's defect chart, P_out T P_in for the
    kernel projections P_in, P_out of :func:`defect_data`.

    The result shares its Shmul'yan (equivalently Harnack) part with c:
    dropping the strictly contractive block Z keeps the class.
    """
    if not c.is_square:
        raise ValueError("nearest_part_partial_isometry expects a square contraction")
    dd = defect_data(c, tol)
    n_in, n_out = dd.null_dt, dd.null_dtstar
    w = n_out.basis @ compress(c.mat, n_out, n_in) @ n_in.basis.conj().T
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
