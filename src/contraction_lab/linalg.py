"""Dense complex linear algebra substrate.

Everything downstream (defect operators, Gram hierarchies, Schur arcs)
reduces to a handful of rank-aware primitives collected here: Hermitian
square roots, pseudoinverses, numerical kernels/ranges, subspace geometry,
and the Douglas range-inclusion solver.  All rank decisions use a relative
singular-value cutoff so that rescaling a matrix never changes a computed
subspace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ANGLE_TOL",
    "DEFAULT_TOL",
    "DouglasInfeasibleError",
    "DouglasSolution",
    "NotHermitianError",
    "NotPSDError",
    "ShapeMismatchError",
    "Subspace",
    "Tolerances",
    "as_matrix",
    "compress",
    "douglas_solve",
    "herm",
    "kernel_of",
    "matrix_from_json",
    "matrix_to_json",
    "op_norm",
    "pinv",
    "psd_order_leq",
    "psd_sqrt",
    "range_of",
    "rank_of",
]

# Largest principal angle below which two subspaces count as equal.
ANGLE_TOL = 1e-7


class NotHermitianError(ValueError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class NotPSDError(ValueError):
    """Hermitian input has an eigenvalue below the PSD floor."""


class ShapeMismatchError(ValueError):
    """Operands do not have conformable shapes."""


class DouglasInfeasibleError(ValueError):
    """Range/kernel inclusion required by a Douglas solve fails.

    Carries a unit ``witness`` vector certifying the failure and the
    residual norm of the best least-squares candidate.
    """

    def __init__(self, message: str, witness: np.ndarray, residual: float):
        super().__init__(message)
        self.witness = witness
        self.residual = residual


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every oracle.

    rank_rtol          relative singular-value cutoff for rank decisions
    psd_atol           absolute eigenvalue floor for PSD checks/clamps
    conv_tol           stopping threshold for fixed-point iterations
    contraction_slack  permitted excess of an operator norm over 1
    big_ratio          certification threshold for unbounded Rayleigh ratios
    max_level          cap on the Harnack Gram hierarchy depth
    grid_points        circle-sampling density for sup-norm estimates
    """

    rank_rtol: float = 1e-9
    psd_atol: float = 1e-10
    conv_tol: float = 1e-10
    contraction_slack: float = 1e-10
    big_ratio: float = 1e12
    max_level: int = 64
    grid_points: int = 1024

    def __post_init__(self):
        small = {
            "rank_rtol": self.rank_rtol,
            "psd_atol": self.psd_atol,
            "conv_tol": self.conv_tol,
            "contraction_slack": self.contraction_slack,
        }
        for name, value in small.items():
            if not (0.0 < value <= 1e-4):
                raise ValueError(f"{name} must lie in (0, 1e-4], got {value}")
        if self.big_ratio <= 0:
            raise ValueError("big_ratio must be positive")
        if self.max_level < 2:
            raise ValueError("max_level must be at least 2")
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")


DEFAULT_TOL = Tolerances()


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-d complex array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian symmetrization (m + m*)/2."""
    return 0.5 * (m + m.conj().T)


def op_norm(m) -> float:
    """Operator (spectral) norm; 0 for empty matrices."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def matrix_to_json(m) -> dict:
    """Row-major JSON form {rows, cols, re, im}."""
    a = as_matrix(m)
    flat = a.reshape(-1)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; validates shape and finiteness."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError("entry count does not match rows*cols")
    return as_matrix((re + 1j * im).reshape(rows, cols))


def _check_hermitian(m: np.ndarray, tol: Tolerances, what: str = "input"):
    if m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"{what} is not square: {m.shape}")
    if m.size == 0:
        return
    resid = op_norm(m - m.conj().T)
    if resid > 100.0 * tol.psd_atol * max(1.0, op_norm(m)):
        raise NotHermitianError(f"{what} is not Hermitian (residual {resid:.3e})")


def psd_sqrt(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues within ``psd_atol`` of zero are clamped to exactly zero
    (both signs: defect operators of norm-one contractions must acquire
    genuine kernels, not sqrt(round-off) noise), anything below the floor
    raises :class:`NotPSDError`.
    """
    a = as_matrix(m)
    _check_hermitian(a, tol, "psd_sqrt input")
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh(herm(a))
    if w[0] < -tol.psd_atol:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -psd_atol")
    w = np.where(np.abs(w) <= tol.psd_atol, 0.0, w)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def _svd(m: np.ndarray):
    return np.linalg.svd(m, full_matrices=True)


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """Count of the descending singular values s above rank_rtol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_rtol * s[0]))


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
    u, s, vh = _svd(a)
    k, n = _rank(s, tol), s.size
    inv = np.zeros(n)
    inv[:k] = 1.0 / s[:k]
    return vh.conj().T[:, :n] @ np.diag(inv) @ u.conj().T[:n, :]


@dataclass(frozen=True)
class Subspace:
    """Closed subspace of C^d given by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), orthonormal columns

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must equal ambient_dim")
        if b.shape[1] > self.ambient_dim:
            raise ValueError("basis has more columns than ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if op_norm(gram - np.eye(b.shape[1])) > 1e-8:
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        if self.dim == 0:
            return Subspace(self.ambient_dim, np.eye(self.ambient_dim, dtype=complex))
        # eigenvectors of I - P at eigenvalue ~1 form an exact orthonormal
        # basis of the complement (the spectrum is {0, 1} up to round-off)
        w, v = np.linalg.eigh(np.eye(self.ambient_dim) - self.projector())
        return Subspace(self.ambient_dim, v[:, w > 0.5])

    def max_principal_sine(self, other: "Subspace") -> float:
        """sin of the largest principal angle from self into other.

        Zero when self is contained in other; computed as
        ||(I - P_other) B_self||, stable for tiny angles.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatchError("subspaces live in different ambient spaces")
        if self.dim == 0:
            return 0.0
        r = self.basis - other.basis @ (other.basis.conj().T @ self.basis)
        return min(1.0, op_norm(r))

    def contains(self, other: "Subspace", angle_tol: float = ANGLE_TOL) -> bool:
        return other.max_principal_sine(self) <= angle_tol

    def equals(self, other: "Subspace", angle_tol: float = ANGLE_TOL) -> bool:
        return self.dim == other.dim and self.contains(other, angle_tol) and \
            other.contains(self, angle_tol)

    def intersect(self, other: "Subspace", angle_tol: float = ANGLE_TOL) -> "Subspace":
        """Numerical intersection via principal vectors (sine criterion)."""
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatchError("subspaces live in different ambient spaces")
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient_dim, np.zeros((self.ambient_dim, 0), complex))
        r = other.basis - self.basis @ (self.basis.conj().T @ other.basis)
        _, s, vh = np.linalg.svd(r, full_matrices=True)
        s = np.concatenate([s, np.zeros(other.dim - s.size)])
        cols = other.basis @ vh.conj().T[:, s <= angle_tol]
        if cols.shape[1] == 0:
            return Subspace(self.ambient_dim, cols)
        q, _ = np.linalg.qr(cols)
        return Subspace(self.ambient_dim, q)


def kernel_of(m, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical kernel."""
    a = as_matrix(m)
    if a.size == 0:
        return Subspace(a.shape[1], np.eye(a.shape[1], dtype=complex))
    _, s, vh = _svd(a)
    return Subspace(a.shape[1], vh.conj().T[:, _rank(s, tol):])


def range_of(m, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical range (column space)."""
    a = as_matrix(m)
    if a.size == 0:
        return Subspace(a.shape[0], np.zeros((a.shape[0], 0), dtype=complex))
    u, s, _ = _svd(a)
    return Subspace(a.shape[0], u[:, :_rank(s, tol)])


def psd_order_leq(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner order a <= b for Hermitian matrices."""
    am, bm = as_matrix(a), as_matrix(b)
    _check_hermitian(am, tol, "psd_order_leq lhs")
    _check_hermitian(bm, tol, "psd_order_leq rhs")
    if am.shape != bm.shape:
        raise ShapeMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    if am.size == 0:
        return True
    w = np.linalg.eigvalsh(herm(bm - am))
    return bool(w[0] >= -tol.psd_atol)


@dataclass(frozen=True)
class DouglasSolution:
    """Minimal-norm solution of a one-sided factorization problem."""

    x: np.ndarray
    residual: float


def douglas_solve(lhs, factor, side: str, tol: Tolerances = DEFAULT_TOL) -> DouglasSolution:
    """Solve lhs = x @ factor (side="right") or lhs = factor @ x (side="left").

    Solvable exactly when the corresponding kernel/range inclusion holds;
    the pseudoinverse candidate is then the minimal Frobenius-norm solution
    and its residual detects infeasibility at the rank cutoff.

    Raises
    ------
    DouglasInfeasibleError
        when the inclusion fails beyond tolerance; carries a unit witness
        vector (input direction for "right", output direction for "left").
    """
    l = as_matrix(lhs)
    f = as_matrix(factor)
    if side == "right":
        if l.shape[1] != f.shape[1]:
            raise ShapeMismatchError(
                f"right solve needs matching column counts: {l.shape} vs {f.shape}")
        x = l @ pinv(f, tol)
        resid_m = l - x @ f
    elif side == "left":
        if l.shape[0] != f.shape[0]:
            raise ShapeMismatchError(
                f"left solve needs matching row counts: {l.shape} vs {f.shape}")
        x = pinv(f, tol) @ l
        resid_m = l - f @ x
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    residual = op_norm(resid_m)
    bound = 10.0 * tol.rank_rtol * max(1.0, op_norm(l))
    if residual > bound:
        if resid_m.size:
            u, s, vh = np.linalg.svd(resid_m)
            witness = vh.conj().T[:, 0] if side == "right" else u[:, 0]
        else:  # pragma: no cover - degenerate empty shapes
            witness = np.zeros(0, dtype=complex)
        raise DouglasInfeasibleError(
            f"inclusion fails: residual {residual:.3e} > bound {bound:.3e}",
            witness=witness,
            residual=residual,
        )
    return DouglasSolution(x=x, residual=residual)


def compress(m, out_basis: Subspace, in_basis: Subspace) -> np.ndarray:
    """Matrix of the compression out_basis* @ m @ in_basis."""
    a = as_matrix(m)
    return out_basis.basis.conj().T @ a @ in_basis.basis
