"""Dense complex linear algebra substrate.

Everything downstream (defect operators, Gram hierarchies, Schur arcs)
reduces to a handful of rank-aware primitives collected here: the
tolerance policy, the spectral norm, the numerical rank and the defect
roots of a contraction's singular values, numerical ranges and subspace
geometry.  All rank decisions use a relative singular-value cutoff so that
rescaling a matrix never changes a computed subspace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ANGLE_TOL",
    "DEFAULT_TOL",
    "NotPSDError",
    "ShapeMismatchError",
    "Subspace",
    "Tolerances",
    "as_matrix",
    "compress",
    "herm",
    "matrix_from_json",
    "matrix_to_json",
    "op_norm",
    "range_of",
]

# Largest principal angle below which two subspaces count as equal.
ANGLE_TOL = 1e-7


class NotPSDError(ValueError):
    """Hermitian input has an eigenvalue below the PSD floor."""


class ShapeMismatchError(ValueError):
    """Operands do not have conformable shapes."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every oracle.

    rank_rtol          relative singular-value cutoff for rank decisions
    psd_atol           absolute eigenvalue floor for PSD checks/clamps
    conv_tol           stopping threshold for fixed-point iterations
    contraction_slack  permitted excess of an operator norm over 1
    max_level          cap on the Harnack Gram hierarchy depth
    grid_points        circle-sampling density for sup-norm estimates
    """

    rank_rtol: float = 1e-9
    psd_atol: float = 1e-10
    conv_tol: float = 1e-10
    contraction_slack: float = 1e-10
    max_level: int = 64
    grid_points: int = 1024

    def __post_init__(self):
        for name in ("rank_rtol", "psd_atol", "conv_tol", "contraction_slack"):
            value = getattr(self, name)
            if not (0.0 < value <= 1e-4):
                raise ValueError(f"{name} must lie in (0, 1e-4], got {value}")
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
    return float(np.linalg.svd(a, compute_uv=False)[0])


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


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """Count of the descending singular values s above rank_rtol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_rtol * s[0]))


def _defect_roots(s: np.ndarray, tol: Tolerances, *widths) -> list:
    """For each width, the roots (1 - s^2)^(1/2) of a contraction's singular
    values s padded with ones to it, and the mask of the roots kept by one
    rank cut: above rank_rtol times the largest root over all the widths (1
    whenever one is padded), so both sides of a rectangular chart keep the
    same singular values and their kernels have one dimension.  1 - s^2 =
    (1 - s)(1 + s) within psd_atol of zero (either sign) is clamped to
    exactly 0, so that norm-one directions form a genuine kernel instead of
    sqrt(round-off) noise; below -psd_atol raises NotPSDError."""
    gap = (1.0 - s) * (1.0 + s)
    if gap.size and gap.min() < -tol.psd_atol:
        raise NotPSDError(f"1 - s^2 = {gap.min():.3e} below -psd_atol")
    roots = np.sqrt(np.where(gap <= tol.psd_atol, 0.0, gap))
    padded = [np.concatenate([roots, np.ones(w - s.size)]) if w > s.size else roots
              for w in widths]
    cut = tol.rank_rtol * max(r.max(initial=0.0) for r in padded)
    return [(r, r > cut) for r in padded]


@dataclass(frozen=True)
class Subspace:
    """Closed subspace of C^d given by an orthonormal column basis.

    The public constructor checks the basis; :meth:`_trusted` does not, for
    columns orthonormal by construction (singular vectors, eigh vectors, a
    QR factor).
    """

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

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """Subspace on complex columns known to be orthonormal: no checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "basis", basis)
        return s

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        if self.dim == 0:
            return Subspace._trusted(self.ambient_dim, np.eye(self.ambient_dim, dtype=complex))
        # eigenvectors of I - P at eigenvalue ~1 form an exact orthonormal
        # basis of the complement (the spectrum is {0, 1} up to round-off)
        w, v = np.linalg.eigh(np.eye(self.ambient_dim) - self.projector())
        return Subspace._trusted(self.ambient_dim, v[:, w > 0.5])

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


def range_of(m, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical range (column space), from a thin SVD."""
    a = as_matrix(m)
    if a.size == 0:
        return Subspace._trusted(a.shape[0], np.zeros((a.shape[0], 0), dtype=complex))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace._trusted(a.shape[0], u[:, :_rank(s, tol)])


def compress(m, out_basis: Subspace, in_basis: Subspace) -> np.ndarray:
    """Matrix of the compression out_basis* @ m @ in_basis."""
    a = as_matrix(m)
    return out_basis.basis.conj().T @ a @ in_basis.basis
