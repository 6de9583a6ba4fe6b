"""Numeric substrate: ranges and subspaces, and the test-side reference
square roots, pseudoinverses and kernels."""

import numpy as np
import pytest
from hypothesis import given, settings

from contraction_lab.linalg import (
    DEFAULT_TOL,
    NotPSDError,
    Subspace,
    Tolerances,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    range_of,
)

from conftest import psd_matrices, rectangular_matrices, reference_cases, rng_matrix
from linalg_reference import NotHermitianError, kernel_of, pinv, psd_sqrt

J = np.array([[0, 1], [0, 0]], dtype=complex)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_eigendecomposition_oracle(self):
        # eigenvalues of [[2,1],[1,2]] are 3 and 1 with eigenvectors
        # (1,1)/sqrt(2), (1,-1)/sqrt(2); the root follows by hand
        m = np.array([[2, 1], [1, 2]], dtype=complex)
        root3 = np.sqrt(3.0)
        expected = 0.5 * np.array([[root3 + 1, root3 - 1],
                                   [root3 - 1, root3 + 1]])
        s = psd_sqrt(m)
        assert op_norm(s - expected) < 1e-12
        assert op_norm(s @ s - m) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_round_off(self):
        s = psd_sqrt(np.diag([1.0, -0.5e-10]))
        assert s[1, 1] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(psd_matrices())
    def test_square_reproduces(self, m):
        s = psd_sqrt(m)
        assert op_norm(s @ s - m) <= 10 * DEFAULT_TOL.psd_atol * max(1.0, op_norm(m))
        assert op_norm(s - s.conj().T) < 1e-12


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_least_squares_column(self):
        col = np.array([[1.0], [1.0]])
        assert np.allclose(pinv(col), np.array([[0.5, 0.5]]))

    @settings(max_examples=30, deadline=None)
    @given(rectangular_matrices())
    def test_penrose_identities(self, m):
        p = pinv(m)
        scale = max(1.0, op_norm(m))
        assert op_norm(m @ p @ m - m) < 1e-10 * scale
        assert op_norm(p @ m @ p - p) < 1e-10 * max(1.0, op_norm(p))
        assert op_norm((m @ p).conj().T - m @ p) < 1e-10 * scale
        assert op_norm((p @ m).conj().T - p @ m) < 1e-10 * scale

    def test_rank_deficient(self):
        m = rng_matrix(5, 3, 2) @ rng_matrix(6, 2, 3)  # rank 2 by construction
        p = pinv(m)
        assert op_norm(m @ p @ m - m) < 1e-10 * op_norm(m)


class TestKernelRange:
    def test_zero_matrix(self):
        z = np.zeros((2, 2))
        assert kernel_of(z).dim == 2
        assert range_of(z).dim == 0

    def test_nilpotent(self):
        k = kernel_of(J)
        r = range_of(J)
        assert k.dim == 1 and abs(k.basis[0, 0]) > 0.9  # span{e1}
        assert r.dim == 1 and abs(r.basis[0, 0]) > 0.9  # span{e1}

    def test_rank_two_product(self):
        m = rng_matrix(1, 3, 2) @ rng_matrix(2, 2, 3)
        assert kernel_of(m).dim == 1
        assert range_of(m).dim == 2

    @settings(max_examples=30, deadline=None)
    @given(rectangular_matrices())
    def test_kernel_complements_adjoint_range(self, m):
        k = kernel_of(m)
        r_adj = range_of(m.conj().T)
        assert k.dim + r_adj.dim == m.shape[1]
        if k.dim and r_adj.dim:
            assert op_norm(k.basis.conj().T @ r_adj.basis) < 1e-9


class TestOrderAndNorm:
    def test_op_norm_identity(self):
        assert op_norm(np.eye(4)) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m, _ in reference_cases()]
                             + [pytest.param(rng_matrix(31, 3, 5), id="gaussian-3x5"),
                                pytest.param(rng_matrix(32, 5, 3), id="gaussian-5x3")])
    def test_op_norm_is_the_spectral_norm_bit_for_bit(self, m):
        # the reference cases include a 0x3 matrix, whose norm is 0.0
        expected = float(np.linalg.norm(m, 2)) if m.size else 0.0
        assert op_norm(m) == expected


class TestSubspace:
    def test_complement_dims(self):
        s = range_of(rng_matrix(11, 4, 2))
        c = s.complement()
        assert s.dim + c.dim == 4
        assert op_norm(s.basis.conj().T @ c.basis) < 1e-10

    def test_containment_and_equality(self):
        cols = rng_matrix(12, 4, 3)
        big = range_of(cols)
        small = range_of(cols[:, :1])
        assert big.contains(small)
        assert not small.contains(big)
        rotated = range_of(cols @ rng_matrix(13, 3, 3))
        assert big.equals(rotated)


class TestJson:
    def test_round_trip(self):
        m = rng_matrix(21, 2, 3)
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(m, again)

    def test_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


class TestTolerances:
    def test_defaults_valid(self):
        t = Tolerances()
        assert t.rank_rtol == 1e-9
        assert t.max_level == 64

    @pytest.mark.parametrize("field,value", [
        ("rank_rtol", 0.0), ("rank_rtol", 1e-3), ("psd_atol", -1e-10),
        ("max_level", 1), ("grid_points", 8),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            Tolerances(**{field: value})


class TestSubspaceValidation:
    def test_rejects_non_orthonormal_basis(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            Subspace(2, np.array([[1.0], [1.0]], dtype=complex))

    def test_accepts_orthonormal_basis(self):
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        assert s.dim == 1
