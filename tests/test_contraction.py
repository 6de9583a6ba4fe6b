"""Contraction validation, defect data, classification, and the U+Q split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from contraction_lab import (
    Contraction,
    NotAContractionError,
    classify,
    defect_data,
    make_contraction,
    nearest_part_partial_isometry,
    ttstar_power_limit,
    up_decompose,
)
from contraction_lab import shmulyan
from contraction_lab.asymptotics import asymptotic_limit
from contraction_lab.harnack import harnack_equivalence
from contraction_lab.corpus import GenSpec, generate
from contraction_lab.linalg import (
    DEFAULT_TOL,
    NotPSDError,
    Tolerances,
    op_norm,
    range_of,
)

from conftest import near_isometric_diag, reference_cases, rng_matrix, square_contractions
from linalg_reference import kernel_of, pinv, psd_sqrt

J = make_contraction([[0, 1], [0, 0]])


class TestMakeContraction:
    def test_zero_valid(self):
        c = make_contraction(np.zeros((2, 2)))
        assert c.shape == (2, 2)

    def test_norm_one_valid(self):
        assert op_norm(J.mat) == pytest.approx(1.0)

    def test_rejects_expansion(self):
        with pytest.raises(NotAContractionError) as err:
            make_contraction(np.diag([1.5]))
        assert err.value.norm == pytest.approx(1.5)

    def test_rescales_slack_band(self):
        c = make_contraction(np.diag([1.0 + 0.5e-10]))
        assert op_norm(c.mat) <= 1.0

    def test_matrix_read_only(self):
        c = make_contraction(np.diag([0.5]))
        with pytest.raises(ValueError):
            c.mat[0, 0] = 0.0


class TestDefectData:
    def test_unitary_has_no_defect(self):
        u = make_contraction(np.diag([1j, -1.0]))
        dd = defect_data(u)
        assert op_norm(dd.d_t) == 0.0
        assert op_norm(dd.d_tstar) == 0.0
        assert dd.null_dt.dim == 2

    def test_zero_has_full_defect(self):
        dd = defect_data(make_contraction(np.zeros((3, 3))))
        assert np.allclose(dd.d_t, np.eye(3))
        assert dd.defect_space.dim == 3

    def test_nilpotent(self):
        dd = defect_data(J)
        assert np.allclose(dd.d_t, np.diag([1.0, 0.0]))
        assert np.allclose(dd.d_tstar, np.diag([0.0, 1.0]))

    def test_cache_is_per_tolerance(self):
        c = make_contraction(np.diag([0.5]))
        a = defect_data(c)
        b = defect_data(c)
        assert a is b
        other = defect_data(c, Tolerances(rank_rtol=1e-8))
        assert other is not a

    @settings(max_examples=30, deadline=None)
    @given(square_contractions())
    def test_intertwining_identity(self, c):
        dd = defect_data(c)
        resid = op_norm(c.mat @ dd.d_t - dd.d_tstar @ c.mat)
        assert resid <= 10 * DEFAULT_TOL.psd_atol + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(square_contractions())
    def test_defect_space_complements_kernel(self, c):
        dd = defect_data(c)
        assert dd.defect_space.dim + dd.null_dt.dim == c.dim


def reference_defect_data(t, tol):
    """The defect data of psd_sqrt of I - T*T and I - TT*, then pinv,
    range_of and kernel_of of each root: eight factorizations."""
    rows, cols = t.shape
    out = []
    for root in (psd_sqrt(np.eye(cols) - t.conj().T @ t, tol),
                 psd_sqrt(np.eye(rows) - t @ t.conj().T, tol)):
        out.append((root, pinv(root, tol), range_of(root, tol), kernel_of(root, tol)))
    return out


class TestDefectDataReference:
    @pytest.mark.parametrize("t, tol", [pytest.param(t, tol, id=name)
                                        for name, t, tol in reference_cases()])
    def test_matches_separate_factorizations(self, t, tol):
        dd = defect_data(Contraction(t), tol)
        ref = reference_defect_data(t, tol)
        got = [(dd.d_t, dd.d_t_pinv, dd.defect_space, dd.null_dt),
               (dd.d_tstar, dd.d_tstar_pinv, dd.defect_space_star, dd.null_dtstar)]
        for (root, inv, space, null), (r_root, r_inv, r_space, r_null) in zip(got, ref):
            assert space.equals(r_space) and null.equals(r_null)
            assert op_norm(root - r_root) <= 1e-12
            assert op_norm(inv - r_inv) <= 1e-9 * op_norm(r_inv)

    def test_clamp_and_rank_cut(self):
        atol = DEFAULT_TOL.psd_atol
        assert defect_data(Contraction(near_isometric_diag(0.5 * atol))).null_dt.dim == 1
        assert defect_data(Contraction(near_isometric_diag(2.0 * atol))).null_dt.dim == 0
        cut = defect_data(Contraction(near_isometric_diag(1e-9)), Tolerances(rank_rtol=1e-4))
        assert cut.null_dt.dim == 1 and cut.d_t[0, 0] > 0.0

    def test_beyond_the_clamp_is_not_psd(self):
        t = near_isometric_diag(-2.0 * DEFAULT_TOL.psd_atol)
        with pytest.raises(NotPSDError):
            reference_defect_data(t, DEFAULT_TOL)
        with pytest.raises(NotPSDError):
            defect_data(Contraction(t))


def count_factorizations(monkeypatch):
    """Count SVDs with singular vectors ("svd"), eigh calls, and spectral
    norms ("norm": linalg.norm, or an SVD of singular values only)."""
    counts = {"svd": 0, "eigh": 0, "norm": 0}
    real_svd, real_eigh, real_norm = np.linalg.svd, np.linalg.eigh, np.linalg.norm

    def svd(a, *args, **kwargs):
        counts["svd" if kwargs.get("compute_uv", True) else "norm"] += 1
        return real_svd(a, *args, **kwargs)

    def eigh(*args, **kwargs):
        counts["eigh"] += 1
        return real_eigh(*args, **kwargs)

    def norm(*args, **kwargs):
        counts["norm"] += 1
        return real_norm(*args, **kwargs)

    for name, fn in (("svd", svd), ("eigh", eigh), ("norm", norm)):
        monkeypatch.setattr(np.linalg, name, fn)
    return counts


def count_full_svds(monkeypatch, *mats):
    """Count the SVDs with singular vectors taken of each of mats."""
    counts = [0] * len(mats)
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            for i, m in enumerate(mats):
                if np.shape(a) == m.shape and np.array_equal(a, m):
                    counts[i] += 1
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return counts


class TestOneFactorization:
    def test_defect_data_takes_one_svd(self, monkeypatch):
        c = generate(GenSpec(dim=8, kind="partial_isometry", seed=1, params={"rank": 4}))
        counts = count_factorizations(monkeypatch)
        defect_data(c)
        assert counts == {"svd": 1, "eigh": 0, "norm": 0}

    def test_factor_decision_takes_one_svd(self, monkeypatch):
        a = generate(GenSpec(dim=8, kind="partial_isometry", seed=1, params={"rank": 4}))
        b = generate(GenSpec(dim=8, kind="strict", seed=2))
        counts = count_factorizations(monkeypatch)
        assert not shmulyan._factor_dominates(b, a, DEFAULT_TOL)
        assert counts == {"svd": 1, "eigh": 0, "norm": 3}

    def test_both_orders_share_one_svd_per_contraction(self, monkeypatch):
        """The part, Harnack and Shmul'yan equivalence of a partial isometry w
        and a member m of its part factor w once and m once."""
        w0 = generate(GenSpec(dim=8, kind="partial_isometry", seed=3, params={"rank": 4}))
        part = shmulyan.partial_isometry_part(w0)
        m = make_contraction(w0.mat + part.null_out.basis @ (0.5 * np.eye(4))
                             @ part.null_in.basis.conj().T)
        w = Contraction(w0.mat)
        counts = count_full_svds(monkeypatch, w.mat, m.mat)
        shmulyan.partial_isometry_part(w)
        assert harnack_equivalence(w, m).status == "equivalent"
        assert shmulyan.shmulyan_equivalent(w, m).equivalent
        assert counts == [1, 1]


class TestTrustedBases:
    """Bases built without the Subspace check are orthonormal to 1e-8."""

    @staticmethod
    def bases(c, tol):
        dd = defect_data(c, tol)
        out = [dd.defect_space, dd.null_dt, dd.defect_space_star, dd.null_dtstar,
               range_of(c.mat, tol), range_of(c.mat.conj().T, tol),
               dd.defect_space_star.intersect(range_of(c.mat, tol)),
               dd.defect_space.intersect(dd.null_dt)]
        if "partial_isometry" in classify(c, tol):
            part = shmulyan.partial_isometry_part(c, tol)
            out += [part.range_in, part.null_in, part.range_out, part.null_out]
        if c.is_square:
            lim, lim_star = asymptotic_limit(c, tol), asymptotic_limit(c.adjoint(), tol)
            out += [lim.null_s, lim.fix_s, lim.fix_s.intersect(lim_star.fix_s)]
        return out + [s.complement() for s in out]

    @pytest.mark.parametrize("t, tol", [pytest.param(t, tol, id=name)
                                        for name, t, tol in reference_cases()])
    def test_orthonormal(self, t, tol):
        for space in self.bases(make_contraction(t, tol), tol):
            b = space.basis
            assert b.shape == (space.ambient_dim, space.dim)
            if space.dim:
                assert op_norm(b.conj().T @ b - np.eye(space.dim)) <= 1e-8


class TestClassify:
    def test_nilpotent_flags(self):
        flags = classify(J)
        assert "partial_isometry" in flags
        assert "hyponormal" not in flags  # JJ* and J*J are incomparable
        assert "quasi_isometry" not in flags  # J*2 J2 = 0 != J*J

    def test_scaled_identity(self):
        flags = classify(make_contraction(np.diag([0.5, 0.5])))
        assert {"strict", "pure", "quasi_normal", "hyponormal"} <= flags
        assert "quasi_isometry" not in flags

    def test_unitary(self):
        u = rng_matrix(3, 3, 3)
        q, _ = np.linalg.qr(u)
        flags = classify(make_contraction(q))
        assert {"isometry", "coisometry", "unitary", "partial_isometry",
                "quasi_normal", "hyponormal"} <= flags

    def test_partial_isometry_defects_are_projections(self):
        dd = defect_data(J)
        assert np.allclose(dd.d_t @ dd.d_t, dd.d_t)  # projection onto N(J)
        assert np.allclose(dd.d_tstar @ dd.d_tstar, dd.d_tstar)


class TestUpDecompose:
    def test_diagonal(self):
        c = make_contraction(np.diag([1.0, 0.5]))
        d = up_decompose(c)
        assert d.u_block.shape == (1, 1)
        assert d.u_block[0, 0] == pytest.approx(1.0)
        assert d.q_block[0, 0] == pytest.approx(0.5)

    def test_nilpotent(self):
        d = up_decompose(J)
        assert d.u_block.shape == (1, 1)
        assert abs(d.u_block[0, 0]) == pytest.approx(1.0)
        assert op_norm(d.q_block) == pytest.approx(0.0)

    def test_strict_has_empty_unitary_part(self):
        g = rng_matrix(17, 3, 3)
        c = make_contraction(0.5 * g / op_norm(g))
        d = up_decompose(c)
        assert d.u_block.shape == (0, 0)
        # the pure block is all of c, expressed in the defect bases
        n_out, d_out = d.basis_out
        n_in, d_in = d.basis_in
        back = d_out.basis @ d.q_block @ d_in.basis.conj().T
        assert op_norm(back - c.mat) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(square_contractions())
    def test_always_succeeds_with_pure_block(self, c):
        d = up_decompose(c)
        assert op_norm(d.q_block) < 1.0
        assert op_norm(d.reassemble() - c.mat) < 1e-7
        k = d.u_block.shape[0]
        if k:
            assert op_norm(d.u_block.conj().T @ d.u_block - np.eye(k)) < 1e-7


class TestNearestPartPartialIsometry:
    def test_diagonal(self):
        w = nearest_part_partial_isometry(make_contraction(np.diag([1.0, 0.5])))
        assert np.allclose(w.mat, np.diag([1.0, 0.0]))

    def test_strict_maps_to_zero(self):
        c = make_contraction(np.diag([0.3, 0.2]))
        assert op_norm(nearest_part_partial_isometry(c).mat) == 0.0

    def test_partial_isometry_fixed(self):
        w = nearest_part_partial_isometry(J)
        assert np.allclose(w.mat, J.mat)


class TestPowerLimit:
    @settings(max_examples=30, deadline=None)
    @given(square_contractions(max_norm=0.95))
    def test_converges_to_kernel_projection(self, c):
        limit = ttstar_power_limit(c)
        assert limit.converged
        assert limit.residual < DEFAULT_TOL.conv_tol

    def test_projection_for_mixed_diagonal(self):
        c = make_contraction(np.diag([1.0, 0.5, 0.0]))
        limit = ttstar_power_limit(c)
        assert limit.converged
        assert np.allclose(limit.projection, np.diag([1.0, 0.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_power_leaving_the_ball_stops(self):
        # built directly, with norm 1 + 2.5e-11: squaring alone overflows
        c = Contraction(np.diag([math.sqrt(1 + 5e-11), 0.5]))
        limit = ttstar_power_limit(c)
        assert not limit.converged
        assert limit.power == 4
        assert math.isfinite(limit.residual)
