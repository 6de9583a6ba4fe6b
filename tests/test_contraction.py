"""Contraction validation, defect data and its chart T = W (+) Z, classification."""

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
)
from contraction_lab import contraction, segments, shmulyan
from contraction_lab.asymptotics import asymptotic_limit
from contraction_lab.contraction import PREDICATE_RTOL
from contraction_lab.harnack import harnack_equivalence
from contraction_lab.corpus import KINDS, GenSpec, generate
from contraction_lab.linalg import (
    DEFAULT_TOL,
    NotPSDError,
    Subspace,
    Tolerances,
    compress,
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

    @pytest.mark.parametrize("t, tol", [pytest.param(t, tol, id=name)
                                        for name, t, tol in reference_cases()])
    def test_chart_diagonals(self, t, tol):
        # z, root_in and root_out are the diagonals of Z, D_Z and D_{Z*},
        # the compressions of T and of the reference defect operators
        dd = defect_data(Contraction(t), tol)
        (r_dt, _, _, _), (r_dtstar, _, _, _) = reference_defect_data(t, tol)
        z = compress(t, dd.defect_space_star, dd.defect_space)
        want = np.zeros(z.shape)
        want[np.arange(dd.z.size), np.arange(dd.z.size)] = dd.z
        assert op_norm(z - want) <= 1e-12
        for r_root, space, root in ((r_dt, dd.defect_space, dd.root_in),
                                    (r_dtstar, dd.defect_space_star, dd.root_out)):
            assert op_norm(compress(r_root, space, space) - np.diag(root)) <= 1e-12

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
        mat = generate(GenSpec(dim=8, kind="partial_isometry", seed=1, params={"rank": 4})).mat
        counts = count_factorizations(monkeypatch)
        defect_data(make_contraction(mat))
        assert counts == {"svd": 1, "eigh": 0, "norm": 0}

    @pytest.mark.parametrize("scale", [0.7, 1.0 + 0.5e-10])
    def test_new_contraction_takes_one_svd(self, monkeypatch, scale):
        # the norm comes from the SVD that seeds the cache; on rescale the
        # singular values are divided by the norm
        g = np.random.default_rng(4).standard_normal((5, 3)) + 0j
        g *= scale / np.linalg.svd(g, compute_uv=False)[0]
        counts = count_factorizations(monkeypatch)
        c = make_contraction(g)
        u, s, vh = contraction._factored(c)
        assert counts == {"svd": 1, "eigh": 0, "norm": 0}
        assert op_norm((u[:, :3] * s) @ vh - c.mat) <= 1e-15
        assert s[0] == (1.0 if scale > 1.0 else pytest.approx(0.7, rel=1e-15))
        assert not any(f.flags.writeable for f in (u, s, vh))

    def test_factor_decision_reads_the_cached_svd(self, monkeypatch):
        a = generate(GenSpec(dim=8, kind="partial_isometry", seed=1, params={"rank": 4}))
        b = generate(GenSpec(dim=8, kind="strict", seed=2))
        counts = count_factorizations(monkeypatch)
        assert not shmulyan._factor_dominates(b, a, DEFAULT_TOL)
        assert counts == {"svd": 0, "eigh": 0, "norm": 3}

    def test_verdict_takes_one_leak_test(self, monkeypatch):
        # the segment route's disc reads the decision's leak: 3 leak norms,
        # 2 of the cross-Gram route and 2 of the disc, not 3 more leak norms
        w = generate(GenSpec(dim=8, kind="partial_isometry", seed=1, params={"rank": 4}))
        part = shmulyan.partial_isometry_part(w)
        m = make_contraction(w.mat + part.null_out.basis @ (0.5 * np.eye(4))
                             @ part.null_in.basis.conj().T)
        defect_data(w)
        counts = count_factorizations(monkeypatch)
        v = shmulyan.shmulyan_dominates(m, w)
        assert v.dominates and all(v.route_agreement.values())
        assert counts == {"svd": 0, "eigh": 0, "norm": 7}
        # the radius of the disc that takes its own leak test, bit for bit
        disc = segments._factored_disc(contraction._factored(w), m.mat - w.mat, DEFAULT_TOL)
        assert v.radius == segments._disc_radius(disc, DEFAULT_TOL)

    def test_both_orders_share_one_svd_per_contraction(self, monkeypatch):
        """The part, Harnack and Shmul'yan equivalence of a partial isometry w
        and a member m of its part factor w once and m once."""
        w0 = generate(GenSpec(dim=8, kind="partial_isometry", seed=3, params={"rank": 4}))
        part = shmulyan.partial_isometry_part(w0)
        member = w0.mat + part.null_out.basis @ (0.5 * np.eye(4)) @ part.null_in.basis.conj().T
        w = Contraction(w0.mat)
        counts = count_full_svds(monkeypatch, w.mat, member)
        m = make_contraction(member)
        shmulyan.partial_isometry_part(w)
        assert harnack_equivalence(w, m).status == "equivalent"
        assert shmulyan.shmulyan_equivalent(w, m).equivalent
        assert counts == [1, 1]


def trusted_in(fn, *args) -> list:
    """The subspaces that fn(*args) builds with Subspace._trusted."""
    made = []
    trusted = Subspace._trusted.__func__

    def record(cls, ambient_dim, basis):
        made.append(trusted(cls, ambient_dim, basis))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "_trusted", classmethod(record))
        fn(*args)
    return made


class TestTrustedBases:
    """Bases built without the Subspace check are orthonormal to 1e-8."""

    @staticmethod
    def bases(c, tol):
        dd = defect_data(c, tol)
        out = [dd.defect_space, dd.null_dt, dd.defect_space_star, dd.null_dtstar,
               range_of(c.mat, tol), range_of(c.mat.conj().T, tol)]
        part = shmulyan.partial_isometry_part(c, tol)
        out += [part.range_in, part.null_in, part.range_out, part.null_out]
        if c.is_square:
            lim = asymptotic_limit(c, tol)
            out += [lim.null_s, lim.fix_s]
            if "quasi_isometry" in classify(c, tol):
                out += trusted_in(shmulyan.quasi_isometry_criterion, c, c, tol)
        return out + [s.complement() for s in out]

    @pytest.mark.parametrize("t, tol", [pytest.param(t, tol, id=name)
                                        for name, t, tol in reference_cases()])
    def test_orthonormal(self, t, tol):
        for space in self.bases(make_contraction(t, tol), tol):
            b = space.basis
            assert b.shape == (space.ambient_dim, space.dim)
            if space.dim:
                assert op_norm(b.conj().T @ b - np.eye(space.dim)) <= 1e-8


def reference_isometry_residuals(t):
    """Spectral norms of the defining residuals T*T - I, TT* - I and TT*T - T."""
    rows, cols = t.shape
    tt = t.conj().T
    return (op_norm(tt @ t - np.eye(cols)), op_norm(t @ tt - np.eye(rows)),
            op_norm(t @ tt @ t - t))


def chart_labels(c, tol):
    """The isometric labels of the defect chart T = W (+) Z: no defect space
    on either side, and Z = 0 up to the rank cut."""
    dd = defect_data(c, tol)
    z = compress(c.mat, dd.defect_space_star, dd.defect_space)
    out = {"isometry"} if dd.defect_space.dim == 0 else set()
    if dd.defect_space_star.dim == 0:
        out.add("coisometry")
    if out == {"isometry", "coisometry"}:
        out.add("unitary")
    if op_norm(z) <= tol.rank_rtol * op_norm(c.mat):
        out.add("partial_isometry")
    return out


def in_band(t, tol):
    """Whether a singular value sits where the chart cut and the residual
    cut at PREDICATE_RTOL can differ: 1 - s^2 in (psd_atol, bound], or a
    partial-isometry residual s |1 - s^2| <= bound with s above the rank cut."""
    s = np.linalg.svd(t, compute_uv=False)
    if s.size == 0:
        return False
    gap = 1.0 - s * s
    bound = PREDICATE_RTOL * max(1.0, s[0] ** 2)
    return bool(np.any((gap > tol.psd_atol) & (gap <= bound)) or
                np.any((s > tol.rank_rtol * s[0]) & (gap > tol.psd_atol) & (s * gap <= bound)))


class TestClassify:
    LABELS = {"isometry", "coisometry", "unitary", "partial_isometry"}

    @pytest.mark.parametrize("t, tol", [pytest.param(t, tol, id=name)
                                        for name, t, tol in reference_cases()])
    def test_labels_read_the_chart(self, t, tol):
        c = Contraction(t)
        got = self.LABELS & classify(c, tol)
        assert got == chart_labels(c, tol)
        if not in_band(t, tol):
            ref = reference_isometry_residuals(t)
            bound = PREDICATE_RTOL * max(1.0, op_norm(t) ** 2)
            names = ("isometry", "coisometry", "partial_isometry")
            want = {n for n, r in zip(names, ref) if r <= bound}
            if {"isometry", "coisometry"} <= want:
                want.add("unitary")
            assert got == want

    @pytest.mark.parametrize("diag", [[1.0 - 1e-9, 0.0], [1.0, 5e-9]])
    def test_one_cut(self, diag):
        # both pass ||TT*T - T|| <= 1e-8, but 1 - 1e-9 is outside the clamp
        # and 5e-9 above the rank cut, so the chart has a Z block
        assert "partial_isometry" not in classify(make_contraction(np.diag(diag)))

    def test_partial_isometry_is_its_chart_part(self):
        seen = 0
        for kind in KINDS:
            for d in (1, 2, 4, 8):
                for seed in range(3):
                    made = generate(GenSpec(dim=d, kind=kind, seed=seed))
                    for c in made if isinstance(made, tuple) else (made,):
                        if "partial_isometry" in classify(c):
                            w = nearest_part_partial_isometry(c)
                            assert op_norm(c.mat - w.mat) <= 1e-12, (kind, d, seed)
                            seen += 1
        assert seen > 20

    def test_normal_labels_from_one_commutator(self):
        # T*T - TT* = 1e-10 diag(-1, 1): inside the commutator cut, though
        # TT* <= T*T misses the psd_atol floor by rounding
        flags = classify(make_contraction([[0.5, 1e-5], [0.0, 0.5]]))
        assert {"quasi_normal", "hyponormal"} <= flags

    def test_normal_labels_over_the_corpus(self):
        seen = {True: 0, False: 0}
        for kind in KINDS:
            for d in (1, 2, 3, 4, 8):
                for seed in range(3):
                    made = generate(GenSpec(dim=d, kind=kind, seed=seed))
                    for c in made if isinstance(made, tuple) else (made,):
                        t = c.mat
                        comm = op_norm(t.conj().T @ t - t @ t.conj().T)
                        normal = comm <= PREDICATE_RTOL * max(1.0, op_norm(t) ** 2)
                        flags = classify(c)
                        assert ("quasi_normal" in flags) == ("hyponormal" in flags) == normal, \
                            (kind, d, seed)
                        seen[normal] += 1
        assert min(seen.values()) > 20

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


def check_chart(c, tol=DEFAULT_TOL):
    """The blocks W, Z of T = W (+) Z, the compressions of T to the kernels
    and to the defect spaces of :func:`defect_data`: W unitary between the
    kernels, Z the rectangular diagonal of z with norm < 1, and T
    reassembled from the two blocks."""
    dd = defect_data(c, tol)
    w = compress(c.mat, dd.null_dtstar, dd.null_dt)
    z = compress(c.mat, dd.defect_space_star, dd.defect_space)
    k = dd.null_dt.dim
    assert w.shape == (k, k)
    if k:
        assert op_norm(w.conj().T @ w - np.eye(k)) < 1e-7
    want = np.zeros(z.shape)
    want[np.arange(dd.z.size), np.arange(dd.z.size)] = dd.z
    assert op_norm(z - want) <= 1e-12
    assert op_norm(z) < 1.0
    back = (dd.null_dtstar.basis @ w @ dd.null_dt.basis.conj().T
            + dd.defect_space_star.basis @ z @ dd.defect_space.basis.conj().T)
    assert op_norm(back - c.mat) < 1e-7
    return w, z


class TestDefectChart:
    def test_diagonal(self):
        w, z = check_chart(make_contraction(np.diag([1.0, 0.5])))
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(1.0)
        assert z[0, 0] == pytest.approx(0.5)

    def test_nilpotent(self):
        w, z = check_chart(J)
        assert w.shape == (1, 1)
        assert abs(w[0, 0]) == pytest.approx(1.0)
        assert op_norm(z) == pytest.approx(0.0)

    def test_strict_has_empty_unitary_part(self):
        g = rng_matrix(17, 3, 3)
        c = make_contraction(0.5 * g / op_norm(g))
        w, z = check_chart(c)
        assert w.shape == (0, 0)
        # Z is all of c, expressed in the defect bases
        dd = defect_data(c)
        back = dd.defect_space_star.basis @ z @ dd.defect_space.basis.conj().T
        assert op_norm(back - c.mat) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(square_contractions())
    def test_chart_of_any_square_contraction(self, c):
        check_chart(c)


# W = [[sqrt(1 - 1e-9), 0]]: its root 3.2e-5 is kept above the psd_atol clamp
# and falls under the rank cut once rank_rtol is 1e-4
NEAR_ISOMETRIC_ROW = np.array([[math.sqrt(1.0 - 1e-9), 0.0]])


class TestOneRankCut:
    """Both sides of a chart are cut against one reference root, so the
    kernels of a rectangular contraction have one dimension."""

    @pytest.mark.parametrize("rank_rtol, kernel", [(1e-9, 0), (1e-4, 1)])
    @pytest.mark.parametrize("transpose", [False, True], ids=["1x2", "2x1"])
    def test_near_isometric_row(self, rank_rtol, kernel, transpose):
        t = NEAR_ISOMETRIC_ROW.T if transpose else NEAR_ISOMETRIC_ROW
        tol = Tolerances(rank_rtol=rank_rtol)
        c = make_contraction(t, tol)
        dd = defect_data(c, tol)
        assert dd.null_dt.dim == dd.null_dtstar.dim == kernel
        check_chart(c, tol)

    @pytest.mark.parametrize("rank_rtol", [1e-9, 1e-4])
    def test_random_rectangular_shapes(self, rank_rtol):
        # singular values 1 - 10^-k straddle both cuts; 1 and 0.5 sit clear of them
        tol = Tolerances(rank_rtol=rank_rtol)
        rng = np.random.default_rng(32)
        levels = np.array([1.0, 1.0 - 1e-11, 1.0 - 1e-9, 1.0 - 1e-8, 1.0 - 1e-7, 0.5, 0.0])
        for _ in range(300):
            rows, cols = rng.choice(np.arange(1, 7), size=2, replace=False)
            k = min(rows, cols)
            u = np.linalg.qr(rng_matrix(int(rng.integers(1 << 30)), rows, rows))[0]
            v = np.linalg.qr(rng_matrix(int(rng.integers(1 << 30)), cols, cols))[0]
            s = np.sort(rng.choice(levels, size=k))[::-1]
            c = Contraction((u[:, :k] * s) @ v[:, :k].conj().T)
            dd = defect_data(c, tol)
            assert dd.null_dt.dim == dd.null_dtstar.dim, (rows, cols, s)
            check_chart(c, tol)


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
