"""Asymptotic limits, triangulations, classes, and reducing parts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from contraction_lab import (
    Contraction,
    asymptotic_limit,
    canonical_triangulation,
    class_of,
    classify,
    defect_data,
    make_contraction,
    reducing_isometric_part,
    reducing_parts,
    reducing_unitary_part,
)
from contraction_lab import asymptotics
from contraction_lab.asymptotics import ClassFlags, NoConvergenceError, stability_flags
from contraction_lab.corpus import GenSpec, generate
from contraction_lab.harnack import DOMINATED, INCONCLUSIVE, harnack_dominates
from contraction_lab.linalg import DEFAULT_TOL, Subspace, op_norm

from conftest import reference_cases, rng_matrix, square_contractions
from linalg_reference import power_doubling_limit

J = make_contraction([[0, 1], [0, 0]])


def haar_unitary(seed: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng_matrix(seed, d, d))
    return q


class TestAsymptoticLimit:
    def test_unitary(self):
        u = make_contraction(haar_unitary(1, 3))
        data = asymptotic_limit(u)
        assert op_norm(data.s_t - np.eye(3)) < 1e-10
        assert data.fix_s.dim == 3
        assert data.idempotent

    def test_strict(self):
        data = asymptotic_limit(make_contraction(np.diag([0.5, 0.3])))
        assert op_norm(data.s_t) < 1e-10
        assert data.null_s.dim == 2

    def test_nilpotent(self):
        data = asymptotic_limit(J)
        assert op_norm(data.s_t) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(square_contractions())
    def test_limit_in_unit_interval(self, c):
        data = asymptotic_limit(c)
        w = np.linalg.eigvalsh(data.s_t)
        assert w[0] >= -1e-10
        assert w[-1] <= 1.0 + 1e-10
        # the norm is exactly one whenever the limit is nonzero
        if op_norm(data.s_t) > 1e-6:
            assert op_norm(data.s_t) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(square_contractions())
    def test_fixed_space_is_invariant_isometric(self, c):
        fix = asymptotic_limit(c).fix_s
        if fix.dim == 0:
            return
        img = c.mat @ fix.basis
        assert op_norm(img - fix.projector() @ img) < 1e-7
        gram = img.conj().T @ img
        assert op_norm(gram - np.eye(fix.dim)) < 1e-7

    def test_quasi_normal_limit_is_defect_kernel_projection(self):
        u = haar_unitary(5, 4)
        c = make_contraction(u @ np.diag([1.0, 0.7, 0.3, 0.0]) @ u.conj().T)
        assert "quasi_normal" in classify(c)
        data = asymptotic_limit(c)
        assert data.idempotent
        p = defect_data(c).null_dt.projector()
        assert op_norm(data.s_t - p) < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_power_leaving_the_ball_stops(self):
        # built directly, with norm 1 + 2.5e-11, inside contraction_slack:
        # its eigenvalue has |lambda|^2 - 1 = 5e-11, far above rounding
        c = Contraction(np.diag([math.sqrt(1 + 5e-11), 0.5]))
        with pytest.raises(NoConvergenceError) as info:
            asymptotic_limit(c)
        assert math.isfinite(info.value.residual)
        assert info.value.residual == pytest.approx(5e-11, rel=1e-4)

    @pytest.mark.parametrize("t, tol", [pytest.param(t, tol, id=name)
                                        for name, t, tol in reference_cases()
                                        if t.shape[0] == t.shape[1] and t.size])
    def test_matches_power_doubling(self, t, tol):
        """The split's projector is the power-doubling limit's, plus the
        eigenvectors with 0 < 1 - |lambda|^2 <= psd_atol that the clamp puts
        on the circle (the gap-0.5-psd_atol diagonal); the power limit
        sends those to 0."""
        c = make_contraction(t, tol)
        lam, vec = np.linalg.eig(c.mat)
        gap = 1.0 - np.abs(lam) ** 2
        clamped = vec[:, (gap > 1e-12) & (gap <= tol.psd_atol)]
        w, v = np.linalg.eigh(power_doubling_limit(c.mat, tol))
        q, _ = np.linalg.qr(np.hstack([v[:, w > 0.5], clamped]))
        data = asymptotic_limit(c, tol)
        assert op_norm(data.s_t - q @ q.conj().T) <= 1e-12
        assert asymptotics._unitary_split(c, tol).residual <= asymptotics.BLOCK_RTOL


class TestTriangulation:
    def test_mixed_diagonal(self):
        tri = canonical_triangulation(make_contraction(np.diag([1.0, 0.5])))
        assert tri.split[0].dim == 1  # stable part spanned by e2
        assert tri.q_block[0, 0] == pytest.approx(0.5)
        assert abs(tri.w_block[0, 0]) == pytest.approx(1.0)
        assert tri.zero_residual < 1e-12
        assert op_norm(tri.r_block) < 1e-10

    def test_strict_is_all_stable(self):
        tri = canonical_triangulation(make_contraction(np.diag([0.2, 0.4])))
        assert tri.split[0].dim == 2
        assert tri.w_block.shape == (0, 0)
        assert tri.q_strongly_stable

    def test_direct_sum_blocks(self):
        u = haar_unitary(7, 2)
        q = 0.5 * haar_unitary(8, 2)
        t = np.zeros((4, 4), dtype=complex)
        t[:2, :2] = u
        t[2:, 2:] = q
        tri = canonical_triangulation(make_contraction(t))
        assert tri.split[0].dim == 2
        # the persistent block is the unitary summand up to basis choice
        w_sq = tri.w_block.conj().T @ tri.w_block
        assert op_norm(w_sq - np.eye(2)) < 1e-8
        assert op_norm(tri.r_block) < 1e-8
        assert tri.q_strongly_stable and tri.w_injective_limit

    @settings(max_examples=20, deadline=None)
    @given(square_contractions())
    def test_class_flags_and_zero_block(self, c):
        tri = canonical_triangulation(c)
        assert tri.zero_residual < 1e-8
        assert tri.q_strongly_stable
        assert tri.w_injective_limit


class TestClassOf:
    def test_examples(self):
        assert class_of(make_contraction(np.diag([0.5, 0.2]))) == "C00"
        assert class_of(make_contraction(haar_unitary(9, 3))) == "C11"
        assert class_of(J) == "C00"

    def test_mixed(self):
        assert class_of(make_contraction(np.diag([1.0, 0.5]))) == "mixed"


class TestReducingParts:
    def test_unitary_full(self):
        u = make_contraction(haar_unitary(11, 3))
        assert reducing_isometric_part(u).dim == 3
        assert reducing_unitary_part(u).dim == 3

    def test_nilpotent_trivial(self):
        assert reducing_isometric_part(J).dim == 0
        assert reducing_unitary_part(J).dim == 0

    def test_direct_sum_picks_unitary_summand(self):
        t = generate(GenSpec(dim=4, kind="direct_sum_U_plus_Q", seed=3,
                             params={"unitary_dim": 2}))
        h_i = reducing_isometric_part(t)
        h_u = reducing_unitary_part(t)
        assert h_i.dim == 2
        assert h_u.dim == 2
        # the summand lives on the first two coordinates
        assert op_norm(h_i.basis[2:, :]) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(square_contractions())
    def test_reduction_and_isometry(self, c):
        h_i = reducing_isometric_part(c)
        if h_i.dim == 0:
            return
        img = c.mat @ h_i.basis
        assert op_norm(img - h_i.projector() @ img) < 1e-7
        img_adj = c.mat.conj().T @ h_i.basis
        assert op_norm(img_adj - h_i.projector() @ img_adj) < 1e-7
        assert op_norm(img.conj().T @ img - np.eye(h_i.dim)) < 1e-7

    def test_parts_nest(self):
        t = generate(GenSpec(dim=5, kind="direct_sum_U_plus_Q", seed=9,
                             params={"unitary_dim": 3}))
        parts = reducing_parts(t)
        fix = asymptotic_limit(t).fix_s
        assert fix.contains(parts.h_i)
        assert parts.h_i.contains(parts.h_u)


# The five structures of the analyze report, with the dimension of the
# reducing isometric part each is built to have (k = size of the block).
ANALYZE_KINDS = {
    "generic": (lambda d, seed, k: GenSpec(d, "generic", seed), lambda k: 0),
    "u_plus_q": (lambda d, seed, k: GenSpec(d, "direct_sum_U_plus_Q", seed,
                                            {"unitary_dim": k}), lambda k: k),
    "rotated_quasi_isometry": (
        lambda d, seed, k: GenSpec(d, "quasi_isometry", seed,
                                   {"isometry_dim": k, "rotate": True}), lambda k: k),
    "nilpotent_shift": (lambda d, seed, k: GenSpec(d, "nilpotent_shift", seed),
                        lambda k: 0),
    "normal_boundary": (lambda d, seed, k: GenSpec(d, "normal", seed,
                                                   {"boundary_count": k}), lambda k: k),
}


def span_definition_part(c):
    """Complement of span{T^n (I - T*^j T^j)}, 0 <= n <= d, 1 <= j <= d."""
    t, d = c.mat, c.dim
    eye = np.eye(d, dtype=complex)
    cols = []
    tj = eye
    for _ in range(d):
        tj = tj @ t
        g = eye - tj.conj().T @ tj
        for _ in range(d + 1):
            cols.append(g)
            g = t @ g
    u, s, _ = np.linalg.svd(np.hstack(cols), full_matrices=False)
    k = int(np.sum(s > DEFAULT_TOL.rank_rtol * max(1.0, float(s[0]))))
    return Subspace(d, u[:, :k]).complement()


class TestReducingHull:
    @pytest.mark.parametrize("kind", sorted(ANALYZE_KINDS))
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_span_definition(self, kind, d):
        make_spec, _ = ANALYZE_KINDS[kind]
        for seed in range(4):
            c = generate(make_spec(d, seed, 1 + seed % (d - 1)))
            assert reducing_isometric_part(c).equals(span_definition_part(c))

    @pytest.mark.parametrize("kind", sorted(ANALYZE_KINDS))
    @pytest.mark.parametrize("d", [16, 32])
    def test_reduces_and_is_isometric_at_large_d(self, kind, d):
        make_spec, expected_dim = ANALYZE_KINDS[kind]
        for seed, k in ((0, 1), (1, d // 2 - 1), (2, d - 3)):
            c = generate(make_spec(d, seed, k))
            h_i = reducing_isometric_part(c)
            assert h_i.dim == expected_dim(k)
            if h_i.dim == 0:
                continue
            p = h_i.projector()
            img = c.mat @ h_i.basis
            img_adj = c.mat.conj().T @ h_i.basis
            assert op_norm(img - p @ img) < 1e-7
            assert op_norm(img_adj - p @ img_adj) < 1e-7
            assert op_norm(img.conj().T @ img - np.eye(h_i.dim)) < 1e-7


class TestMemoization:
    def test_limit_is_shared(self):
        c = make_contraction(np.diag([1.0, 0.5]))
        assert asymptotic_limit(c, DEFAULT_TOL) is asymptotic_limit(c, DEFAULT_TOL)

    def test_adjoint_round_trips(self):
        c = make_contraction(np.diag([1.0, 0.5]))
        assert c.adjoint() is c.adjoint()
        assert c.adjoint().adjoint() is c

    def test_shared_limit_is_read_only(self):
        data = asymptotic_limit(make_contraction(np.diag([1.0, 0.5])))
        assert data.null_s.dim == 1 and data.fix_s.dim == 1
        for a in (data.s_t, data.eigenvalues, data.null_s.basis, data.fix_s.basis):
            with pytest.raises(ValueError):
                a[0] = 7.0

    def test_analyze_computes_each_limit_once(self, monkeypatch):
        # T and T* share one eig; the triangulation blocks take none
        computed = []
        original = np.linalg.eig

        def counting(m):
            computed.append(np.array(m))
            return original(m)

        monkeypatch.setattr(np.linalg, "eig", counting)
        c = generate(GenSpec(6, "direct_sum_U_plus_Q", 2, {"unitary_dim": 2}))
        # the calls of the CLI analyze report
        asymptotic_limit(c)
        canonical_triangulation(c)
        reducing_parts(c)
        class_of(c)
        assert asymptotic_limit(c.adjoint()) is asymptotic_limit(c)
        assert class_of(c.adjoint()) == "mixed"
        assert len(computed) == 1
        assert np.array_equal(computed[0], c.mat)

    def test_class_of_reads_cached_spectrum(self, monkeypatch):
        c = generate(GenSpec(6, "direct_sum_U_plus_Q", 2, {"unitary_dim": 2}))
        asymptotic_limit(c)
        asymptotic_limit(c.adjoint())
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} after the limits were cached")
            return call

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse(name))
        assert class_of(c) == "mixed"
        assert calls == []


def eigvalsh_flags(c):
    """Reference: the flags from a separate eigvalsh of each cached limit,
    and indeterminacy from the eigenvalues of T a decade above the clamp."""
    counts = []
    for lim in (asymptotic_limit(c), asymptotic_limit(c.adjoint())):
        w = np.linalg.eigvalsh(lim.s_t)
        cut = DEFAULT_TOL.rank_rtol * max(1.0, float(w[-1]))
        zero = int(np.sum(w <= cut))
        counts.append((zero, w.size - zero))
    (z, p), (zs, ps) = counts
    gap = 1.0 - np.abs(np.linalg.eigvals(c.mat)) ** 2
    near = (gap > DEFAULT_TOL.psd_atol) & (gap <= 10.0 * DEFAULT_TOL.psd_atol)
    return ClassFlags(stable=p == 0, injective=z == 0, star_stable=ps == 0,
                      star_injective=zs == 0, indeterminate=bool(near.any()))


class TestStabilityFlags:
    @pytest.mark.parametrize("kind", sorted(ANALYZE_KINDS))
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_match_separate_eigvalsh(self, kind, d):
        make_spec, _ = ANALYZE_KINDS[kind]
        for seed in range(4):
            c = generate(make_spec(d, seed, 1 + seed % (d - 1)))
            assert stability_flags(c) == eigvalsh_flags(c)


ATOL = DEFAULT_TOL.psd_atol


def near_circle(gap, rotate=False):
    """lambda + [[0, 0.9], [0, 0]] with 1 - |lambda|^2 = gap, optionally in
    a random orthonormal basis: lambda's eigenvector reduces it."""
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = math.sqrt(1.0 - gap) * np.exp(0.7j)
    m[1, 2] = 0.9
    if rotate:
        q = haar_unitary(3, 3)
        m = q @ m @ q.conj().T
    return make_contraction(m)


def rescaled_upper(delta):
    """[[1 - delta, 0.5], [0, 0.3]] divided by its norm."""
    m = np.array([[1.0 - delta, 0.5], [0.0, 0.3]])
    return make_contraction(m / np.linalg.norm(m, 2))


NEAR_CIRCLE = [
    # (contraction, class label, indeterminate)
    pytest.param(near_circle(0.5 * ATOL), "mixed", False, id="inside-clamp"),
    pytest.param(near_circle(0.5 * ATOL, rotate=True), "mixed", False,
                 id="inside-clamp-rotated"),
    pytest.param(near_circle(2.0 * ATOL), "C00", True, id="above-clamp"),
    pytest.param(near_circle(5.0 * ATOL, rotate=True), "C00", True,
                 id="above-clamp-rotated"),
    pytest.param(near_circle(20.0 * ATOL), "C00", False, id="beyond-a-decade"),
    pytest.param(rescaled_upper(0.5 * ATOL), "C00", False, id="upper-inside"),
    pytest.param(rescaled_upper(5.0 * ATOL), "C00", False, id="upper-above"),
]


class TestNearCircle:
    """Eigenvalues on both sides of the clamp 1 - |lambda|^2 <= psd_atol,
    which the split and the Harnack split share."""

    @pytest.mark.parametrize("c, label, indeterminate", NEAR_CIRCLE)
    def test_harnack_method_agrees_with_class(self, c, label, indeterminate):
        assert class_of(c) == label
        assert stability_flags(c).indeterminate == indeterminate
        # a strict dominator sees a Fejer witness exactly when T has a unitary part
        zero = make_contraction(np.zeros(c.shape))
        method = harnack_dominates(zero, c).method
        assert (method == "fejer") == (label != "C00")
        # the split leaves no eigenvalue on the circle behind
        v = harnack_dominates(c, c)
        assert v.status == DOMINATED
        assert (v.method == "unitary") == (label == "C11")

    def test_unreduced_eigenvalue_inside_the_clamp_is_undecided(self):
        # 1 - |lambda|^2 = 5e-11 with coupling (gap / 4)^(1/2): a contraction
        # whose clamped eigenvector is 3.5e-6 away from reducing it
        gap = 0.5 * ATOL
        t = make_contraction([[math.sqrt(1.0 - gap), math.sqrt(gap / 4.0)], [0.0, 0.3]])
        with pytest.raises(NoConvergenceError) as info:
            class_of(t)
        assert info.value.residual > asymptotics.BLOCK_RTOL
        assert harnack_dominates(t, t).status == INCONCLUSIVE
