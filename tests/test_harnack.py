"""Harnack decision path, Gram hierarchy, falsifier, and intertwiner factorizations."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.optimize import minimize_scalar

from contraction_lab import (
    DOMINATED,
    INCONCLUSIVE,
    NOT_DOMINATED,
    NecessaryConditionFailsError,
    ZDivergesError,
    defect_data,
    harnack_dominates,
    harnack_equivalence,
    harnack_falsify,
    harnack_kernel,
    intertwiner_data,
    make_contraction,
    positive_real_sample,
    quasi_normal_equivalence_report,
    shmulyan_dominates,
)
from contraction_lab import harnack, suites
from contraction_lab.corpus import GenSpec, generate, random_unitary
from contraction_lab.harnack import FEJER_DEGREES, fejer_polynomial, real_part_at
from contraction_lab.linalg import DEFAULT_TOL, ShapeMismatchError, Subspace, op_norm
from contraction_lab.shmulyan import partial_isometry_part
from contraction_lab.suites import partial_isometry_pairs

from conftest import scaled_contraction
from linalg_reference import pinv, psd_sqrt

J = make_contraction([[0, 1], [0, 0]])


def scalar(x):
    return make_contraction([[x]])


def loop_gram(powers, level, d):
    """Reference: the block Toeplitz Gram matrix filled block by block."""
    n = (level + 1) * d
    g = np.zeros((n, n), dtype=complex)
    for m in range(level + 1):
        for k in range(m, level + 1):
            blk = powers[k - m]
            g[m * d:(m + 1) * d, k * d:(k + 1) * d] = blk
            if k != m:
                g[k * d:(k + 1) * d, m * d:(m + 1) * d] = blk.conj().T
    return g


class TestKernel:
    def test_zero_contraction_gives_identity(self):
        k = harnack_kernel(make_contraction(np.zeros((2, 2))), 2)
        assert np.allclose(k.base, np.eye(6))

    def test_scalar_level_one(self):
        k = harnack_kernel(scalar(0.5), 1)
        assert np.allclose(k.base, [[1.0, 0.5], [0.5, 1.0]])

    def test_nesting(self):
        t = scaled_contraction(3, 3, 0.8)
        small = harnack_kernel(t, 2).base
        big = harnack_kernel(t, 3).base
        assert np.allclose(big[:9, :9], small)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_gather_matches_block_loop(self, dim):
        t = scaled_contraction(20 + dim, dim, 0.9)
        powers = [np.eye(dim, dtype=complex)]
        for level in range(12):
            harnack._powers(t.mat, level, powers)
            k = harnack_kernel(t, level)
            expected = loop_gram(powers, level, dim)
            assert k.base.dtype == expected.dtype
            assert np.array_equal(k.base, expected)

    def test_full_trace_same_floats_as_block_loop(self, monkeypatch):
        a, b = scalar(0.5), scalar(0.0)
        got = harnack_dominates(a, b, full_trace=True)
        monkeypatch.setattr(harnack, "_gram", loop_gram)
        ref = harnack_dominates(a, b, full_trace=True)
        assert got.constants == ref.constants
        assert got.levels == ref.levels
        assert got.kernel_floor == ref.kernel_floor
        assert got.constant_estimate == ref.constant_estimate

    @settings(max_examples=25, deadline=None)
    @given(level=st.integers(0, 8), seed=st.integers(0, 10**6))
    def test_always_psd(self, level, seed):
        t = scaled_contraction(seed, 1 + seed % 4, 0.2 + (seed % 7) / 10.0)
        k = harnack_kernel(t, level)
        assert k.min_eig >= -1e-9 * max(1.0, op_norm(k.base))


class TestDominates:
    def test_reflexive_constant_one(self):
        v = harnack_dominates(J, J)
        assert v.status == DOMINATED
        assert all(abs(c - 1.0) < 1e-9 for c in v.constants)

    def test_scalar_constant_against_classical_bound(self):
        # classical scalar bound: sup Re p(t)/Re p(0) = (1+t)/(1-t)
        t = 0.5
        oracle = (1.0 + t) / (1.0 - t)
        v = harnack_dominates(scalar(t), scalar(0.0), full_trace=True)
        assert v.status == DOMINATED
        assert 2.9 <= v.constants[-1] <= 3.0
        assert v.constant_estimate == pytest.approx(oracle, abs=0.05)

    def test_boundary_point_not_dominated_by_interior(self):
        v = harnack_dominates(scalar(1.0), scalar(0.0))
        assert v.status == NOT_DOMINATED
        assert v.witness is not None

    def test_interior_dominated_by_nilpotent(self):
        # the nilpotent has spectral radius zero, so the null operator
        # dominates it, with constant two in dimension two
        v = harnack_dominates(make_contraction(np.zeros((2, 2))), J)
        assert v.status == DOMINATED
        assert v.constant_estimate == pytest.approx(2.0, abs=0.01)

    def test_unit_eigenvalue_refuted_by_fejer(self):
        # the constant trace of 0 against 1 diverges; the eigenvalue 1 of b
        # lies outside the (trivial) unitary part of a
        v = harnack_dominates(scalar(0.0), scalar(1.0), full_trace=True)
        assert v.status == NOT_DOMINATED and v.method == "fejer"
        assert abs(v.witness[0]) == pytest.approx(1.0)
        assert v.constants[-1] > 10.0

    def test_constants_nondecreasing(self):
        v = harnack_dominates(scalar(0.9), scalar(0.0), full_trace=True)
        cs = v.constants
        assert all(cs[i + 1] >= cs[i] - 1e-9 for i in range(len(cs) - 1))

    def test_adjoint_symmetry(self):
        a = scaled_contraction(5, 3, 0.7)
        b = scaled_contraction(6, 3, 0.5)
        v1 = harnack_dominates(a, b, full_trace=True)
        v2 = harnack_dominates(a.adjoint(), b.adjoint(), full_trace=True)
        assert v1.status == v2.status
        assert np.allclose(v1.constants, v2.constants, atol=1e-7)

    def test_level_transitivity_bound(self):
        # pointwise Rayleigh factorization: the level constant of (a, c)
        # is at most the product of those of (a, b) and (b, c)
        a = scaled_contraction(7, 2, 0.55)
        b = scaled_contraction(8, 2, 0.6)
        c = scaled_contraction(9, 2, 0.65)
        vab = harnack_dominates(a, b, full_trace=True)
        vbc = harnack_dominates(b, c, full_trace=True)
        vac = harnack_dominates(a, c, full_trace=True)
        for lvl, cac in zip(vac.levels, vac.constants):
            cab = vab.constants[vab.levels.index(lvl)]
            cbc = vbc.constants[vbc.levels.index(lvl)]
            assert cac <= cab * cbc * (1 + 1e-8)

    def test_equivalence_of_strict_pair(self):
        a = scaled_contraction(10, 2, 0.4)
        b = scaled_contraction(11, 2, 0.8)
        assert harnack_equivalence(a, b).status == "equivalent"


def normal_of_radius(seed, d, r):
    """Normal contraction with spectral radius r, one eigenvalue of modulus r."""
    rng = np.random.default_rng(seed)
    moduli = np.concatenate([[r], rng.uniform(0.0, r, d - 1)])
    u = random_unitary(rng, d)
    lam = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    return make_contraction(u @ np.diag(lam) @ u.conj().T)


def part_member(w, z_norm, seed):
    """w + Z on the defect spaces of the partial isometry w, ||Z|| = z_norm."""
    part = partial_isometry_part(w)
    k = part.null_in.dim
    g = np.random.default_rng(seed).standard_normal((k, k)) + 0j
    z = g * (z_norm / op_norm(g))
    return make_contraction(w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T)


def gen(kind, d, seed, **params):
    return generate(GenSpec(d, kind, seed=seed, params=params))


def agreement_pairs():
    """Corpus pairs with both spectral radii below 1, d <= 6."""
    pairs = []
    for d in (2, 4, 6):
        pairs.append((f"strict-strict-{d}", gen("strict", d, d), gen("strict", d, d + 1)))
        pairs.append((f"generic-normal-{d}", gen("generic", d, d), gen("normal", d, d)))
        pairs.append((f"normal-generic-{d}", gen("normal", d, d + 2),
                      gen("generic", d, d + 2, norm_bound=0.6)))
        pairs.append((f"nilpotent-strict-{d}", gen("nilpotent_shift", d, 0),
                      gen("strict", d, d + 3, norm_bound=0.5)))
        pairs.append((f"strict-nilpotent-{d}", gen("strict", d, d + 4),
                      gen("nilpotent_shift", d, 0)))
        pairs.append((f"nilpotent-zero-{d}", gen("nilpotent_shift", d, 0),
                      make_contraction(np.zeros((d, d)))))
    for d in (3, 5):
        # ||Z|| = 1 members have an eigenvalue on the circle: not for the symbol
        w = gen("partial_isometry", d, d, rank=d - 1)
        m = part_member(w, 0.4, 10 * d)
        pairs.append((f"w-member-{d}", w, m))
        pairs.append((f"member-w-{d}", m, w))
    return pairs


class TestSymbol:
    """The symbol route on pairs whose spectral radii are below 1."""

    def test_scalar_099_is_dominated(self):
        v = harnack_dominates(scalar(0.0), scalar(0.99))
        assert v.status == DOMINATED
        assert v.method == "symbol"
        assert v.constant_estimate == pytest.approx(199.0, rel=1e-9)
        assert v.levels == [1] and v.levels_used == 1

    @pytest.mark.parametrize("d", [1, 4, 8, 16])
    @pytest.mark.parametrize("r", [0.5, 0.8, 0.9, 0.99])
    def test_closed_form_constant(self, d, r):
        # 0 against a normal b splits over b's eigenvectors, each a scalar
        # pair with constant (1 + |lambda|) / (1 - |lambda|)
        b = normal_of_radius(int(100 * r) + d, d, r)
        v = harnack_dominates(make_contraction(np.zeros((d, d))), b)
        assert v.status == DOMINATED and v.method == "symbol"
        assert v.constant_estimate == pytest.approx((1 + r) / (1 - r), rel=1e-9)
        assert v.constants[-1] <= v.constant_estimate

    def test_agrees_with_full_hierarchy(self):
        decided = {DOMINATED: 0, NOT_DOMINATED: 0}
        for label, a, b in agreement_pairs():
            sym = harnack_dominates(a, b)
            ref = harnack_dominates(a, b, full_trace=True)
            assert sym.status == ref.status != INCONCLUSIVE, label
            decided[sym.status] += 1
            if sym.status == DOMINATED:
                assert sym.method == "symbol", label
                assert ref.levels[-1] == 64, label
                assert sym.constant_estimate >= ref.constants[-1] * (1 - 1e-12), label
            else:
                assert sym.method == "kernel-escape" and sym.witness is not None, label
        assert decided[DOMINATED] >= 15 and decided[NOT_DOMINATED] >= 4

    def test_full_trace_keeps_level_64_and_symbol_status(self):
        v = harnack_dominates(scalar(0.0), scalar(0.9), full_trace=True)
        assert v.levels[-1] == 64 and v.levels_used == 64
        assert v.status == DOMINATED and v.method == "symbol"
        assert v.constant_estimate == pytest.approx(19.0, rel=1e-9)
        assert v.constants[-1] < 19.0

    @pytest.mark.parametrize("label", ["unitary", "u-plus-q", "u-plus-q-vs-strict",
                                       "zero-vs-one"])
    def test_unit_circle_eigenvalue_stays_on_hierarchy(self, label):
        # level 1 and the split of the unitary part decide these pairs; no
        # level of the hierarchy beyond the first is evaluated
        u_q = gen("direct_sum_U_plus_Q", 4, 2, unitary_dim=2, norm_bound=0.6)
        a, b, status, method = {
            "unitary": (gen("unitary", 3, 1), gen("unitary", 3, 1), DOMINATED, "unitary"),
            "u-plus-q": (u_q, u_q, DOMINATED, "symbol"),
            "u-plus-q-vs-strict": (u_q, gen("strict", 4, 3, norm_bound=0.5),
                                   NOT_DOMINATED, "kernel-escape"),
            "zero-vs-one": (scalar(0.0), scalar(1.0), NOT_DOMINATED, "fejer"),
        }[label]
        v = harnack_dominates(a, b)
        assert (v.status, v.method) == (status, method)
        assert v.levels_used == 1
        if status == DOMINATED:
            assert v.constant_estimate == pytest.approx(1.0, rel=1e-9)

    def test_no_sweep_never_dominated(self, monkeypatch):
        # past the grid's degree bound the sweep does not run, and nothing
        # else may end Dominated or climb past level 1
        a, b = scalar(0.5), scalar(0.0)
        assert harnack_dominates(a, b).status == DOMINATED
        monkeypatch.setattr(harnack, "SYMBOL_GRID", 2)
        v = harnack_dominates(a, b)
        assert v.status == INCONCLUSIVE and v.method == "symbol"
        assert v.levels == [1] and v.constant_estimate is None

    def test_escape_returns_before_the_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept after a level-1 escape")

        monkeypatch.setattr(harnack, "_symbol_sweep", no_sweep)
        v = harnack_dominates(scalar(1.0), scalar(0.0))
        assert v.status == NOT_DOMINATED and v.method == "kernel-escape"
        assert v.levels_used == 1


def dense_symbol_max(a, b, samples=16384):
    """Reference symbol constant: max_theta ||G(theta) D_a^+||^2 with
    G = D_b (I - z b)^{-1} (I - z a), z = e^{-i theta}, over a uniform grid,
    refined by a bounded Brent search around the four best local maxima."""
    eye = np.eye(a.shape[0])
    left = psd_sqrt(eye - b.conj().T @ b)
    right = pinv(psd_sqrt(eye - a.conj().T @ a))

    def value(theta):
        z = np.exp(-1j * np.atleast_1d(theta))[:, None, None]
        g = left @ np.linalg.solve(eye - z * b, (eye - z * a) @ right)
        return np.linalg.svd(g, compute_uv=False)[:, 0] ** 2

    theta = 2.0 * np.pi * np.arange(samples) / samples
    c2 = np.concatenate([value(chunk) for chunk in np.split(theta, 8)])
    peaks = np.flatnonzero((c2 >= np.roll(c2, 1)) & (c2 >= np.roll(c2, -1)))
    h = 2.0 * np.pi / samples
    refined = [-minimize_scalar(lambda t: -value(t)[0], bounds=(t - h, t + h),
                                method="bounded", options={"xatol": 1e-14}).fun
               for t in theta[peaks[np.argsort(c2[peaks])[-4:]]]]
    return max(float(c2.max()), *refined)


def dense_reference_pairs():
    """(label, a, b) with both spectral radii below 1."""
    rng = np.random.default_rng(11)
    pairs = []
    for d in (1, 2, 4, 8, 16, 32):
        for nb in (0.9, 0.99) if d <= 8 else (0.99,):
            pairs.append((f"strict-{d}-{nb}", gen("strict", d, 10 * d, norm_bound=0.8),
                          gen("strict", d, 10 * d + 1, norm_bound=nb)))
    for r in (0.9, 0.99, 0.999):
        for d in (1, 4):
            pairs.append((f"closed-{d}-{r}", make_contraction(np.zeros((d, d))),
                          normal_of_radius(int(1000 * r) + d, d, r)))
    for d in (2, 4, 8):
        g = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
        pairs.append((f"nilpotent-{d}", gen("strict", d, d + 5, norm_bound=0.7),
                      make_contraction(0.95 * g / op_norm(g))))
    pairs.append(("shift-2", gen("strict", 2, 6, norm_bound=0.7), gen("nilpotent_shift", 2, 0)))
    # a symbol of period pi: its samples at 0 and pi tie, its maximum 3 lies at pi / 2
    pairs.append(("period-pi", make_contraction([[0, 1], [0.5, 0]]), J))
    for d in (1, 3):
        q = random_unitary(rng, d)
        lam = np.concatenate([[-0.995], rng.uniform(-0.5, 0.5, d - 1)])
        pairs.append((f"minus-0.995-{d}", gen("strict", d, d + 9, norm_bound=0.6),
                      make_contraction(q @ np.diag(lam) @ q.conj().T)))
    return pairs


class TestDenseReference:
    """The level-set sweep against a 16,384-point grid plus refinement."""

    @pytest.mark.parametrize("label, a, b", [pytest.param(*p, id=p[0])
                                             for p in dense_reference_pairs()])
    def test_estimate_matches_dense_maximum(self, label, a, b):
        v = harnack_dominates(a, b)
        assert (v.status, v.method) == (DOMINATED, "symbol")
        ref = dense_symbol_max(a.mat, b.mat)
        assert v.constant_estimate == pytest.approx(ref, rel=1e-9)


def b_eps(eps):
    """A contraction that leaves ker D_J = span(e2) by eps: b e2 = (sqrt(1 - eps^2), eps)."""
    return make_contraction([[0.0, math.sqrt(1.0 - eps ** 2)], [0.0, eps]])


def count_calls(monkeypatch, *names):
    """Count factorizations by name; an SVD of singular values only is a
    spectral norm (op_norm), not a factorization, and is not counted."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += kwargs.get("compute_uv", True)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestLevelOneLeak:
    """Level 1 is the one-sided leak test of the Shmul'yan decision."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    def test_leak_above_the_threshold_escapes(self, eps):
        # the Gram ratio of this leak is eps^2 / 2, which a Rayleigh test
        # with a 1e-12 floor passed as Dominated
        b = b_eps(eps)
        v = harnack_dominates(J, b)
        assert v.status == NOT_DOMINATED and v.method == "kernel-escape"
        y = v.witness
        assert y.shape == (2,) and np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert abs(y[0]) <= 1e-12  # y spans ker D_J
        assert np.linalg.norm((b.mat - J.mat) @ y) == pytest.approx(eps, rel=1e-6)
        assert not shmulyan_dominates(b, J).dominates

    def test_leak_below_the_threshold_stays_dominated(self):
        assert harnack_dominates(J, b_eps(1e-9)).status == DOMINATED

    def test_default_call_builds_no_gram_matrix(self, monkeypatch):
        w = gen("partial_isometry", 8, 3, rank=4)
        b = part_member(w, 0.5, 3)

        def refuse(*args):
            raise AssertionError("Gram matrix built")

        monkeypatch.setattr(harnack, "_gram", refuse)
        counts = count_calls(monkeypatch, "eigh", "eigvalsh")
        v = harnack_dominates(w, b)
        assert v.status == DOMINATED and v.method == "symbol"
        assert v.levels == [1] and v.kernel_floor == 0.0
        assert counts["eigh"] == 0 and counts["eigvalsh"] <= 1


def criterion_4_forward_pairs():
    """(w, w + Z) at ||Z|| = 1 from the criterion-4 construction, by case."""
    return {i: (w, cands[-1][1]) for i, w, _, cands in partial_isometry_pairs()
            if cands is not None}


def has_unimodular_eigenvalue(t):
    return bool(np.any(1.0 - np.abs(np.linalg.eigvals(t.mat)) ** 2 <= DEFAULT_TOL.psd_atol))


class TestSplit:
    """Pairs with an eigenvalue on the unit circle: the unitary split decides."""

    def test_criterion_4_case_5_fejer_witness(self):
        w, b = criterion_4_forward_pairs()[5]
        assert w.dim == 2 and has_unimodular_eigenvalue(b)
        v = harnack_dominates(w, b)
        assert v.status == NOT_DOMINATED and v.method == "fejer"
        assert v.levels == [1] and v.constant_estimate is None
        y = v.witness
        mu = y.conj() @ b.mat @ y
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(mu) - 1.0) <= 1e-12
        assert np.linalg.norm(b.mat @ y - mu * y) <= 1e-12

    @pytest.mark.parametrize("phase", [0.0, 0.7, math.pi])
    def test_nilpotent_against_unitary_decided_at_level_one(self, phase):
        # J agrees with b on ker D_J, so level 1 passes; b is unitary
        b = make_contraction([[0, 1], [np.exp(1j * phase), 0]])
        v = harnack_dominates(J, b)
        assert v.status == NOT_DOMINATED and v.method == "fejer"
        assert v.levels_used == 1

    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_unitary_part_leaves_the_constant(self, d):
        # Q (U + a0) Q* against Q (U + b0) Q* has the constant of (a0, b0)
        rng = np.random.default_rng(d)
        k = d // 3
        a0 = gen("strict", d - k, d, norm_bound=0.7)
        b0 = gen("strict", d - k, d + 1, norm_bound=0.6)
        u = random_unitary(rng, k)
        q = random_unitary(rng, d)
        a = make_contraction(q @ block_diag(u, a0.mat) @ q.conj().T)
        b = make_contraction(q @ block_diag(u, b0.mat) @ q.conj().T)
        ref = harnack_dominates(a0, b0)
        v = harnack_dominates(a, b)
        assert ref.status == v.status == DOMINATED
        assert v.method == "symbol" and v.levels == [1]
        assert v.constant_estimate == pytest.approx(ref.constant_estimate, rel=1e-9)

    def test_unitary_pair_has_constant_one(self):
        u = gen("unitary", 4, 5)
        v = harnack_dominates(u, u)
        assert v.status == DOMINATED and v.method == "unitary"
        assert v.constant_estimate == pytest.approx(1.0, rel=1e-9)

    def test_eigenvalue_left_on_the_circle_is_inconclusive(self, monkeypatch):
        # a split that misses the unitary part must not end Dominated
        u_q = gen("direct_sum_U_plus_Q", 4, 2, unitary_dim=2, norm_bound=0.6)
        monkeypatch.setattr(harnack, "asymptotic_limit", lambda c, tol: SimpleNamespace(
            null_s=Subspace(c.dim, np.eye(c.dim, dtype=complex))))
        v = harnack_dominates(u_q, u_q)
        assert v.status == INCONCLUSIVE and v.method == "symbol"

    def test_complement_is_read_from_the_split(self, monkeypatch):
        u_q = gen("direct_sum_U_plus_Q", 4, 2, unitary_dim=2, norm_bound=0.6)
        counts = count_calls(monkeypatch, "eigh")
        v = harnack_dominates(u_q, u_q)
        assert (v.status, v.method) == (DOMINATED, "symbol")
        assert counts["eigh"] == 0

    def test_split_is_off_the_gate_path(self, monkeypatch):
        def no_split(*args):
            raise AssertionError("split a pair inside the circle")

        monkeypatch.setattr(harnack, "asymptotic_limit", no_split)
        v = harnack_dominates(scalar(0.5), scalar(0.0))
        assert v.status == DOMINATED and v.method == "symbol"


class TestPositiveRealSample:
    def test_constant(self):
        p = positive_real_sample(0, 1)
        assert p.shape == (1,)
        assert p[0].imag == pytest.approx(0.0)
        assert p[0].real > 0

    def test_degree_one_structure(self):
        # q = 1 + z gives p = 2 + 2z up to the random draw; verify the
        # Fejer-Riesz structure on a grid instead of fixed coefficients
        for seed in range(5):
            p = positive_real_sample(3, seed)
            grid = np.exp(2j * np.pi * np.arange(256) / 256)
            vals = np.array([sum(c * z**k for k, c in enumerate(p)).real
                             for z in grid])
            assert vals.min() >= -1e-10 * max(1.0, vals.max())

    def test_real_part_at_matrix(self):
        p = np.array([1.0, 2.0])
        m = real_part_at(p, J.mat)
        assert np.allclose(m, [[1.0, 1.0], [1.0, 1.0]])


class TestFalsify:
    def test_reflexive_never_falsified(self):
        t = scaled_contraction(12, 2, 0.6)
        assert harnack_falsify(t, t, 1.0, trials=40) is None

    def test_explicit_boundary_counterexample(self):
        # p(z) = 2 - 2z (from the boundary density |1 - z|^2) has
        # Re p(0) = 2 and Re p(1) = 0, so no constant lets the boundary
        # point dominate the origin
        coeffs = np.array([2.0, -2.0])
        gap = 100.0 * real_part_at(coeffs, np.array([[1.0]])) \
            - real_part_at(coeffs, np.array([[0.0]]))
        assert np.linalg.eigvalsh(gap)[0] < 0

    def test_search_finds_boundary_counterexample(self):
        hit = harnack_falsify(scalar(1.0), scalar(0.0), 100.0,
                              trials=400, seed=3)
        assert hit is not None
        assert hit.lam_min < 0

    def test_tight_constant_survives(self):
        assert harnack_falsify(scalar(0.5), scalar(0.0), 3.05,
                               trials=200, seed=5) is None

    @pytest.mark.parametrize("mu", [1.0, np.exp(2.1j), -1j])
    def test_fejer_polynomial(self, mu):
        n = 32
        p = fejer_polynomial(mu, n)
        grid = np.exp(2j * np.pi * np.arange(512) / 512)
        vals = np.polynomial.polynomial.polyval(grid, p).real
        assert vals.min() >= -1e-12
        assert np.polynomial.polynomial.polyval(mu, p) == pytest.approx(n + 1)

    def test_fejer_ladder(self):
        assert FEJER_DEGREES[0] == 16 and FEJER_DEGREES[-1] == 2048
        assert all(b == 2 * a for a, b in zip(FEJER_DEGREES, FEJER_DEGREES[1:]))

    def test_fejer_refutes_criterion_4_pairs(self):
        # every ||Z|| = 1 pair whose w + Z has a unimodular eigenvalue
        refuted = unimodular = 0
        for w, b in criterion_4_forward_pairs().values():
            if has_unimodular_eigenvalue(b):
                unimodular += 1
                refuted += harnack_falsify(w, b, 100.0) is not None
        assert unimodular == 96
        assert refuted == unimodular

    def test_dominated_verdict_consistent(self):
        a = scaled_contraction(13, 2, 0.5)
        b = scaled_contraction(14, 2, 0.6)
        v = harnack_dominates(a, b)
        assert v.status == DOMINATED
        assert harnack_falsify(a, b, v.constant_estimate * 1.1,
                               trials=80, seed=7) is None


class TestIntertwiner:
    def test_identical_pair_gives_zeros(self):
        t = scaled_contraction(15, 2, 0.7)
        data = intertwiner_data(t, t)
        assert op_norm(data.b0) < 1e-10
        assert op_norm(data.z_partial) < 1e-10
        assert data.w is not None and op_norm(data.w) < 1e-10

    def test_diagonal_pair_formula(self):
        t = make_contraction(np.diag([0.5, 1.0]))
        tp = make_contraction(np.diag([0.8, 1.0]))
        data = intertwiner_data(t, tp)
        expected = (0.5 - 0.8) / (math.sqrt(1 - 0.25) * math.sqrt(1 - 0.64))
        assert data.w[0, 0] == pytest.approx(expected)
        assert data.residual_w < 1e-10

    def test_boundary_series_diverges(self):
        with pytest.raises(ZDivergesError):
            intertwiner_data(scalar(1.0), scalar(0.0))

    def test_reads_cached_defect_data(self, monkeypatch):
        t = make_contraction(np.diag([0.5, 0.3, 0.2]))
        tp = make_contraction(np.diag([0.4, 0.3, 0.1]))
        defect_data(t), defect_data(tp)
        counts = count_calls(monkeypatch, "svd")
        data = intertwiner_data(t, tp)
        assert counts["svd"] == 0
        assert data.residual_w <= 1e-12

    def test_necessary_condition(self):
        t = make_contraction(np.diag([0.5, 0.9]))
        tp = make_contraction(np.diag([0.8, 1.0]))  # t != t' on N(D_t')
        with pytest.raises(NecessaryConditionFailsError):
            intertwiner_data(t, tp)


class TestPipeline:
    def test_commuting_normal_pair_all_true(self):
        t, tp = generate(GenSpec(dim=3, kind="doubly_commuting_pair", seed=4,
                                 params={"max_modulus": 0.6}))
        report = quasi_normal_equivalence_report(t, tp, witness_arc=True)
        assert all(report.hypotheses.values())
        assert all(report.statements.values())
        assert report.consistent

    def test_identical_pair(self):
        t = make_contraction(np.diag([0.4, 0.9]))
        report = quasi_normal_equivalence_report(t, t)
        assert report.consistent
        assert all(report.statements.values())

    def test_boundary_pair_all_false(self):
        report = quasi_normal_equivalence_report(scalar(1.0), scalar(0.0))
        assert all(report.hypotheses.values())
        assert not any(report.statements.values())
        assert report.consistent


def criterion_pairs(criterion):
    """Every pair the acceptance suite of a criterion draws, at its full count."""
    if criterion == 1:
        return [(a, b) for _, _, a, b in suites.route_agreement_pairs()]
    if criterion == 4:
        return [(w, c) for _, w, _, cands in partial_isometry_pairs() for _, c in cands or ()]
    if criterion == 6:
        return [(t, t_p) for _, _, t, t_p in suites.quasi_normal_pairs()]
    return [(a, b) for _, _, a, b in suites.arc_connectivity_pairs()]


class TestEquivalencesAgree:
    """Harnack and Shmul'yan equivalence coincide on every suite pair: the
    chart decision of harnack_equivalence against the Harnack verdicts of
    both directions."""

    @pytest.mark.parametrize("criterion, count", [(1, 1000), (4, 600), (6, 300), (7, 400)])
    def test_suite_pairs(self, criterion, count):
        pairs = criterion_pairs(criterion)
        assert len(pairs) == count
        seen = set()
        for k, (a, b) in enumerate(pairs):
            equivalent = harnack_equivalence(a, b).status == "equivalent"
            dominated = (harnack_dominates(a, b).status, harnack_dominates(b, a).status)
            assert (dominated == (DOMINATED, DOMINATED)) == equivalent, (criterion, k)
            seen.add(equivalent)
        assert seen == {True, False}


class TestEquivalenceIsTheChartDecision:
    """harnack_equivalence answers from the two leak tests at any dimension."""

    def test_equivalent_scalars_past_the_symbol_grid(self):
        # the symbol route leaves d + 1 >= 128 inconclusive; the chart does not
        a, b = make_contraction(0.5 * np.eye(128)), make_contraction(0.3 * np.eye(128))
        assert harnack_equivalence(a, b).status == "equivalent"

    def test_kernel_escape_past_the_symbol_grid(self):
        # e1 is isometric for a, and b moves it
        a = make_contraction(np.diag(np.r_[1.0, np.full(127, 0.5)]))
        b = make_contraction(0.5 * np.eye(128))
        assert harnack_equivalence(a, b).status == "not_equivalent"
        assert harnack_equivalence(b, a).status == "not_equivalent"

    def test_no_harnack_verdict_is_computed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("harnack_dominates called")

        monkeypatch.setattr(harnack, "harnack_dominates", refuse)
        _, w, _, cands = next(case for case in partial_isometry_pairs() if case[3])
        (z_in, member), (z_out, non_member) = cands[0], cands[-1]
        assert z_in < 1.0 and z_out == 1.0
        assert harnack_equivalence(w, member).status == "equivalent"
        assert harnack_equivalence(w, non_member).status == "not_equivalent"

    def test_input_checks(self):
        with pytest.raises(ShapeMismatchError):
            harnack_equivalence(scalar(0.5), make_contraction(0.5 * np.eye(2)))
        with pytest.raises(ValueError):
            harnack_equivalence(make_contraction(np.zeros((2, 3))),
                                make_contraction(np.zeros((2, 3))))
