"""Schur polynomials, certified sup-norms, arcs, and function parts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import (
    NotMemberError,
    connect_arc,
    kobayashi_upper_bound,
    make_contraction,
    partial_isometry_arc,
    schur_part_member,
    schur_poly,
    segment_radius,
    shmulyan_equivalent,
)
from contraction_lab import defect_data, schur, shmulyan
from contraction_lab.corpus import GenSpec, generate, random_unitary
from contraction_lab.linalg import DEFAULT_TOL, Tolerances, op_norm
from contraction_lab.segments import (
    circle_max_norm,
    poly_norms,
    poly_value,
    proven_radius,
    unit_circle,
)
from contraction_lab.shmulyan import partial_isometry_part

from conftest import rng_matrix, scaled_contraction

J = make_contraction([[0, 1], [0, 0]])
JZ = make_contraction([[0, 1], [0.5, 0]])


def sc(x):
    return make_contraction([[x]])


def rand_coeffs(seed, rows, cols, degree, scale=0.4):
    rng = np.random.default_rng(seed)
    return [scale * (rng.standard_normal((rows, cols)) +
                     1j * rng.standard_normal((rows, cols))) / (k + 1)
            for k in range(degree + 1)]


def rand_poly(seed, rows, cols, degree, scale=0.4):
    return schur_poly(rand_coeffs(seed, rows, cols, degree, scale))


# w + lam Z with w = diag(1, 0) and Z on the defect spaces of w: the norm is
# 1 on the whole circle, every grid arc has the same bound, and no split
# lowers the top bound, so refinement spends the whole split budget.
FLAT_ARC = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex))
# w + lam^2 Z: flat too, and of degree 2, so only the grid certifies it
FLAT_ARC2 = (FLAT_ARC[0], np.zeros((2, 2), dtype=complex), FLAT_ARC[1])


class TestSupNorm:
    def test_constant(self):
        f = schur_poly([np.diag([0.5, 0.2])])
        assert f.sup_norm_estimate == pytest.approx(0.5)
        assert f.method == "exact-diagonal"

    def test_identity_function(self):
        f = schur_poly([np.zeros((1, 1)), np.eye(1)])
        assert f.sup_norm_estimate == pytest.approx(1.0, abs=1e-4)
        assert f.sup_norm_estimate >= 1.0

    def test_positive_scalar_coefficients(self):
        # |0.3 + 0.4 z| is maximal at z = 1 by the triangle equality
        f = schur_poly([np.array([[0.3]]), np.array([[0.4]])])
        assert f.sup_norm_estimate == pytest.approx(0.7, abs=1e-6)

    @pytest.mark.parametrize("coeffs", [
        pytest.param(rand_coeffs(3, 2, 2, 4), id="2x2-degree-4"),
        pytest.param(FLAT_ARC, id="flat-norm-budget"),
        pytest.param(rand_coeffs(8, 4, 4, 3), id="4x4-degree-3"),
        pytest.param(rand_coeffs(9, 2, 3, 2), id="2x3-degree-2"),
    ])
    def test_upper_bound_dominates_samples(self, coeffs):
        f = schur_poly(coeffs)
        dense = circle_samples(f.coeffs, 16384).max()
        assert f.sup_norm_estimate >= dense - 1e-12

    def test_spent_budget_is_labelled(self):
        # the degree-2 flat-norm polynomial keeps a gap after SPLIT_BUDGET
        # splits; a converged bound keeps the plain label
        flat = schur_poly(FLAT_ARC2)
        assert flat.method == "grid-budget"
        assert flat.sup_norm_estimate - 1.0 > schur.SUP_GAP
        assert schur_poly([np.array([[0.3]]), np.array([[0.4]])]).method == "grid"

    def test_schur_class_reads_the_certified_bound(self):
        # z^16 aliases to 1 on a 16-point grid, so every grid value of
        # 0.6 - 0.6 z^16 is 0, while its sup over the circle is 1.2
        tol = Tolerances(grid_points=16)
        f = schur_poly([0.6] + [0.0] * 15 + [-0.6], tol)
        assert f.sup_norm_estimate >= 1.2
        assert not f.is_schur_class(tol)
        assert schur_poly([0.6, 0.3], tol).is_schur_class(tol)

    def test_flat_affine_arc_is_whitened(self):
        # the grid alone spends its budget on this arc and stays above 1;
        # the whitened numerical radius proves sup = 1
        flat = schur_poly(FLAT_ARC)
        assert flat.method == "whitened"
        assert 1.0 <= flat.sup_norm_estimate <= 1.0 + 1e-12
        assert schur._grid_sup(FLAT_ARC, DEFAULT_TOL)[0] - 1.0 > schur.SUP_GAP

    @pytest.mark.parametrize("seed, norm", [(11, 0.3), (12, 0.7), (13, 0.95), (14, 1.0)])
    def test_whitened_bound_dominates_samples(self, seed, norm):
        # strict and norm-one centers, directions inside and outside the
        # proven disc (omega below and above 1)
        c0 = scaled_contraction(seed, 3, norm).mat
        c1 = rng_matrix(seed + 1, 3, 3)
        c1 = c1 / op_norm(c1) * (0.05 if norm == 1.0 else 0.4)
        if norm == 1.0:  # a norm-one center dominating c1: no leak
            left, s, right_h = np.linalg.svd(c0)
            d = np.sqrt(np.clip(1.0 - s ** 2, 0.0, None))
            c1 = (left * d) @ left.conj().T @ c1 @ (right_h.conj().T * d) @ right_h
        bound = schur._whitened_sup((c0, c1), DEFAULT_TOL)
        assert math.isfinite(bound)
        assert bound >= circle_samples((c0, c1), 16384).max() - 1e-12

    def test_whitened_bound_charges_a_small_leak(self):
        # c1 leaks 7e-10 onto the kernel pair (e1, e1) of c0, and the
        # circle reaches 1 + 7e-10 there; omega < 1, and without the leak
        # term the bound would be n0 + (1 - n0) omega = 1
        coeffs = (np.diag([1.0, 0.3]).astype(complex), np.diag([7e-10, 0.5]).astype(complex))
        dense = circle_samples(coeffs, 16384).max()
        assert dense > 1.0 + 5e-10
        assert schur._whitened_sup(coeffs, DEFAULT_TOL) >= dense
        assert schur_poly(coeffs).sup_norm_estimate >= dense

    def test_cap_never_below_the_best_sample(self, monkeypatch):
        monkeypatch.setattr(schur, "_whitened_sup", lambda coeffs, tol: 0.5)
        coeffs = rand_coeffs(3, 2, 2, 1)
        f = schur_poly(coeffs)
        assert f.method == "whitened"
        best = circle_samples(coeffs, DEFAULT_TOL.grid_points).max()
        assert f.sup_norm_estimate == pytest.approx(best, rel=1e-14)

    def test_whitened_bound_needs_a_contractive_center(self):
        c1 = 0.1 * np.eye(2)
        assert math.isinf(schur._whitened_sup((1.01 * np.eye(2), c1), DEFAULT_TOL))
        # a unit center with a direction leaking onto its kernel
        assert math.isinf(schur._whitened_sup((np.eye(2, dtype=complex), c1), DEFAULT_TOL))


def circle_samples(coeffs, samples):
    """||F|| at `samples` equally spaced points of the unit circle."""
    lam = np.exp(2j * np.pi * np.arange(samples) / samples)
    powers = lam[:, None] ** np.arange(len(coeffs))
    values = np.einsum("sk,kij->sij", powers, np.array(coeffs))
    return np.linalg.svd(values, compute_uv=False)[:, 0]


def linear_scan_sup(coeffs, tol):
    """Reference: the certified sup-norm by a linear scan over an arc list.

    This is the refinement as first written, with `max` taking the first
    maximal arc in list order; the heap in `schur._grid_sup` must
    split the same arcs and return the same floats.
    """
    if coeffs[0].size == 0:
        return 0.0, "exact-diagonal"
    if len(coeffs) == 1:
        return op_norm(coeffs[0]), "exact-diagonal"
    samples = tol.grid_points
    lip = sum(k * op_norm(c) for k, c in enumerate(coeffs))
    lip2 = sum(k * k * op_norm(c) for k, c in enumerate(coeffs))
    theta = list(2.0 * np.pi * np.arange(samples) / samples) + [2.0 * np.pi]
    vals = list(poly_norms(coeffs, unit_circle(samples)[1]))
    vals.append(vals[0])
    arcs = [(theta[i], theta[i + 1], vals[i], vals[i + 1]) for i in range(samples)]

    def bound(arc):
        lo, hi, vlo, vhi = arc
        h = hi - lo
        return max(vlo, vhi) + min(0.5 * lip * h, 0.125 * lip2 * h * h)

    best_val = max(vals)
    for _ in range(400):
        top = max(arcs, key=bound)
        if bound(top) - best_val <= 1e-9 * max(1.0, best_val):
            break
        arcs.remove(top)
        lo, hi, vlo, vhi = top
        mid = 0.5 * (lo + hi)
        vmid = op_norm(poly_value(coeffs, complex(math.cos(mid), math.sin(mid))))
        best_val = max(best_val, vmid)
        arcs.append((lo, mid, vlo, vmid))
        arcs.append((mid, hi, vmid, vhi))
    certified = max(bound(a) for a in arcs)
    closed = certified - best_val <= 1e-9 * max(1.0, best_val)
    return float(certified), "grid" if closed else "grid-budget"


class TestCircleEvaluators:
    """The shared evaluators in `segments` against the einsum reference."""

    @pytest.mark.parametrize("seed, rows, cols, degree",
                             [(0, 1, 1, 1), (1, 2, 2, 3), (2, 3, 2, 2), (3, 4, 4, 4)])
    def test_batched_matches_reference(self, seed, rows, cols, degree):
        coeffs = rand_coeffs(seed, rows, cols, degree)
        got = poly_norms(coeffs, unit_circle(256)[1])
        assert np.allclose(got, circle_samples(coeffs, 256), rtol=1e-13, atol=1e-15)

    def test_batched_empty_is_zero(self):
        coeffs = (np.zeros((0, 3)), np.zeros((0, 3)))
        assert np.array_equal(poly_norms(coeffs, unit_circle(16)[1]), np.zeros(16))

    @pytest.mark.parametrize("lam", [0.0, 0.7 - 0.2j, 1.5j])
    def test_single_point_matches_power_sum(self, lam):
        coeffs = rand_coeffs(5, 2, 3, 3)
        expected = sum(c * lam ** k for k, c in enumerate(coeffs))
        assert np.allclose(poly_value(coeffs, lam), expected, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 2.5])
    def test_circle_max_norm_off_the_unit_circle(self, r):
        center, direction = rand_coeffs(6, 3, 3, 1)
        # |eps| = r for center + eps * direction is |lam| = 1 for center + lam r direction
        expected = circle_samples([center, r * direction], 128).max()
        assert circle_max_norm(center, direction, r, 128) == pytest.approx(expected, rel=1e-13)
        assert circle_max_norm(np.zeros((0, 2)), np.zeros((0, 2)), r, 128) == 0.0


ORACLE_POLYS = [(seed, rows, cols, degree)
                for seed, (rows, cols) in enumerate(
                    [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (4, 1), (1, 3), (3, 4)])
                for degree in (1 + seed % 4, 4 - seed % 4)]


class TestHeapMatchesLinearScan:
    """The heap refinement returns bit for bit the linear scan's bounds.

    `schur._grid_sup` is the heap path alone; `_certified_sup` also takes
    the whitened bound on degree 1, which the scan does not have.
    """

    @pytest.mark.parametrize("seed, rows, cols, degree", ORACLE_POLYS)
    def test_random_polynomials(self, seed, rows, cols, degree):
        coeffs = rand_coeffs(seed, rows, cols, degree)
        got = schur._grid_sup(coeffs, DEFAULT_TOL)
        assert got == linear_scan_sup(coeffs, DEFAULT_TOL)

    def test_flat_arc_bounds_tie(self):
        tol = DEFAULT_TOL
        theta = 2.0 * np.pi * np.arange(tol.grid_points + 1) / tol.grid_points
        ends = poly_norms(FLAT_ARC, unit_circle(tol.grid_points)[1])
        h = np.diff(theta)
        # L = L2 = 0.5, so the grid-arc bounds are ends + min(0.25 h, 0.0625 h^2)
        bounds = np.maximum(ends, np.roll(ends, -1)) + np.minimum(0.25 * h, 0.0625 * h * h)
        assert np.all(bounds == bounds[0])

    @pytest.mark.parametrize("coeffs", [
        pytest.param(FLAT_ARC, id="flat"),
        # distinct near-tied bounds: the result moves with the split budget
        pytest.param((FLAT_ARC[0], FLAT_ARC[1] + 1e-4 * rng_matrix(7, 2, 2)),
                     id="near-flat"),
    ])
    def test_split_budget_runs_out(self, coeffs):
        got = schur._grid_sup(coeffs, DEFAULT_TOL)
        assert got == linear_scan_sup(coeffs, DEFAULT_TOL)
        best = circle_samples(coeffs, DEFAULT_TOL.grid_points).max()
        assert got[0] - best > schur.SUP_GAP

    @pytest.mark.parametrize("coeffs", [
        pytest.param((np.zeros((1, 1)), np.eye(1)), id="identity"),
        pytest.param((np.diag([0.5, 0.2]),), id="constant"),
        pytest.param((np.zeros((0, 3)), np.zeros((0, 3))), id="empty"),
    ])
    def test_shortcuts_and_identity(self, coeffs):
        got = schur._grid_sup(coeffs, DEFAULT_TOL)
        assert got == linear_scan_sup(coeffs, DEFAULT_TOL)


class TestSegmentRadius:
    def test_scalar_pair(self):
        assert segment_radius(sc(0.0), sc(0.5)) == pytest.approx(2.0, abs=1e-5)

    def test_constant_segment(self):
        t = sc(0.5)
        assert math.isinf(segment_radius(t, t))

    def test_part_pair_positive(self):
        r = segment_radius(J, JZ)
        assert 0 < r < math.inf
        # verify the endpoints of the certified disc stay contractive
        eps = r * 0.999
        assert op_norm((1 - eps) * J.mat + eps * JZ.mat) <= 1 + 1e-9

    def test_zero_for_inequivalent(self):
        assert segment_radius(sc(1.0), sc(0.5)) == 0.0


class TestConnectArc:
    def test_scalar_schwarz_pick(self):
        result = connect_arc(sc(0.0), sc(0.5))
        assert result.status == "connected"
        assert result.certificate.kobayashi_bound <= math.atanh(0.5) + 1e-6
        assert len(result.certificate.arcs) == 1

    def test_identical_pair_empty_chain(self):
        result = connect_arc(JZ, JZ)
        assert result.status == "connected"
        assert result.certificate.kobayashi_bound == 0.0

    def test_part_pair_connects(self):
        result = connect_arc(J, JZ)
        assert result.status == "connected"
        cert = result.certificate
        assert all(arc.is_schur_class() for arc, _ in cert.arcs)
        assert max(cert.endpoint_residuals) < 1e-8

    def test_inequivalent_pair_proven_disconnected(self):
        assert connect_arc(sc(1.0), sc(0.5)).status == "not_equivalent"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**5))
    def test_chain_endpoints_compose(self, seed):
        rng = np.random.default_rng(seed)
        a = scaled_contraction(seed, 2, float(rng.uniform(0.2, 0.85)))
        b = scaled_contraction(seed + 1, 2, float(rng.uniform(0.2, 0.85)))
        result = connect_arc(a, b)
        assert result.status == "connected"
        arcs = result.certificate.arcs
        current = a.mat
        for poly, lam in arcs:
            assert op_norm(poly.eval_at(0.0) - current) < 1e-8
            current = poly.eval_at(lam)
        assert op_norm(current - b.mat) < 1e-8


def arc_pair(kind, d, seed):
    """An equivalent pair of one of the four arc generators.

    eq-strict: two strict contractions of norm <= 0.85; eq-w-member: a
    partial isometry and a member U + Z of its part; eq-members: two such
    members; eq-ball: U + strict and a + D_{a*} X D_a.
    """
    rng = np.random.default_rng(seed)
    if kind == "eq-strict":
        return (generate(GenSpec(d, "strict", seed, {"norm_bound": 0.85})),
                generate(GenSpec(d, "strict", seed + 1, {"norm_bound": 0.85})))
    rank = 1 + seed % max(d - 1, 1)
    if kind == "eq-ball":
        a = generate(GenSpec(d, "direct_sum_U_plus_Q", seed,
                             {"unitary_dim": rank, "norm_bound": 0.6}))
        dd = defect_data(a)
        x = rng_matrix(seed + 2, d, d)
        x *= rng.uniform(0.1, 0.85) / op_norm(x)
        return a, make_contraction(a.mat + dd.d_tstar @ x @ dd.d_t)
    w = generate(GenSpec(d, "partial_isometry", seed, {"rank": rank}))
    part = partial_isometry_part(w)

    def member():
        k = part.null_in.dim
        z = rng_matrix(int(rng.integers(1 << 30)), k, k)
        z *= rng.uniform(0.1, 0.9) / op_norm(z)
        return make_contraction(w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T)

    return (w, member()) if kind == "eq-w-member" else (member(), member())


# dense circle samples per hop; fewer at large d keep the stack small
DENSE_SAMPLES = {16: 2048, 32: 512}


class TestProvenHops:
    """Every hop of a chain is certified inside the ball by its own bound."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["eq-strict", "eq-ball", "eq-members", "eq-w-member"])
    def test_hops_certified(self, kind, d):
        slack = DEFAULT_TOL.contraction_slack
        for seed in range(2):
            a, b = arc_pair(kind, d, 1000 * d + 10 * seed)
            result = connect_arc(a, b)
            assert result.status == "connected", (kind, d, seed)
            for arc, _lam in result.certificate.arcs:
                assert arc.method == "whitened"
                assert arc.sup_norm_estimate <= 1.0 + slack, (kind, d, seed)
                # the samples may exceed a bound of exactly 1 by SVD rounding
                dense = circle_samples(arc.coeffs, DENSE_SAMPLES.get(d, 16384)).max()
                assert dense <= arc.sup_norm_estimate + 1e-12, (kind, d, seed)

    def test_library_arcs_skip_the_grid(self, monkeypatch):
        # arcs the library builds carry the whitened bound that sized them
        def refuse(*args, **kwargs):
            raise AssertionError("_grid_sup called")

        monkeypatch.setattr(schur, "_grid_sup", refuse)
        for a, b in ((J, JZ), arc_pair("eq-strict", 3, 5)):
            assert connect_arc(a, b).status == "connected"
            assert math.isfinite(kobayashi_upper_bound(a, b))
        w, member = arc_pair("eq-w-member", 4, 7)
        (arc, _lam), = partial_isometry_arc(w, member).arcs
        assert arc.method == "whitened"
        assert arc.is_schur_class()

    def test_hop_uses_the_proven_radius(self):
        a, b = arc_pair("eq-strict", 3, 5)
        arc, _ = connect_arc(a, b).certificate.arcs[0]
        u = b.mat - a.mat
        s = op_norm(arc.coeffs[1]) / op_norm(u)
        assert s == pytest.approx((1.0 - schur.HOP_MARGIN) * proven_radius(a.mat, u), rel=1e-14)

    def test_psd_atol_reaches_the_hops(self):
        # P of the start has the eigenvalue 1e-9, a kernel direction under
        # psd_atol = 1e-8, where the 1e-9 leak of u shortens every hop
        a = make_contraction(np.diag([1.0 - 1e-9, 0.3]))
        b = make_contraction(np.diag([1.0, 0.8]))
        wide = Tolerances(psd_atol=1e-8)
        hops = {}
        for tol in (DEFAULT_TOL, wide):
            result = connect_arc(a, b, tol)
            assert result.status == "connected"
            for arc, _lam in result.certificate.arcs:
                assert arc.sup_norm_estimate <= 1.0 + tol.contraction_slack
            hops[tol.psd_atol] = len(result.certificate.arcs)
        assert hops[1e-8] > 4 * hops[DEFAULT_TOL.psd_atol]

    def test_decision_skips_the_audit(self, monkeypatch):
        # the segment route's radius search is never run for an arc
        def refuse(*args, **kwargs):
            raise AssertionError("radius_search called")

        monkeypatch.setattr(shmulyan, "radius_search", refuse)
        assert connect_arc(J, JZ).status == "connected"
        assert connect_arc(sc(1.0), sc(0.5)).status == "not_equivalent"


class TestPartialIsometryArc:
    def test_nilpotent_member(self):
        cert = partial_isometry_arc(J, JZ)
        assert cert.kobayashi_bound == pytest.approx(math.atanh(math.sqrt(0.5)))
        assert max(cert.endpoint_residuals) < 1e-10

    def test_self_is_trivial(self):
        cert = partial_isometry_arc(J, J)
        assert cert.kobayashi_bound == 0.0

    def test_boundary_block_rejected(self):
        with pytest.raises(NotMemberError):
            partial_isometry_arc(J, make_contraction([[0, 1], [1, 0]]))


class TestKobayashi:
    def test_scalar_upper_bound(self):
        assert kobayashi_upper_bound(sc(0.0), sc(0.5)) <= math.atanh(0.5) + 1e-6

    def test_identical(self):
        assert kobayashi_upper_bound(JZ, JZ) == 0.0

    def test_infinite_for_inequivalent(self):
        assert math.isinf(kobayashi_upper_bound(sc(1.0), sc(0.5)))

    def test_partial_isometry_uses_single_arc(self):
        bound = kobayashi_upper_bound(J, JZ)
        assert bound <= math.atanh(math.sqrt(0.5)) + 1e-9

    def test_roughly_symmetric(self):
        a = scaled_contraction(3, 2, 0.5)
        b = scaled_contraction(4, 2, 0.7)
        fwd = kobayashi_upper_bound(a, b)
        bwd = kobayashi_upper_bound(b, a)
        assert fwd <= 2 * bwd + 1e-9
        assert bwd <= 2 * fwd + 1e-9


class TestSchurPartMember:
    def test_identity_function_rejected_by_zero(self):
        f = schur_poly([np.zeros((1, 1)), np.eye(1)])
        verdict = schur_part_member(sc(0.0), f)
        assert not verdict.member
        assert verdict.sup_norm >= 1.0

    def test_defect_supported_perturbation_accepted(self):
        f = schur_poly([J.mat, 0.5 * np.array([[0, 0], [1, 0]], dtype=complex)])
        verdict = schur_part_member(J, f)
        assert verdict.member
        assert verdict.sup_norm == pytest.approx(0.5, abs=1e-3)

    def test_constant_symbol_accepted(self):
        assert schur_part_member(J, schur_poly([J.mat])).member

    def test_off_defect_coefficient_rejected(self):
        # perturbation touching the isometric block breaks the shape
        f = schur_poly([J.mat, 0.1 * np.array([[1, 0], [0, 0]], dtype=complex)])
        verdict = schur_part_member(J, f)
        assert not verdict.member
        assert verdict.residual > 1e-3

    def test_polynomials_with_values_in_a_part_factor_boundedly(self):
        # when every value of G on the circle stays inside the part of w,
        # G - w factors through the defects with a bounded symbol
        from contraction_lab import defect_data
        from contraction_lab.shmulyan import partial_isometry_part
        w = generate(GenSpec(dim=4, kind="partial_isometry", seed=6,
                             params={"rank": 2}))
        dd = defect_data(w)
        raw = [rng_matrix(60 + k, 2, 2) for k in range(3)]
        scale = 0.9 / schur_poly(raw).sup_norm_estimate
        coeffs = [w.mat + dd.defect_space_star.basis @ (raw[0] * scale)
                  @ dd.defect_space.basis.conj().T]
        coeffs += [dd.defect_space_star.basis @ (c * scale)
                   @ dd.defect_space.basis.conj().T for c in raw[1:]]
        g = schur_poly(coeffs)
        part = partial_isometry_part(w)
        grid = np.exp(2j * np.pi * np.arange(32) / 32)
        for z in grid:
            assert part.membership_test(make_contraction(g.eval_at(z))).member
        verdict = schur_part_member(w, g)
        assert verdict.member
        assert verdict.residual < 1e-10
        assert verdict.sup_norm < 1.0

    def test_strictness_boundary(self):
        w = generate(GenSpec(dim=3, kind="partial_isometry", seed=2,
                             params={"rank": 1}))
        from contraction_lab import defect_data
        dd = defect_data(w)
        raw = [rng_matrix(5 + k, dd.defect_space_star.dim, dd.defect_space.dim)
               for k in range(3)]
        base = schur_poly(raw).sup_norm_estimate
        for target, expect in ((0.999, True), (1.001, False)):
            coeffs = [w.mat + dd.defect_space_star.basis @ (raw[0] * target / base)
                      @ dd.defect_space.basis.conj().T]
            coeffs += [dd.defect_space_star.basis @ (c * target / base)
                       @ dd.defect_space.basis.conj().T for c in raw[1:]]
            assert schur_part_member(w, schur_poly(coeffs)).member is expect
