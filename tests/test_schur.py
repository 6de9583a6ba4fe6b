"""Schur polynomials, certified sup-norms, arcs, and function parts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import (
    connect_arc,
    make_contraction,
    schur_part_member,
    schur_poly,
    shmulyan_dominates,
    shmulyan_equivalent,
)
from contraction_lab import defect_data, schur, shmulyan
from contraction_lab.corpus import GenSpec, generate, random_unitary
from contraction_lab.linalg import DEFAULT_TOL, Tolerances, op_norm
from contraction_lab.segments import (
    LEAK_RTOL,
    circle_max_norm,
    poly_norms,
    poly_value,
    unit_circle,
)
from contraction_lab.shmulyan import partial_isometry_part

from conftest import rng_matrix, scaled_contraction
from linalg_reference import psd_sqrt

J = make_contraction([[0, 1], [0, 0]])
JZ = make_contraction([[0, 1], [0.5, 0]])


def sc(x):
    return make_contraction([[x]])


def kobayashi_bound(a, b):
    """The Kobayashi bound of the certificate of connect_arc(a, b);
    math.inf when it does not connect the pair."""
    result = connect_arc(a, b)
    return result.certificate.kobayashi_bound if result.status == "connected" else math.inf


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
# w + lam^2 Z: flat too, and of degree 2, so the whitened bound does not apply
FLAT_ARC2 = (FLAT_ARC[0], np.zeros((2, 2), dtype=complex), FLAT_ARC[1])
# lam^2 diag(1, 0.5): flat, of degree 2 and with c0 = 0, so only the grid
# certifies it
FLAT_SQUARE = (np.zeros((2, 2), dtype=complex),) * 2 + (np.diag([1.0, 0.5]).astype(complex),)


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
        # lam^2 diag(1, 0.5) is flat on the circle and keeps a gap after
        # SPLIT_BUDGET splits (c0 = 0 has no chart block); a converged bound
        # keeps the plain label
        flat = schur_poly(FLAT_SQUARE)
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
        # lam U, U unitary: the grid alone spends its budget on this arc and
        # stays above 1; the whitened numerical radius proves sup = 1, as it
        # does for FLAT_ARC
        coeffs = (np.zeros((3, 3), dtype=complex), random_unitary(np.random.default_rng(4), 3))
        flat = schur_poly(coeffs)
        assert flat.method == "whitened"
        assert 1.0 <= flat.sup_norm_estimate <= 1.0 + 1e-12
        assert schur._grid_sup(coeffs, DEFAULT_TOL)[0] - 1.0 > schur.SUP_GAP
        assert 1.0 <= schur._whitened_sup(FLAT_ARC, DEFAULT_TOL) <= 1.0 + 1e-12

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


def rotated_chart_poly(seed, rows, cols, flat, degree, g_scale, leak=0.0, top=1.0):
    """U (top I_flat (+) G) V* + leak terms, U and V Haar unitaries.

    G is a random polynomial with sum_k ||g_k|| = g_scale, so its sup is at
    most g_scale; ``leak`` adds lam K_out E and lam E K_in* of norm ``leak``
    on the isometric block's bases K (columns of U and V).
    """
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, rows), random_unitary(rng, cols)
    raw = [rng_matrix(seed + 1 + k, rows - flat, cols - flat) for k in range(degree + 1)]
    total = sum(op_norm(g) for g in raw)
    coeffs = []
    for k, g in enumerate(raw):
        block = np.zeros((rows, cols), dtype=complex)
        block[flat:, flat:] = g * (g_scale / total)
        if k == 0:
            block[np.arange(flat), np.arange(flat)] = top
        coeffs.append(u @ block @ v.conj().T)
    if leak:
        e_out = rng_matrix(seed + 50, flat, cols)
        e_in = rng_matrix(seed + 51, rows, flat)
        coeffs[1] = coeffs[1] + leak * (u[:, :flat] @ (e_out / op_norm(e_out))
                                        + (e_in / op_norm(e_in)) @ v[:, :flat].conj().T)
    return coeffs


class TestChartSplit:
    """schur._certified_sup splits off the isometric block of c0 before the grid."""

    @pytest.mark.parametrize("rows, cols, flat, degree", [
        (3, 3, 1, 1), (4, 4, 2, 2), (5, 5, 1, 3), (3, 5, 1, 2), (5, 3, 2, 1), (4, 6, 1, 3),
    ])
    @pytest.mark.parametrize("g_scale", [0.9, 1.3])
    def test_bound_dominates_dense_samples(self, rows, cols, flat, degree, g_scale):
        coeffs = rotated_chart_poly(rows + 10 * cols + degree, rows, cols, flat, degree, g_scale)
        f = schur_poly(coeffs)
        assert f.method == "chart"
        dense = circle_samples(f.coeffs, 16384).max()
        assert dense <= f.sup_norm_estimate
        if g_scale < 1.0:  # the flat block is the maximum
            assert f.sup_norm_estimate <= 1.0 + 1e-12
        else:  # within the grid's gap of the dense maximum
            assert f.sup_norm_estimate <= dense * (1.0 + 1e-6)

    def test_small_leak_is_charged(self):
        # a 1e-10 leak onto the flat block lifts the circle above 1; the
        # split charges it and the bound stays above the dense maximum
        coeffs = (np.diag([1.0, 0.3]).astype(complex), np.diag([1e-10, 0.5]).astype(complex))
        f = schur_poly(coeffs)
        assert f.method == "chart"
        dense = circle_samples(coeffs, 16384).max()
        assert dense > 1.0 + 5e-11
        assert dense <= f.sup_norm_estimate <= 1.0 + 3e-10
        rotated = rotated_chart_poly(3, 4, 4, 2, 2, 0.8, leak=1e-10)
        f = schur_poly(rotated)
        assert f.method == "chart"
        assert circle_samples(f.coeffs, 16384).max() <= f.sup_norm_estimate

    def test_leak_above_the_threshold_takes_the_grid(self):
        coeffs = rotated_chart_poly(4, 3, 3, 1, 2, 0.8, leak=1e-6)
        assert schur._chart_split(coeffs, DEFAULT_TOL) is None
        f = schur_poly(coeffs)
        assert f.method in ("grid", "grid-budget")
        assert circle_samples(f.coeffs, 16384).max() <= f.sup_norm_estimate

    @pytest.mark.parametrize("delta, clamped", [
        (-6e-11, False), (-5e-11, None), (-4e-11, True), (4e-11, True), (5e-11, None), (6e-11, False),
    ])
    def test_singular_value_near_one(self, delta, clamped):
        # the split takes the pair exactly when linalg._defect_roots clamps
        # its root, |1 - s^2| <= psd_atol; at s = 1 +- 5e-11 rounding decides
        s = 1.0 + delta
        if clamped is None:
            clamped = abs((1.0 - s) * (1.0 + s)) <= DEFAULT_TOL.psd_atol
        coeffs = (np.diag([s, 0.3]).astype(complex),
                  np.diag([0.0, 0.4]).astype(complex), np.diag([0.0, 0.2]).astype(complex))
        f = schur_poly(coeffs)
        assert (f.method == "chart") == clamped
        assert circle_samples(coeffs, 16384).max() <= f.sup_norm_estimate
        if clamped:
            assert f.sup_norm_estimate <= max(s, 1.0) + 1e-12

    def test_flat_degree_two_arc(self):
        # FLAT_ARC2 = w + lam^2 Z: the split leaves G = 0.5 lam^2, whose grid
        # stops as soon as its bound is below the flat block's 1
        f = schur_poly(FLAT_ARC2)
        assert f.method == "chart"
        assert 1.0 <= f.sup_norm_estimate <= 1.0 + 1e-12

    def test_floor_stops_the_grid(self):
        # G = 0.5 lam^2 spends the budget on its own; under a floor of 1 it
        # stops at once, with the same valid bound of its grid
        rest = (np.zeros((1, 1), dtype=complex),) * 2 + (np.full((1, 1), 0.5 + 0j),)
        assert schur._grid_sup(rest, DEFAULT_TOL)[1] == "grid-budget"
        bound, method = schur._grid_sup(rest, DEFAULT_TOL, floor=1.0)
        assert method == "grid"
        assert 0.5 <= bound < 1.0


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
    """The segment radius of a to b is the radius of the verdict "b is
    dominated by a"."""

    def test_scalar_pair(self):
        assert shmulyan_dominates(sc(0.5), sc(0.0)).radius == pytest.approx(2.0, abs=1e-5)

    def test_constant_segment(self):
        t = sc(0.5)
        assert math.isinf(shmulyan_dominates(t, t).radius)

    def test_part_pair_positive(self):
        r = shmulyan_dominates(JZ, J).radius
        assert 0 < r < math.inf
        # verify the endpoints of the certified disc stay contractive
        eps = r * 0.999
        assert op_norm((1 - eps) * J.mat + eps * JZ.mat) <= 1 + 1e-9

    def test_zero_for_inequivalent(self):
        assert shmulyan_dominates(sc(0.5), sc(1.0)).radius == 0.0


class TestConnectArc:
    def test_scalar_schwarz_pick(self):
        result = connect_arc(sc(0.0), sc(0.5))
        assert result.status == "connected"
        # the exact distance, raised only by the margin of the arc's check
        assert result.certificate.kobayashi_bound == pytest.approx(math.atanh(0.5), abs=1e-13)
        assert result.certificate.kobayashi_bound >= math.atanh(0.5)
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


# dense circle samples per arc; fewer at large d keep the stack small
DENSE_SAMPLES = {16: 2048, 32: 512}


def mobius_distance(a, b):
    """atanh ||phi_T(T')|| of two strict contractions, from eigh square roots."""
    t, tp = a.mat, b.mat
    eye = np.eye(t.shape[0])
    x = (np.linalg.inv(psd_sqrt(eye - t @ t.conj().T)) @ (tp - t)
         @ np.linalg.inv(eye - t.conj().T @ tp) @ psd_sqrt(eye - t.conj().T @ t))
    return math.atanh(op_norm(x))


def mobius_samples(arc, lam):
    """||F(lam)|| on a stack of points, F = t + K_out (phi_{-Z}(lam V) - Z) K_in*
    evaluated by the defining formula D_{Z*}^{-1} (Y + Z) (I + Z*Y)^{-1} D_Z,
    after the pivot's disc automorphism when the arc runs backwards."""
    if arc.pivot is not None:
        lam = (arc.pivot - lam) / (1.0 - arc.pivot * lam)
    q, p = arc.v.shape
    z = np.zeros((q, p))
    z[np.arange(arc.z.size), np.arange(arc.z.size)] = arc.z
    y = lam[:, None, None] * arc.v
    m = np.linalg.solve(np.swapaxes(np.eye(p) + z.T @ y, 1, 2),
                        np.swapaxes(y + z, 1, 2))
    m = np.swapaxes(m, 1, 2) * arc.root_in / arc.root_out[:, None]
    values = arc.base + arc.k_out @ (m - z) @ arc.k_in.conj().T
    return np.linalg.svd(values, compute_uv=False)[:, 0]


class TestMobiusArc:
    """connect_arc joins equivalent pairs by one certified Moebius arc."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["eq-strict", "eq-ball", "eq-members", "eq-w-member"])
    def test_arc_certified(self, kind, d):
        slack = DEFAULT_TOL.contraction_slack
        samples = DENSE_SAMPLES.get(d, 16384)
        lam = (1.0 - 1e-6) * np.exp(2j * np.pi * np.arange(samples) / samples)
        for seed in range(2):
            a, b = arc_pair(kind, d, 1000 * d + 10 * seed)
            result = connect_arc(a, b)
            assert result.status == "connected", (kind, d, seed)
            cert = result.certificate
            (arc, lam0), = cert.arcs
            assert arc.method == "mobius"
            assert arc.sup_norm_estimate <= 1.0 + slack, (kind, d, seed)
            dense = mobius_samples(arc, lam).max()
            assert dense <= arc.sup_norm_estimate, (kind, d, seed)
            assert max(cert.endpoint_residuals) <= LEAK_RTOL
            assert cert.kobayashi_bound == math.atanh(lam0.real)
            if kind == "eq-strict":
                assert cert.kobayashi_bound == pytest.approx(mobius_distance(a, b), abs=1e-12)

    def test_library_form_matches_the_definition(self):
        # eval_at reads the chart term as D_{Z*} Y (I + Z*Y)^{-1} D_Z
        for kind in ("eq-strict", "eq-ball", "eq-members"):
            a, b = arc_pair(kind, 4, 11)
            (arc, lam0), = connect_arc(a, b).certificate.arcs
            for lam in (0.0, 0.5j, lam0, -0.9 + 0.1j):
                got = op_norm(arc.eval_at(lam))
                assert got == pytest.approx(mobius_samples(arc, np.array([lam]))[0], abs=1e-13)

    def test_arcs_skip_the_grid_and_the_disc(self, monkeypatch):
        # neither the circle grid nor the whitened numerical radius runs
        def refuse(*args, **kwargs):
            raise AssertionError("grid or disc called")

        monkeypatch.setattr(schur, "_grid_sup", refuse)
        monkeypatch.setattr(schur, "_whitened_sup", refuse)
        for a, b in ((J, JZ), arc_pair("eq-strict", 3, 5), arc_pair("eq-w-member", 4, 7)):
            assert connect_arc(a, b).status == "connected"
            assert math.isfinite(connect_arc(a, b).certificate.kobayashi_bound)

    def test_perturbed_direction_fails_the_certificate(self, monkeypatch):
        # a negative margin scales V to norm 1 + 1e-6: I - V*V is not >= 0
        a, b = arc_pair("eq-strict", 3, 5)
        (arc, _lam), = connect_arc(a, b).certificate.arcs
        assert 1.0 - 1e-13 <= op_norm(arc.v) < 1.0
        monkeypatch.setattr(schur, "MOBIUS_MARGIN", -1e-6 / (1.0 + 1e-6))
        result = connect_arc(a, b)
        assert result.status == "budget_exhausted" and result.certificate is None

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_rectangular_pairs_connect(self, shape):
        rows, cols = shape
        for seed in range(3):
            a = make_contraction(0.7 * rng_matrix(seed, rows, cols)
                                 / op_norm(rng_matrix(seed, rows, cols)))
            dd = defect_data(a)
            x = rng_matrix(seed + 50, rows, cols)
            b = make_contraction(a.mat + dd.d_tstar @ (0.6 * x / op_norm(x)) @ dd.d_t)
            result = connect_arc(a, b)
            assert result.status == "connected"
            (arc, lam), = result.certificate.arcs
            assert arc.shape == shape
            assert op_norm(arc.eval_at(lam) - b.mat) <= 1e-13

    def test_psd_atol_moves_e1_into_w(self):
        # s = 1 - 1e-9 has 1 - s^2 = 2e-9: a kernel direction under psd_atol
        # = 1e-8, so e1 sits in the W block and the 1e-9 gap of b is left
        # as the endpoint residual
        a = make_contraction(np.diag([1.0 - 1e-9, 0.3]))
        b = make_contraction(np.diag([1.0, 0.8]))
        wide = Tolerances(psd_atol=1e-8)
        cert = connect_arc(a, b, wide).certificate
        (arc, _lam), = cert.arcs
        assert arc.z.size == 1 and arc.v.shape == (1, 1) and arc.pivot is None
        assert cert.endpoint_residuals[1] == pytest.approx(1e-9, rel=1e-6)
        assert cert.kobayashi_bound == pytest.approx(
            math.atanh((0.8 - 0.3) / (1.0 - 0.24)), abs=1e-12)

    def test_boundary_end_runs_the_arc_backwards(self):
        # under the default psd_atol e1 stays in the chart of a, where b's
        # norm-one entry is on the boundary of the chart ball; in the chart
        # of b it is in the W block, and that arc is run backwards
        a = make_contraction(np.diag([1.0 - 1e-9, 0.3]))
        b = make_contraction(np.diag([1.0, 0.8]))
        result = connect_arc(a, b)
        assert result.status == "connected"
        cert = result.certificate
        (arc, lam), = cert.arcs
        assert arc.pivot == lam.real and arc.base is b.mat
        assert arc.sup_norm_estimate <= 1.0 + DEFAULT_TOL.contraction_slack
        assert cert.endpoint_residuals[0] == pytest.approx(1e-9, rel=1e-6)
        assert cert.endpoint_residuals[1] == 0.0
        assert op_norm(arc.eval_at(0.0) - a.mat) == cert.endpoint_residuals[0]
        assert np.array_equal(arc.eval_at(lam), b.mat)
        assert cert.kobayashi_bound == pytest.approx(
            math.atanh((0.8 - 0.3) / (1.0 - 0.24)), abs=1e-12)
        dense = mobius_samples(arc, (1.0 - 1e-6) * unit_circle(4096)[1]).max()
        assert dense <= arc.sup_norm_estimate

    def test_endpoint_tolerance_is_the_decision_leak_bound(self):
        # the leak 1.5e-8 of b onto ker D_a is under the decision's bound
        # 1e-8 ||b - a|| = 1.9e-8, and stays as an endpoint residual above 1e-8
        a = make_contraction(np.diag([1.0, 0.95]))
        b = make_contraction(np.diag([1.0 - 1.5e-8, -0.95]))
        assert shmulyan_equivalent(a, b).equivalent
        result = connect_arc(a, b)
        assert result.status == "connected"
        residual = result.certificate.endpoint_residuals[1]
        assert LEAK_RTOL < residual == pytest.approx(1.5e-8, rel=1e-6)

    def test_decision_skips_the_audit(self, monkeypatch):
        # the segment route's radius search is never run for an arc
        def refuse(*args, **kwargs):
            raise AssertionError("radius_search called")

        monkeypatch.setattr(shmulyan, "radius_search", refuse)
        assert connect_arc(J, JZ).status == "connected"
        assert connect_arc(sc(1.0), sc(0.5)).status == "not_equivalent"


class TestKobayashi:
    """The Kobayashi bound of the certificate of connect_arc."""

    def test_scalar_upper_bound(self):
        assert kobayashi_bound(sc(0.0), sc(0.5)) <= math.atanh(0.5) + 1e-6

    def test_identical(self):
        assert kobayashi_bound(JZ, JZ) == 0.0

    def test_infinite_for_inequivalent(self):
        result = connect_arc(sc(1.0), sc(0.5))
        assert result.status == "not_equivalent" and result.certificate is None
        assert math.isinf(kobayashi_bound(sc(1.0), sc(0.5)))

    def test_partial_isometry_part_distance(self):
        # JZ is J plus the block 0.5 on the defect spaces of J
        assert kobayashi_bound(J, JZ) == pytest.approx(math.atanh(0.5), abs=1e-13)

    def test_symmetric(self):
        a = scaled_contraction(3, 2, 0.5)
        b = scaled_contraction(4, 2, 0.7)
        assert kobayashi_bound(a, b) == pytest.approx(kobayashi_bound(b, a), abs=1e-12)


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
