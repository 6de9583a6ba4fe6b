"""Segment radii: the proven radius, and the pruned search against the plain
bracket-and-bisection."""

import math

import numpy as np
import pytest

from contraction_lab import Contraction, defect_data, segments
from contraction_lab.corpus import random_unitary
from contraction_lab.linalg import Tolerances, op_norm
from contraction_lab.segments import (
    RADIUS_CAP,
    RADIUS_FLOOR,
    RADIUS_RTOL,
    circle_max_norm,
    proven_radius,
    radius_search,
)

from conftest import rng_matrix

SLACK = 1e-10
KINDS = ("strict", "flat", "norm-one", "unitary", "tiny", "outside")


def plain_radius_search(center, direction, slack, samples=128):
    """The search evaluating every sample at every radius it tries."""
    c = np.asarray(center, dtype=complex)
    u = np.asarray(direction, dtype=complex)
    limit = 1.0 + slack
    if op_norm(u) <= 1e-14 * max(1.0, op_norm(c)):
        return math.inf

    def g(r):
        return circle_max_norm(c, u, r, samples)

    if g(RADIUS_FLOOR) > limit:
        return 0.0
    lo = RADIUS_FLOOR
    hi = RADIUS_FLOOR
    while hi < RADIUS_CAP:
        nxt = hi * 4.0
        if g(nxt) > limit:
            lo, hi = hi, nxt
            break
        hi = nxt
    else:
        return math.inf
    for _ in range(80):
        if hi - lo <= RADIUS_RTOL * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if g(mid) <= limit:
            lo = mid
        else:
            hi = mid
    return lo


def _scaled(m, norm):
    return m * (norm / op_norm(m))


def _partial_isometry(d, rank, seed):
    """A rank-``rank`` partial isometry and the projections onto ker W*, ker W."""
    left = random_unitary(np.random.default_rng(seed), d)
    right = random_unitary(np.random.default_rng(seed + 1), d)
    ones = np.diag((np.arange(d) < rank).astype(complex))
    w = left @ ones @ right.conj().T
    return w, left @ (np.eye(d) - ones) @ left.conj().T, right @ (np.eye(d) - ones) @ right.conj().T


def _defect_supported(c, g):
    """D_{c*} g D_c: a direction that c dominates (c a contraction)."""
    left, s, right_h = np.linalg.svd(c)
    defect = np.sqrt(np.clip(1.0 - s ** 2, 0.0, None))
    return (left * defect) @ left.conj().T @ g @ (right_h.conj().T * defect) @ right_h


def segment_case(kind, d, seed):
    """(center, direction) of one of the six input kinds.

    Odd seeds of the norm-one, unitary and outside kinds take a generic
    direction, which leaves the ball at the floor; even seeds take one the
    center dominates, so the search runs.
    """
    rng = np.random.default_rng(seed)
    g = rng_matrix(seed + 7, d, d)
    generic = seed % 2 == 1
    if kind == "strict":
        return _scaled(rng_matrix(seed, d, d), rng.uniform(0.3, 0.95)), _scaled(g, rng.uniform(0.1, 3.0))
    if kind == "flat":
        # partial-isometry center, direction supported on the defects:
        # ||w + eps u|| = max(1, |eps| ||u||) stays flat at 1 for a while
        w, p_left, p_right = _partial_isometry(d, d // 2, seed)
        return w, _scaled(p_left @ g @ p_right, rng.uniform(0.5, 2.0)) if d > 1 else g
    if kind == "norm-one":
        c = _scaled(rng_matrix(seed, d, d), 1.0)
        return c, _scaled(g if generic or d == 1 else _defect_supported(c, g), rng.uniform(0.1, 3.0))
    if kind == "unitary":
        # a unitary, or U + strict with the direction on the strict block
        k = d if generic else (d + 1) // 2
        c = np.zeros((d, d), dtype=complex)
        c[:k, :k] = random_unitary(rng, k)
        c[k:, k:] = _scaled(rng_matrix(seed, d - k, d - k), 0.7) if k < d else 0.0
        u = g.copy()
        if not generic:
            u[:k, :] = 0.0
            u[:, :k] = 0.0
        return c, _scaled(u, rng.uniform(0.1, 3.0)) if u.any() else u
    if kind == "tiny":
        return (_scaled(rng_matrix(seed, d, d), rng.uniform(0.3, 0.95)),
                _scaled(g, 10.0 ** rng.uniform(-13.0, -7.0)))
    if kind == "outside":
        # just outside the ball; inside the slack when the excess is below it
        c = _scaled(rng_matrix(seed, d, d), 1.0)
        u = g if generic or d == 1 else _defect_supported(c, g)
        return c * (1.0 + 10.0 ** rng.uniform(-12.0, -8.0)), _scaled(u, rng.uniform(0.1, 3.0))
    raise ValueError(kind)


class TestSameDecisions:
    @pytest.mark.parametrize("samples", [128, 256])
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_plain_search(self, kind, d, samples):
        for seed in range(2):
            c, u = segment_case(kind, d, 100 * d + seed)
            want = plain_radius_search(c, u, SLACK, samples)
            got = radius_search(c, u, SLACK, samples)
            assert got == want or (math.isinf(got) and math.isinf(want)), (kind, d, seed)

    def test_every_exit_is_covered(self):
        exits = set()
        for kind in KINDS:
            for d in (1, 2, 4, 8):
                for seed in range(2):
                    r = radius_search(*segment_case(kind, d, 100 * d + seed), SLACK)
                    exits.add("floor" if r == 0.0 else "inf" if math.isinf(r) else "searched")
        assert exits == {"floor", "inf", "searched"}

    def test_zero_slack_flat_pair(self):
        # with no slack nothing on a flat stretch can be pruned
        c, u = segment_case("flat", 4, 3)
        assert radius_search(c, u, 0.0) == plain_radius_search(c, u, 0.0)

    def test_negligible_direction(self):
        c = np.eye(3, dtype=complex)
        assert radius_search(c, 1e-16 * c, SLACK) == math.inf


class TestWork:
    """The pruned search evaluates far fewer matrices than the plain one."""

    @staticmethod
    def matrices(monkeypatch, search, c, u):
        count = [0]
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            # circle samples come in stacks; a 2-d SVD is the op_norm of
            # the center or the direction, taken once per search
            if np.ndim(a) > 2:
                count[0] += math.prod(np.shape(a)[:-2])
            return svd(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", counting)
            base = count[0]
            result = search(c, u, SLACK, 128)
        return result, count[0] - base

    def ratio(self, monkeypatch, c, u):
        want, plain = self.matrices(monkeypatch, plain_radius_search, c, u)
        got, pruned = self.matrices(monkeypatch, radius_search, c, u)
        assert got == want
        return pruned, plain

    def test_flat_pair(self, monkeypatch):
        pruned, plain = self.ratio(monkeypatch, *segment_case("flat", 8, 11))
        assert pruned <= plain / 2

    def test_strict_pair(self, monkeypatch):
        pruned, plain = self.ratio(monkeypatch, *segment_case("strict", 8, 11))
        assert pruned <= plain / 4

    def test_not_dominated_pair(self, monkeypatch):
        w, _, _ = _partial_isometry(8, 4, 11)
        pruned, plain = self.ratio(monkeypatch, w, rng_matrix(5, 8, 8))
        assert plain >= 128
        assert pruned <= 8

    def test_margin_is_positive(self):
        assert 0.0 < segments.PRUNE_MARGIN < SLACK


def radius_class(r):
    return "none" if r == 0.0 else "unbounded" if math.isinf(r) else "finite"


class TestProvenRadius:
    """The whitened numerical radius gives a disc that provably stays inside."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("kind", ["strict", "flat", "unitary", "norm-one"])
    def test_circle_stays_inside(self, kind, d):
        # strict pairs, partial-isometry members (flat) and, at even seeds,
        # U + strict ball members and norm-one centers with a direction on
        # their defects
        for seed in (0, 2):
            c, u = segment_case(kind, d, 100 * d + seed)
            r = proven_radius(c, u)
            if (kind, d, seed) == ("norm-one", 3, 0):
                # the clipped defect leaves a leak of 6e-8, above the cut
                assert r == 0.0
                continue
            assert 0.0 < r < math.inf, (kind, d, seed)
            assert circle_max_norm(c, u, r, 16384) <= 1.0 + 1e-12, (kind, d, seed)
            # and it is tight: the grid bound is within 7.5e-5 of the radius
            assert circle_max_norm(c, u, 1.001 * r, 16384) > 1.0, (kind, d, seed)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (2, 5)])
    def test_zero_center(self, rows, cols):
        u = rng_matrix(rows * cols, rows, cols)
        r = proven_radius(np.zeros((rows, cols)), u)
        assert r == pytest.approx(1.0 / op_norm(u), rel=1e-12)

    def test_scalar_pair_is_exact(self):
        # A^2 = 0, so Kittaneh's bound is the numerical radius itself
        assert proven_radius([[0.0]], [[0.5]]) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_call_as_the_search(self, kind, d):
        for seed in range(2):
            c, u = segment_case(kind, d, 100 * d + seed)
            proven, sampled = proven_radius(c, u), radius_search(c, u, SLACK)
            assert radius_class(proven) == radius_class(sampled), (kind, d, seed)
            if radius_class(proven) == "finite":
                # the search's radius can only overshoot the true one
                assert proven <= sampled * (1.0 + 2 * RADIUS_RTOL), (kind, d, seed)

    def test_small_leak_is_charged_to_the_slack(self):
        # (e1, e1) is the kernel pair of c, and u leaks 1e-9 onto it: the
        # disc of the range alone (radius 0.7) reaches 1 + 7e-10
        c = np.diag([1.0, 0.3]).astype(complex)
        u = np.diag([1e-9, 1.0]).astype(complex)
        r = proven_radius(c, u)
        assert r == pytest.approx(SLACK / (4e-9 / math.sqrt(2)), rel=1e-12)
        assert circle_max_norm(c, u, r, 16384) <= 1.0 + SLACK
        assert circle_max_norm(c, u, 0.7 * (1.0 - 1e-6), 16384) > 1.0 + SLACK

    def test_kernel_cut_follows_psd_atol(self):
        # P has the eigenvalue 1e-9: range under the default psd_atol, where
        # the disc is exact, and kernel under 1e-8, where u leaks 1e-9
        c = np.diag([1.0 - 1e-9, 0.3]).astype(complex)
        u = np.diag([1e-9, 1.0]).astype(complex)
        assert proven_radius(c, u) == pytest.approx(0.7, rel=1e-4)
        wide = proven_radius(c, u, Tolerances(psd_atol=1e-8))
        assert wide == pytest.approx(SLACK / (4e-9 / math.sqrt(2)), rel=1e-6)
        assert circle_max_norm(c, u, wide, 16384) <= 1.0 + SLACK

    def test_leak_and_outside_center(self):
        w, _, _ = _partial_isometry(4, 2, 3)
        assert proven_radius(w, rng_matrix(9, 4, 4)) == 0.0
        assert proven_radius(1.001 * np.eye(2), 0.1 * np.eye(2)) == 0.0
        assert proven_radius(0.5 * np.eye(3), np.zeros((3, 3))) == math.inf


def reference_whitened_disc(center, direction, psd_atol):
    """The disc from one eigh of P = [[I, c], [c*, I]], cut at psd_atol on
    its eigenvalues, as computed before the singular-pair form."""
    c = np.asarray(center, dtype=complex)
    u = np.asarray(direction, dtype=complex)
    m, n = c.shape
    p = np.eye(m + n, dtype=complex)
    p[:m, m:] = c
    p[m:, :m] = c.conj().T
    w, v = np.linalg.eigh(p)
    overshoot = max(0.0, -float(w[0]))
    keep = w > psd_atol
    ker = v[:, ~keep]
    leak = max(op_norm(u @ ker[m:]), op_norm(u.conj().T @ ker[:m]))
    if overshoot > psd_atol or leak > segments.LEAK_RTOL * max(1.0, op_norm(u)):
        return math.inf, overshoot, leak
    half = v[:, keep] / np.sqrt(w[keep])
    a = half[:m].conj().T @ u @ half[m:]
    a_norm = op_norm(a)
    if a_norm == 0.0:
        return 0.0, overshoot, leak
    theta = segments.unit_circle(segments.RADIUS_ANGLES)[0][: segments.RADIUS_ANGLES // 2]
    stack = np.multiply.outer(np.cos(theta), 0.5 * (a + a.conj().T))
    stack += np.multiply.outer(np.sin(theta), 0.5j * (a - a.conj().T))
    ev = np.linalg.eigvalsh(stack)
    grid = max(ev[:, -1].max(), -ev[:, 0].min()) / math.cos(math.pi / segments.RADIUS_ANGLES)
    kittaneh = 0.5 * (a_norm + math.sqrt(op_norm(a @ a)))
    omega = 2.0 * float(min(grid, kittaneh) + 4.0 * a.shape[0] * np.finfo(float).eps * a_norm)
    return omega, overshoot, leak


def _rectangular_center(kind, rows, cols, seed):
    """A norm-one or partial-isometry center of the given shape."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    s = np.concatenate([[1.0], rng.uniform(0.0, 0.9, k - 1)]) if kind == "norm-one" \
        else (np.arange(k) < (k + 1) // 2).astype(float)
    return random_unitary(rng, rows)[:, :k] @ np.diag(s) @ random_unitary(rng, cols)[:k]


def disc_cases():
    """(label, center, direction) over the segment kinds, rectangular
    centers, and directions that leak about 0.5 and 2 times LEAK_RTOL."""
    for kind in KINDS:
        for d in (1, 2, 3, 4, 8):
            for seed in range(4):
                yield f"{kind}-{d}-{seed}", *segment_case(kind, d, 100 * d + seed)
    yield "norm-one-3-300", *segment_case("norm-one", 3, 300)
    for rows, cols in ((3, 5), (5, 3), (4, 4)):
        for kind in ("norm-one", "partial-isometry"):
            for seed in range(3):
                c = _rectangular_center(kind, rows, cols, 10 * rows + seed)
                g = rng_matrix(seed, rows, cols)
                dd = defect_data(Contraction(c))
                dom = _scaled(dd.d_tstar @ g @ dd.d_t, 0.5)
                label = f"{kind}-{rows}x{cols}-{seed}"
                yield label + "-generic", c, _scaled(g, 0.5)
                yield label + "-dominated", c, dom
                left, s, right_h = np.linalg.svd(c)
                for factor in (0.5, 2.0):
                    planted = factor * segments.LEAK_RTOL
                    side = np.outer(left[:, 1 % rows], right_h[0]) if seed % 2 \
                        else np.outer(left[:, 0], right_h[1 % cols])
                    yield f"{label}-leak-{factor}", c, dom + planted * side


class TestSingularDisc:
    """The disc from one SVD of the center, against one eigh of P."""

    @pytest.mark.parametrize("label, c, u", [pytest.param(*case, id=case[0])
                                             for case in disc_cases()])
    def test_matches_eigh_of_p(self, label, c, u):
        want = reference_whitened_disc(c, u, 1e-10)
        got = segments._whitened_disc(c, u)
        assert math.isinf(got[0]) == math.isinf(want[0])
        if not math.isinf(want[0]):
            assert got[0] == pytest.approx(want[0], rel=1e-6, abs=1e-300)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        assert got[2] == pytest.approx(want[2], abs=1e-12)

    def test_no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        c, u = segment_case("flat", 8, 800)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        omega, _, _ = segments._whitened_disc(c, u)
        assert 0.0 < omega < math.inf
