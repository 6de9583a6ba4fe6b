"""The pruned segment radius search against the plain bracket-and-bisection."""

import math

import numpy as np
import pytest

from contraction_lab import segments
from contraction_lab.corpus import random_unitary
from contraction_lab.linalg import op_norm
from contraction_lab.segments import (
    RADIUS_CAP,
    RADIUS_FLOOR,
    RADIUS_RTOL,
    circle_max_norm,
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
