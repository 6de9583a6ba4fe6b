"""Shmul'yan domination routes, parts, and the structured criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from contraction_lab import (
    Contraction,
    classify,
    connect_arc,
    defect_data,
    harnack_equivalence,
    make_contraction,
    nearest_part_partial_isometry,
    schur_part_member,
    schur_poly,
    shmulyan_dominates,
    shmulyan_equivalent,
)
from contraction_lab.contraction import _factored
from contraction_lab.corpus import GenSpec, generate, random_unitary
from contraction_lab.harnack import NOT_DOMINATED, harnack_dominates
from contraction_lab import segments, shmulyan, suites
from contraction_lab.linalg import DEFAULT_TOL, Tolerances, op_norm, range_of
from contraction_lab.segments import proven_radius
from contraction_lab.shmulyan import (
    IncompatibleSplitsError,
    NotQuasiIsometryError,
    column_criterion,
    corner_norm_criterion,
    partial_isometry_part,
    pure_corner_conditions,
    quasi_isometry_criterion,
)

from conftest import rng_matrix, scaled_contraction, square_contractions
from linalg_reference import kernel_of, rank_of
from test_harnack import b_eps
from test_segments import segment_case

J = make_contraction([[0, 1], [0, 0]])
JZ = make_contraction([[0, 1], [0.5, 0]])


def direct_sum(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=complex)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


class TestDominates:
    def test_scalar_with_strict_dominator(self):
        v = shmulyan_dominates(make_contraction([[0.3]]), make_contraction([[0.0]]))
        assert v.dominates
        assert v.x_solution[0, 0] == pytest.approx(0.3)
        assert all(v.route_agreement.values())

    def test_boundary_dominator_rejects(self):
        v = shmulyan_dominates(make_contraction([[0.5]]), make_contraction([[1.0]]))
        assert not v.dominates
        assert not any(v.route_agreement.values())
        assert v.witness is not None

    def test_partial_isometry_form(self):
        v = shmulyan_dominates(JZ, J)
        assert v.dominates
        assert all(v.route_agreement.values())

    def test_solution_residual(self):
        a = scaled_contraction(3, 3, 0.7)
        b = scaled_contraction(4, 3, 0.6)
        v = shmulyan_dominates(b, a)
        assert v.dominates
        dd = defect_data(a)
        resid = op_norm(b.mat - a.mat - dd.d_tstar @ v.x_solution @ dd.d_t)
        assert resid < 1e-8

    def test_rectangular_shapes(self):
        a = make_contraction(0.5 * rng_matrix(5, 2, 3) / op_norm(rng_matrix(5, 2, 3)))
        b = make_contraction(0.5 * rng_matrix(6, 2, 3) / op_norm(rng_matrix(6, 2, 3)))
        v = shmulyan_dominates(b, a)
        assert v.dominates
        assert all(v.route_agreement.values())


class TestDecisionAlone:
    """The defect-factor decision used by connect_arc, without the audit."""

    def test_criterion_7_pairs(self, monkeypatch):
        from contraction_lab import shmulyan, suites

        pairs = [(a, b) for _, _, a, b in suites.arc_connectivity_pairs(30)]
        verdicts = [(shmulyan_dominates(b, a), shmulyan_dominates(a, b)) for a, b in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("radius_search called for the decision alone")

        monkeypatch.setattr(shmulyan, "radius_search", refuse)
        for (a, b), (fwd, bwd) in zip(pairs, verdicts):
            assert shmulyan._factor_dominates(b, a, DEFAULT_TOL) == fwd.dominates
            assert shmulyan._factor_dominates(a, b, DEFAULT_TOL) == bwd.dominates
        assert {fwd.dominates and bwd.dominates for fwd, bwd in verdicts} == {True, False}


class TestWitness:
    def test_witness_owns_its_data(self):
        # a row view of the SVD's vh would keep the whole d x d matrix alive
        a = generate(GenSpec(dim=6, kind="partial_isometry", seed=3, params={"rank": 3}))
        b = make_contraction(0.5 * rng_matrix(8, 6, 6) / op_norm(rng_matrix(8, 6, 6)))
        v = shmulyan_dominates(b, a)
        assert not v.dominates
        assert v.witness.base is None and v.witness.flags.owndata
        # the same floats as the first column of vh*
        dd = defect_data(a)
        x = dd.d_tstar_pinv @ (b.mat - a.mat) @ dd.d_t_pinv
        _, _, vh = np.linalg.svd(b.mat - a.mat - dd.d_tstar @ x @ dd.d_t)
        assert np.array_equal(v.witness, vh.conj().T[:, 0])


class TestEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(square_contractions(max_norm=0.9), square_contractions(max_norm=0.9))
    def test_strict_pairs_equivalent(self, a, b):
        if a.shape != b.shape:
            return
        assert shmulyan_equivalent(a, b).equivalent

    def test_unitary_pair(self):
        u = make_contraction(random_unitary(np.random.default_rng(0), 3))
        eq = shmulyan_equivalent(u, u)
        assert eq.equivalent
        assert op_norm(eq.a_dominates_b.x_solution) < 1e-9

    def test_boundary_diagonal_cases(self):
        a = make_contraction(np.diag([1.0, 0.2]))
        b = make_contraction(np.diag([1.0, 0.7]))
        c = make_contraction(np.diag([0.9, 0.2]))
        assert shmulyan_equivalent(a, b).equivalent
        # D_a kills e1 while c - a does not
        assert not shmulyan_dominates(c, a).dominates
        assert not shmulyan_equivalent(a, c).equivalent

    def test_mixed_factors(self):
        a = scaled_contraction(8, 3, 0.8)
        b = scaled_contraction(9, 3, 0.7)
        eq = shmulyan_equivalent(a, b)
        assert eq.equivalent
        dd_a, dd_b = defect_data(a), defect_data(b)
        r1 = op_norm(b.mat - a.mat - dd_b.d_tstar @ eq.x_tilde @ dd_a.d_t)
        r2 = op_norm(np.eye(3) - a.mat.conj().T @ b.mat
                     - dd_a.d_t @ eq.y_tilde @ dd_b.d_t)
        assert r1 < 1e-8 and r2 < 1e-8

    @settings(max_examples=15, deadline=None)
    @given(square_contractions(max_norm=0.85), square_contractions(max_norm=0.85))
    def test_equivalence_forces_equal_defect_ranks(self, a, b):
        if a.shape != b.shape:
            return
        if shmulyan_equivalent(a, b).equivalent:
            assert rank_of(defect_data(a).d_t) == rank_of(defect_data(b).d_t)
            assert rank_of(defect_data(a).d_tstar) == rank_of(defect_data(b).d_tstar)

    def test_equivalence_implies_harnack_not_rejected(self):
        a = scaled_contraction(31, 2, 0.6)
        b = scaled_contraction(32, 2, 0.8)
        assert shmulyan_equivalent(a, b).equivalent
        assert harnack_dominates(a, b).status != NOT_DOMINATED
        assert harnack_dominates(b, a).status != NOT_DOMINATED

    def test_restriction_to_joint_invariant_subspace(self):
        # block upper-triangular pair: span{e1} is invariant for both
        a = make_contraction(np.array([[0.5, 0.2], [0.0, 0.4]]))
        b = make_contraction(np.array([[0.3, -0.1], [0.0, 0.5]]))
        assert shmulyan_equivalent(a, b).equivalent
        ra = make_contraction(a.mat[:1, :1])
        rb = make_contraction(b.mat[:1, :1])
        assert shmulyan_equivalent(ra, rb).equivalent

    def test_corner_compressions_stay_equivalent(self):
        a = scaled_contraction(41, 4, 0.75)
        b = scaled_contraction(42, 4, 0.7)
        assert shmulyan_equivalent(a, b).equivalent
        for rows, cols in (((0, 1), (0, 1)), ((2, 3), (0, 1)), ((2, 3), (2, 3))):
            ca = make_contraction(a.mat[np.ix_(rows, cols)])
            cb = make_contraction(b.mat[np.ix_(rows, cols)])
            assert shmulyan_equivalent(ca, cb).equivalent


class TestPartialIsometryPart:
    def test_member_with_pure_block(self):
        part = partial_isometry_part(J)
        mem = part.membership_test(JZ)
        assert mem.member
        assert op_norm(mem.z_block) == pytest.approx(0.5)

    def test_self_membership(self):
        part = partial_isometry_part(J)
        mem = part.membership_test(J)
        assert mem.member
        assert op_norm(mem.z_block) < 1e-12

    def test_unimodular_block_rejected(self):
        part = partial_isometry_part(J)
        assert not part.membership_test(make_contraction([[0, 1], [1, 0]])).member

    def test_part_of_a_strict_contraction_is_the_ball(self):
        part = partial_isometry_part(make_contraction(np.diag([0.5, 0.5])))
        assert part.range_in.dim == 0
        assert part.membership_test(make_contraction(np.zeros((2, 2)))).member
        assert part.membership_test(make_contraction(np.diag([0.9, 0.1]))).member
        assert not part.membership_test(make_contraction(random_unitary(
            np.random.default_rng(3), 2))).member

    def test_agrees_with_equivalence_oracle(self):
        rng = np.random.default_rng(7)
        w = generate(GenSpec(dim=4, kind="partial_isometry", seed=2,
                             params={"rank": 2}))
        part = partial_isometry_part(w)
        for z_norm in (0.4, 1.0):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            z = g * (z_norm / op_norm(g))
            cand = make_contraction(
                w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T)
            assert part.membership_test(cand).member == \
                shmulyan_equivalent(w, cand).equivalent == (z_norm < 1)

    @pytest.mark.parametrize("w, c, member", [
        pytest.param(np.diag([1.0, 0.0]),
                     np.diag([1.0, math.sqrt(1.0 - k * DEFAULT_TOL.psd_atol)]), k > 1,
                     id=f"gap-{k}-psd_atol") for k in (0.25, 0.5, 2, 4)] + [
        pytest.param(np.diag([1.0 - 1e-9, 0.0]), np.diag([0.5, 0.0]), True,
                     id="strict-near-isometric")])
    def test_one_answer_at_the_boundary(self, w, c, member):
        # the part, the Schur-function part of the constant, both
        # equivalences and the arc decide the ball's boundary alike
        w, c = make_contraction(w), make_contraction(c)
        answers = (partial_isometry_part(w).membership_test(c).member,
                   schur_part_member(w, schur_poly([c.mat])).member,
                   shmulyan_equivalent(w, c).equivalent,
                   harnack_equivalence(w, c).status == "equivalent",
                   connect_arc(w, c).status == "connected")
        assert answers == (member,) * 5

    def test_one_answer_on_criterion_4(self):
        # the three candidates, w itself and another partial isometry of
        # every criterion-4 case
        seen = set()
        for i, w, part, cands in suites.partial_isometry_pairs():
            others = [w, suites._other_partial_isometry(i, w, part, DEFAULT_TOL)]
            for c in [c for _, c in cands or ()] + others:
                equivalent = shmulyan_equivalent(w, c).equivalent
                assert part.membership_test(c).member == equivalent, i
                assert schur_part_member(w, schur_poly([c.mat])).member == equivalent, i
                seen.add(equivalent)
        assert seen == {True, False}

    def test_part_of_the_nearest_partial_isometry(self):
        # on the criterion-4 and criterion-9 draws, c and the W (+) 0 of its
        # chart have one part: the same subspaces and the same answers
        draws = []
        for _, w, _, cands in suites.partial_isometry_pairs():
            others = [c for _, c in cands or ()]
            draws += [(c, others) for c in [w] + others]
        draws += [(t, []) for _, _, t in suites.defect_regularity_draws()]
        for c, others in draws:
            w = nearest_part_partial_isometry(c)
            part, part_w = partial_isometry_part(c), partial_isometry_part(w)
            for name in ("range_in", "null_in", "range_out", "null_out"):
                assert getattr(part, name).equals(getattr(part_w, name))
            for x in [c, w] + others:
                assert part.membership_test(x).member == part_w.membership_test(x).member

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_subspaces_are_ranges_and_kernels(self, d):
        ws = [make_contraction(np.zeros((d, d)))]
        ws += [generate(GenSpec(dim=d, kind="partial_isometry", seed=rank,
                                params={"rank": rank})) for rank in range(1, d + 1)]
        for rank, w in enumerate(ws):
            part = partial_isometry_part(w)
            assert part.range_in.dim == rank
            assert part.range_in.equals(range_of(w.mat.conj().T))
            assert part.null_in.equals(kernel_of(w.mat))
            assert part.range_out.equals(range_of(w.mat))
            assert part.null_out.equals(kernel_of(w.mat.conj().T))


class TestColumnCriterion:
    def test_direct_sum_pairs(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 2)
        t = make_contraction(direct_sum(u, 0.5 * random_unitary(rng, 2)))
        tp = make_contraction(direct_sum(u, 0.7 * random_unitary(rng, 2)))
        res = column_criterion(t, tp, 2, 2)
        assert res.conditions_hold and bool(res)
        assert shmulyan_equivalent(t, tp).equivalent

    def test_identical_pair(self):
        # orthogonality of the columns holds by the direct-sum structure
        rng = np.random.default_rng(3)
        t = make_contraction(direct_sum(random_unitary(rng, 2),
                                        0.6 * random_unitary(rng, 2)))
        assert bool(column_criterion(t, t, 2, 2))

    def test_condition_violation_signalled(self):
        # dense blocks generically violate the cross-orthogonality relations
        t = scaled_contraction(11, 4, 0.9)
        tp = scaled_contraction(12, 4, 0.9)
        res = column_criterion(t, tp, 2, 2)
        assert not res.conditions_hold

    def test_bad_split_raises(self):
        t = scaled_contraction(13, 3, 0.5)
        with pytest.raises(IncompatibleSplitsError):
            column_criterion(t, t, 5, 1)


class TestQuasiIsometryCriterion:
    def _quasi_isometry(self, seed=5, dim=4):
        return generate(GenSpec(dim=dim, kind="quasi_isometry", seed=seed))

    def test_member_candidate(self):
        rng = np.random.default_rng(3)
        t = self._quasi_isometry()
        v = t.mat[:2, :2]
        tp = make_contraction(direct_sum(v, 0.5 * random_unitary(rng, 2)))
        ok, diag = quasi_isometry_criterion(t, tp)
        assert ok and all(diag.values())
        assert shmulyan_equivalent(t, tp).equivalent

    def test_self(self):
        t = self._quasi_isometry(seed=9)
        ok, _ = quasi_isometry_criterion(t, t)
        assert ok

    def test_range_violation_detected(self):
        # t' with a unitary lower block escapes the defect range of t'
        t = self._quasi_isometry(seed=11)
        v = t.mat[:2, :2]
        rng = np.random.default_rng(4)
        tp = make_contraction(direct_sum(v, random_unitary(rng, 2)))
        ok, diag = quasi_isometry_criterion(t, tp)
        assert not ok
        assert not diag["range_inclusion"]
        assert not shmulyan_equivalent(t, tp).equivalent

    def test_rejects_non_quasi_isometry(self):
        with pytest.raises(NotQuasiIsometryError):
            quasi_isometry_criterion(make_contraction(np.diag([0.5, 0.5])), J)


class TestCornerConditions:
    def test_mixed_diagonal_all_true(self):
        out = pure_corner_conditions(make_contraction(np.diag([1.0, 0.5])))
        assert out["agree"]
        assert out["kernel_invariant"] and out["star_kernel_included"] \
            and out["corner_pure"]

    def test_nilpotent_all_false(self):
        out = pure_corner_conditions(J)
        assert out["agree"]
        assert not out["kernel_invariant"]

    @settings(max_examples=20, deadline=None)
    @given(square_contractions())
    def test_three_way_agreement(self, c):
        out = pure_corner_conditions(c)
        assert out["agree"], out

    def test_norm_criterion_mixed_diagonal(self):
        out = corner_norm_criterion(make_contraction(np.diag([1.0, 0.5])))
        assert out["cond_ii"] and out["agree_under_hypothesis"]

    def test_norm_criterion_unitary(self):
        u = make_contraction(random_unitary(np.random.default_rng(1), 3))
        out = corner_norm_criterion(u)
        assert out["agree_under_hypothesis"]

    def test_norm_criterion_flips_at_unit_norm(self):
        # a nilpotent lower block keeps the corner nontrivial even at
        # norm one (a unitary block would join the fixed space instead)
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 2)
        nil = np.array([[0, 1], [0, 0]], dtype=complex)
        for q_norm, expect in ((0.3, True), (0.6, True), (1.0, False)):
            t = make_contraction(direct_sum(u, q_norm * nil))
            out = corner_norm_criterion(t)
            assert out["cond_ii"] == expect
            assert out["cond_i"] == expect
            assert out["agree_under_hypothesis"]


class TestMarginalFlag:
    def test_marginal_residual_is_flagged(self):
        # a perturbation sitting within a decade of the feasibility
        # threshold still yields a verdict but carries the marginal marker
        rng = np.random.default_rng(5)
        w = generate(GenSpec(dim=3, kind="partial_isometry", seed=4,
                             params={"rank": 2}))
        noise = 3e-9 * (rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
        perturbed = w.mat + noise
        cand = make_contraction(perturbed / max(1.0, op_norm(perturbed)))
        verdict = shmulyan_dominates(cand, w)
        assert verdict.marginal


def _gen(kind, d, seed, **params):
    return generate(GenSpec(d, kind, seed=seed, params=params))


def _member(w, z_norm, seed):
    """w + Z on the defect spaces of the partial isometry w, ||Z|| = z_norm."""
    part = partial_isometry_part(w)
    g = rng_matrix(seed, part.null_out.dim, part.null_in.dim)
    z = g * (z_norm / op_norm(g)) if g.size else g
    return make_contraction(w.mat + part.null_out.basis @ z @ part.null_in.basis.conj().T)


def _planted(a_mat, eps):
    """A contraction that moves a's top isometric pair (v, u) off by eps:
    b v = sqrt(1 - eps^2) u + eps u', u' the left singular vector of a's
    singular value 0, and b = a elsewhere."""
    left, s, right_h = np.linalg.svd(a_mat)
    assert abs(s[0] - 1.0) <= 1e-14 and s[-1] <= 1e-14
    col = (math.sqrt(1.0 - eps ** 2) - 1.0) * left[:, 0] + eps * left[:, -1]
    return make_contraction(a_mat + np.outer(col, right_h[0]))


def square_pairs():
    """(label, a, b) square pairs: corpus pairs in both directions, and
    leaks planted at 0.5 and 2 times LEAK_RTOL."""
    for d in (2, 3, 4, 6):
        w = _gen("partial_isometry", d, d, rank=max(1, d // 2))
        strict = _gen("strict", d, d + 1, norm_bound=0.8)
        u_q = _gen("direct_sum_U_plus_Q", d, d, unitary_dim=1, norm_bound=0.6)
        norm_one = make_contraction(_rng_norm_one(d, d))
        pairs = {
            "w-member": (w, _member(w, 0.5, d)),
            "w-edge": (w, _member(w, 1.0, d)),
            "w-strict": (w, strict),
            "strict-strict": (_gen("strict", d, d, norm_bound=0.9), strict),
            "uq-uq": (u_q, _gen("direct_sum_U_plus_Q", d, d + 5, unitary_dim=1)),
            "uq-strict": (u_q, strict),
            "nilpotent-zero": (_gen("nilpotent_shift", d, 0),
                               make_contraction(np.zeros((d, d)))),
            "norm-one-strict": (norm_one, strict),
        }
        for factor in (0.5, 2.0):
            eps = factor * segments.LEAK_RTOL
            pairs[f"w-leak-{factor}"] = (w, _planted(w.mat, eps))
            pairs[f"norm-one-leak-{factor}"] = (norm_one, _planted(norm_one.mat, eps))
        for name, (a, b) in pairs.items():
            yield f"{name}-{d}", a, b
            yield f"{name}-{d}-reversed", b, a


def _rng_norm_one(d, seed):
    """Norm one, a singular value 0 at d >= 2, the rest inside the ball."""
    rng = np.random.default_rng(seed)
    s = np.concatenate([[1.0], rng.uniform(0.1, 0.9, d - 2), [0.0]])[:d]
    return random_unitary(rng, d) @ np.diag(s) @ random_unitary(rng, d)


def rectangular_pairs():
    """(label, a, b) of shapes 3 x 5 and 5 x 3, and the segment-case pair."""
    for rows, cols in ((3, 5), (5, 3)):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            k = min(rows, cols)
            for kind, s in (("norm-one", [1.0, 0.6, 0.0]), ("partial-isometry", [1.0, 1.0, 0.0])):
                a = Contraction(random_unitary(rng, rows)[:, :k] @ np.diag(s)
                                @ random_unitary(rng, cols)[:k])
                dd = defect_data(a)
                g = rng_matrix(seed, rows, cols)
                dom = dd.d_tstar @ g @ dd.d_t
                dom *= 0.3 / op_norm(dom)
                left, _, right_h = np.linalg.svd(a.mat)
                for factor in (0.5, 2.0):
                    eps = factor * segments.LEAK_RTOL
                    for side, leak in (("in", np.outer(left[:, 1], right_h[0])),
                                       ("out", np.outer(left[:, 0], right_h[2]))):
                        yield (f"{kind}-{rows}x{cols}-{seed}-{side}-{factor}", a,
                               Contraction(a.mat + dom + eps * leak))
                yield f"{kind}-{rows}x{cols}-{seed}-dominated", a, Contraction(a.mat + dom)
                yield f"{kind}-{rows}x{cols}-{seed}-generic", a, Contraction(a.mat + 0.3 * g)
    c, u = segment_case("norm-one", 3, 300)
    yield "segment-case-norm-one-3-300", Contraction(c), Contraction(c + 0.2 * u)


class TestOneLeakTest:
    """The Shmul'yan decision, the proven disc and Harnack level 1 read one
    leak test, so they agree by construction."""

    @pytest.mark.parametrize("label, a, b", [pytest.param(*p, id=p[0]) for p in
                                             list(square_pairs()) + list(rectangular_pairs())])
    def test_decision_is_the_disc(self, label, a, b):
        decided = shmulyan._factor_dominates(b, a, DEFAULT_TOL)
        assert decided == (proven_radius(a.mat, b.mat - a.mat) > 0.0)
        assert decided == shmulyan_dominates(b, a).dominates

    @pytest.mark.parametrize("label, a, b", [pytest.param(*p, id=p[0]) for p in square_pairs()])
    def test_harnack_level_one(self, label, a, b):
        v = harnack_dominates(a, b)
        if shmulyan._factor_dominates(b, a, DEFAULT_TOL):
            assert v.method != "kernel-escape"
        if v.method != "kernel-escape":
            audit = harnack_dominates(a, b, Tolerances(max_level=2), full_trace=True)
            assert audit.levels[0] == 1
            assert v.constants[0] == pytest.approx(audit.constants[0], rel=1e-12)

    def test_planted_leaks_straddle_the_threshold(self):
        got = {label: harnack_dominates(a, b).method == "kernel-escape"
               for label, a, b in square_pairs() if "leak" in label and "reversed" not in label}
        assert got and all(esc == ("-2.0-" in label) for label, esc in got.items())


def _circle_max(c, u, r, samples=16384, chunk=1024):
    """max over |lam| = 1 of ||c + r lam u|| on ``samples`` points, in chunks."""
    lam = segments.unit_circle(samples)[1]
    return max(segments.poly_norms((c, u), r * lam[k:k + chunk]).max()
               for k in range(0, samples, chunk))


class TestVerdictRadius:
    """The segment route reports the proven radius of the dominator's disc."""

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_circle_through_the_radius_stays_inside(self, d):
        # U + strict dominators and their ball members a + D_{a*} X D_a: the
        # sampled radius search returned radii whose circle left the ball,
        # by up to 5e-5, on every one of these pairs
        for seed in range(6):
            rng = np.random.default_rng(1000 * d + seed)
            a = _gen("direct_sum_U_plus_Q", d, seed, unitary_dim=1 + seed % (d - 1),
                     norm_bound=0.6)
            dd = defect_data(a)
            x = rng_matrix(1000 * d + seed, d, d)
            x *= rng.uniform(0.2, 0.8) / op_norm(x)
            b = make_contraction(a.mat + dd.d_tstar @ x @ dd.d_t)
            v = shmulyan_dominates(b, a)
            assert v.dominates and all(v.route_agreement.values())
            assert 0.0 < v.radius < math.inf
            assert _circle_max(a.mat, b.mat - a.mat, v.radius) \
                <= 1.0 + DEFAULT_TOL.contraction_slack, (d, seed)
            # the disc of a's cached SVD, which is the SVD of the input
            # before a rescale: a fresh SVD of a.mat moves the last digits
            disc = segments._factored_disc(_factored(a), b.mat - a.mat, DEFAULT_TOL)
            assert v.radius == segments._disc_radius(disc, DEFAULT_TOL)
            assert v.radius == pytest.approx(proven_radius(a.mat, b.mat - a.mat), rel=1e-12)

    def test_leaking_norm_one_pair(self):
        # the direction leaks 6e-8 onto ker D_c; the sampled search saw a
        # circle of radius 1.52 inside the ball
        c, u = segment_case("norm-one", 3, 300)
        v = shmulyan_dominates(Contraction(c + 0.2 * u), Contraction(c))
        assert v.route_agreement == {"defect_factor": False, "cross_gram": False,
                                     "segment": False}
        assert v.radius == 0.0

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7])
    def test_segment_route_sees_a_small_leak(self, eps):
        # b_eps leaves ker D_J by eps; the cross-Gram residual is eps^2 / 2,
        # so that route still accepts it and is not asserted here
        v = shmulyan_dominates(b_eps(eps), J)
        assert not v.dominates
        assert not v.route_agreement["segment"] and v.radius == 0.0

    def test_no_radius_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("radius_search called")

        monkeypatch.setattr(shmulyan, "radius_search", refuse)
        monkeypatch.setattr(segments, "radius_search", refuse)
        w = _gen("partial_isometry", 6, 2, rank=3)
        m = _member(w, 0.5, 2)
        assert shmulyan_dominates(m, w).dominates
        assert not shmulyan_dominates(_gen("strict", 6, 3), w).dominates
        assert shmulyan_equivalent(w, m).equivalent

    def test_verdict_fields(self):
        v = shmulyan_dominates(JZ, J)
        assert not hasattr(v, "y_solution")
        assert v.radius == proven_radius(J.mat, JZ.mat - J.mat)
        assert not v.marginal
