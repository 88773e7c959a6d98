import math
from fractions import Fraction

import numpy as np
import pytest

from bsdl.bsgroup import (
    BSAction,
    FiniteOrbit,
    Word,
    evaluate,
    finite_bs_orbit,
    make_action,
    normalize,
    power_lift,
    relation_report,
    relation_residual,
    word_lift,
    word_to_affine,
)
from bsdl.circle import (
    ChartAffineLift,
    GluedLift,
    RotationLift,
    circle_dist,
    compose,
    wrap,
)
from bsdl.torus import ProductTorusLift


def affine_action(n):
    return make_action(
        ChartAffineLift(1.0, 1.0), ChartAffineLift(float(n), 0.0), n
    )


def glued_action(n):
    # n-1 fundamental blocks, each a renormalized line; the block shift
    # makes f fixed-point free while h still scales blockwise
    m = n - 1
    fhat = GluedLift(m, 1.0, 1.0)
    f = compose(RotationLift(1.0 / m), fhat)
    h = GluedLift(m, float(n), 0.0)
    return make_action(f, h, n)


def random_word(rng, length):
    syl = []
    for _ in range(length):
        gen = "a" if rng.integers(2) else "b"
        exp = int(rng.integers(1, 4)) * (1 if rng.integers(2) else -1)
        syl.append((gen, exp))
    return Word(syl)


class TestWord:
    def test_parse_and_str(self):
        w = Word.parse("a b^-2 A")
        assert w.syllables == (("a", 1), ("b", -2), ("a", -1))
        assert str(w) == "a b^-2 a^-1"
        assert Word.parse("ab^2A").syllables == (("a", 1), ("b", 2), ("a", -1))
        assert Word.parse("A^3").syllables == (("a", -3),)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Word.parse("a c")
        with pytest.raises(ValueError):
            Word.parse("a^")

    def test_reduction(self):
        w = Word([("a", 2), ("a", -2), ("b", 1), ("b", 2)])
        assert w.syllables == (("b", 3),)
        assert len(Word.parse("aA")) == 0
        assert str(Word()) == "1"

    def test_inverse_and_mul(self):
        w = Word.parse("a b^2 A")
        assert (w * w.inverse()).syllables == ()
        assert w.inverse().syllables == (("a", 1), ("b", -2), ("a", -1))

    def test_pow(self):
        w = Word.parse("b")
        assert (w ** 3).syllables == (("b", 3),)
        assert (w ** -2).syllables == (("b", -2),)
        assert (w ** 0).syllables == ()


class TestAffineModel:
    def test_defining_relation_holds_in_model(self):
        for n in (2, 3, 6):
            lhs = word_to_affine(Word.parse("a b A"), n)
            rhs = word_to_affine(Word.parse("b") ** n, n)
            assert lhs == rhs == (0, Fraction(n))

    def test_conjugated_generator_shrinks(self):
        # a^-1 b a acts as x -> x + 1/n
        k, w = word_to_affine(Word.parse("A b a"), 3)
        assert (k, w) == (0, Fraction(1, 3))

    def test_normal_forms(self):
        nf = normalize(Word.parse("A b a"), 3)
        assert (nf.p, nf.m, nf.q) == (1, 1, 1)
        nf = normalize(Word.parse("a B a"), 2)
        assert (nf.p, nf.m, nf.q) == (0, -2, 2)
        nf = normalize(Word(), 2)
        assert (nf.p, nf.m, nf.q) == (0, 0, 0)

    def test_normalize_raises_p_for_negative_q(self):
        # pure a^-1 has k = -1, so p must rise to keep q >= 0
        nf = normalize(Word.parse("A"), 2)
        assert nf.q == 0
        assert nf.p == 1
        assert nf.m == 0
        assert word_to_affine(nf.to_word(), 2) == word_to_affine(Word.parse("A"), 2)

    def test_seeded_words_normalize_faithfully(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            for _ in range(40):
                w = random_word(rng, int(rng.integers(1, 8)))
                nf = normalize(w, n)
                assert nf.p >= 0 and nf.q >= 0
                assert word_to_affine(nf.to_word(), n) == word_to_affine(w, n)
                if nf.p > 0 and nf.m != 0:
                    assert nf.m % n != 0 or nf.q == 0


class TestEvaluation:
    def test_relation_pointwise(self):
        act = affine_action(3)
        xs = np.arange(0.0, 1.0, 1.0 / 53.0)
        lhs = evaluate(act, Word.parse("a b A"), xs)
        rhs = evaluate(act, Word.parse("b^3"), xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_word_multiplication_is_composition(self):
        act = affine_action(2)
        w1 = Word.parse("a b")
        w2 = Word.parse("B a")
        x = 0.37
        assert evaluate(act, w1 * w2, x) == pytest.approx(
            evaluate(act, w1, evaluate(act, w2, x)), abs=1e-12
        )

    def test_normal_form_evaluates_identically(self):
        act = affine_action(2)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 1.0, size=16)
        for _ in range(20):
            w = random_word(rng, int(rng.integers(1, 7)))
            nf = normalize(w, 2).to_word()
            a = evaluate(act, w, xs)
            b = evaluate(act, nf, xs)
            assert np.max(np.array(circle_dist(a, b))) < 1e-9

    def test_word_lift_matches_evaluate(self):
        act = affine_action(2)
        w = Word.parse("a b^2 A b^-1")
        L = word_lift(act, w)
        xs = np.arange(0.0, 1.0, 1.0 / 31.0)
        assert np.max(np.abs(L.raw(xs) - evaluate(act, w, xs))) < 1e-10

    def test_power_lift_closed_forms(self):
        F = ChartAffineLift(1.0, 1.0)
        G = power_lift(F, 7)
        assert isinstance(G, ChartAffineLift)
        assert (G.a, G.b) == (1.0, 7.0)
        H = power_lift(F, -3)
        assert (H.a, H.b) == (1.0, -3.0)
        assert isinstance(power_lift(RotationLift(0.2), 0), RotationLift)


class TestRelationReports:
    def test_affine_action_residual_exactly_zero(self):
        for n in (2, 3, 5):
            act = affine_action(n)
            rep = relation_report(act)
            assert rep.primary_residual == 0.0
            assert rep.secondary_residual == 0.0
            assert rep.passed

    def test_torus_product_action_exact(self):
        f = ProductTorusLift(ChartAffineLift(1.0, 1.0), RotationLift(0.0))
        h = ProductTorusLift(ChartAffineLift(2.0, 0.0), RotationLift(math.log(2.0)))
        act = make_action(f, h, 2)
        rep = relation_report(act, grid=2500)
        assert rep.primary_residual == 0.0
        assert rep.passed

    def test_glued_action_passes(self):
        act = glued_action(3)
        rep = relation_report(act, grid=4096)
        assert rep.primary_residual < 1e-12
        assert rep.secondary_residual < 1e-10
        assert rep.passed

    def test_make_action_rejects_non_action(self):
        with pytest.raises(ValueError):
            make_action(RotationLift(0.3), RotationLift(0.1), 2)

    def test_make_action_rejects_nan_residual(self):
        f = ProductTorusLift(ChartAffineLift(1.0, 1.0), RotationLift(math.nan))
        h = ProductTorusLift(ChartAffineLift(2.0, 0.0), RotationLift(0.3))
        with pytest.raises(ValueError, match="residual nan"):
            make_action(f, h, 2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must be positive"):
            relation_report(affine_action(2), grid=0)

    def test_report_json(self):
        js = relation_report(affine_action(2)).to_json()
        assert js["passed"] is True
        assert js["space"] == "circle"


class TestFiniteOrbits:
    def test_glued_periodic_orbit_closes(self):
        act = glued_action(3)
        orb = finite_bs_orbit(act, 0.0)
        assert orb.closed
        assert orb.size == 2
        assert orb.defect is not None and orb.defect < 1e-9
        got = np.sort(wrap(orb.points))
        assert np.max(np.abs(got - np.array([0.0, 0.5]))) < 1e-9

    def test_dense_orbit_overflows(self):
        act = affine_action(2)
        orb = finite_bs_orbit(act, 0.5, max_size=400)
        assert not orb.closed
        assert orb.size > 400

    def test_fixed_point_of_affine_action(self):
        act = affine_action(2)
        orb = finite_bs_orbit(act, 0.0)
        assert orb.closed
        assert orb.size == 1

    def test_torus_rational_fiber_orbit(self):
        f = ProductTorusLift(ChartAffineLift(1.0, 1.0), RotationLift(0.0))
        h = ProductTorusLift(ChartAffineLift(2.0, 0.0), RotationLift(0.25))
        act = make_action(f, h, 2)
        orb = finite_bs_orbit(act, (0.0, 0.0))
        assert orb.closed
        assert orb.size == 4
        assert orb.defect < 1e-9
        thetas = np.sort(orb.points[:, 1])
        assert np.max(np.abs(thetas - np.array([0.0, 0.25, 0.5, 0.75]))) < 1e-9

    def test_merge_tol_collapses_near_points(self):
        act = affine_action(2)
        orb = finite_bs_orbit(act, 1e-9, merge_tol=1e-6)
        # the start merges with the fixed point at 0 after one h^-1 step
        assert orb.closed
        assert orb.size <= 3
