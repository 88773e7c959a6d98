import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bsdl.circle import ChartAffineLift, RotationLift, circle_dist, compose, orbit, wrap
from bsdl.gl2z import IntMatrix2
from bsdl.torus import (
    ComposedTorusLift,
    LinearTorusLift,
    ProductTorusLift,
    bs_rotation_constraint,
    conjugate_rotation_set_check,
    convex_hull,
    hausdorff_distance,
    rotation_set,
    rotation_vector,
    torus_dist,
)

from lifts import callable_lift, deck_defect

I2 = IntMatrix2.identity()


def standard_pair(n):
    f = ProductTorusLift(ChartAffineLift(1.0, 1.0), RotationLift(0.0))
    h = ProductTorusLift(ChartAffineLift(float(n), 0.0), RotationLift(math.log(n)))
    return f, h


class TestLifts:
    def test_product_obeys_the_deck_law(self):
        vs = np.random.default_rng(5).uniform(0.0, 1.0, size=(64, 2))
        for F in standard_pair(2):
            for m in ((1, 0), (0, 1), (1, 1), (-1, 2)):
                assert deck_defect(F, vs, m) <= 1e-13

    def test_product_inverse_round_trip(self):
        _, h = standard_pair(3)
        g = h.inverse()
        vs = np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 2))
        assert np.max(np.abs(g.raw(h.raw(vs)) - vs)) < 1e-10

    def test_conjugation_relation_fuses_exactly(self):
        for n in (2, 3, 5):
            f, h = standard_pair(n)
            lhs = compose(compose(h, f), h.inverse())
            assert isinstance(lhs, ProductTorusLift)
            assert (lhs.base.a, lhs.base.b) == (1.0, float(n))
            assert lhs.fiber.alpha == 0.0

    def test_linear_lift_matches_matrix_action(self):
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        H = LinearTorusLift(A, (0.25, 0.0))
        v = np.array([0.3, 0.4])
        out = H(v)
        assert out[0] == pytest.approx(2 * 0.3 + 0.4 + 0.25, abs=1e-14)
        assert out[1] == pytest.approx(0.3 + 0.4, abs=1e-14)

    def test_linear_inverse_and_iterate(self):
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        H = LinearTorusLift(A, (0.3, 0.7))
        v = np.array([0.21, 0.87])
        assert np.max(np.abs(H.inverse().raw(H.raw(v)) - v)) < 1e-12
        w = v.copy()
        for _ in range(5):
            w = H.raw(w)
        assert np.max(np.abs(H.iterate(v, 5) - w)) < 1e-9
        assert np.max(np.abs(H.iterate(H.iterate(v, -3), 3) - v)) < 1e-9

    @pytest.mark.parametrize(
        "rows",
        [((1, 3), (0, 1)), ((2, 1), (1, 1)), ((-3, 2), (-2, 1)), ((5, 7), (2, 3)), ((0, -1), (1, 0))],
    )
    def test_linear_batch_rows_equal_single_points(self, rows):
        # a BLAS product of 64 or more rows rounded otherwise than a lone row
        H = LinearTorusLift(IntMatrix2.from_rows(*rows), (0.1, -0.7))
        vs = np.random.default_rng(11).uniform(-1.0, 2.0, (300, 2))
        batch = H.raw(vs)
        for v, row in zip(vs, batch):
            assert np.array_equal(H.raw(v), row)

    @pytest.mark.parametrize("m", [1, 5, -3])
    def test_linear_iterate_batch_rows_equal_single_points(self, m):
        # A^m applied with a BLAS product rounded batch rows otherwise
        H = LinearTorusLift(IntMatrix2.from_rows((-3, 2), (-2, 1)), (0.1, -0.7))
        vs = np.random.default_rng(11).uniform(-1.0, 2.0, (300, 2))
        batch = H.iterate(vs, m)
        for v, row in zip(vs, batch):
            assert H.iterate(v, m).tobytes() == row.tobytes()
        if m == 1:
            assert H.iterate(vs, 1).tobytes() == H.raw(vs).tobytes()

    @pytest.mark.parametrize("m", [738, -738])
    def test_linear_power_beyond_the_floats_is_a_value_error(self, m):
        # [[2, 1], [1, 1]]^738 has an entry above 1.8e308; m = 737 fits
        H = LinearTorusLift(IntMatrix2.from_rows((2, 1), (1, 1)), (0.3, 0.1))
        assert np.isfinite(H.iterate((0.2, 0.4), 737)).all()
        with pytest.raises(ValueError, match="beyond the float range"):
            H.power(m)
        # the iterate takes |m| steps of H or of its inverse instead
        G, v = (H if m > 0 else H.inverse()), np.array((0.2, 0.4))
        for _ in range(abs(m)):
            v = G.raw(v)
        assert H.iterate((0.2, 0.4), m).tobytes() == v.tobytes()

    def test_linear_requires_unimodular(self):
        with pytest.raises(ValueError):
            LinearTorusLift(IntMatrix2.from_rows((2, 0), (0, 1)))

    def test_composed_linear_part_multiplies(self):
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        H = LinearTorusLift(A)
        f, _ = standard_pair(2)
        g = ComposedTorusLift(H, f)
        assert g.linear_part == A

    def test_compose2_fuses_linear(self):
        A = IntMatrix2.from_rows((1, 1), (0, 1))
        H1 = LinearTorusLift(A, (0.25, 0.5))
        H2 = LinearTorusLift(A.inverse(), (0.0, 0.125))
        g = compose(H2, H1)
        assert isinstance(g, LinearTorusLift)
        assert g.linear_part == I2

    def test_torus_dist(self):
        assert torus_dist((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)
        assert torus_dist((0.2, 0.9), (0.2, 0.05)) == pytest.approx(0.15)


class TestRotationVector:
    def test_product_rotation(self):
        F = ProductTorusLift(RotationLift(0.25), RotationLift(0.5))
        est = rotation_vector(F, iterates=2000)
        assert abs(est.value[0] - 0.25) < 1e-9
        assert abs(est.value[1] - 0.5) < 1e-9

    def test_requires_identity_linear_part(self):
        H = LinearTorusLift(IntMatrix2.from_rows((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            rotation_vector(H)

    def test_translation_lift(self):
        F = LinearTorusLift(I2, (0.6, 0.2))
        est = rotation_vector(F, iterates=500)
        assert abs(est.value[0] - 0.6) < 1e-12
        assert abs(est.value[1] - 0.2) < 1e-12
        assert est.error_bound < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.0, 0.2),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.integers(1, 300),
    )
    def test_sums_are_the_stepwise_totals(self, a, b, wobble, v0, n):
        # the running sums of the pairs, stepwise as a loop adds them
        F = ProductTorusLift(
            RotationLift(a),
            callable_lift(lambda t: t + b + wobble * np.sin(2.0 * np.pi * t)),
        )
        half = n // 2
        total, first = np.zeros(2), np.zeros(2)
        lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
        for k, (v, fv) in enumerate(orbit(F, v0, n)):
            d = fv - v
            total += d
            if k < half:
                first += d
            lo, hi = np.minimum(lo, d), np.maximum(hi, d)
        err = max(
            float(np.max(np.abs(first / max(half, 1) - (total - first) / max(n - half, 1)))),
            float(np.linalg.norm(hi - lo)) / n,
            1e-12,
        )
        est = rotation_vector(F, v0, n)
        assert [x.hex() for x in est.value] == [float(x).hex() for x in total / n]
        assert est.error_bound.hex() == err.hex()


class TestHull:
    def test_square(self):
        rng = np.random.default_rng(0)
        cloud = rng.uniform(0.0, 1.0, size=(400, 2))
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        hull = convex_hull(np.concatenate([cloud, corners]))
        assert hull.shape == (4, 2)
        assert {tuple(v) for v in hull} == {tuple(c) for c in corners}

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.25, 0.25]])
        hull = convex_hull(pts)
        assert hull.shape[0] == 2

    def test_single_point(self):
        hull = convex_hull(np.array([[0.3, 0.4], [0.3, 0.4]]))
        assert hull.shape[0] == 1

    def test_hausdorff_shifted_squares(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert hausdorff_distance(sq, sq + np.array([0.5, 0.0])) == pytest.approx(0.5)
        assert hausdorff_distance(sq, sq) == 0.0

    def test_hausdorff_contained_point(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        # the point is inside, so only the reverse direction contributes
        d = hausdorff_distance(np.array([[0.5, 0.5]]), sq)
        assert d == pytest.approx(math.sqrt(0.5))


class TestRotationSet:
    def test_product_rotation_is_point(self):
        F = ProductTorusLift(RotationLift(0.25), RotationLift(0.5))
        est = rotation_set(F, grid=8, iterates=400)
        assert est.is_point
        assert abs(est.center[0] - 0.25) < 1e-6
        assert abs(est.center[1] - 0.5) < 1e-6

    def test_pinned_displacement_spreads_the_set(self):
        def fn(v):
            b = 0.25 * (1.0 - np.cos(2 * np.pi * v[..., 0])) * (
                1.0 - np.cos(2 * np.pi * v[..., 1])
            )
            return np.stack(
                [v[..., 0] + 0.2 * b, v[..., 1] + 0.1 * b], axis=-1
            )

        F = callable_lift(fn, torus=True)
        assert deck_defect(F, np.random.default_rng(5).uniform(size=(64, 2)), (1, -1)) <= 1e-13
        est = rotation_set(F, grid=8, iterates=800)
        assert not est.is_point
        assert est.diameter > 1e-3
        # the fixed point at the origin keeps (0,0) in the set
        assert min(np.linalg.norm(np.atleast_2d(est.vertices), axis=1)) < 1e-2


class TestConjugacyCovariance:
    def test_conjugate_translations_consistent(self):
        A = IntMatrix2.from_rows((1, 1), (0, 1))
        F = LinearTorusLift(I2, (0.25, 0.5))
        G = LinearTorusLift(I2, (0.75, 0.5))  # translation by A @ (0.25, 0.5)
        rep = conjugate_rotation_set_check(F, G, A, grid=6, iterates=400)
        assert rep.consistent
        assert rep.hausdorff < 1e-6

    def test_wrong_target_flagged(self):
        A = IntMatrix2.from_rows((1, 1), (0, 1))
        F = LinearTorusLift(I2, (0.25, 0.5))
        G = LinearTorusLift(I2, (0.1, 0.1))
        rep = conjugate_rotation_set_check(F, G, A, grid=6, iterates=400)
        assert not rep.consistent


class TestRelationConstraint:
    def test_exact_example(self):
        # h f h^-1 = f^4 with h linear hyperbolic and f a rational translation
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        f = LinearTorusLift(I2, (3.0 / 5.0, 1.0 / 5.0))
        h = LinearTorusLift(A)
        lhs = compose(compose(h, f), h.inverse())
        v = np.array([0.37, 0.81])
        assert float(torus_dist(wrap(lhs.raw(v)), wrap(f.iterate(v, 4)))) < 1e-12

        est = rotation_vector(f, iterates=500)
        rep = bs_rotation_constraint(est.value, A, 4)
        assert rep.satisfied
        assert rep.residual < 1e-9
        assert rep.q_int == (1, 0)
        assert rep.snapped == (Fraction(3, 5), Fraction(1, 5))

    def test_violated_constraint(self):
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        rep = bs_rotation_constraint((0.33, 0.21), A, 4)
        assert not rep.satisfied
        assert rep.residual > 0.05

    def test_standard_action_constraint_trivial(self):
        f, _ = standard_pair(2)
        est = rotation_vector(f, v0=(0.3, 0.3), iterates=800)
        rep = bs_rotation_constraint(est.value, I2, 2)
        # rho(f) must then be integral; the glued translation has rho = 0
        assert rep.satisfied
        assert rep.snapped == (Fraction(0), Fraction(0))

    def test_constraint_matrix_determinant(self):
        # det(n I - A_h) = n^2 - tr(A_h) n + det(A_h) bounds the
        # denominator of the snapped rotation vector
        for n in (2, 3, 5):
            for A in (I2, IntMatrix2.from_rows((0, 1), (-1, 0))):
                rep = bs_rotation_constraint((0.0, 0.0), A, n)
                assert rep.matrix.det() == n * n - A.trace() * n + A.det()

    def test_identity_constraint_snaps_integer_vector(self):
        # n = 2 and A_h = I: (2 I - I) rho = rho, so (1, 0) snaps to itself
        rep = bs_rotation_constraint((1.0, 0.0), I2, 2)
        assert rep.satisfied
        assert rep.snapped == (Fraction(1), Fraction(0))

    def test_order4_constraint_snaps_exact_rational(self):
        # A_h of order 4 and n = 3: det(3 I - A_h) = 10, and
        # (3 I - A_h) rho = (1, 1) has the exact solution (2/5, 1/5)
        A = IntMatrix2.from_rows((0, 1), (-1, 0))
        rep = bs_rotation_constraint((0.4, 0.2), A, 3)
        assert rep.satisfied
        assert rep.q_int == (1, 1)
        assert rep.snapped == (Fraction(2, 5), Fraction(1, 5))
        assert rep.matrix.apply(rep.snapped) == (1, 1)

    def test_singular_constraint_has_no_snap(self):
        # an eigenvalue n of A_h makes n I - A_h singular: the constraint
        # holds, but no unique rotation vector solves it
        A = IntMatrix2.from_rows((2, 0), (0, 1))
        rep = bs_rotation_constraint((0.3, 0.0), A, 2)
        assert rep.satisfied
        assert rep.matrix.det() == 0
        assert rep.snapped is None

    def test_json_round_trip_fields(self):
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        rep = bs_rotation_constraint((0.6, 0.2), A, 4)
        js = rep.to_json()
        assert js["satisfied"] is True
        assert js["q_int"] == [1, 0]
        assert js["snapped"][0] == {"num": 3, "den": 5}


coords = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2,), (5, 2), (4, 3, 2)]), st.data())
def test_torus_dist_is_the_larger_circle_distance(shape, data):
    p = data.draw(arrays(float, shape, elements=coords))
    q = data.draw(arrays(float, data.draw(st.sampled_from([(2,), shape])), elements=coords))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN on both sides
        expected = np.max(circle_dist(p, q), axis=-1)
        got = torus_dist(p, q)
    assert np.shape(got) == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
