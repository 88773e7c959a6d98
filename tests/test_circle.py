import math

import numpy as np
import pytest

from bsdl.circle import (
    ChartAffineLift,
    CircleLift,
    ComposedLift,
    DenjoyLift,
    GOLDEN_MEAN,
    PiecewiseLift,
    RotationLift,
    _atan_frac,
    circle_dist,
    compose,
    denjoy_lift,
    orbit_arrays,
    parse_k_spec,
    rational_witness,
    rotation_number,
    wrap,
)

from lifts import callable_lift, iterate


def naive_rotation_number(F, n=20000, x0=0.17):
    # independent straight-line estimate, no rewrapping tricks
    y = x0
    for _ in range(n):
        y = float(F.raw(np.float64(y)))
    return ((y - x0) / n) % 1.0


def chart(x):
    """Chart position 0.5 + arctan(x)/pi of a real x, the glued point 0 at
    +-inf: a plain reference for the library's chart."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isinf(x), 0.0, 0.5 + np.arctan(x) / np.pi)


def real(u):
    """The real point -1/tan(pi u) at chart position u, +inf at u = 0."""
    r = np.asarray(u, dtype=float) % 1.0
    with np.errstate(divide="ignore"):
        return np.where(r == 0.0, np.inf, -1.0 / np.tan(np.pi * r))


def atan_frac_three_arctans(y):
    """The chart with one arctan per branch, as `_atan_frac` first took
    it: the bitwise reference for its one-arctan form."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = 1.0 - np.arctan(1.0 / y) / np.pi
        lo = np.arctan(-1.0 / y) / np.pi
    mid = 0.5 + np.arctan(y) / np.pi
    out = np.where(y > 1.0, hi, np.where(y < -1.0, lo, mid))
    return np.where(np.isnan(y), np.nan, out)


class TestChart:
    # `_atan_frac` is the chart of `ChartAffineLift.raw`
    def test_round_trip_real_points(self):
        xs = np.array([-1e6, -37.5, -1.0, -1e-8, 0.0, 1e-8, 0.5, 3.0, 1e6])
        back = real(_atan_frac(xs))
        assert np.all(np.abs(back - xs) <= 1e-8 * (1.0 + np.abs(xs)))

    def test_infinity_is_the_glued_point(self):
        assert _atan_frac(np.inf) % 1.0 == 0.0
        assert _atan_frac(-np.inf) % 1.0 == 0.0
        assert real(0.0) == np.inf

    def test_chart_is_increasing_in_x(self):
        xs = np.linspace(-50.0, 50.0, 1001)
        us = _atan_frac(xs)
        assert np.all(np.diff(us) > 0.0)
        assert np.all((us > 0.0) & (us < 1.0))
        assert np.max(np.abs(us - chart(xs))) <= 1e-15

    def test_lower_tail_keeps_relative_precision(self):
        # the plain formula rounds these chart positions to 0
        for x in (1e20, 1e300):
            assert chart(-x) == 0.0
            assert _atan_frac(-x) == pytest.approx(1.0 / (np.pi * x), rel=1e-14)

    def test_bits_match_one_arctan_per_branch(self):
        one = np.nextafter(1.0, [0.0, 2.0])
        tiny = np.finfo(float).smallest_subnormal
        special = np.array(
            [0.0, 1.0, *one, tiny, 3 * tiny, 1e-310, 1e300, np.finfo(float).max, np.inf]
        )
        special = np.concatenate([special, -special, [np.nan]])
        rng = np.random.default_rng(45)
        magnitudes = 10.0 ** rng.uniform(-320.0, 300.0, 4096)
        pool = np.concatenate(
            [special, rng.choice([-1.0, 1.0], 4096) * magnitudes, rng.uniform(-3.0, 3.0, 4096)]
        )
        for y in special:
            assert _atan_frac(y).tobytes() == atan_frac_three_arctans(y).tobytes(), y
        for size in [*range(1, 258), 16384]:
            y = rng.choice(pool, size)
            assert _atan_frac(y).tobytes() == atan_frac_three_arctans(y).tobytes(), size

    def test_circle_dist(self):
        assert circle_dist(0.1, 0.9) == pytest.approx(0.2)
        assert circle_dist(0.0, 0.5) == pytest.approx(0.5)
        assert float(circle_dist(2.3, 0.3)) == pytest.approx(0.0)


class TestRotationLift:
    def test_rotation_number_one_third_certified(self):
        est = rotation_number(RotationLift(1.0 / 3.0))
        assert abs(est.value - 1.0 / 3.0) <= est.error_bound
        assert est.rational_witness is not None
        p, q, x, res = est.rational_witness
        assert (p, q) == (1, 3)
        assert res < 1e-8

    def test_witness_refuses_a_lift_turns_out(self):
        # 2^50 + 0.3 keeps two bits of its fraction, and from grid point
        # 3/8 its step moves exactly 2^50: residual 0 at q = 1, a false
        # 0/1, which the guard |p| <= q refuses
        assert rational_witness(RotationLift(2.0**50 + 0.3)) is None

    def test_ln2_rotation_has_no_witness(self):
        est = rotation_number(RotationLift(math.log(2.0)), iterates=10**4)
        assert est.rational_witness is None
        assert abs(est.value - math.log(2.0)) <= est.error_bound

    def test_exact_iterate(self):
        F = RotationLift(0.3)
        assert iterate(F, 0.25, 10) == pytest.approx(0.25 + 3.0, abs=1e-12)
        assert iterate(F, 0.25, -10) == pytest.approx(0.25 - 3.0, abs=1e-12)

    def test_compose_fuses(self):
        g = compose(RotationLift(0.25), RotationLift(0.5))
        assert isinstance(g, RotationLift)
        assert g.alpha == 0.75


class TestChartAffineLift:
    def test_fixes_glued_point_exactly(self):
        F = ChartAffineLift(2.0, 0.0)
        assert F(0.0) == 0.0
        assert F(3.0) == 3.0

    def test_continuous_just_below_an_integer(self):
        # x - floor(x) rounds to 1.0 for x in (-2^-54, 0): that is the
        # glued point of the next integer, not a point next to it
        F = ChartAffineLift(0.0625**6, 0.0)
        for x in (-1e-300, 0.0, 1e-300):
            assert abs(F.raw(x)) < 1e-12
        assert np.all(np.abs(F.raw(np.array([-1e-300, 0.0, 1e-300]))) < 1e-12)

    def test_matches_real_line_action(self):
        F = ChartAffineLift(2.0, 1.0)
        xs = np.array([-5.0, -0.3, 0.0, 0.7, 4.0, 1e5])
        out = real(np.array([F(v) for v in chart(xs)]))
        assert np.all(np.abs(out - (2.0 * xs + 1.0)) <= 1e-6 * (1.0 + np.abs(xs)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_conjugation_relation_is_exact(self, n):
        f = ChartAffineLift(1.0, 1.0)
        h = ChartAffineLift(float(n), 0.0)
        lhs = compose(compose(h, f), h.inverse())
        rhs = f.power(n)
        assert isinstance(lhs, ChartAffineLift)
        assert lhs.a == rhs.a == 1.0
        assert lhs.b == rhs.b == float(n)

    def test_inverse_fuses_to_identity(self):
        f = ChartAffineLift(1.0, 1.0)
        g = compose(f, f.inverse())
        assert isinstance(g, ChartAffineLift)
        assert (g.a, g.b) == (1.0, 0.0)

    def test_pointwise_relation_residual_without_fusion(self):
        n = 3
        f = ChartAffineLift(1.0, 1.0)
        h = ChartAffineLift(3.0, 0.0)
        hinv = h.inverse()
        xs = np.arange(0.0, 1.0, 1.0 / 97.0)
        lhs = h.raw(f.raw(hinv.raw(xs)))
        rhs = iterate(f, xs, n)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_power_formula_matches_repeated_application(self):
        F = ChartAffineLift(2.0, 0.5)
        x = 0.37
        y = x
        for _ in range(6):
            y = F(y)
        assert iterate(F, x, 6) == pytest.approx(y, abs=1e-10)

    def test_parabolic_translation_rotation_number_zero(self):
        est = rotation_number(ChartAffineLift(1.0, 1.0), iterates=10**4)
        assert est.rational_witness is not None
        p, q, _, res = est.rational_witness
        assert (p, q) == (0, 1)
        assert res == 0.0

    def test_validate_passes(self):
        ChartAffineLift(0.5, -2.0).validate()

    @pytest.mark.parametrize("a", [math.inf, 0.0, -1.0, math.nan])
    def test_rejects_slopes_outside_zero_to_inf(self, a):
        with pytest.raises(ValueError, match="0 < a < inf"):
            ChartAffineLift(a, 0.0)
        with pytest.raises(ValueError, match="0 < a < inf"):
            ChartAffineLift(a, 0.0, m=2)

    def test_rejects_fewer_than_one_block(self):
        with pytest.raises(ValueError, match="at least one block"):
            ChartAffineLift(1.0, 0.0, m=0)
        # block counts and shifts are integers
        with pytest.raises(TypeError):
            ChartAffineLift(1.0, 0.0, m=2, shift=0.5)

    def test_power_with_an_infinite_slope_raises(self):
        F = ChartAffineLift(1e200, 0.0)
        for L in (F, ChartAffineLift(1e200, 0.0, m=3, shift=1)):
            with pytest.raises(ValueError, match="^this power of ChartAffineLift has no closed form$"):
                L.power(2)
        # the composition stays unfused, with the bits of two steps
        F2 = F.compose(F)
        assert isinstance(F2, ComposedLift)
        xs = np.linspace(-1.0, 2.0, 61)
        assert np.array_equal(F2.raw(xs), F.raw(F.raw(xs)))

    def test_rotation_number_of_an_overflowing_power(self):
        # 2^10000 overflows, so the estimate falls back to the orbit average
        F = ChartAffineLift(2.0, 0.0)
        assert rotation_number(F, iterates=10**4).value == 0.0

    def test_overflowing_power_raises(self):
        # 2^100000 overflows, forward and backward
        for L, m in ((ChartAffineLift(2.0, 0.0), 10**5), (ChartAffineLift(2.0, 0.0, m=3), -(10**5))):
            with pytest.raises(ValueError, match="has no closed form"):
                L.power(m)

    def test_iterate_steps_a_power_with_no_closed_form(self):
        # (1e200)^2 overflows: the iterate is two steps of F or of F^-1
        F = ChartAffineLift(1e200, 0.0, m=3, shift=1)
        G = F.inverse()
        assert iterate(F, 0.1, 2) == F(F(0.1))
        assert iterate(F, 0.1, -2) == G(G(0.1))
        xs = np.linspace(-1.0, 2.0, 61)
        assert np.array_equal(iterate(F, xs, 2), F.raw(F.raw(xs)))


class TestPiecewiseLift:
    def make(self):
        return PiecewiseLift([0.0, 0.25, 0.6], [0.1, 0.5, 0.8]).validate()

    def test_hits_breakpoints(self):
        F = self.make()
        assert F(0.0) == pytest.approx(0.1, abs=1e-14)
        assert F(0.25) == pytest.approx(0.5, abs=1e-14)
        assert F(0.6) == pytest.approx(0.8, abs=1e-14)

    def test_inverse_is_exact_lift_inverse(self):
        F = self.make()
        G = F.inverse()
        xs = np.arange(0.0, 1.0, 1.0 / 211.0)
        assert np.max(np.abs(G.raw(F.raw(xs)) - xs)) < 1e-12
        assert np.max(np.abs(F.raw(G.raw(xs)) - xs)) < 1e-12

    def test_inverse_with_wrapping_table(self):
        F = PiecewiseLift([0.0, 0.5], [0.7, 1.2]).validate()
        G = F.inverse()
        xs = np.arange(0.0, 1.0, 1.0 / 211.0)
        assert np.max(np.abs(G.raw(F.raw(xs)) - xs)) < 1e-12

    def test_seeded_random_tables_invert(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            bx = np.sort(rng.uniform(0.0, 1.0, size=k))
            if np.min(np.diff(bx)) < 1e-3:
                continue
            by = np.sort(rng.uniform(0.0, 1.0, size=k)) + rng.uniform(-1.0, 1.0)
            if np.min(np.diff(by)) < 1e-3 or not (by[-1] < by[0] + 1.0):
                continue
            F = PiecewiseLift(bx, by).validate()
            G = F.inverse()
            xs = rng.uniform(-1.0, 2.0, size=64)
            assert np.max(np.abs(G.raw(F.raw(xs)) - xs)) < 1e-10

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            PiecewiseLift([0.0, 0.5], [0.2, 0.1])
        with pytest.raises(ValueError):
            PiecewiseLift([0.5, 0.2], [0.1, 0.2])
        with pytest.raises(ValueError):
            PiecewiseLift([0.0, 0.5], [0.0, 1.1])


class TestBlocks:
    def test_block_endpoints_are_fixed(self):
        F = ChartAffineLift(2.0, 0.0, m=2)
        assert F(0.0) == 0.0
        assert F(0.5) == 0.5
        assert F(1.0) == 1.0

    def test_fixed_points_certify_rotation_zero(self):
        est = rotation_number(ChartAffineLift(1.0, 1.0, m=2), iterates=2000)
        assert est.rational_witness is not None
        p, q, x, res = est.rational_witness
        assert (p, q) == (0, 1)
        assert res == 0.0

    def test_power_matches_repeated_application(self):
        F = ChartAffineLift(2.0, 0.3, m=3, shift=2)
        x = 0.41
        y = x
        for _ in range(5):
            y = F(y)
        assert iterate(F, x, 5) == pytest.approx(y, abs=1e-10)

    def test_compose_fuses_blockwise(self):
        f = ChartAffineLift(1.0, 1.0, m=2, shift=1)
        h = ChartAffineLift(3.0, 0.0, m=2)
        lhs = compose(compose(h, f), h.inverse())
        assert isinstance(lhs, ChartAffineLift)
        assert (lhs.m, lhs.shift, lhs.a, lhs.b) == (2, 1, 1.0, 3.0)
        # on other blocks the composition stays unfused
        assert isinstance(compose(h, ChartAffineLift(3.0, 0.0, m=3)), ComposedLift)

    def test_shift_moves_whole_blocks(self):
        # a shift by j blocks of the identity chart map is the rotation by j/m
        F = ChartAffineLift(1.0, 0.0, m=4, shift=3)
        xs = np.arange(-8, 9) / 4.0
        assert np.array_equal(F.raw(xs), xs + 0.75)

    def test_inverse_round_trip(self):
        F = ChartAffineLift(2.0, -0.7, m=3, shift=-2)
        G = F.inverse()
        xs = np.arange(0.0, 1.0, 1.0 / 211.0)
        assert np.max(np.abs(G.raw(F.raw(xs)) - xs)) < 1e-10


class TestRotationNumberGeneric:
    def test_matches_naive_estimate_on_perturbed_rotation(self):
        F = callable_lift(
            lambda x: x + 0.29 + 0.04 * np.sin(2.0 * np.pi * x)
        ).validate()
        est = rotation_number(F, iterates=20000)
        ref = naive_rotation_number(F, n=20000)
        assert circle_dist(est.value, ref) < 2e-4

    def test_conjugation_invariance(self):
        alpha = 0.3137
        F = RotationLift(alpha)
        g = PiecewiseLift([0.0, 0.3, 0.7], [0.0, 0.45, 0.8]).validate()
        conj = ComposedLift(ComposedLift(g, F), g.inverse())
        est = rotation_number(conj, iterates=50000)
        assert circle_dist(est.value, alpha) < 1e-4

    def test_stepped_sum_reads_the_first_n_pairs_of_a_given_orbit(self):
        F, N = denjoy_lift(GOLDEN_MEAN, 6, 0.5), 1000
        with pytest.raises(ValueError, match="no closed form"):
            F.power(N)
        calls = []

        def pairs():
            # five pairs past N, which the sum must not read
            calls.append(N + 5)
            return orbit_arrays(F, 0.0, N + 5)

        est, ref = rotation_number(F, N, pairs=pairs), rotation_number(F, N)
        assert est == ref and est.value.hex() == ref.value.hex()
        assert calls == [N + 5]

    def test_closed_form_power_reads_no_pair(self):
        F = RotationLift(GOLDEN_MEAN)

        def pairs():
            raise AssertionError("a closed-form power steps no orbit")

        est, ref = rotation_number(F, 1000, pairs=pairs), rotation_number(F, 1000)
        assert est == ref and est.value.hex() == ref.value.hex()

    def test_error_bound_honest_for_rotation(self):
        for alpha in (0.1234, math.log(2.0), GOLDEN_MEAN):
            est = rotation_number(RotationLift(alpha), iterates=5000)
            assert circle_dist(est.value, alpha) <= est.error_bound


def embed(F, u):
    """The point of Denjoy lift F's circle at the point u of the rotation
    circle: u scaled into the room the inserted intervals leave, plus the
    intervals of the orbit points before u."""
    widths = np.diff(np.array(F.inserted_intervals), axis=1)[:, 0]
    orbit_points = np.sort(wrap(np.arange(-F.depth, F.depth + 1) * F.alpha))
    u = wrap(u)
    return u * (1.0 - widths.sum()) + widths[orbit_points < u].sum()


class TestDenjoy:
    def test_depth_zero_is_rotation(self):
        F = denjoy_lift(GOLDEN_MEAN, 0, 0.6)
        assert isinstance(F, RotationLift)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_is_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            denjoy_lift(alpha, 3, 0.5)

    def test_piecewise_affine_and_valid(self):
        F = denjoy_lift(GOLDEN_MEAN, 8, 0.6)
        assert isinstance(F, DenjoyLift)
        assert F.depth == 8
        assert len(F.inserted_intervals) == 17
        total = sum(b - a for a, b in F.inserted_intervals)
        assert 0.0 < total < 1.0

    def test_rotation_number_close_to_alpha_no_witness(self):
        F = denjoy_lift(GOLDEN_MEAN, 8, 0.6)
        est = rotation_number(F, iterates=10**4)
        assert circle_dist(est.value, GOLDEN_MEAN) < 1e-3
        assert est.rational_witness is None

    def test_intervals_map_onto_next_intervals(self):
        F = denjoy_lift(GOLDEN_MEAN, 6, 0.6)
        # reconstruct the chain: image of each interval is again an interval
        ivals = F.inserted_intervals
        starts = np.array([a for a, _ in ivals])
        for a, b in ivals:
            fa, fb = wrap(F(a)), wrap(F(b))
            width = (fb - fa) % 1.0
            hits = circle_dist(fa, starts) < 1e-9
            if hits.any():
                j = int(np.argmax(hits))
                assert abs(width - (ivals[j][1] - ivals[j][0])) < 1e-9

    def test_gap_orbit_rarely_enters_intervals(self):
        F = denjoy_lift(GOLDEN_MEAN, 8, 0.6)
        x = embed(F, 0.1234567)
        lo = np.array([a for a, _ in F.inserted_intervals])
        hi = np.array([b for _, b in F.inserted_intervals])
        inside = 0
        y = x
        for _ in range(4000):
            y = wrap(F(y))
            inside += int(np.any((y > lo + 1e-12) & (y < hi - 1e-12)))
        assert inside / 4000.0 < 0.05

    def test_embedding_conjugates_rotation_off_the_seams(self):
        F = denjoy_lift(GOLDEN_MEAN, 8, 0.6)
        u = 0.245
        x = embed(F, u)
        y = embed(F, wrap(u + GOLDEN_MEAN))
        assert circle_dist(wrap(F(x)), y) < 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            denjoy_lift(0.5, 4, 0.6)  # orbit collides
        with pytest.raises(ValueError):
            denjoy_lift(GOLDEN_MEAN, 4, 1.5)
        with pytest.raises(ValueError):
            denjoy_lift(GOLDEN_MEAN, -1, 0.5)

    @pytest.mark.parametrize(
        "depth, gap_ratio, length", [(12, 0.05, "1.2e-16"), (30, 0.3, "7.2e-17")]
    )
    def test_thin_blow_up_names_its_parameters(self, depth, gap_ratio, length):
        # inserted intervals below the float spacing collide in the
        # breakpoint tables, which denjoy_lift reports in its own terms
        with pytest.raises(ValueError) as err:
            denjoy_lift(GOLDEN_MEAN, depth, gap_ratio)
        assert str(err.value) == (
            f"denjoy(0.618034, depth {depth}, gap_ratio {gap_ratio:g}): "
            f"breakpoints collide, the smallest inserted interval being "
            f"{length} long; lower the depth or raise gap_ratio"
        )


class TestValidate:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            callable_lift(lambda x: x + 0.3 * np.sin(2.0 * np.pi * x)).validate()

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            callable_lift(lambda x: 1.5 * x).validate()


class TestSpecs:
    def test_parse_rotation_fraction(self):
        F = parse_k_spec("rot:1/3")
        assert isinstance(F, RotationLift)
        assert F.alpha == pytest.approx(1.0 / 3.0)

    def test_parse_named_angles(self):
        assert parse_k_spec("rot:golden").alpha == pytest.approx(GOLDEN_MEAN)
        assert parse_k_spec("rot:ln2").alpha == pytest.approx(math.log(2.0))

    def test_parse_identity_affine_denjoy(self):
        assert parse_k_spec("id").alpha == 0.0
        A = parse_k_spec("affine:2,0.5")
        assert isinstance(A, ChartAffineLift)
        assert (A.a, A.b) == (2.0, 0.5)
        D = parse_k_spec("denjoy:golden,4,0.6")
        assert isinstance(D, DenjoyLift)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_k_spec("whirl:3")
        with pytest.raises(ValueError):
            parse_k_spec("nonsense")
