import math
import sys
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsdl import experiments
from bsdl.bsgroup import relation_report
from bsdl.catalog import (
    morse_smale_example,
    nonfaithful_circle,
    periodic_circle_example,
    periodic_torus_example,
    perturbed_torus,
    product_action,
    standard_line,
    standard_torus,
)
from bsdl.circle import RotationLift, circle_dist, compose, wrap
from bsdl.estimators import CellSet, fixed_cells
from bsdl.experiments import (
    GraphFoldError,
    NonConvergentError,
    PeriodicSpline,
    _bump_field,
    _bump_modes,
    _products,
    classify_perturbed,
    conjugated_action,
    find_invariant_circle,
    near_identity_diffeo,
    persistent_fixed_point,
    restricted_circle_map,
)
from bsdl.gl2z import IntMatrix2
from bsdl.torus import (
    LinearTorusLift,
    bs_rotation_constraint,
    rotation_set,
)

from lifts import CountingTorusLift, callable_lift


def vertical_bump(eps):
    """(u, t) -> (u + eps w(u) sin 2 pi t, t) with w vanishing at u = 1/2.

    The fiber circle u = 1/2 stays pointwise fixed, the displacement is
    maximal size eps on the glued-point circle u = 0.
    """

    def fn(v):
        v = np.asarray(v, dtype=float)
        u, t = v[..., 0], v[..., 1]
        w = 0.5 * (1.0 - np.cos(2.0 * np.pi * (u - 0.5)))
        return np.stack([u + eps * w * np.sin(2.0 * np.pi * t), t], axis=-1)

    def inv(wv):
        wv = np.asarray(wv, dtype=float)
        y = np.array(wv, copy=True)
        for _ in range(60):
            u = y[..., 0]
            w = 0.5 * (1.0 - np.cos(2.0 * np.pi * (u - 0.5)))
            u2 = wv[..., 0] - eps * w * np.sin(2.0 * np.pi * wv[..., 1])
            done = float(np.max(np.abs(u2 - u))) < 1e-15
            y[..., 0] = u2
            if done:
                break
        return y

    return callable_lift(fn, inv, label=f"vbump({eps:g})", torus=True)


class TestFindInvariantCircle:
    def test_exact_seed_zero_iterations(self):
        c = find_invariant_circle(standard_torus(2).h, 0.0)
        assert c.iterations == 0
        assert c.residual < 1e-12
        assert np.max(np.abs(c.at([0.1, 0.7]))) < 1e-12

    def test_repelling_circle_is_attracting_for_the_inverse(self):
        c = find_invariant_circle(standard_torus(2).h.inverse(), 0.5)
        assert c.iterations == 0
        assert c.residual < 1e-12

    def test_perturbed_attracting_circle(self):
        h = compose(vertical_bump(1e-2), standard_torus(2).h)
        c = find_invariant_circle(h, 0.0)
        assert c.residual < 1e-8
        assert c.iterations > 0
        # stays near the unperturbed circle but genuinely bends
        assert np.max(np.abs(c.graph)) < 0.1
        assert c.spread() > 1e-3

    def test_perturbed_repelling_circle_is_untouched_fiber(self):
        h = compose(vertical_bump(1e-2), standard_torus(2).h)
        c = find_invariant_circle(h.inverse(), 0.5)
        assert c.residual < 1e-12
        assert c.spread() < 1e-12

    def test_residual_is_recomputed_not_assumed(self):
        h = compose(vertical_bump(1e-2), standard_torus(2).h)
        c = find_invariant_circle(h, 0.0)
        img = h.raw(np.stack([c.graph, c.thetas], axis=-1))
        target = c.at(img[..., 1])
        assert float(np.max(circle_dist(img[..., 0], target))) < 1e-8

    def test_fold_detection(self):
        def fn(v):
            v = np.asarray(v, dtype=float)
            u, t = v[..., 0], v[..., 1]
            return np.stack(
                [u + 0.01 * np.cos(2 * np.pi * t), t + 0.6 * np.sin(2 * np.pi * t)],
                axis=-1,
            )

        with pytest.raises(GraphFoldError):
            find_invariant_circle(callable_lift(fn, torus=True), 0.0)

    def test_nonconvergence_reports_history(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_PUSHES", 3)
        h = compose(vertical_bump(1e-2), standard_torus(2).h)
        with pytest.raises(NonConvergentError) as info:
            find_invariant_circle(h, 0.0)
        assert len(info.value.residuals) == 4

    def test_each_graph_maps_through_h_once(self):
        # the image of a graph serves both its residual and its push, so
        # k pushes evaluate h k + 1 times
        for h in (standard_torus(2).h, compose(vertical_bump(1e-2), standard_torus(2).h)):
            counted = CountingTorusLift(h)
            c = find_invariant_circle(counted, 0.0)
            assert counted.raw_calls == c.iterations + 1
        assert c.iterations > 0

    def test_fixed_cells_meet_attracting_avoid_repelling(self):
        act = standard_torus(2)
        c1 = find_invariant_circle(act.h, 0.0)
        c2 = find_invariant_circle(act.h.inverse(), 0.5)
        P = fixed_cells(act.f, 256)
        tg = np.arange(1024) / 1024
        cells1 = CellSet.from_points(
            np.stack([wrap(c1.at(tg)), tg], axis=-1), 256, "torus"
        )
        cells2 = CellSet.from_points(
            np.stack([wrap(c2.at(tg)), tg], axis=-1), 256, "torus"
        )
        assert len(P.intersect(cells1)) > 0
        assert len(P.intersect(cells2)) == 0
        # the repelling circle is pushed clean off itself by f
        pts = np.stack([wrap(c2.at(tg)), tg], axis=-1)
        img = act.f.raw(pts)
        assert float(np.min(circle_dist(img[..., 0], 0.5))) > 0.2

    def test_nan_image_is_not_converged(self):
        # a NaN residual fails both `res > tol` and `res <= tol`; it must
        # not pass for a converged circle
        def fn(v):
            out = np.array(v, dtype=float)
            out[..., 0] *= 0.5
            out[..., 1][out[..., 1] == 0.25] = np.nan
            return out

        with pytest.raises(NonConvergentError) as info:
            find_invariant_circle(callable_lift(fn, torus=True), 0.0, samples=16)
        assert np.isnan(info.value.residuals).tolist() == [True]

    def test_estimate_keeps_the_last_residual_spline(self, monkeypatch):
        # one spline per push and one per residual, none rebuilt for the
        # estimate, which evaluates the one its residual was measured on
        built = []

        class Counted(PeriodicSpline):
            def __init__(self, knots, values):
                super().__init__(knots, values)
                built.append(self)

        monkeypatch.setattr(experiments, "PeriodicSpline", Counted)
        h = compose(vertical_bump(1e-2), standard_torus(2).h)
        c = find_invariant_circle(h, 0.0)
        assert c.iterations > 0
        assert len(built) == 2 * c.iterations + 1
        assert c.spline is built[-1]


def spline_knots(uniform):
    """(knots, values) of a periodic spline: a uniform grid from 0, or
    sorted knots from a random start whose spacings differ at most
    twentyfold."""
    if uniform:
        return st.integers(1, 64).flatmap(lambda n: st.tuples(
            st.just(np.arange(n) / n),
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array),
        ))

    def build(lo, gaps, values):
        gaps = np.array(gaps)
        cuts = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) / np.sum(gaps)
        return lo + cuts, np.array(values)

    return st.integers(1, 40).flatmap(lambda n: st.builds(
        build,
        st.floats(-2.0, 2.0),
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
    ))


splines = st.one_of(spline_knots(True), spline_knots(False))

# A 23-knot spline of `spline_knots(False)`: at x = -1.71875 PeriodicSpline
# is 5.3e-15 above the exact spline and scipy's periodic CubicSpline 5.1e-15
# below it, so the two floats differ by more than the 1e-14 bound
PINNED_SPLINE = (
    np.array([
        0.0, 0.03669724770642202, 0.05504587155963303, 0.07339449541284404,
        0.09174311926605505, 0.11009174311926606, 0.11926605504587157,
        0.12844036697247707, 0.13761467889908258, 0.28440366972477066,
        0.43119266055045874, 0.5412844036697247, 0.6330275229357798,
        0.7064220183486238, 0.8165137614678899, 0.8532110091743119,
        0.8899082568807339, 0.908256880733945, 0.944954128440367,
        0.9541284403669725, 0.963302752293578, 0.9724770642201835,
        0.9908256880733946,
    ]),
    np.array([0.0] * 7 + [1.0, -1.0] + [0.0] * 14),
)

# A 10-knot spline of `spline_knots(False)` at spacing ratio 18.1: at
# x = 0.90625, in a long interval next to short ones, PeriodicSpline is
# 1.06e-14 (96 u) from the exact spline, while its second derivatives
# are within 0.52 u of the exact ones relative to their norm, 4723: the
# value's terms, of sizes 0.84, 29.4, 38.7 and 8.7, cancel to -0.19
RHO_18_SPLINE = (
    np.array([
        0.0, 0.022160664819944602, 0.4238227146814405, 0.44598337950138517,
        0.4875346260387813, 0.5096952908587259, 0.9113573407202219,
        0.9335180055401664, 0.955678670360111, 0.9778393351800555,
    ]),
    np.array([
        0.0, -0.06621949920270231, 0.09375, 0.38668996798103517,
        0.592484806155317, -0.8362022438035028, 0.09375, 0.982421875,
        0.4375, 0.0,
    ]),
)


def one_sided(sp):
    """Value, first and second derivative of each interval's cubic at its
    left knot and at its right one, as two (3, n) arrays, and for each
    order the size of the largest term that enters it."""
    _, c0, c1, c2, c3 = sp.table
    h = np.diff(sp.knots)
    left = np.array([c3, c2, 2.0 * c1])
    right = np.array([
        c3 + h * (c2 + h * (c1 + h * c0)),
        c2 + h * (2.0 * c1 + 3.0 * h * c0),
        2.0 * c1 + 6.0 * h * c0,
    ])
    terms = [
        np.abs([c3, h * c2, h * h * c1, h ** 3 * c0]),
        np.abs([c2, 2.0 * h * c1, 3.0 * h * h * c0]),
        np.abs([2.0 * c1, 6.0 * h * c0]),
    ]
    return left, right, [float(np.max(t)) for t in terms]


def exact_spline(knots, values):
    """The periodic cubic spline through float (knots, values), closed by
    the knot knots[0] + 1.0, in exact rational arithmetic.

    Its second derivatives M solve the cyclic system A M = r with row i
    h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (d[i] -
    d[i-1]), indices mod n. With g = -A[0][0], A = T + u v^T for T
    tridiagonal, u = (g, 0, ..., 0, h[n-1]) and v = (1, 0, ..., 0, h[n-1]
    / g); Thomas's sweeps solve T x = r and T z = u, and Sherman-Morrison
    gives M = x - z (v.x) / (1 + v.z). The corner terms are added into u,
    v and T's diagonal, so with one or two knots, where they meet the
    band, the sum is still A. Every row of A M = r is checked exactly.
    Returns the spline as a function of one Fraction, and M.
    """
    xs = [Fraction(k) for k in knots] + [Fraction(knots[0] + 1.0)]
    ys = [Fraction(y) for y in values]
    n = len(ys)
    h = [b - a for a, b in zip(xs, xs[1:])]
    d = [(ys[(i + 1) % n] - ys[i]) / h[i] for i in range(n)]
    sub = [h[i - 1] for i in range(n)]
    diag = [2 * (a + b) for a, b in zip(sub, h)]
    r = [6 * (d[i] - d[i - 1]) for i in range(n)]
    g = -diag[0]
    T = diag[:]
    T[0] -= g
    T[-1] -= h[-1] * h[-1] / g
    u, v = [Fraction(0)] * n, [Fraction(0)] * n
    u[0] += g
    u[-1] += h[-1]
    v[0] += 1
    v[-1] += h[-1] / g
    # the forward sweep; sub[0] multiplies the zero carried into row 0
    cs, x, z = [], [], []
    c = xi = zi = Fraction(0)
    for i in range(n):
        m = T[i] - sub[i] * c
        c = h[i] / m
        xi = (r[i] - sub[i] * xi) / m
        zi = (u[i] - sub[i] * zi) / m
        cs.append(c)
        x.append(xi)
        z.append(zi)
    for i in range(n - 2, -1, -1):
        x[i] -= cs[i] * x[i + 1]
        z[i] -= cs[i] * z[i + 1]
    k = sum(a * b for a, b in zip(v, x)) / (1 + sum(a * b for a, b in zip(v, z)))
    M = [a - k * b for a, b in zip(x, z)]
    for i in range(n):
        row = sub[i] * M[i - 1] + diag[i] * M[i] + h[i] * M[(i + 1) % n]
        assert row == r[i], i
    second = M[:]
    M.append(M[0])

    def at(t):
        # the interval from knot i holds [xs[i], xs[i + 1]); a t outside
        # [xs[0], xs[n]) extends the first or the last cubic
        i = bisect_right(xs, t, 1, n) - 1
        s = t - xs[i]
        c0 = (M[i + 1] - M[i]) / (6 * h[i])
        c2 = d[i] - h[i] * (2 * M[i] + M[i + 1]) / 6
        return ys[i] + s * (c2 + s * (M[i] / 2 + s * c0))

    return at, second


def rounding_bounds(sp, values, M_norm):
    """Bounds on how far `PeriodicSpline` sp's second derivatives and
    values may lie from those of the exact spline, whose second
    derivatives have sup norm M_norm, derived from the cyclic system's
    conditioning; the knot count does not enter.

    With u = 2^-53, Y = max |y| and the spacings' h_min, h_max and ratio
    rho = h_max / h_min: the system scaled by its diagonal 2 (h[i-1] +
    h[i]) is I + E with the row sums of |E| exactly 1/2, so its inverse
    has norm at most 2, and |M| <= 12 Y / h_min^2. A solve backward
    stable to 16 u (Thomas's sweeps on a diagonally dominant matrix
    12 u, the rounded matrix 2 u, the rank-one correction 2 u), with the
    right side 6 (d[i] - d[i-1]) rounded by at most 5 u of 6 (|d[i]| +
    |d[i-1]|), is then off by at most u (48 |M| + 60 Y / h_min^2). On an
    interval of length h <= h_max the value's terms y, s c2, s^2 c1 and
    s^3 c0 sum to at most T = Y (3 + 16 rho^2); Horner's rounding (6 u),
    the coefficients' (5 u) and that of s (3 u) cost 14 u T, and the
    error in M moves the value by at most h^2 / 8 of it, 79.5 u Y rho^2.
    The value is then within u Y (42 + 304 rho^2) of the exact one.
    Below the normal floats a rounding may err by 2^-1074 = 2 u lambda,
    lambda = 2^-1022, whatever its relative size, so Y is taken as at
    least max |y| + 2 lambda.
    """
    u = 2.0 ** -53
    h = np.diff(sp.knots)
    Y = float(np.max(np.abs(values))) + 2.0 * sys.float_info.min
    rho = float(np.max(h) / np.min(h))
    return (u * (48.0 * M_norm + 60.0 * Y / float(np.min(h)) ** 2),
            u * Y * (42.0 + 304.0 * rho ** 2))


class TestPeriodicSpline:
    @settings(max_examples=150, deadline=None)
    @given(splines)
    def test_exact_at_the_nodes(self, kv):
        knots, values = kv
        sp = PeriodicSpline(knots, values)
        assert np.array_equal(sp.at(knots), values)
        assert [sp.at_float(x) for x in knots.tolist()] == values.tolist()

    @settings(max_examples=150, deadline=None)
    @given(splines)
    def test_c2_at_every_knot_and_the_seam(self, kv):
        sp = PeriodicSpline(*kv)
        left, right, scale = one_sided(sp)
        # the end of interval i against the start of interval i + 1, the
        # end of the last one against the start of the first
        for order in range(3):
            gap = np.abs(right[order] - np.roll(left[order], -1))
            assert np.max(gap) <= 1e-13 * scale[order], order

    @settings(max_examples=150, deadline=None)
    @given(splines, st.floats(-2.0, 2.0), st.integers(-8, 8))
    def test_period_one(self, kv, x, k):
        sp = PeriodicSpline(*kv)
        # x + k is exact, so only the remap into the period may round
        x = (x + k) - k
        slope = one_sided(sp)[2][1] / np.min(np.diff(sp.knots))
        bound = 1e-15 * (1.0 + slope)
        assert abs(sp.at(x + k) - sp.at(x)) <= bound
        assert abs(sp.at_float(x + k) - sp.at_float(x)) <= bound

    @settings(max_examples=150, deadline=None)
    @given(splines, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=32))
    @example(kv=PINNED_SPLINE, xs=[-1.71875])
    @example(kv=RHO_18_SPLINE, xs=[0.90625])
    def test_matches_the_exact_rational_spline(self, kv, xs):
        knots, values = kv
        x = np.array(xs)
        x = x - np.floor(x - knots[0])
        exact, M = exact_spline(knots.tolist(), values.tolist())
        want = [exact(Fraction(t)) for t in x.tolist()]
        sp = PeriodicSpline(knots, values)
        M_bound, value_bound = rounding_bounds(sp, values, float(max(map(abs, M))))
        # c1 is M / 2, exactly
        M_err = max(abs(Fraction(2.0 * c) - m) for c, m in zip(sp.table[2].tolist(), M))
        assert M_err <= M_bound
        err = max(abs(Fraction(y) - w) for y, w in zip(sp.at(x).tolist(), want))
        assert err <= value_bound

    def test_at_float_is_at_off_the_period(self):
        sp = PeriodicSpline(np.sort(np.random.default_rng(1).uniform(0.0, 1.0, 50)),
                            np.random.default_rng(2).uniform(-1.0, 1.0, 50))
        xs = np.concatenate([np.random.default_rng(3).uniform(-5.0, 5.0, 2000),
                             sp.knots, np.nextafter(sp.knots, -9.0), sp.knots - 3.0])
        ys = sp.at(xs).tolist()
        assert all(sp.at_float(x) == y for x, y in zip(xs.tolist(), ys))
        with np.errstate(invalid="ignore"):
            assert np.isnan(sp.at(np.array([np.nan, np.inf, -np.inf]))).all()
        assert all(math.isnan(sp.at_float(x)) for x in (math.nan, math.inf, -math.inf))

    @pytest.mark.parametrize("knots, values", [
        ([0.0, 0.5], [0.0, np.nan]),
        ([0.0, 0.5], [np.inf, 0.0]),
        ([0.0, np.nan], [0.0, 1.0]),
        ([-np.inf, 0.5], [0.0, 1.0]),
        ([0.0, 0.5, 0.5], [0.0, 1.0, 2.0]),
        ([0.5, 0.25], [0.0, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, 1.0, 2.0]),
        ([0.0, 0.5], [0.0]),
        ([], []),
    ])
    def test_rejects_bad_knots_and_values(self, knots, values):
        with pytest.raises(ValueError):
            PeriodicSpline(knots, values)


class TestRestrictedCircleMap:
    def test_product_fiber_is_exact(self):
        act = perturbed_torus(2, 0.7 - np.log(2.0))
        c = find_invariant_circle(act.h, 0.0)
        r, kind = restricted_circle_map(act.h, c)
        assert kind == "product-fiber"
        assert r is act.h.fiber

    def test_graph_restriction_is_a_lift(self):
        act = conjugated_action(standard_torus(2), near_identity_diffeo(1e-3, seed=5))
        c = find_invariant_circle(act.h, 0.0)
        r, kind = restricted_circle_map(act.h, c)
        assert kind == "graph"
        for t in (0.0, 0.3, 0.77):
            assert abs(float(r.raw(t + 1.0)) - float(r.raw(t)) - 1.0) < 1e-9


class TestClassifyPerturbed:
    def test_rational_fiber_gives_finite_orbits(self):
        rep = classify_perturbed(perturbed_torus(2, 0.7 - np.log(2.0)))
        assert rep.outcome == "FiniteOrbits"
        w = rep.evidence["witness"]
        assert (w["p"], w["q"]) == (7, 10)
        assert rep.orbit is not None and rep.orbit.size == 10
        assert rep.orbit.defect is not None and rep.orbit.defect < 1e-6
        assert np.max(np.abs(rep.orbit.points[:, 0])) < 1e-12

    def test_closed_form_rational_fiber_steps_no_fiber_point(self, monkeypatch):
        # rot:1/4 has a closed-form power and a witness, so the fiber is
        # stepped only by the orbit closure that follows
        steps, at_closure = [], []
        step, closure = RotationLift.step, experiments.finite_bs_orbit
        monkeypatch.setattr(RotationLift, "step", lambda F, x: steps.append(x) or step(F, x))
        monkeypatch.setattr(
            experiments,
            "finite_bs_orbit",
            lambda *a, **k: at_closure.append(len(steps)) or closure(*a, **k),
        )
        rep = classify_perturbed(product_action(2, "rot:1/4"))
        assert rep.outcome == "FiniteOrbits" and at_closure == [0]

    def test_small_irrational_shift_keeps_minimal_circle(self):
        rep = classify_perturbed(perturbed_torus(2, 1e-3))
        assert rep.outcome == "MinimalCircle"
        assert rep.rotation_number.rational_witness is None

    def test_standard_action_minimal_circle(self):
        rep = classify_perturbed(standard_torus(2))
        assert rep.outcome == "MinimalCircle"
        assert rep.evidence["restriction"] == "product-fiber"
        assert rep.evidence["fixed_meets_circle"]
        gaps = rep.evidence["gap_profile"]
        assert gaps["100000"] < 0.02

    def test_denjoy_fiber_gives_cantor(self):
        rep = classify_perturbed(product_action(2, "denjoy:golden,12,0.5"))
        assert rep.outcome == "MinimalCantor"
        assert rep.rotation_number.rational_witness is None
        assert rep.evidence["cantor_strict_subset"]
        for row in rep.evidence["refinements"]:
            assert row["strict_subset"]
            assert row["orbit_cells"] < row["circle_cells"]

    def test_conjugated_action_classified_through_graph(self):
        act = conjugated_action(standard_torus(2), near_identity_diffeo(1e-3, seed=5))
        c = find_invariant_circle(act.h, 0.0)
        rep = classify_perturbed(
            act, c, resolutions=(128, 256), orbit_iterates=20000
        )
        assert rep.outcome == "MinimalCircle"
        assert rep.evidence["restriction"] == "graph"
        assert abs(rep.rotation_number.value - np.log(2.0)) < 1e-3

    def test_circle_action_rejected(self):
        with pytest.raises(ValueError):
            classify_perturbed(nonfaithful_circle(2, "rot:golden"))

    def test_report_json(self):
        rep = classify_perturbed(perturbed_torus(2, 0.7 - np.log(2.0)))
        j = rep.to_json()
        assert j["outcome"] == "FiniteOrbits"
        assert j["rotation_number"]["rational_witness"]["q"] == 10
        assert j["orbit"]["size"] == 10


class TestPersistentFixedPoint:
    def test_global_fixed_point_found_exactly(self):
        v = persistent_fixed_point(morse_smale_example(2))
        assert v is not None
        assert v[0] == 0.0 and v[1] == 0.0

    def test_standard_action_has_none(self):
        assert persistent_fixed_point(standard_torus(2)) is None

    def test_h_fixed_points_filtered_by_f(self):
        # h of the blockwise-periodic torus action has fixed points, but
        # f never does, so no common fixed point may be reported
        assert persistent_fixed_point(periodic_torus_example(3)) is None

    def test_circle_common_fixed_point(self):
        assert persistent_fixed_point(standard_line(2)) == 0.0
        assert persistent_fixed_point(periodic_circle_example(3)) is None
        assert persistent_fixed_point(nonfaithful_circle(2, "rot:golden")) is None

    def test_survives_conjugation(self):
        for seed in (0, 1, 2):
            act = conjugated_action(
                morse_smale_example(2), near_identity_diffeo(1e-3, seed=seed)
            )
            v = persistent_fixed_point(act)
            assert v is not None
            rh = float(np.max(np.abs(act.h.raw(v) - v)))
            rf = float(np.max(np.abs(act.f.raw(v) - v)))
            assert max(rh, rf) < 1e-8
            assert float(np.max(np.minimum(v, 1.0 - v))) < 0.1


def snapped_rotation_set(f, n, grid=16, iterates=4000):
    """The rotation set of f and its snap to the lattice (1/(n-1)) Z^2, the
    check criterion 4 makes: with A_h = I the relation forces
    (n - 1) rho(f) into Z^2."""
    est = rotation_set(f, grid=grid, iterates=iterates)
    return est, bs_rotation_constraint(est.center, IntMatrix2.identity(), n)


class TestRotationSetPersistence:
    def test_standard_f_snaps_to_origin(self):
        est, rep = snapped_rotation_set(standard_torus(2).f, 2)
        assert est.is_point
        assert rep.satisfied and rep.snapped == (0, 0)

    def test_lattice_translation_fails(self):
        # a half translation snaps to the lattice, but not to the origin
        f = LinearTorusLift(IntMatrix2.identity(), (0.5, 0.0))
        est, rep = snapped_rotation_set(f, 3)
        assert rep.residual < 1e-9
        assert rep.snapped == (Fraction(1, 2), 0)

    def test_conjugated_f_still_snaps(self):
        act = conjugated_action(standard_torus(2), near_identity_diffeo(1e-2, seed=3))
        est, rep = snapped_rotation_set(act.f, 2, grid=8, iterates=4000)
        assert est.is_point
        assert rep.satisfied and rep.snapped == (0, 0)

    def test_json(self):
        _, rep = snapped_rotation_set(standard_torus(2).f, 2, grid=8, iterates=2000)
        j = rep.to_json()
        assert j["satisfied"] is True
        assert j["snapped"] == [{"num": 0, "den": 1}, {"num": 0, "den": 1}]


class TestNearIdentityDiffeo:
    def test_declared_size(self):
        psi = near_identity_diffeo(1e-3, seed=0)
        g = np.arange(64) / 64
        mu, mt = np.meshgrid(g, g, indexing="ij")
        mesh = np.stack([mu.ravel(), mt.ravel()], axis=-1)
        disp = np.max(np.abs(psi.raw(mesh) - mesh))
        assert abs(disp - 1e-3) < 5e-5

    def test_inverse_roundtrip(self):
        psi = near_identity_diffeo(1e-2, seed=1)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(40, 2))
        back = psi.inverse().raw(psi.raw(pts))
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_seed_determinism(self):
        a = near_identity_diffeo(1e-3, seed=7)
        b = near_identity_diffeo(1e-3, seed=7)
        c = near_identity_diffeo(1e-3, seed=8)
        pts = np.array([[0.2, 0.3], [0.8, 0.9]])
        assert np.array_equal(a.raw(pts), b.raw(pts))
        assert not np.array_equal(a.raw(pts), c.raw(pts))

    def test_conjugation_preserves_relation(self):
        act = conjugated_action(standard_torus(3), near_identity_diffeo(1e-3, seed=2))
        assert act.n == 3 and act.space == "torus"
        rep = relation_report(act, grid=2000)
        assert rep.primary_residual < 1e-8
        assert rep.secondary_residual < 1e-6

    def test_rejects_maps_that_may_fold(self):
        for bad in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ValueError):
                near_identity_diffeo(bad)
        # seed 0's unit field has Lipschitz bound 16.6: size 0.05 may fold
        with pytest.raises(ValueError, match="Lipschitz"):
            near_identity_diffeo(0.05, seed=0)
        near_identity_diffeo(0.0).inverse().raw(np.array([0.3, 0.4]))

    def test_inverse_converges_far_from_the_unit_square(self):
        # an absolute 1e-15 step is below the spacing of doubles there
        psi = near_identity_diffeo(1e-2, seed=3)
        w = np.random.default_rng(2).uniform(-1e6, 1e6, size=(64, 2))
        back = psi.raw(psi.inverse().raw(w))
        assert np.all(np.abs(back - w) <= 2.0 * np.spacing(np.abs(w)))

    def test_inverse_raises_when_newton_stalls(self):
        with pytest.raises(NonConvergentError):
            near_identity_diffeo(1e-3).inverse().raw(np.array([np.nan, 0.5]))

    def test_a_non_finite_row_stalls_the_whole_batch(self):
        # the batch stops on its largest step, which is NaN in every
        # iteration when one row is not finite
        pts = np.random.default_rng(6).uniform(-1.0, 2.0, size=(33, 2))
        pts[17, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonConvergentError) as info:
            near_identity_diffeo(1e-3).inverse().raw(pts)
        assert len(info.value.residuals) == 60
        assert np.isnan(info.value.residuals).all()

    def test_raw_on_a_grid_is_raw_on_its_rows(self):
        # an (m, k, 2) grid, the shape of bs_minimal_set's K-family samples
        grid = np.random.default_rng(7).uniform(-2.0, 3.0, size=(9, 25, 2))
        psi = near_identity_diffeo(1e-2, seed=5)
        shear = LinearTorusLift(IntMatrix2(1, 1, 0, 1), (0.25, -0.5))
        for F in (psi, psi.inverse(), shear):
            out = F.raw(grid)
            assert out.shape == grid.shape
            assert out.tobytes() == F.raw(grid.reshape(-1, 2)).tobytes(), F.label

    def test_shared_waves_keep_every_bit(self, monkeypatch):
        pts = np.random.default_rng(4).uniform(-1.0, 2.0, size=(257, 2))

        def bits(psi):
            return psi.raw(pts).tobytes(), psi.inverse().raw(pts).tobytes()

        _bump_modes.cache_clear()
        cold = bits(near_identity_diffeo(1e-2, seed=9))
        for seed in range(5):
            near_identity_diffeo(1e-3, seed)
        warm = bits(near_identity_diffeo(1e-2, seed=9))
        # every map's waves computed afresh, as before they were shared
        monkeypatch.setattr(experiments, "_bump_modes", _bump_modes.__wrapped__)
        fresh = bits(near_identity_diffeo(1e-2, seed=9))
        assert cold == warm == fresh

    def test_shared_waves_are_read_only(self):
        for a in _bump_modes():
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def reference_bump(size, seed, modes=2):
    """The 12-mode loop field with a fixed-point inverse, as the bump was
    first written: the reference the vectorized Newton version must
    reproduce."""
    rng = np.random.default_rng(seed)
    ks = [
        (p, q)
        for p in range(-modes, modes + 1)
        for q in range(0, modes + 1)
        if q > 0 or p > 0
    ]
    amp = rng.normal(size=(2, len(ks)))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(2, len(ks)))

    def raw_field(v):
        u, t = v[..., 0], v[..., 1]
        out0 = np.zeros_like(u)
        out1 = np.zeros_like(u)
        for j, (p, q) in enumerate(ks):
            ang = 2.0 * np.pi * (p * u + q * t)
            out0 = out0 + amp[0, j] * np.cos(ang + phase[0, j])
            out1 = out1 + amp[1, j] * np.cos(ang + phase[1, j])
        return np.stack([out0, out1], axis=-1)

    g = np.arange(64) / 64
    mu, mt = np.meshgrid(g, g, indexing="ij")
    mesh = np.stack([mu.ravel(), mt.ravel()], axis=-1)
    scale = 1.0 / float(np.max(np.abs(raw_field(mesh))))

    def fn(v):
        return v + size * scale * raw_field(v)

    def inv(w):
        y = w.copy()
        for _ in range(60):
            y2 = w - size * scale * raw_field(y)
            done = float(np.max(np.abs(y2 - y))) < 1e-15
            y = y2
            if done:
                break
        return y

    return fn, inv


seeds = st.integers(0, 2**32 - 1)
sizes = st.floats(1e-4, 1e-2)
points = st.lists(
    st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)), min_size=1, max_size=16
).map(lambda ps: np.array(ps, dtype=float))


class TestBumpLaws:
    @settings(max_examples=50, deadline=None)
    @given(seeds, sizes, points, st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]))
    def test_periodic(self, seed, size, v, e):
        psi = near_identity_diffeo(size, seed)
        e = np.array(e, dtype=float)
        assert np.max(np.abs(psi.raw(v + e) - (psi.raw(v) + e))) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(seeds, sizes, points)
    def test_round_trips(self, seed, size, v):
        psi = near_identity_diffeo(size, seed)
        inv = psi.inverse()
        assert np.max(np.abs(inv.raw(psi.raw(v)) - v)) < 1e-14
        assert np.max(np.abs(psi.raw(inv.raw(v)) - v)) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(seeds, sizes, points)
    def test_batch_rows_equal_single_points(self, seed, size, v):
        psi = near_identity_diffeo(size, seed)
        inv = psi.inverse()
        fwd, back = psi.raw(v), inv.raw(v)
        for i, p in enumerate(v):
            assert np.max(np.abs(fwd[i] - psi.raw(p))) <= 1e-15
            assert np.max(np.abs(back[i] - inv.raw(p))) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(seeds, sizes, points)
    def test_matches_the_mode_loop_reference(self, seed, size, v):
        psi = near_identity_diffeo(size, seed)
        fn, inv = reference_bump(size, seed)
        assert np.max(np.abs(psi.raw(v) - fn(v))) <= 1e-15
        assert np.max(np.abs(psi.inverse().raw(v) - inv(v))) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(points)
    def test_products_are_elementwise(self, v):
        # the float path (math's cos and sin, a list) has the bits of the
        # array path on the point alone and on its row of a batch. This
        # assumes numpy's float64 cos and sin are the C library's, as in
        # numpy 2.4 on x86-64 with AVX-512 (no SIMD loop for them); a
        # numpy that vectorizes them may round otherwise, and fails here
        batch = _products(v[:, 0], v[:, 1])
        assert batch.shape == (25, len(v))
        for i, (u, t) in enumerate(v.tolist()):
            alone = _products(u, t)
            assert type(alone) is list and all(type(x) is float for x in alone)
            assert np.array(alone).tobytes() == _products(np.array(u), np.array(t)).tobytes()
            assert np.array(alone).tobytes() == batch[:, i].tobytes()

    def test_product_table_gives_the_waves(self):
        K, _, P, _ = _bump_modes()
        v = np.random.default_rng(8).uniform(-1.0, 2.0, size=(2, 4096))
        v[:, :4] = [[-1.0, 2.0, 0.5, 0.0], [2.0, -1.0, 0.25, 0.0]]
        a = K @ v
        waves = P @ _products(v[0], v[1])
        assert np.max(np.abs(waves - np.concatenate([np.cos(a), np.sin(a)]))) <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(seeds, sizes, points)
    def test_jacobian_matches_central_differences(self, seed, size, v):
        field = _bump_field(size, seed)
        h = 1e-6
        p = v.T
        jac = field(*p)[2:].reshape(2, 2, -1)
        for d in range(2):
            e = np.zeros((2, 1))
            e[d] = h
            fd = (field(*(p + e))[:2] - field(*(p - e))[:2]) / (2.0 * h)
            assert np.max(np.abs(jac[:, d] - fd)) < 1e-7
