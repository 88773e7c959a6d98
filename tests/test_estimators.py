import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsdl.catalog import (
    build_action,
    morse_smale_example,
    nonfaithful_circle,
    periodic_circle_example,
    product_action,
    standard_line,
    standard_torus,
)
from bsdl.bsgroup import BSAction, finite_bs_orbit, make_action
from bsdl.circle import (
    GOLDEN_MEAN,
    ChartAffineLift,
    RotationLift,
    circle_dist,
    denjoy_lift,
    orbit_arrays,
    wrap,
)
from bsdl.estimators import (
    CellSet,
    bs_minimal_set,
    cell_index,
    differential_at,
    fixed_cells,
    gap_profile_label,
)
from bsdl.gl2z import IntMatrix2
from bsdl.space import CIRCLE, TORUS
from bsdl.torus import LinearTorusLift, ProductTorusLift, rotation_vector, torus_dist

from lifts import callable_lift


def as_tuples(cs):
    """A cell set's cells, in their order, as Python int tuples."""
    return [tuple(c) for c in cs.cells.reshape(-1, cs.space.dim).tolist()]


class TestCellSet:
    def test_normalizes_cells(self):
        cs = CellSet(8, "torus", [[0, 1], (2, 3), (10, 1)])
        assert cs.cells.tolist() == [[0, 1], [2, 1], [2, 3]]
        cs = CellSet(8, "circle", [3, 5, 3])
        assert len(cs) == 2 and cs.cells.tolist() == [3, 5]

    def test_rejects_bad_space(self):
        with pytest.raises(ValueError):
            CellSet(8, "plane")

    def test_from_points_circle_wraps(self):
        cs = CellSet.from_points([0.999999, 0.0, 0.5, 1.25], 8, "circle")
        assert cs.cells.tolist() == [0, 2, 4, 7]

    def test_from_points_torus(self):
        pts = [(0.1, 0.9), (1.1, -0.1)]
        cs = CellSet.from_points(pts, 4, "torus")
        assert cs.cells.tolist() == [[0, 3]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_points_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CellSet.from_points(np.array([bad, 0.3]), 8, "circle")
        with pytest.raises(ValueError, match="non-finite"):
            CellSet.from_points(np.array([[0.3, 0.1], [0.2, bad]]), 8, "torus")

    @pytest.mark.parametrize("R", [256, 1024])
    def test_from_points_equals_per_point_cells(self, R):
        # the one-pass numpy build against converting every point's cell
        pts = np.random.default_rng(R).uniform(-1.0, 2.0, (20000, 2))
        pts[:4] = [(0.0, 0.0), (-1e-20, 1.0), (1.0 - 1e-16, 0.5), (2.0, -0.0)]
        idx = np.minimum((wrap(pts) * R).astype(int), R - 1)
        ref = sorted({(int(a), int(b)) for a, b in idx})
        cs = CellSet.from_points(pts, R, "torus")
        assert as_tuples(cs) == ref
        assert np.array_equal(cs.cells, CellSet(R, "torus", ref).cells)
        assert cs.cells.dtype.kind == "i"
        circ = CellSet.from_points(pts[:, 0], R, "circle")
        assert circ.cells.tolist() == sorted({int(i) for i in idx[:, 0]})

    def test_dilate_circle_wraps(self):
        cs = CellSet(8, "circle", [0]).dilate()
        assert cs.cells.tolist() == [0, 1, 7]

    def test_dilate_torus_eight_neighborhood(self):
        cs = CellSet(4, "torus", [(0, 0)]).dilate()
        assert len(cs) == 9
        assert (3, 3) in as_tuples(cs) and (1, 1) in as_tuples(cs)

    def test_set_algebra(self):
        a = CellSet(8, "circle", [1, 2, 3])
        b = CellSet(8, "circle", [2, 3, 4])
        assert a.intersect(b).cells.tolist() == [2, 3]
        assert CellSet(8, "circle", [2]).issubset(a)
        with pytest.raises(ValueError):
            a.intersect(CellSet(16, "circle", [1]))

    def test_measure(self):
        assert CellSet(8, "circle", [0, 1]).measure() == 0.25
        assert CellSet(4, "torus", [(0, 0), (1, 1)]).measure() == 2 / 16

    def test_to_json(self):
        j = CellSet(4, "torus", [(1, 2)]).to_json()
        assert j == {"resolution": 4, "space": "torus", "cells": [[1, 2]]}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([CIRCLE, TORUS]), st.integers(1, 16), st.data())
    def test_matches_set_algebra_on_tuples(self, space, R, data):
        # two cell sets against Python sets of int tuples, and the cells
        # of points against each point's own cell
        cell = st.tuples(*[st.integers(0, R - 1)] * space.dim)
        lists = [data.draw(st.lists(cell, max_size=30)) for _ in range(2)]
        A, B = (set(c) for c in lists)
        a, b, ab = (
            CellSet(R, space, np.reshape(c, (-1,) + space.shape))
            for c in (lists[0], lists[1], lists[0] + lists[1])
        )
        assert as_tuples(a) == sorted(A) and len(a) == len(A)
        assert np.array_equal(a.cells, b.cells) == (A == B)
        assert np.array_equal(ab.cells, CellSet(R, space, ab.cells[::-1]).cells)
        assert a.to_json()["cells"] == [list(c) if space is TORUS else c[0] for c in sorted(A)]
        assert a.issubset(b) == (A <= B) and a.issubset(ab)
        assert ab.issubset(a) == (B <= A)
        assert as_tuples(a.intersect(b)) == sorted(A & B)
        assert a.measure() == len(A) / R**space.dim
        near = {
            tuple((c + o) % R for c, o in zip(x, off))
            for x in A for off in itertools.product((-1, 0, 1), repeat=space.dim)
        }
        assert as_tuples(a.dilate()) == sorted(near)
        coords = st.floats(-2.0, 2.0, allow_subnormal=True)
        pts = np.reshape(
            data.draw(st.lists(st.tuples(*[coords] * space.dim), max_size=20)),
            (-1,) + space.shape,
        )
        own = [tuple(np.atleast_1d(cell_index(p, R)).tolist()) for p in pts]
        assert as_tuples(CellSet.from_points(pts, R, space)) == sorted(set(own))
        assert a.contains(pts).tolist() == [c in A for c in own]
        # samples in a (k, s) + shape array, as the K family holds them,
        # and the empty set, which contains no sample
        s = data.draw(st.integers(1, 4))
        k = len(pts) // s
        samples = pts[: k * s].reshape((k, s) + space.shape)
        for cs, has in ((a, A), (CellSet(R, space), set())):
            flags = cs.contains(samples)
            assert flags.shape == (k, s) and flags.dtype == bool
            assert flags.ravel().tolist() == [c in has for c in own[: k * s]]


class TestFixedCells:
    def test_identity_flags_everything(self):
        cs = fixed_cells(RotationLift(0.0), 16)
        assert len(cs) == 16

    def test_half_rotation_flags_nothing(self):
        cs = fixed_cells(RotationLift(0.5), 16)
        assert len(cs) == 0

    def test_small_rotation_depends_on_delta(self):
        f = RotationLift(0.001)
        assert len(fixed_cells(f, 16)) == 16
        assert len(fixed_cells(f, 16, delta=0.0005)) == 0

    def test_translation_chart_band_at_glued_point(self):
        f = standard_line(2).f
        cs = fixed_cells(f, 64)
        assert 0 in cs.cells and 63 in cs.cells
        assert 32 not in cs.cells

    def test_band_narrows_with_resolution(self):
        f = standard_torus(2).f
        assert fixed_cells(f, 256).measure() < fixed_cells(f, 64).measure()

    def test_torus_band_is_full_columns(self):
        cs = fixed_cells(standard_torus(2).f, 64)
        cols = {c[0] for c in cs.cells}
        assert 0 in cols and 63 in cols and 32 not in cols
        for col in cols:
            assert sum(1 for c in cs.cells if c[0] == col) == 64

    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError):
            fixed_cells(RotationLift(0.0), 15)


def opaque(F):
    """A torus lift that maps as F and its inverse do, which the
    estimators cannot see as a product: their generic grid path."""
    return callable_lift(F.raw, F.inverse().raw, label=F.label, torus=True)


def torus_cases():
    """(entry, n, params) for every torus entry of the catalog at n in
    {2, 3, 5}, with the fiber and eps settings the benchmark workloads
    draw: rational and irrational fiber rotations, and detunings both
    generic and tuned to a rational fiber angle. The periodic examples
    need n >= 3."""
    for n in (2, 3, 5):
        for entry, params in (
            ("standard-torus", {}),
            ("product", {"k": "rot:1/3"}),
            ("product", {"k": "rot:5/12"}),
            ("product", {"k": "rot:golden"}),
            ("product", {"k": "rot:ln5"}),
            ("periodic-torus", {}),
            ("perturbed-torus", {"eps": 1e-3}),
            ("perturbed-torus", {"eps": 0.013751}),
            ("perturbed-torus", {"eps": 2 / 7 - math.log(n)}),
            ("morse-smale", {}),
        ):
            if not (entry == "periodic-torus" and n == 2):
                yield entry, n, params


def assert_same_cells(a, b):
    assert (a.resolution, a.space) == (b.resolution, b.space)
    assert a.cells.shape == b.cells.shape and a.cells.dtype == b.cells.dtype
    assert a.cells.tobytes() == b.cells.tobytes()


class TestProductLaws:
    # A product lift's fixed cells and K family are products of its
    # factors' circle scans; each law holds them to the generic grid scan
    # of an opaque twin, bit for bit.
    @pytest.mark.parametrize("entry, n, params", list(torus_cases()))
    def test_fixed_cells_equal_the_generic_scan(self, entry, n, params):
        f = build_action(entry, n, **params).f
        assert isinstance(f, ProductTorusLift)
        twin = opaque(f)
        for resolution, delta in ((16, None), (64, None), (256, None), (64, 0.05)):
            assert_same_cells(
                fixed_cells(f, resolution, delta), fixed_cells(twin, resolution, delta)
            )

    @pytest.mark.parametrize("entry, n, params", list(torus_cases()))
    def test_k_family_equals_the_generic_family(self, entry, n, params):
        a = assert_same_grid_estimates(build_action(entry, n, **params))
        if entry == "periodic-torus":
            # the block shift of the fiber fixes nothing: no product cells
            assert len(a.fixed) == 0 and len(a.k_family) == 1

    def test_block_pairs_k_family_equals_the_generic_family(self):
        # a product of two block-affine pairs, whose K family depends on
        # the number of samples per cell axis: with 2 or 5 in place of 3
        # on either axis it differs from the generic family
        f = ProductTorusLift(ChartAffineLift(1.0, 1.0, m=3), ChartAffineLift(1.0, 1.0, m=6))
        h = ProductTorusLift(ChartAffineLift(3.0, 0.0, m=3), ChartAffineLift(3.0, 0.0, m=6))
        a = assert_same_grid_estimates(make_action(f, h, 3))
        assert a.diagnostics["k_counts"][-1] < a.diagnostics["k_counts"][0]

    def test_product_f_with_an_opaque_h_takes_the_generic_family(self):
        act = standard_torus(3)
        assert_same_grid_estimates(BSAction(act.n, act.f, opaque(act.h), act.space))


def assert_same_grid_estimates(act):
    """bs_minimal_set's fixed cells, K family and start for `act` equal
    those of its opaque twin; returns the estimate for `act`."""
    twin = BSAction(act.n, opaque(act.f), opaque(act.h), act.space)
    a = bs_minimal_set(act, orbit_iterates=1)
    b = bs_minimal_set(twin, orbit_iterates=1)
    assert_same_cells(a.fixed, b.fixed)
    assert len(a.k_family) == len(b.k_family)
    for ka, kb in zip(a.k_family, b.k_family):
        assert_same_cells(ka, kb)
    assert a.diagnostics.get("start") == b.diagnostics.get("start")
    return a


def backward_tail(h, x, transient, samples):
    """Wrapped backward orbit of x after a transient: the alpha-limit tail."""
    return orbit_arrays(h.inverse(), x, samples, transient)[0]


def birkhoff_mean(F, x, iterates):
    """(1/N) sum_k (F(x_k) - x_k) over the wrapped orbit of x."""
    points, images = orbit_arrays(F, x, iterates)
    # running sums in orbit order, the bits of a stepwise total
    return np.cumsum(images - points, axis=0)[-1] / iterates


class TestAlphaLimit:
    def test_scaling_chart_backward_settles_at_origin_chart(self):
        h = standard_line(2).h
        tail = backward_tail(h, 0.3, transient=300, samples=50)
        assert tail.shape == (50,)
        assert np.max(circle_dist(tail, 0.5)) < 1e-12

    def test_glued_blocks_backward_settles_in_block(self):
        h = periodic_circle_example(3).h
        tail = backward_tail(h, 0.1, transient=400, samples=20)
        assert np.max(circle_dist(tail, 0.25)) < 1e-9

    def test_torus_backward_tail(self):
        h = standard_torus(2).h
        tail = backward_tail(h, (0.3, 0.1), transient=300, samples=40)
        assert tail.shape == (40, 2)
        assert np.max(circle_dist(tail[:, 0], 0.5)) < 1e-12
        # fiber is an irrational rotation, backward tail spreads out
        assert np.ptp(tail[:, 1]) > 0.5


class TestBirkhoffDisplacement:
    def test_rigid_rotation_exact(self):
        bd = birkhoff_mean(RotationLift(0.3), 0.0, 500)
        assert abs(bd - 0.3) < 1e-13

    def test_translation_chart_telescopes(self):
        bd = birkhoff_mean(standard_line(2).f, 0.25, 2000)
        assert 0.0 < bd < 1e-3

    def test_matches_rotation_vector_arithmetic(self):
        h = standard_torus(2).h
        bd = birkhoff_mean(h, (0.2, 0.1), 2000)
        rv = rotation_vector(h, (0.2, 0.1), iterates=2000)
        assert np.max(np.abs(bd - np.array(rv.value))) < 1e-12
        assert abs(bd[1] - math.log(2.0)) < 1e-12


class TestGapProfileLabel:
    golden = (np.arange(100000) * GOLDEN_MEAN) % 1.0

    def test_equidistributed_orbit_is_a_circle(self):
        label, profile, reason = gap_profile_label(self.golden, 256)
        assert (label, reason) == ("MinimalCircle", None)
        assert list(profile) == ["1000", "10000", "100000"]

    def test_orbit_missing_an_arc_is_a_cantor_set(self):
        label, profile, reason = gap_profile_label(0.5 * self.golden, 256)
        assert (label, reason) == ("MinimalCantor", None)
        assert profile["100000"] == pytest.approx(0.5, abs=1e-4)

    def test_stable_gap_below_ten_cells_is_unknown(self):
        label, _, reason = gap_profile_label(0.5 * self.golden, 16)
        assert label == "Unknown"
        assert reason == "gap profile stabilized below ten cells at resolution 16"

    def test_short_orbit_is_unknown(self):
        label, profile, reason = gap_profile_label(self.golden[:500], 256)
        assert list(profile) == ["500"]
        assert label == "Unknown"
        assert reason == (
            "gap profile has one sample size (500 points), so it can "
            "neither halve nor stabilize"
        )

    @pytest.mark.parametrize(
        "coords", [np.full(20000, 0.25), np.tile(np.arange(999) / 999, 21)]
    )
    def test_repeating_orbit_is_unknown(self, coords):
        # a finite orbit keeps its widest gap, which alone reads as a
        # Cantor set above ten cells
        period = np.unique(coords).size
        label, profile, reason = gap_profile_label(coords, 256)
        assert label == "Unknown"
        assert list(profile) == ["1000", "10000", str(coords.size)]
        assert reason == (
            f"orbit is periodic: step {period} returns to 0.0e+00 of the "
            "first point, within 1e-09"
        )

    def test_periodic_orbit_longer_than_the_first_size_is_unknown(self):
        # the float orbit of the rotation by 1/2500 never repeats exactly,
        # and its largest gap falls from 0.6 at 10^3 points to 1/2500 at
        # 10^4 and holds, which alone reads as a circle
        coords = orbit_arrays(RotationLift(1 / 2500), 0.0, 20000)[0]
        label, profile, reason = gap_profile_label(coords, 256)
        assert label == "Unknown"
        assert reason.startswith("orbit is periodic: step 2500 returns to ")

    def test_gap_moving_by_16_percent_is_unknown(self):
        # 0.885 golden points, then 0.9 golden ones: the largest gap falls
        # from 0.1160 at 1000 points to 0.1002 at 10^4, 15.9% of the last,
        # past the 10% within which a Cantor set's widest gap holds
        k = np.arange(1, 10001)
        coords = np.where(k <= 1000, 0.885, 0.9) * ((k * GOLDEN_MEAN) % 1.0)
        label, profile, reason = gap_profile_label(coords, 256)
        g0, g = profile["1000"], profile["10000"]
        assert label == "Unknown"
        assert (round(g0, 4), round(g, 4)) == (0.1160, 0.1002)
        assert reason.endswith(
            f"not stabilized: it moved from {g0:.3e} at 1000 points, more than 10%"
        )

    def test_unknown_reason_names_the_failed_tests(self):
        # a hole [0.5, 0.51) in 1000 points is filled down to [0.5, 0.507)
        # by 9000 more: the gap passes the 5/sqrt(N) test, does not halve
        # and moves by 30%
        first = 0.51 + 0.99 * np.arange(1000) / 999
        coords = np.concatenate([first, 0.507 + 0.003 * np.arange(9000) / 9000])
        label, profile, reason = gap_profile_label(coords, 256)
        g0, g = profile["1000"], profile["10000"]
        assert label == "Unknown"
        assert (round(g0, 6), round(g, 6)) == (0.01, 0.007)
        assert reason == (
            f"gap profile not vanishing: largest gap {g:.3e} at 10000 points "
            f"is 0.70 of {g0:.3e} at 1000 points, above 1/2; not stabilized: "
            f"it moved from {g0:.3e} at 1000 points, more than 10%"
        )
        # 0.9 at 1000 points, then 0.5 at 2000: both tests fail
        coords = np.concatenate([0.1 * self.golden[:1000], 0.5 * self.golden[1:1001]])
        _, profile, reason = gap_profile_label(coords, 256)
        g0, g = profile["1000"], profile["2000"]
        assert reason == (
            f"gap profile not vanishing: largest gap {g:.3e} at 2000 points "
            "is not below 5/sqrt(N) = 1.118e-01; largest gap "
            f"{g:.3e} at 2000 points is {g / g0:.2f} of {g0:.3e} at 1000 "
            f"points, above 1/2; not stabilized: it moved from {g0:.3e} at "
            "1000 points, more than 10%"
        )


class TestDifferentialAt:
    def test_rigid_rotation_is_roundoff_exact(self):
        r = differential_at(RotationLift(0.25), 0.3)
        assert r.richardson is None and r.converged
        assert np.allclose(r.jacobian, [[1.0]])
        assert abs(r.moduli[0] - 1.0) < 1e-12
        assert r.seam_distance is None

    @pytest.mark.parametrize("x", [0.3, 0.05, 0.77])
    @pytest.mark.parametrize("depth,gap_ratio", [(5, 0.3), (3, 0.5)])
    def test_denjoy_seam_distance_is_the_nearest_breakpoint(self, x, depth, gap_ratio):
        # a piecewise lift's seams are its breakpoints; a composition's are
        # those of its inner lift at x and of its outer lift at D(x)
        D = denjoy_lift(GOLDEN_MEAN, depth, gap_ratio)
        near = lambda y: float(np.min(circle_dist(y, D.bx)))
        assert differential_at(D, x).seam_distance == pytest.approx(near(x), abs=1e-15)
        expected = min(near(x), near(D(x)))
        assert differential_at(D.compose(D), x).seam_distance == pytest.approx(expected, abs=1e-15)

    def test_scaling_chart_contracts_at_glued_point(self):
        r = differential_at(standard_line(2).h, 0.0)
        assert abs(r.moduli[0] - 0.5) < 1e-6
        assert r.richardson is not None and abs(r.richardson - 4.0) < 0.5
        assert r.converged

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_block_endpoints_are_smooth(self, n):
        # the chart map of x -> a x + b is a Moebius map, analytic across
        # the glued point, so the block maps join smoothly at each block
        # endpoint i/m: no seam, and a clean second-order stencil there
        act = periodic_circle_example(n)
        m = n - 1
        for g in (act.f, act.h):
            for i in range(m):
                r = differential_at(g, i / m)
                assert r.seam_distance is None
                assert r.converged and abs(r.richardson - 4.0) < 0.01, (n, i)

    def test_torus_product_jacobian_is_diagonal(self):
        r = differential_at(morse_smale_example(2).h, np.array([0.0, 0.0]))
        assert np.allclose(r.jacobian, np.diag([0.5, 0.5]), atol=1e-6)
        assert max(abs(m - 0.5) for m in r.moduli) < 1e-6

    def test_linear_torus_map_converged_with_exact_eigenvalues(self):
        A = IntMatrix2.from_rows((2, 1), (1, 1))
        r = differential_at(LinearTorusLift(A), np.array([0.3, 0.4]))
        assert r.richardson is None and r.converged
        assert np.max(np.abs(r.jacobian - [[2, 1], [1, 1]])) < 1e-10
        lam = (3.0 + math.sqrt(5.0)) / 2.0
        assert abs(r.moduli[1] - lam) < 1e-9
        assert abs(r.moduli[0] - 1.0 / lam) < 1e-9


class TestMinimalSet:
    def test_standard_action_invariant_circle(self):
        est = bs_minimal_set(standard_torus(2), resolution=256)
        assert est.label == "MinimalCircle"
        assert est.cells.issubset(est.fixed)
        # the orbit stays on the glued-point circle exactly
        assert np.all(est.points[:, 0] == 0.0)
        gaps = est.diagnostics["gap_profile"]
        assert gaps["100000"] < gaps["1000"]

    def test_standard_action_k_family(self):
        est = bs_minimal_set(standard_torus(2), resolution=256)
        fam = est.k_family
        assert len(fam) == 9
        for a, b in zip(fam[1:], fam[:-1]):
            assert a.issubset(b)
        cols = sorted({c[0] for c in fam[-1].cells})
        assert cols == [0, 255]
        assert len(fam[-1]) == 512

    def test_product_rational_fiber_closes(self):
        est = bs_minimal_set(product_action(2, "rot:1/3"), resolution=256)
        assert est.label == "FiniteOrbit"
        assert est.points.shape[0] == 3
        thetas = np.sort(est.points[:, 1])
        assert np.allclose(thetas, [0.0, 1 / 3, 2 / 3], atol=1e-9)
        assert np.all(est.points[:, 0] == 0.0)
        assert len(est.cells) == 3

    def test_finite_orbit_of_a_few_hundred_points(self):
        # h rotates by 1/300 and f is the identity: a closing chain, which
        # the closure walks from x0, of 300 points within its cap of 2000
        est = bs_minimal_set(nonfaithful_circle(2, "rot:1/300"))
        assert est.label == "FiniteOrbit"
        assert est.points.shape == (300,)
        assert est.diagnostics["orbit_closed"]
        assert est.diagnostics["orbit_size"] == 300

    def test_product_denjoy_fiber_is_cantor(self):
        est = bs_minimal_set(
            product_action(2, "denjoy:golden,12,0.5"), resolution=256
        )
        assert est.label == "MinimalCantor"
        g = est.diagnostics["gap_profile"]["100000"]
        assert abs(g - 0.25) < 0.05
        assert g > 10.0 / 256

    def test_trivial_circle_action_dense_rotation(self):
        est = bs_minimal_set(nonfaithful_circle(2, "rot:golden"), resolution=256)
        assert est.label == "MinimalCircle"
        assert len(est.fixed) == 256
        assert len(est.k_family[-1]) == 256

    def test_trivial_circle_action_rational_rotation(self):
        est = bs_minimal_set(nonfaithful_circle(2, "rot:1/3"), resolution=64)
        assert est.label == "FiniteOrbit"
        assert est.points.shape[0] == 3
        assert np.allclose(np.sort(est.points), [0.0, 1 / 3, 2 / 3], atol=1e-9)

    def test_no_fixed_points_reports_unknown(self):
        est = bs_minimal_set(periodic_circle_example(3), resolution=256)
        assert est.label == "Unknown"
        assert len(est.fixed) == 0
        assert "reason" in est.diagnostics

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 13])
    def test_block_shift_family_finds_its_orbits_in_fix_of_f_q(self, n):
        # f is x -> x + 1 on each of m blocks, then a shift by j blocks;
        # h scales each block by n. For m | j(n - 1) this is a BS(1,n)
        # action whose block endpoints form orbits of q = m / gcd(j, m)
        # points, fixed by f^q. f^q is parabolic at an endpoint and flags
        # the cells beside it too, so the lowest flagged cell need not
        # hold it (n = 5, m = 32, j = 8 started 3/4 along block 0)
        for m in range(1, 65):
            for j in range(m):
                if j * (n - 1) % m:
                    continue
                q = m // math.gcd(j, m)
                f = ChartAffineLift(1.0, 1.0, m=m, shift=j)
                h = ChartAffineLift(float(n), 0.0, m=m)
                est = bs_minimal_set(make_action(f.power(q), h, n), orbit_iterates=1000)
                assert est.label == "FiniteOrbit", (m, j, est.diagnostics)
                orb = finite_bs_orbit(make_action(f, h, n), est.points[0])
                assert orb.closed and orb.size == q, (m, j)

    def test_global_fixed_point(self):
        est = bs_minimal_set(morse_smale_example(2), resolution=128)
        assert est.label == "FiniteOrbit"
        assert est.points.shape == (1, 2)
        assert np.all(est.points == 0.0)
        assert est.k_family[-1].cells.tolist() == [
            [0, 0], [0, 127], [127, 0], [127, 127],
        ]

    def test_deterministic(self):
        a = bs_minimal_set(standard_torus(3), resolution=128, orbit_iterates=20000)
        b = bs_minimal_set(standard_torus(3), resolution=128, orbit_iterates=20000)
        assert a.label == b.label
        assert a.diagnostics == b.diagnostics
        assert np.array_equal(a.cells.cells, b.cells.cells)

    def test_to_json_shape(self):
        est = bs_minimal_set(morse_smale_example(2), resolution=64)
        j = est.to_json()
        assert j["label"] == "FiniteOrbit"
        assert j["cells"]["resolution"] == 64
        assert j["k_counts"][0] >= j["k_counts"][-1]
        assert isinstance(j["points"][0], list)
