import math
from fractions import Fraction

import numpy as np
import pytest

from bsdl.bsgroup import faithfulness, finite_bs_orbit, make_action, relation_report
from bsdl.catalog import (
    CATALOG,
    build_action,
    morse_smale_example,
    nonfaithful_circle,
    periodic_circle_example,
    periodic_torus_example,
    perturbed_torus,
    product_action,
    standard_line,
    standard_torus,
)
from bsdl.circle import (
    ChartAffineLift,
    DenjoyLift,
    RotationLift,
    circle_dist,
    compose,
    rotation_number,
    wrap,
)
from bsdl.experiments import conjugated_action, near_identity_diffeo
from bsdl.torus import MAX_STEPPED_POWER, rotation_vector, torus_dist

from test_circle import chart
from test_fusion import describe


class TestRegistry:
    def test_entry_ids_and_spaces(self):
        assert set(CATALOG) == {
            "standard-line",
            "standard-torus",
            "product",
            "periodic-circle",
            "periodic-torus",
            "perturbed-torus",
            "morse-smale",
            "nonfaithful-circle",
        }
        circle = {k for k, e in CATALOG.items() if e.space == "circle"}
        assert circle == {"standard-line", "periodic-circle", "nonfaithful-circle"}

    def test_unknown_id_raises_naming_the_known_ids(self):
        for lookup in (lambda: build_action("spiral"), lambda: CATALOG["spiral"]):
            with pytest.raises(KeyError, match="unknown action 'spiral'; known: morse-smale, "):
                lookup()

    def test_all_entries_build_and_satisfy_relation(self):
        for name, entry in CATALOG.items():
            act = entry.build()
            rep = relation_report(act, grid=2500)
            assert rep.passed, f"{name}: {rep.to_json()}"
            assert act.space == entry.space
            assert act.name.startswith(name)

    def test_explicit_params(self):
        act = build_action("standard-line", n=5)
        assert act.n == 5 and act.h.a == 5.0
        act = build_action("product", k="rot:1/4")
        assert act.h.fiber.alpha == 0.25
        act = build_action("perturbed-torus", eps=0.5 - math.log(2))
        assert abs(act.h.fiber.alpha - 0.5) < 1e-15

    def test_expected_for_resolves_callables(self):
        exp = CATALOG["periodic-circle"].expected_for(4)
        assert exp["rho_f"] == Fraction(1, 3)
        assert exp["witness"] == (1, 3)
        assert exp["minimal_size"] == 3


class TestStandardLine:
    def test_generator_fixed_points(self):
        act = standard_line(2)
        # chart position of infinity is 0, of the real origin 1/2
        assert act.f.raw(0.0) == 0.0
        assert act.h.raw(0.0) == 0.0
        assert abs(float(act.h.raw(0.5)) - 0.5) < 1e-12

    def test_h_maps_chart_one_to_chart_n(self):
        for n in (2, 3, 5):
            act = standard_line(n)
            u1, un = chart(1.0), chart(float(n))
            assert abs(float(act.h.raw(u1)) - un) < 1e-12

    def test_rotation_number_and_witness(self):
        act = standard_line(2)
        est = rotation_number(act.f, iterates=4000)
        assert est.rational_witness is not None
        assert est.rational_witness[:2] == (0, 1)

    def test_orbit_of_origin_spreads_through_arcs(self):
        act = standard_line(2)
        gens = [act.f, act.h, act.f.inverse(), act.h.inverse()]
        pts = {0.5}
        frontier = [0.5]
        for _ in range(8):
            nxt = []
            for p in frontier:
                for g in gens:
                    q = float(wrap(g(p)))
                    key = round(q, 9)
                    if key not in pts:
                        pts.add(key)
                        nxt.append(q)
            frontier = nxt
        arr = np.sort(np.array(sorted(pts)))
        rng = np.random.default_rng(23)
        centers = rng.uniform(0.12, 0.88, size=200)
        for c in centers:
            i = np.searchsorted(arr, c - 0.01)
            assert i < arr.size and arr[i] <= c + 0.01, f"empty arc at {c:.4f}"


class TestPeriodicExamples:
    def test_rejects_n_two(self):
        with pytest.raises(ValueError):
            periodic_circle_example(2)
        with pytest.raises(ValueError):
            periodic_torus_example(2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_witness_matches_expected(self, n):
        act = periodic_circle_example(n)
        exp = CATALOG["periodic-circle"].expected_for(n)
        est = rotation_number(act.f, iterates=4000)
        assert est.rational_witness is not None
        assert est.rational_witness[:2] == exp["witness"]
        assert abs(est.value - float(exp["rho_f"])) <= est.error_bound

    def test_f_has_no_fixed_point_but_power_does(self):
        act = periodic_circle_example(3)
        xs = np.arange(0.0, 1.0, 1.0 / 4096.0)
        assert np.min(circle_dist(act.f.raw(xs), xs)) > 1e-3
        f2 = act.f.power(2)
        assert float(circle_dist(f2.raw(0.0), 0.0)) < 1e-12

    def test_power_with_no_closed_form_raises(self):
        act = periodic_circle_example(3)
        # f^(10^400) moves each block by 10^400, beyond the floats: no closed form
        with pytest.raises(ValueError, match="no closed form"):
            act.f.power(10**400)
        # a shift off the block grid does not commute with the blocks
        g = compose(RotationLift(0.3), ChartAffineLift(1.0, 1.0, m=2))
        for m in (2, MAX_STEPPED_POWER, -(MAX_STEPPED_POWER + 1)):
            with pytest.raises(ValueError, match="^this power of ComposedLift has no closed form$"):
                g.power(m)

    @pytest.mark.parametrize("n", [3, 4, 5, 50])
    @pytest.mark.parametrize("build", [periodic_circle_example, periodic_torus_example])
    def test_relation_residuals_are_exactly_zero(self, n, build):
        # h f h^-1 and f^n fuse to block shifts 1 and n, a whole turn of
        # m = n - 1 blocks apart, and h^2 f h^-2 and f^(n^2) to 1 and n^2
        act = build(n)
        lhs = act.h.compose(act.f.compose(act.h.inverse()))
        rhs = act.f.power(n)
        assert describe(lhs) != describe(rhs) and lhs.same_map(rhs)
        rep = relation_report(act)
        assert rep.primary_residual == 0.0 and rep.secondary_residual == 0.0

    @pytest.mark.parametrize("n", [3, 50, 104, 1001])
    def test_power_fuses_shift_and_blocks(self, n):
        # f is x -> x + 1 on each of m blocks, then a shift by one block,
        # so f^k is x -> x + k on the blocks, then a shift by k blocks
        f = periodic_circle_example(n).f
        m = n - 1
        for k in (n * n, -(MAX_STEPPED_POWER + 1)):
            assert describe(f.power(k)) == describe(ChartAffineLift(1.0, float(k), m=m, shift=k))
        assert relation_report(periodic_circle_example(n)).passed

    def test_every_power_of_f_is_an_action_with_h(self):
        # (f^N, h) is again a BS(1,n) action: (f^N)^n has a closed form,
        # and make_action accepts the pair, at every n <= 61 and N < n
        for n in range(3, 62):
            act = periodic_circle_example(n)
            for N in range(1, n):
                fN = act.f.power(N)
                fNn = ChartAffineLift(1.0, float(N * n), m=n - 1, shift=N * n)
                assert describe(fN.power(n)) == describe(fNn)
                make_action(fN, act.h, n)

    def test_periodic_orbit_of_block_endpoints(self):
        act = periodic_circle_example(3)
        orb = finite_bs_orbit(act, 0.0)
        assert orb.closed and orb.size == 2

    def test_torus_f_has_no_fixed_point_but_power_does(self):
        act = periodic_torus_example(3)
        g = np.arange(64) / 64.0
        vs = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        assert np.min(torus_dist(act.f.raw(vs), vs)) > 1e-3
        F2 = act.f.power(2)
        v0 = np.array([0.0, 0.0])
        assert float(torus_dist(F2.raw(v0), v0)) < 1e-12

    def test_torus_finite_orbit(self):
        act = periodic_torus_example(3)
        orb = finite_bs_orbit(act, (0.0, 0.0))
        assert orb.closed and orb.size == 2


class TestTorusFamilies:
    def test_standard_rotation_vector(self):
        # the base factor is parabolic, so the time average decays like 1/N
        act = standard_torus(2)
        est = rotation_vector(act.f, v0=(0.3, 0.6), iterates=2000)
        assert abs(est.value[0]) < 1e-3
        assert abs(est.value[0]) <= est.error_bound
        assert est.value[1] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fiber_rotation_number_is_log_n(self, n):
        act = standard_torus(n)
        est = rotation_number(act.h.fiber, iterates=10**5)
        assert abs(est.value - math.log(n) % 1.0) < 1e-4

    def test_product_rational_fiber_orbit(self):
        act = product_action(2, k="rot:1/3")
        orb = finite_bs_orbit(act, (0.0, 0.0))
        assert orb.closed and orb.size == 3
        thetas = sorted(round(p[1], 6) for p in orb.points)
        assert thetas == [0.0, pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_product_denjoy_fiber(self):
        act = product_action(2, k="denjoy:golden,8,0.5")
        assert isinstance(act.h.fiber, DenjoyLift)
        est = rotation_number(act.h.fiber, iterates=4000)
        assert est.rational_witness is None

    def test_standard_torus_has_no_finite_orbit(self):
        act = standard_torus(2)
        orb = finite_bs_orbit(act, (0.0, 0.0), max_size=300)
        assert not orb.closed

    def test_perturbed_rational_angle(self):
        act = perturbed_torus(2, eps=0.7 - math.log(2))
        est = rotation_number(act.h.fiber, iterates=4000)
        assert est.rational_witness is not None
        assert est.rational_witness[:2] == (7, 10)

    def test_perturbed_small_eps_no_witness(self):
        act = perturbed_torus(2, eps=1e-3)
        est = rotation_number(act.h.fiber, iterates=10**4)
        assert est.rational_witness is None

    def test_perturbed_zero_is_standard(self):
        a0 = perturbed_torus(2, 0.0)
        assert a0.h.fiber.alpha == math.log(2) % 1.0


class TestMorseSmale:
    def test_global_fixed_point_at_infinity(self):
        act = morse_smale_example(2)
        v = np.array([0.0, 0.0])
        assert np.all(act.f.raw(v) == v)
        assert np.all(act.h.raw(v) == v)
        orb = finite_bs_orbit(act, (0.0, 0.0))
        assert orb.closed and orb.size == 1

    def test_h_fixes_real_origin_but_f_does_not(self):
        act = morse_smale_example(2)
        v = np.array([0.5, 0.5])
        assert float(torus_dist(act.h.raw(v), v)) < 1e-12
        assert float(torus_dist(act.f.raw(v), v)) > 0.2

    def test_rotation_vector_zero(self):
        act = morse_smale_example(2)
        est = rotation_vector(act.f, v0=(0.0, 0.0), iterates=100)
        assert est.value == (0.0, 0.0)


# the fibers `scripts/reachability.py` runs every subcommand on
FIBERS = ("rot:1/3", "rot:golden", "denjoy:golden,5,0.3", "affine:2,0.1", "id")


class TestFaithfulness:
    @pytest.mark.parametrize("name,n", [
        (name, n) for name in sorted(CATALOG) for n in (2, 3, 5, 7, 1001)
        if n >= 3 or not name.startswith("periodic")
    ])
    def test_decision_matches_the_catalog(self, name, n):
        dec = faithfulness(build_action(name, n))
        assert dec.faithful == CATALOG[name].expected_for(n)["faithful"]
        # N = n - 1 for every entry, whose linear parts are the identity
        assert dec.N == n - 1
        # a kernel element is proved; faithfulness is evidence
        assert dec.exact is not dec.faithful

    @pytest.mark.parametrize("name", ["product", "nonfaithful-circle"])
    @pytest.mark.parametrize("k", FIBERS)
    def test_decision_ignores_the_fiber(self, name, k):
        dec = faithfulness(build_action(name, k=k))
        assert dec.faithful == CATALOG[name].expected["faithful"]

    @pytest.mark.parametrize("name", ["standard-torus", "periodic-torus", "morse-smale"])
    def test_bump_conjugates_stay_faithful(self, name):
        # c9's size-10^-3 bump map at seed 7
        act = conjugated_action(build_action(name), near_identity_diffeo(1e-3, seed=7))
        dec = faithfulness(act)
        assert (dec.N, dec.faithful, dec.exact) == (act.n - 1, True, False)
        assert dec.displacement > 0.1

    def test_nonfaithful_orbit_is_k_orbit(self):
        act = nonfaithful_circle(2, k="rot:1/3")
        orb = finite_bs_orbit(act, 0.1)
        assert orb.closed and orb.size == 3
        act = nonfaithful_circle(2, k="rot:golden")
        orb = finite_bs_orbit(act, 0.1, max_size=300)
        assert not orb.closed
