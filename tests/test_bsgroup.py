import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsdl import bsgroup
from bsdl.bsgroup import (
    CLOSED_DEFECT_RATIO,
    FAITHFUL_TOL,
    BSAction,
    FiniteOrbit,
    faithfulness,
    finite_bs_orbit,
    make_action,
    relation_report,
    relation_residual,
    torsion_period,
)
from bsdl.catalog import (
    morse_smale_example,
    nonfaithful_circle,
    periodic_torus_example,
    perturbed_torus,
    product_action,
)
from bsdl.circle import (
    GOLDEN_MEAN,
    ChartAffineLift,
    RotationLift,
    circle_dist,
    denjoy_lift,
    wrap,
)
from bsdl.experiments import conjugated_action, near_identity_diffeo
from bsdl.gl2z import IntMatrix2
from bsdl.torus import LinearTorusLift, ProductTorusLift, TorusLift, torus_dist

from letters import apply_letters, element

BELOW_ONE = math.nextafter(1.0, 0.0)


def affine_action(n):
    return make_action(
        ChartAffineLift(1.0, 1.0), ChartAffineLift(float(n), 0.0), n
    )


def glued_action(n):
    # n-1 fundamental blocks, each a renormalized line; the block shift
    # makes f fixed-point free while h still scales blockwise
    m = n - 1
    f = ChartAffineLift(1.0, 1.0, m=m, shift=1)
    h = ChartAffineLift(float(n), 0.0, m=m)
    return make_action(f, h, n)


def rotations(alpha, beta):
    return ProductTorusLift(RotationLift(alpha), RotationLift(beta))


class TestAffineModel:
    def test_defining_relation_holds_in_model(self):
        for n in (2, 3, 6):
            assert element("abA", n) == element("b" * n, n) == (0, Fraction(n))

    def test_conjugated_generator_shrinks(self):
        # a^-1 b a acts as x -> x + 1/n
        assert element("Aba", 3) == (0, Fraction(1, 3))


class TestEvaluation:
    def test_relation_pointwise(self):
        act = affine_action(3)
        xs = np.arange(0.0, 1.0, 1.0 / 53.0)
        lhs = apply_letters(act, "abA", xs)
        rhs = apply_letters(act, "bbb", xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_power_lift_closed_forms(self):
        F = ChartAffineLift(1.0, 1.0)
        G = F.power(7)
        assert isinstance(G, ChartAffineLift)
        assert (G.a, G.b) == (1.0, 7.0)
        H = F.power(-3)
        assert (H.a, H.b) == (1.0, -3.0)
        assert isinstance(RotationLift(0.2).power(0), RotationLift)


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

    def test_make_action_rejects_a_near_miss(self):
        # h f h^-1 = f while f^2 rotates by 2e-6: a residual of 1.0e-6,
        # a hundred times the gate of 1e-8
        with pytest.raises(ValueError, match=r"residual 1\.000e-06"):
            make_action(RotationLift(1e-6), RotationLift(0.3), 2)

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


@st.composite
def block_shift_actions(draw):
    """f = x + 1 on m blocks, shifted j blocks, and h = n x on the same
    blocks, with m | j (n - 1): h commutes with the shift and conjugates
    f to f^n. periodic-circle is m = n - 1, j = 1."""
    n = draw(st.integers(2, 61))
    m = draw(st.integers(1, 64))
    j = m // math.gcd(m, n - 1) * draw(st.integers(-3, 3))
    f = ChartAffineLift(1.0, 1.0, m=m, shift=j)
    return make_action(f, ChartAffineLift(float(n), 0.0, m=m), n)


class TestFaithfulness:
    def test_torsion_period(self):
        ident, cat = IntMatrix2.identity(), IntMatrix2.from_rows((2, 1), (1, 1))
        for n in (2, 3, 7, 10**21):
            assert torsion_period(n, ident, ident) == n - 1
        # n I - A_h has det 5 at n = 4 and 11 at n = 5, and entries of gcd 1
        assert torsion_period(4, ident, cat) == 5
        assert torsion_period(5, ident, cat) == 11
        # the order of A_f multiplies e2
        assert torsion_period(5, IntMatrix2.from_rows((0, 1), (-1, 0)), cat) == 44
        # a shear A_h: n I - A_h = [[n - 1, -k], [0, n - 1]]
        shear = IntMatrix2.from_rows((1, 4), (0, 1))
        assert torsion_period(7, ident, shear) == 36 // 2
        for A_f in (cat, IntMatrix2.from_rows((1, 1), (0, 1))):
            assert torsion_period(3, A_f, ident) is None

    def test_torsion_period_rejects_bad_input(self):
        ident, twice = IntMatrix2.identity(), IntMatrix2.from_rows((2, 0), (0, 1))
        with pytest.raises(ValueError, match="need n >= 2"):
            torsion_period(1, ident, ident)
        for A_f, A_h in ((twice, ident), (ident, twice)):
            with pytest.raises(ValueError, match=r"GL\(2,Z\)"):
                torsion_period(3, A_f, A_h)

    def test_infinite_order_linear_part_is_exactly_faithful(self):
        # no action has such an A_f, which h would conjugate to A_f^n; the
        # pair is built unchecked to reach the branch
        cat = IntMatrix2.from_rows((2, 1), (1, 1))
        f = LinearTorusLift(cat)
        act = BSAction(2, f, LinearTorusLift(IntMatrix2.identity()), "torus")
        dec = faithfulness(act)
        assert (dec.N, dec.faithful, dec.exact) == (None, True, True)

    @pytest.mark.parametrize("build", [
        # f^N is the identity up to whole turns of a rotation factor
        lambda: make_action(RotationLift(1 / 3), RotationLift(0.25), 4),
        lambda: make_action(rotations(0.0, 0.0), rotations(0.3, 0.1), 2),
        lambda: make_action(rotations(1 / 3, 0.0), rotations(0.0, 0.2), 4),
    ])
    def test_whole_turns_are_exactly_not_faithful(self, build):
        dec = faithfulness(build())
        assert (dec.faithful, dec.exact) == (False, True)
        assert dec.reason == f"f^{dec.N} is the identity"

    @pytest.mark.parametrize("build", [
        # f^N is a translation by whole turns, in floats that
        # LinearTorusLift's `same_map` does not match with the identity
        lambda: linear_shear_action(3, 1, 1, (0.0, 0.0)),
        lambda: translation_action(5, 2),
    ])
    def test_unseen_finite_order_is_undecided(self, build):
        dec = faithfulness(build())
        assert dec.faithful is None and not dec.exact
        assert dec.displacement <= FAITHFUL_TOL
        assert "nor fuses to the identity" in dec.reason

    @settings(max_examples=200, deadline=None)
    @given(block_shift_actions())
    def test_block_shift_family_is_faithful(self, act):
        dec = faithfulness(act)
        assert (dec.N, dec.faithful, dec.exact) == (act.n - 1, True, False)
        assert dec.displacement > FAITHFUL_TOL


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

    @pytest.mark.parametrize("x0,size", [((0.0, 0.0), 11), ((1 / 3, 2 / 3), 44)])
    def test_hyperbolic_h_closes_a_rational_translation_orbit(self, x0, size, monkeypatch):
        # h f h^-1 = f^5 with h = [[2, 1], [1, 1]] and f the translation by
        # (4, 1)/11; the closure powers a LinearTorusLift to 0, which is
        # TorusLift's identity
        identity = TorusLift._identity
        calls = []

        def counted(self):
            calls.append(self)
            return identity(self)

        monkeypatch.setattr(TorusLift, "_identity", counted)
        f = LinearTorusLift(IntMatrix2.identity(), (4 / 11, 1 / 11))
        h = LinearTorusLift(IntMatrix2.from_rows((2, 1), (1, 1)))
        orb = finite_bs_orbit(make_action(f, h, 5), x0)
        assert orb.closed and orb.size == size
        assert orb.defect < CLOSED_DEFECT_RATIO * orb.merge_tol
        assert calls

    def test_merge_tol_collapses_near_points(self):
        act = affine_action(2)
        orb = finite_bs_orbit(act, 1e-9, merge_tol=1e-6)
        # the start merges with the fixed point at 0 after one h^-1 step
        assert orb.closed
        assert orb.size <= 3

    def test_true_closure_is_verified(self):
        orb = finite_bs_orbit(nonfaithful_circle(2, "rot:1/3"), 0.1)
        assert orb.closed and orb.size == 3
        assert orb.defect < CLOSED_DEFECT_RATIO * orb.merge_tol
        assert orb.reason is None

    def test_near_closure_is_open_with_its_defect(self):
        # the infinite orbit of a Denjoy fiber "closes" at 2406 points
        # once its images come within merge_tol of earlier points
        orb = finite_bs_orbit(denjoy_action(2, GOLDEN_MEAN, 8), 0.0)
        assert orb.size == 2406 and not orb.closed
        assert CLOSED_DEFECT_RATIO * orb.merge_tol < orb.defect < orb.merge_tol
        assert orb.reason == f"near-closure at defect {orb.defect:.3e}"
        assert orb.to_json()["reason"] == orb.reason

    def test_cut_orbit_has_no_defect(self):
        orb = finite_bs_orbit(affine_action(2), 0.5, max_size=40)
        assert not orb.closed and orb.defect is None
        assert orb.reason == "cut at max_size 40"

    @pytest.mark.parametrize("x0", [0.99999985, 0.5])
    def test_merges_across_the_seam(self, x0):
        # 1 / 3e-7 is not an integer; h moves every point by 2e-7, so each
        # image merges back into the start, also when it wraps past 1
        f, h = RotationLift(0.0), RotationLift(2e-7)
        orb = finite_bs_orbit(make_action(f, h, 2), x0, merge_tol=3e-7)
        assert orb.size == 1
        assert orb.defect == pytest.approx(2e-7, rel=1e-6)

    def test_wrap_stays_below_one(self):
        # -1e-17 - floor(-1e-17) rounds to 1.0, which the float wrap
        # replaces with the largest double below 1
        orb = finite_bs_orbit(nonfaithful_circle(2, "rot:1/3"), -1e-17)
        assert orb.size == 3 and orb.closed
        assert orb.points[0] == BELOW_ONE
        assert np.all(orb.points < 1.0)
        orb = finite_bs_orbit(product_action(2, "rot:1/3"), (-1e-17, 0.0))
        assert orb.size == 3
        assert np.all((0.0 <= orb.points) & (orb.points < 1.0))

    def test_non_finite_image_is_a_value_error(self):
        f, h = RotationLift(0.0), RotationLift(math.nan)
        act = BSAction(n=2, f=f, h=h, space="circle")
        with pytest.raises(ValueError, match="left the real line"):
            finite_bs_orbit(act, 0.3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, 5e-324])
    def test_rejects_merge_tol_not_positive_and_finite(self, tol):
        # 5e-324 is positive, but its reciprocal, the hash size, overflows
        with pytest.raises(ValueError, match="merge_tol"):
            finite_bs_orbit(affine_action(2), 0.3, merge_tol=tol)

    @pytest.mark.parametrize("max_size", [0, -5, 0.5])
    def test_rejects_max_size_below_one(self, max_size):
        with pytest.raises(ValueError, match="max_size"):
            finite_bs_orbit(affine_action(2), 0.3, max_size=max_size)

    @pytest.mark.parametrize(
        "torus, x0",
        [
            (False, math.nan),
            (False, -math.inf),
            (False, (0.3, 0.2)),
            (True, (0.3, math.nan)),
            (True, (math.inf, 0.2)),
            (True, 0.3),
        ],
    )
    def test_rejects_start_not_one_finite_point(self, torus, x0):
        act = perturbed_torus(2, 0.0) if torus else affine_action(2)
        with pytest.raises(ValueError, match="start"):
            finite_bs_orbit(act, x0)


# ---------------------------------------------------------------------------
# frontier-batched closure against the point-at-a-time reference


def reference_finite_orbit(action, x0, merge_tol=1e-6, max_size=10000):
    """The closure as it stepped before frontier batching: one raw call
    per point and generator, merged through a spatial hash, then checked
    by stepping every point again against the whole point set. Wrapping
    clamps 1.0 to the largest double below it, as the orbit kernel does.
    The hash has the closure's K = max(3, int(0.5 / merge_tol)) buckets
    per turn: where a bucket is narrower than an ulp (merge_tol 1e-17),
    the rounded circle distance of two points an ulp apart can be 0 or
    not, so which of them an image merges with depends on the buckets
    scanned."""
    dim = 1 if action.space == "circle" else 2
    gens = [action.f, action.h, action.f.inverse(), action.h.inverse()]
    K = max(3, int(0.5 / merge_tol))

    def wrapped(p):
        return np.minimum(wrap(p), BELOW_ONE)

    def norm_point(p):
        if dim == 1:
            return float(wrapped(p))
        return tuple(np.asarray(wrapped(p), dtype=float))

    def key_of(p):
        if dim == 1:
            return (int(p * K) % K,)
        return (int(p[0] * K) % K, int(p[1] * K) % K)

    def close(p, q):
        if dim == 1:
            return circle_dist(p, q) < merge_tol
        return torus_dist(np.asarray(p), np.asarray(q)) < merge_tol

    offsets = ((-1,), (0,), (1,)) if dim == 1 else tuple(
        (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)
    )
    buckets = {}
    points = []

    def find(p):
        k = key_of(p)
        for off in offsets:
            kk = tuple((k[i] + off[i]) % K for i in range(dim))
            for idx in buckets.get(kk, ()):
                if close(p, points[idx]):
                    return idx
        return None

    def add(p):
        points.append(p)
        buckets.setdefault(key_of(p), []).append(len(points) - 1)

    start = norm_point(np.asarray(x0, dtype=float))
    add(start)
    frontier = [start]
    overflow = False
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = norm_point(g.raw(np.asarray(p, dtype=float)))
                if find(q) is None:
                    add(q)
                    nxt.append(q)
            if len(points) > max_size:
                overflow = True
                break
        if overflow:
            break
        frontier = nxt

    pts = np.asarray(points, dtype=float)
    defect = None
    if not overflow:
        defect = 0.0
        for g in gens:
            imgs = wrapped(g.raw(pts))
            for img in np.atleast_1d(imgs) if dim == 1 else imgs:
                d = float(
                    np.min(
                        circle_dist(img, pts)
                        if dim == 1
                        else torus_dist(img[None, :], pts)
                    )
                )
                defect = max(defect, d)
    closed = not overflow and defect < CLOSED_DEFECT_RATIO * merge_tol
    return pts, len(points), closed, defect


def linear_shear_action(n, k, j, c):
    # f translates by (j/(n-1), 0) and h = [[1, k], [0, 1]] v + c fixes
    # that translation, so h f h^-1 = f = f^n mod Z^2; rational starts
    # have finite orbits, generic ones dense
    f = LinearTorusLift(IntMatrix2.identity(), (j / (n - 1), 0.0))
    h = LinearTorusLift(IntMatrix2.from_rows((1, k), (0, 1)), c)
    return make_action(f, h, n)


@functools.lru_cache(maxsize=None)
def denjoy_action(n, alpha, depth):
    return nonfaithful_circle(n, k=denjoy_lift(alpha, depth, 0.45))


def translation_action(n, j):
    f = LinearTorusLift(IntMatrix2.identity(), (j / (n - 1), 0.0))
    return make_action(f, f, n)


@functools.lru_cache(maxsize=None)
def bump_conjugated_torus(n, eps, seed):
    # a batch row of a bump map may differ from its `step` in the last
    # bits; the closure steps each point through `step` alone
    return conjugated_action(perturbed_torus(n, eps), near_identity_diffeo(1e-3, seed))


ns = st.sampled_from([2, 3, 5])
rationals = st.integers(1, 12).flatmap(
    lambda q: st.integers(-q, 2 * q - 1).map(lambda p: p / q)
)
angles = st.one_of(rationals, st.floats(-1.0, 2.0, exclude_max=True))
circle_starts = st.one_of(rationals, st.floats(-1.0, 2.0, exclude_max=True))
torus_starts = st.tuples(circle_starts, circle_starts)
circle_actions = st.one_of(
    # rotation: h by any angle, f by a multiple of 1/(n-1)
    st.builds(
        lambda n, j, beta: make_action(
            RotationLift(j / (n - 1)), RotationLift(beta), n
        ),
        ns, st.integers(0, 4), angles,
    ),
    st.builds(affine_action, ns),
    st.builds(glued_action, st.sampled_from([3, 4, 5])),
    st.builds(
        denjoy_action, ns,
        st.sampled_from([GOLDEN_MEAN, math.log(2.0), math.log(3.0) % 1.0]),
        st.sampled_from([4, 11]),
    ),
    # f is the identity rotation, which the closure does not step
    st.builds(
        lambda n, k: nonfaithful_circle(n, k=k), ns,
        st.one_of(
            st.sampled_from(["id", "rot:0", "rot:golden", "rot:ln2", "rot:ln5"]),
            st.integers(1, 12).flatmap(
                lambda q: st.integers(-q, 2 * q).map(lambda p: f"rot:{p}/{q}")
            ),
        ),
    ),
    # h repeats f or f^-1, and h^-1 the other
    st.builds(
        lambda n, j, sign: make_action(
            RotationLift(j / (n - 1)), RotationLift(sign * j / (n - 1)), n
        ),
        ns, st.integers(1, 4), st.sampled_from([1, -1]),
    ),
)
torus_actions = st.one_of(
    st.builds(perturbed_torus, ns, st.sampled_from([0.0, 1e-3, 0.25 - math.log(2.0), 0.02])),
    st.builds(lambda n, q: product_action(n, k=f"rot:1/{q}"), ns, st.integers(1, 9)),
    st.builds(periodic_torus_example, st.sampled_from([3, 4])),
    st.builds(morse_smale_example, ns),
    st.builds(
        bump_conjugated_torus,
        ns, st.sampled_from([0.0, 0.25 - math.log(2.0), 0.02]), st.integers(0, 2),
    ),
    st.builds(
        linear_shear_action,
        st.sampled_from([2, 3]), st.sampled_from([1, 2, 3, 5]), st.integers(0, 3),
        st.tuples(angles, angles),
    ),
    # h is f itself, a translation by a multiple of 1/(n-1)
    st.builds(translation_action, ns, st.integers(1, 4)),
)
cases = st.one_of(
    st.tuples(circle_actions, circle_starts),
    st.tuples(torus_actions, torus_starts),
)


class TestFrontierClosure:
    """The closure, stepping each point through every kept generator's
    `step`, equals the reference that calls `raw` once per point and
    generator, bit for bit, with the overflow cut landing at every
    frontier position. A chain, h and h^-1 alone, gives its arms only
    when nothing merges and each step back lands near its parent. Below
    INVERSE_TOL, as at merge_tol 1e-17, where a rotation's step back can
    miss its parent by an ulp, the chain takes the walk."""

    @settings(max_examples=150, deadline=None)
    @given(cases, st.integers(1, 400), st.sampled_from([1e-6, 1e-17]))
    # a back-step's merge sets the defect
    @example((translation_action(5, 1), (1 / 6, 0.0)), 4, 1e-6)
    # a back-step lands an ulp from its parent, outside the buckets scanned
    @example((perturbed_torus(2, 0.0), (0.5, 0.0)), 5, 1e-17)
    # a rotation by 2^50 + 0.3 keeps two bits of its fraction, so a
    # back-step lands far from its parent and joins the orbit
    @example((BSAction(2, RotationLift(0.0), RotationLift(2.0**50 + 0.3), "circle"), 0.1), 3, 1e-6)
    # a chain, h and h^-1 alone, steps its two arms as single-start
    # orbits: odd caps, whose arms differ in length
    @example((nonfaithful_circle(3, k="rot:golden"), 0.3), 7, 1e-6)
    @example((nonfaithful_circle(2, k="denjoy:golden,11,0.45"), 0.0), 101, 1e-6)
    # caps that cut at the first level
    @example((nonfaithful_circle(3, k="rot:ln2"), 0.3), 2, 1e-6)
    @example((nonfaithful_circle(3, k="rot:ln2"), 0.3), 3, 1e-17)
    # a closing chain takes the walk after its first chunk
    @example((nonfaithful_circle(3, k="rot:1/7"), 0.0), 400, 1e-6)
    @example((nonfaithful_circle(3, k="rot:1/7"), 0.0), 400, 1e-17)
    # a closing chain of 300 points, whose second chunk sends it to the walk
    @example((nonfaithful_circle(2, k="rot:1/300"), 0.1), 400, 1e-6)
    # a near-closure at defect 7.6e-8, whose gap below merge_tol sends it
    # to the walk
    @example((nonfaithful_circle(2, k="denjoy:ln2,11,0.45"), 0.0), 10000, 1e-6)
    # a chain whose gaps, 1.5 merge_tol, clear the gap floor of
    # merge_tol + 2^-50: its arms alone give every point
    @example((BSAction(2, RotationLift(0.0), RotationLift(1.5e-6), "circle"), 0.3), 300, 1e-6)
    # chain points 3e-17 apart across the seam, which the walk keeps apart
    @example((BSAction(2, RotationLift(0.0), RotationLift(3e-17), "circle"), 1.5e-17), 9, 1e-17)
    # a chain below INVERSE_TOL, which the walk closes from x0
    @example((nonfaithful_circle(3, k="rot:golden"), 0.3), 400, 1e-13)
    def test_equals_point_at_a_time_reference(self, case, max_size, merge_tol):
        action, x0 = case
        orb = finite_bs_orbit(action, x0, merge_tol=merge_tol, max_size=max_size)
        pts, size, closed, defect = reference_finite_orbit(
            action, x0, merge_tol=merge_tol, max_size=max_size
        )
        assert np.array_equal(orb.points, pts)
        assert orb.points.shape == pts.shape
        assert (orb.size, orb.closed, orb.defect) == (size, closed, defect)

    def test_overflow_cut_follows_the_frontier_point(self):
        # every point of the dense affine orbit has four new images, so
        # the cut lands after the first point that passes max_size
        act = affine_action(2)
        for max_size in range(1, 40):
            orb = finite_bs_orbit(act, 0.3, max_size=max_size)
            assert not orb.closed
            assert orb.size == reference_finite_orbit(act, 0.3, max_size=max_size)[1]

    def test_product_identity_is_not_stepped(self, monkeypatch):
        # f = (rot 0, rot 0) matches its power(0), the product of its
        # factors' identities, so the closure steps h and h^-1 alone
        act = make_action(rotations(0.0, 0.0), rotations(0.3, 0.1), 2)
        stepped = []
        step = ProductTorusLift.step

        def counted(self, p):
            stepped.append(self.base.alpha)
            return step(self, p)

        monkeypatch.setattr(ProductTorusLift, "step", counted)
        orb = finite_bs_orbit(act, np.zeros(2))
        assert orb.closed and orb.size == 10
        assert 0.0 not in stepped and len(stepped) == 20

    def test_back_steps_are_not_stepped(self, monkeypatch):
        # h and h^-1 step the irrational chain as two arms, one step per
        # point but the start, and one batch call per arm checks the steps
        # back to the parents
        act = nonfaithful_circle(3, k="rot:golden")
        calls = 0
        step = RotationLift.step

        def counted(self, x):
            nonlocal calls
            calls += 1
            return step(self, x)

        monkeypatch.setattr(RotationLift, "step", counted)
        for max_size in (1000, 10000):
            calls = 0
            orb = finite_bs_orbit(act, 0.3, max_size=max_size)
            assert orb.reason == f"cut at max_size {max_size}"
            assert calls <= max_size + 2

    def test_close_chain_points_take_the_walk(self):
        # two points 3e-17 apart at merge_tol 1e-17 are below the gap
        # floor, inside [0, 1) and across the seam alike
        for pts in ([0.5, 1e-16, 1.3e-16], [0.5, wrap(-1.5e-17), 1.5e-17]):
            assert not bsgroup._gaps_clear(np.array(pts), 1e-17)
        assert bsgroup._gaps_clear(np.array([0.5, 1e-16, 1e-14]), 1e-17)
        # the floor is merge_tol + 2^-50, exact in these dyadic points
        tol = 2.0**-20
        assert bsgroup._gaps_clear(np.array([0.5, 0.25, 0.25 + tol + 2.0**-50]), tol)
        assert not bsgroup._gaps_clear(np.array([0.5, 0.25, 0.25 + tol + 2.0**-51]), tol)
        # gaps of 1.5 merge_tol: the arms give the whole chain
        h = RotationLift(1.5e-6)
        assert len(bsgroup._chain_points(h, h.inverse(), 0.3, 301, 1e-6)) == 301
        # so a chain of such points takes the walk, as does any chain
        # below INVERSE_TOL
        h = RotationLift(3e-17)
        for x0 in (1e-16, 1.5e-17):
            assert bsgroup._chain_points(h, h.inverse(), x0, 9, 1e-17) is None
        h = RotationLift(1.5e-6)
        assert bsgroup._chain_points(h, h.inverse(), 0.3, 301, 1e-13) is None

    # a closing chain leaves the arms in the chunk where it closes, and
    # the walk runs from x0: rot:1/7 after the first chunk, rot:1/300
    # after the second
    @pytest.mark.parametrize("q, chunks", [(7, 1), (300, 2)])
    def test_closing_chain_steps_its_chunks_and_the_rest_of_the_walk(
        self, monkeypatch, q, chunks
    ):
        act = nonfaithful_circle(3, k=f"rot:1/{q}")
        calls = 0
        step = RotationLift.step

        def counted(self, x):
            nonlocal calls
            calls += 1
            return step(self, x)

        monkeypatch.setattr(RotationLift, "step", counted)
        orb = finite_bs_orbit(act, 0.0)
        arms_and_walk = calls
        # the walk alone, from x0
        monkeypatch.setattr(bsgroup, "_chain_points", lambda *args: None)
        calls = 0
        walked = finite_bs_orbit(act, 0.0)
        assert np.array_equal(walked.points, orb.points)
        assert orb.closed and orb.size == walked.size == q
        arms = 2 * bsgroup._ARM_CHUNK * (2**chunks - 1)
        assert arms_and_walk == arms + calls
