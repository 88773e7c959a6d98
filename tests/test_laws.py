"""Property laws of the lifts, the group's relation and the hull:

* every exact circle family is a degree-one lift: F(x + 1) = F(x) + 1
  to 1e-12, at points where x + 1 is exact;
* every exact circle family, Denjoy lifts included, and its inverse is
  strictly increasing at points 2^-16 apart, for parameters whose
  slopes stay above 1e-8, so those points stay far more than one
  rounding apart;
* the relator a b a^-1 b^-n, inserted anywhere in a word of up to 6
  letters, leaves the word's element of the affine model unchanged, and
  its action, applied letter by letter, on every catalog action, to
  1e-9;
* every input point of `convex_hull` lies within 1e-12 of its hull;
* F^-1 undoes F: F^-1(F(x)) lies within 1e-12 of x as lift values, for
  every lift family with an inverse rule, on both spaces, at points in
  [-3, 3]; a callable lift with no inverse supplied raises
  NotImplementedError instead;
* every torus lift obeys the deck law F(v + m) = F(v) + A m, A its
  linear part, to 1e-13 relative: products, linear maps of finite
  order and hyperbolic, their inverses and compositions, bump maps and
  their inverses, and conjugates by a bump map; a lift that breaks the
  law fails it.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsdl.catalog import CATALOG, build_action, periodic_circle_example
from bsdl.circle import (
    GOLDEN_MEAN,
    ChartAffineLift,
    RotationLift,
    compose,
    denjoy_lift,
)
from bsdl.experiments import near_identity_diffeo
from bsdl.gl2z import IntMatrix2
from bsdl.space import TORUS
from bsdl.torus import (
    ComposedTorusLift,
    ConjugatedTorusLift,
    LinearTorusLift,
    ProductTorusLift,
    _point_to_hull,
    convex_hull,
)

from letters import apply_letters, element
from lifts import callable_lift, deck_defect
from test_step import cached_denjoy, exact_circle, matrices, random_piecewise

# dyadic points with 37 significant bits or fewer, so x + 1 is exact
dyadic = st.one_of(
    st.integers(-64 * 2**30, 64 * 2**30).map(lambda k: k / 2**30),
    st.integers(-64, 64).map(float),
)


@settings(max_examples=120, deadline=None)
@given(exact_circle, st.lists(dyadic, min_size=1, max_size=16))
def test_degree_one(F, xs):
    x = np.array(xs)
    err = np.abs(F.raw(x + 1.0) - F.raw(x) - 1.0)
    assert np.max(err) <= 1e-12, (F.label, xs)


# slopes above 1e-8: the least slope of a chart-affine map x -> a x + b
# is a / (a^2 + b^2 + 1), at least 4.9e-4 here; a Denjoy lift's is about
# 4e-8, on its funnel arc; a random piecewise lift's at least 7e-7
slopes = st.floats(0.05, 20.0)
offsets = st.floats(-10.0, 10.0)
moderate_circle = st.one_of(
    st.builds(RotationLift, st.floats(-4.0, 4.0)),
    st.builds(ChartAffineLift, slopes, offsets),
    st.builds(ChartAffineLift, slopes, offsets, m=st.integers(1, 6), shift=st.integers(-3, 3)),
    st.builds(random_piecewise, st.integers(0, 2**32 - 1), st.integers(1, 8)),
    st.builds(
        denjoy_lift,
        st.sampled_from([GOLDEN_MEAN, math.log(2.0), math.sqrt(2.0) - 1.0]),
        st.integers(1, 12),
        st.floats(0.1, 0.9),
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    moderate_circle,
    st.booleans(),
    st.lists(st.integers(-3 * 2**16, 3 * 2**16), min_size=2, max_size=32, unique=True),
)
def test_strictly_increasing(F, invert, ks):
    if invert:
        F = F.inverse()
    x = np.sort(np.array(ks)) / 2**16
    assert np.all(np.diff(F.raw(x)) > 0.0), (F.label, x.tolist())


# each letter a applied after the relator can scale its residual by up
# to n: the relator alone moves the 16-point lattice by at most 1.3e-15
# (the periodic entries), and over all words of up to 5 letters, one raw
# call per letter, with the relator at every position, the worst case
# is 3.3e-13 (a^5 applied after it on the periodic entries)
words = st.lists(st.sampled_from("aAbB"), max_size=6).map("".join)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CATALOG)), words, st.integers(0, 6))
def test_relator_acts_trivially(name, w, at):
    act = build_action(name)
    at = min(at, len(w))
    longer = w[:at] + "abA" + "B" * act.n + w[at:]
    assert element(longer, act.n) == element(w, act.n)
    pts = act.space.lattice(16)
    d = act.space.dist(apply_letters(act, longer, pts), apply_letters(act, w, pts))
    assert np.max(d) < 1e-9, (name, longer)


coordinates = st.one_of(st.floats(-100.0, 100.0), st.integers(-3, 3).map(float))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40))
def test_hull_contains_its_points(points):
    hull = convex_hull(np.array(points))
    assert max(_point_to_hull(p, hull) for p in points) <= 1e-12, hull.tolist()


# F^-1 o F magnifies the rounding of F(x) by the slope of F^-1. With
# chart-affine slopes in [0.5, 2] and offsets up to 1 that slope stays
# below 5, and below 25 over the two factors of a square; a cube of a
# Denjoy lift at gap ratio 0.45 reaches 2e-14 over 20000 points. F o F^-1
# is not held to 1e-12: F magnifies the rounding of F^-1(y) by its own
# slope, which on a Denjoy lift's funnel arc is huge.
small_slopes = st.floats(0.5, 2.0)
small_offsets = st.floats(-1.0, 1.0)
smooth_circle = st.one_of(
    st.builds(RotationLift, st.floats(-4.0, 4.0)),
    st.builds(ChartAffineLift, small_slopes, small_offsets),
    st.builds(
        ChartAffineLift, small_slopes, small_offsets,
        m=st.integers(1, 6), shift=st.integers(-3, 3),
    ),
)
denjoys = st.builds(
    cached_denjoy,
    st.sampled_from([GOLDEN_MEAN, math.log(2.0), math.log(3.0) % 1.0]),
    st.sampled_from([1, 4, 11]),
)
invertible_circle = st.one_of(
    smooth_circle,
    st.builds(random_piecewise, st.integers(0, 2**32 - 1), st.integers(1, 8)),
    denjoys,
    st.integers(3, 8).map(lambda n: periodic_circle_example(n).f),
    # a piecewise lift has no closed-form power: its cube is a chain
    denjoys.map(lambda F: compose(F, compose(F, F))),
)
products = st.builds(ProductTorusLift, invertible_circle, invertible_circle)


@functools.lru_cache(maxsize=None)
def bump(seed):
    return near_identity_diffeo(1e-3, seed)


shears = st.integers(-3, 3).map(lambda k: IntMatrix2.from_rows((1, k), (0, 1)))
shear_lifts = st.builds(LinearTorusLift, shears, st.tuples(small_offsets, small_offsets))
invertible_torus = st.one_of(
    products,
    shear_lifts,
    # a product composed with a shear fuses no parameters: its square is a chain
    st.builds(
        compose, st.builds(ProductTorusLift, smooth_circle, smooth_circle), shear_lifts
    ).map(lambda F: compose(F, F)),
    st.builds(ConjugatedTorusLift, st.integers(0, 3).map(bump), products | shear_lifts),
)
lift_coords = st.floats(-3.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(invertible_circle, st.lists(lift_coords, min_size=1, max_size=16)),
        st.tuples(
            invertible_torus,
            st.lists(st.tuples(lift_coords, lift_coords), min_size=1, max_size=16),
        ),
    )
)
def test_inverse_undoes_the_lift(case):
    F, xs = case
    x = np.array(xs)
    err = np.max(np.abs(F.inverse().raw(F.raw(x)) - x))
    assert err <= 1e-12, (F.label, xs)


@pytest.mark.parametrize(
    "F", [callable_lift(lambda x: x + 0.25), callable_lift(lambda v: v + 0.25, torus=True)]
)
def test_function_lift_without_inverse_raises(F):
    with pytest.raises(NotImplementedError, match=f"^{type(F).__name__} has no inverse rule$"):
        F.inverse()


# the deck law: over 3000 examples of each family the largest relative
# defect was 3.4e-15, a few roundings times a slope of 29 (the row sum of
# a composed linear map)
DECK_TOL = 1e-13
deck_coords = st.integers(-4 * 2**30, 4 * 2**30).map(lambda k: k / 2**30)
deck_shifts = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda m: m != (0, 0))
linear_lifts = st.builds(
    lambda rows, b: LinearTorusLift(IntMatrix2.from_rows(*rows), b),
    matrices, st.tuples(small_offsets, small_offsets),
)
bumps = st.integers(0, 3).map(bump)
moderate_torus = st.builds(ProductTorusLift, smooth_circle, smooth_circle) | linear_lifts
# each family draws its own examples, as one_of favours its first branch
deck_families = {
    "product": st.builds(ProductTorusLift, exact_circle, exact_circle),
    # finite order and hyperbolic
    "linear": linear_lifts,
    # a composition rounds between its maps, so its slopes stay moderate:
    # a factor of slope 1e8 turns a rounding of 1 + 5e-11 into 1e-8
    "composed": st.one_of(
        moderate_torus.map(lambda F: F.inverse()),
        st.builds(ComposedTorusLift, moderate_torus, moderate_torus),
        st.builds(compose, moderate_torus, moderate_torus),
    ),
    "bump": bumps | bumps.map(lambda psi: psi.inverse()),
    "conjugated": st.builds(ConjugatedTorusLift, bumps, moderate_torus).flatmap(
        lambda C: st.sampled_from([C, C.inverse()])
    ),
}


@pytest.mark.parametrize("family", sorted(deck_families))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_deck_law(family, data):
    F = data.draw(deck_families[family])
    vs = data.draw(st.lists(st.tuples(deck_coords, deck_coords), min_size=1, max_size=16))
    m = data.draw(deck_shifts)
    assert deck_defect(F, vs, m) <= DECK_TOL, (F.label, vs, m)


def test_deck_law_fails_a_lift_that_breaks_it():
    bad = callable_lift(lambda v: 1.5 * v, torus=True)
    vs = TORUS.lattice(8)
    assert deck_defect(bad, vs, (0, 0)) == 0.0
    for m in ((1, 0), (0, 1), (-1, 2)):
        assert deck_defect(bad, vs, m) > 0.1
