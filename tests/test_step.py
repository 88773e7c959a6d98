"""The law of `step`: a lift maps one point in Python floats to the bits
`raw` gives for that point, alone or inside a batch. Property-tested on
the exact circle and torus families, their inverses and compositions,
at generic points, glued points, points within 2^-54 below an integer,
piecewise breakpoints, large |x| and non-finite input. The bump lift's
float `step` (`BumpTorusLift`, forward and inverse) is held to the bits
of its array path on the point alone, non-finite points included. So is
the float graph evaluation `InvariantCircleEstimate.at_float`, which
runs the remap, the interval search and the Horner sum of the periodic
spline's `at` on one float; and so is the graph restriction of
conjugated actions, at finite points. In a batch the bump field may
round a row otherwise, so there the graph restriction is held to
1e-14."""

import functools
import math
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from bsdl.catalog import perturbed_torus
from bsdl.circle import (
    GOLDEN_MEAN,
    ChartAffineLift,
    ComposedLift,
    PiecewiseLift,
    RotationLift,
    compose,
    denjoy_lift,
)
from bsdl.experiments import (
    BumpTorusLift,
    GraphRestriction,
    NonConvergentError,
    conjugated_action,
    find_invariant_circle,
    near_identity_diffeo,
    restricted_circle_map,
)
from bsdl.gl2z import IntMatrix2
from bsdl.torus import (
    ComposedTorusLift,
    LinearTorusLift,
    ProductTorusLift,
)

# a batch long enough for numpy's vector loops, with the point appended
BACKGROUND = np.random.default_rng(5).uniform(-2.0, 3.0, 98)


def same(a, b):
    """Equal bits, or both NaN."""
    return (a != a and b != b) or struct.pack("<d", a) == struct.pack("<d", b)


def raw_alone_and_in_batch(F, p, width):
    with np.errstate(all="ignore"):
        alone = F.raw(np.array([p], dtype=float))[0]
        background = BACKGROUND if width == 1 else BACKGROUND.reshape(-1, 2)
        batch = F.raw(np.concatenate([background, [p]]))[-1]
    return alone, batch


def assert_circle_step_is_raw(F, x):
    try:
        y = F.step(x)
    except ValueError:
        # the orbit kernel's error for a point off the real line
        assert not math.isfinite(x)
        return
    assert type(y) is float
    alone, batch = raw_alone_and_in_batch(F, x, 1)
    assert same(y, float(alone)), (F.label, x, y, float(alone))
    assert same(y, float(batch)), (F.label, x, y, float(batch))


def assert_torus_step_is_raw(F, p):
    try:
        q = F.step(p)
    except ValueError:
        assert not all(math.isfinite(c) for c in p)
        return
    assert type(q) is tuple and len(q) == 2
    assert all(type(c) is float for c in q)
    alone, batch = raw_alone_and_in_batch(F, p, 2)
    for c, a, b in zip(q, alone.tolist(), batch.tolist()):
        assert same(c, a) and same(c, b), (F.label, p, q, alone, batch)


# ---------------------------------------------------------------------------
# lifts


def random_piecewise(seed, count):
    rng = np.random.default_rng(seed)
    bx = np.unique(rng.uniform(0.0, 1.0, count))
    steps = rng.uniform(0.05, 1.0, bx.size)
    by = rng.uniform(-2.0, 2.0) + np.cumsum(steps) / (steps.sum() * 1.01)
    return PiecewiseLift(bx, by)


@functools.lru_cache(maxsize=None)
def cached_denjoy(alpha, depth):
    return denjoy_lift(alpha, depth, 0.45)


slopes = st.one_of(st.floats(0.05, 20.0), st.sampled_from([1e-8, 0.0625**6, 1.0, 1e8]))
offsets = st.floats(-1e3, 1e3)
exact_circle = st.one_of(
    st.builds(RotationLift, st.floats(-4.0, 4.0)),
    st.builds(ChartAffineLift, slopes, offsets),
    st.builds(ChartAffineLift, slopes, offsets, m=st.integers(1, 6), shift=st.integers(-3, 3)),
    st.builds(random_piecewise, st.integers(0, 2**32 - 1), st.integers(1, 8)),
    st.builds(
        cached_denjoy,
        st.sampled_from([GOLDEN_MEAN, math.log(2.0), math.log(3.0) % 1.0]),
        st.sampled_from([1, 4, 11]),
    ),
)
circle_lifts = st.one_of(
    exact_circle,
    exact_circle.map(lambda F: F.inverse()),
    st.builds(ComposedLift, exact_circle, exact_circle),
    st.builds(compose, exact_circle, exact_circle),
)

matrices = st.sampled_from(
    [((1, 0), (0, 1)), ((1, 3), (0, 1)), ((2, 1), (1, 1)), ((-3, 2), (-2, 1)),
     ((5, 7), (2, 3)), ((0, -1), (1, 0))]
)
exact_torus = st.one_of(
    st.builds(ProductTorusLift, circle_lifts, circle_lifts),
    st.builds(
        lambda rows, b: LinearTorusLift(IntMatrix2.from_rows(*rows), b),
        matrices, st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    ),
)
torus_lifts = st.one_of(
    exact_torus,
    exact_torus.map(lambda F: F.inverse()),
    st.builds(ComposedTorusLift, exact_torus, exact_torus),
    st.builds(compose, exact_torus, exact_torus),
)


# ---------------------------------------------------------------------------
# points


def seams_of(F):
    """Breakpoints and glued points of F and its parts, on [0, 1)."""
    if isinstance(F, PiecewiseLift):
        return F.bx.tolist()
    if isinstance(F, ChartAffineLift):
        return [i / F.m for i in range(F.m)]
    if isinstance(F, ComposedLift):
        return seams_of(F.inner) + seams_of(F.outer)
    return [0.0]


BELOW = [-(2.0 ** -e) for e in (55, 60, 80, 300)] + [-5e-324]
SPECIAL = [
    math.inf, -math.inf, math.nan, 2.0**52, -(2.0**52), 2.0**52 + 0.5, 2.0**53,
    1e300, -1e300, -0.0,
]


def circle_points(F):
    near = [s + d for s in seams_of(F) for d in (0.0, 1e-12, -1e-12)]
    near += [math.nextafter(s, v) for s in seams_of(F) for v in (-1.0, 2.0)]
    return st.one_of(
        st.floats(-4.0, 4.0),
        # x within 2^-54 below an integer: x - floor(x) rounds up to 1.0
        st.builds(lambda k, d: k + d, st.integers(-3, 3), st.sampled_from(BELOW)),
        st.builds(lambda k, s: k + s, st.integers(-3, 3), st.sampled_from(near)),
        st.floats(1e6, 1e300).flatmap(lambda a: st.sampled_from([a, -a])),
        st.sampled_from(SPECIAL),
    )


@settings(max_examples=600, deadline=None)
@given(circle_lifts, st.data())
def test_circle_step_is_raw(F, data):
    for x in data.draw(st.lists(circle_points(F), min_size=1, max_size=8)):
        assert_circle_step_is_raw(F, x)


def torus_points(F):
    if isinstance(F, ProductTorusLift):
        return st.tuples(circle_points(F.base), circle_points(F.fiber))
    inner = circle_points(RotationLift(0.0))
    return st.tuples(inner, inner)


@settings(max_examples=400, deadline=None)
@given(torus_lifts, st.data())
def test_torus_step_is_raw(F, data):
    for p in data.draw(st.lists(torus_points(F), min_size=1, max_size=8)):
        assert_torus_step_is_raw(F, p)


@functools.lru_cache(maxsize=None)
def graph_restriction(n, angle, seed):
    """h of perturbed_torus(n, eps) with fiber angle `angle` = log n + eps
    (log n if None), conjugated by a bump map and restricted to its
    invariant circle."""
    eps = 0.0 if angle is None else angle - math.log(n)
    act = conjugated_action(perturbed_torus(n, eps), near_identity_diffeo(1e-3, seed=seed))
    F, kind = restricted_circle_map(act.h, find_invariant_circle(act.h, 0.0, samples=256))
    assert kind == "graph" and isinstance(F, GraphRestriction)
    return F


graph_restrictions = st.builds(
    graph_restriction,
    st.sampled_from([2, 3]),
    st.sampled_from([None, 2 / 5, 3 / 7]),
    st.sampled_from([0, 5]),
)


@settings(max_examples=150, deadline=None)
@given(graph_restrictions, st.data())
def test_graph_restriction_step_is_raw(F, data):
    # step has the bits of raw on the point alone. In a batch, the bump
    # field's matrix product gives other bits than on the point alone,
    # so a row may move by an ulp or two
    # (TestBumpLaws holds batch rows to 1e-15). The bump inverse raises
    # on a non-finite point, in step and raw alike, so points are finite.
    points = circle_points(RotationLift(0.0)).filter(math.isfinite)
    for t in data.draw(st.lists(points, min_size=1, max_size=8)):
        y = F.step(t)
        assert type(y) is float
        alone, batch = raw_alone_and_in_batch(F, t, 1)
        assert same(y, float(alone)), (t, y, float(alone))
        assert abs(y - float(batch)) <= 1e-14 * (1.0 + abs(y)), (t, y, float(batch))


def bump(seed, size, inverted):
    psi = near_identity_diffeo(size, seed)
    return psi.inverse() if inverted else psi


bump_lifts = st.builds(bump, st.integers(0, 2**32 - 1), st.floats(1e-4, 1e-2), st.booleans())


def bump_raws(F, p):
    """raw on the point as a (2,) array and as a one-row batch, as lists,
    or the NonConvergentError each raised."""
    out = []
    for v in (np.array(p, dtype=float), np.array([p], dtype=float)):
        try:
            out.append(F.raw(v).reshape(2).tolist())
        except NonConvergentError as exc:
            out.append(exc)
    return out


@settings(max_examples=300, deadline=None)
@given(bump_lifts, st.data())
def test_bump_step_is_raw_on_the_point_alone(F, data):
    assert isinstance(F, BumpTorusLift)
    assert F.label.startswith("bump(")
    for p in data.draw(st.lists(torus_points(F), min_size=1, max_size=8)):
        with np.errstate(all="ignore"):
            raws = bump_raws(F, p)
            try:
                q = F.step(p)
            except NonConvergentError as exc:
                # only the inverse raises, and only off the real plane,
                # after the same 60 NaN steps as raw
                assert F.label.endswith("^-1")
                assert not all(math.isfinite(c) for c in p)
                for r in raws:
                    assert isinstance(r, NonConvergentError)
                    assert len(r.residuals) == len(exc.residuals) == 60
                    assert all(a != a for a in r.residuals + exc.residuals)
                continue
        assert type(q) is tuple and all(type(c) is float for c in q)
        for r in raws:
            assert not isinstance(r, NonConvergentError), (F.label, p)
            assert all(same(c, a) for c, a in zip(q, r)), (F.label, p, q, r)


def test_bump_inverse_of_inverse_is_the_forward_map():
    psi = near_identity_diffeo(1e-3, seed=4)
    back = psi.inverse().inverse()
    assert back.label == psi.label == "bump(size=0.001,seed=4)"
    assert psi.inverse().label == "bump(size=0.001,seed=4)^-1"
    assert back.step((0.3, 0.6)) == psi.step((0.3, 0.6))


def graph_angles(circle):
    nodes = circle.thetas.tolist()
    return st.one_of(
        st.floats(-4.0, 4.0),
        st.builds(
            lambda x, k, d: (math.nextafter(x, d) if d else x) + k,
            st.sampled_from(nodes), st.sampled_from([0, 0, -1, 3, -7]),
            st.sampled_from([0, 0, -1.0, 2.0]),
        ),
        st.builds(lambda k, d: k + d, st.integers(-3, 3), st.sampled_from(BELOW)),
        st.floats(1e6, 1e300).flatmap(lambda a: st.sampled_from([a, -a])),
        st.sampled_from([1.0 - 2.0**-54, 2.0**52 + 0.5, -0.0, math.inf, -math.inf, math.nan]),
    )


@settings(max_examples=150, deadline=None)
@given(graph_restrictions, st.data())
def test_float_graph_evaluation_is_at(F, data):
    circle = F.circle
    for t in data.draw(st.lists(graph_angles(circle), min_size=1, max_size=16)):
        y = circle.at_float(t)
        assert type(y) is float
        with np.errstate(all="ignore"):
            assert same(y, float(circle.at(t))), (t, y)


def test_float_graph_evaluation_on_a_dense_grid():
    # every node, its neighbours, and enough points for a 1-ulp
    # difference in the interval, the remap or the Horner sum to show
    circle = graph_restriction(2, None, 5).circle
    ts = np.concatenate([
        np.random.default_rng(3).uniform(-3.0, 3.0, 20000),
        circle.thetas, -circle.thetas, np.nextafter(circle.thetas, -1.0),
        np.nextafter(circle.thetas, 2.0), circle.thetas + 5.0,
    ])
    ys = circle.at(ts).tolist()
    assert all(same(circle.at_float(t), y) for t, y in zip(ts.tolist(), ys))


def test_chart_affine_on_a_dense_grid():
    # the glued point, both sides of it, and enough points for 1-ulp
    # differences of tan and arctan to show if the step rounded otherwise
    xs = np.concatenate([
        np.random.default_rng(2).uniform(-2.0, 2.0, 20000),
        np.arange(-2.0, 3.0), -np.ldexp(1.0, -np.arange(53, 70)),
    ])
    for F in (ChartAffineLift(2.0, 0.0), ChartAffineLift(0.3, 5.0),
              ChartAffineLift(2.0, 0.0, m=3), ChartAffineLift(0.5, -1.0, m=4, shift=-5)):
        batch = F.raw(xs).tolist()
        assert all(same(F.step(x), y) for x, y in zip(xs.tolist(), batch))
