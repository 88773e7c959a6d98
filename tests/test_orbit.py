"""Laws of the orbit kernels `bsdl.circle.orbit` and `orbit_arrays`,
property-tested on lift families with drawn parameters, starts and orbit
lengths."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bsdl.circle import (
    GOLDEN_MEAN,
    ChartAffineLift,
    CircleLift,
    RotationLift,
    _wrap_float,
    denjoy_lift,
    orbit,
    orbit_arrays,
    rotation_number,
    wrap,
)
from bsdl.experiments import near_identity_diffeo
from bsdl.torus import ConjugatedTorusLift, LinearTorusLift, ProductTorusLift
from bsdl.gl2z import IntMatrix2

starts = st.floats(-3.0, 3.0)
lengths = st.integers(1, 200)
slopes = st.floats(0.05, 20.0)
offsets = st.floats(-10.0, 10.0)

lifts = st.one_of(
    st.builds(RotationLift, st.floats(-4.0, 4.0)),
    st.builds(ChartAffineLift, slopes, offsets),
    st.builds(ChartAffineLift, slopes, offsets, m=st.integers(1, 5), shift=st.integers(-3, 3)),
)


def wrapped(y):
    r = y - math.floor(y)
    return r if r < 1.0 else math.nextafter(1.0, 0.0)


def expansion(F, x0, n, h=1e-7):
    """Slope of F^n across [x0 - h, x0 + h]: the factor by which n steps
    amplify a round-off error in the start."""
    return (F.iterate(x0 + h, n) - F.iterate(x0 - h, n)) / (2.0 * h)


@settings(max_examples=200, deadline=None)
@given(lifts, starts, lengths, st.integers(0, 20))
def test_points_lie_in_the_unit_interval_and_chain(F, x0, n, transient):
    pairs = list(orbit(F, x0, n, transient))
    for x, _ in pairs:
        assert 0.0 <= x < 1.0
    # each point is the wrapped image of the one before, exactly
    for (_, fx), (x_next, _) in zip(pairs, pairs[1:]):
        assert x_next == wrapped(fx)
    for v, _ in orbit(F, np.array([x0, -x0, x0 + 0.5]), n, transient):
        assert np.all((0.0 <= v) & (v < 1.0))


@settings(max_examples=200, deadline=None)
@given(lifts, starts, lengths)
def test_birkhoff_sum_telescopes_to_the_iterate(F, x0, n):
    # Both sides carry round-off amplified by the expansion of F^n; within
    # 1e-7 of a repelling fixed point that reaches max(a, 1/a)^n and no
    # fixed tolerance can hold, so such starts are left out.
    assume(abs(expansion(F, x0, n)) < 1e4)
    total = 0.0
    for x, fx in orbit(F, x0, n):
        total += fx - x
    expected = F.iterate(x0, n) - x0
    assert abs(total - expected) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(lifts, st.lists(starts, min_size=1, max_size=8), lengths, st.integers(0, 20))
def test_batch_steps_each_start_as_alone(F, xs, n, transient):
    batch = [(v, fv) for v, fv in orbit(F, np.array(xs), n, transient)]
    for i, x0 in enumerate(xs):
        alone = list(orbit(F, x0, n, transient))
        assert [v[i] for v, _ in batch] == [x for x, _ in alone]
        assert [fv[i] for _, fv in batch] == [fx for _, fx in alone]


torus_lifts = st.one_of(
    st.builds(ProductTorusLift, lifts, lifts),
    st.builds(
        lambda rows, b: LinearTorusLift(IntMatrix2.from_rows(*rows), b),
        st.sampled_from([((1, 0), (0, 1)), ((1, 3), (0, 1)), ((-3, 2), (-2, 1))]),
        st.tuples(offsets, offsets),
    ),
)


circle_families = st.one_of(
    lifts,
    st.builds(
        denjoy_lift,
        st.sampled_from([GOLDEN_MEAN, math.log(2.0), math.sqrt(2.0) - 1.0]),
        st.integers(1, 6),
        st.floats(0.2, 0.7),
    ),
)
bump = functools.cache(lambda seed: near_identity_diffeo(1e-3, seed=seed))
torus_families = st.one_of(
    torus_lifts,
    st.builds(lambda seed, g: ConjugatedTorusLift(bump(seed), g), st.integers(0, 2), torus_lifts),
)
# starts within 2^-54 below an integer wrap to the largest double below 1
edge_starts = st.one_of(starts, st.sampled_from([-(2.0**-60), -1e-17, math.nextafter(3.0, 0.0)]))
transients = st.sampled_from([0, 200])


def reference_arrays(F, x0, n, transient):
    """`orbit_arrays` by hand: wrap each point by `_wrap_float`, step it
    through `F.step`, keep the pairs past the transient."""
    if isinstance(F, CircleLift):
        fx, wrap_point = float(x0), _wrap_float
    else:
        fx, wrap_point = tuple(x0), lambda p: (_wrap_float(p[0]), _wrap_float(p[1]))
    points, images = [], []
    for k in range(transient + n):
        x = wrap_point(fx)
        fx = F.step(x)
        if k >= transient:
            points.append(x)
            images.append(fx)
    return np.array(points), np.array(images)


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(circle_families, edge_starts, lengths, transients)
def test_arrays_are_the_float_loop_on_the_circle(F, x0, n, transient):
    assert_same_arrays(orbit_arrays(F, x0, n, transient), reference_arrays(F, x0, n, transient))


@settings(max_examples=100, deadline=None)
@given(torus_families, st.tuples(edge_starts, edge_starts), lengths, transients)
def test_arrays_are_the_float_loop_on_the_torus(F, p0, n, transient):
    got = orbit_arrays(F, np.array(p0), n, transient)
    assert got[0].shape == (n, 2)
    assert_same_arrays(got, reference_arrays(F, p0, n, transient))
    # orbit yields the same pairs
    pairs = list(orbit(F, p0, n, transient))
    assert np.array([v for v, _ in pairs]).tobytes() == got[0].tobytes()
    assert np.array([fv for _, fv in pairs]).tobytes() == got[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(torus_lifts, st.tuples(starts, starts), st.lists(st.tuples(starts, starts), max_size=4),
       lengths, st.integers(0, 20))
def test_torus_point_steps_as_row_zero_of_a_batch(F, p0, others, n, transient):
    # a lone torus point steps in floats, a batch as one array: same bits
    alone = list(orbit(F, p0, n, transient))
    batch = list(orbit(F, np.array([p0] + others), n, transient))
    assert len(alone) == len(batch) == n
    for (v, fv), (bv, bfv) in zip(alone, batch):
        assert v.shape == fv.shape == (2,)
        assert v.tobytes() == bv[0].tobytes() and fv.tobytes() == bfv[0].tobytes()


@settings(max_examples=50, deadline=None)
@given(lifts, starts, starts, lengths)
def test_two_circle_starts_are_a_batch(F, x0, x1, n):
    # shape (2,) is a torus point only for a torus lift
    pairs = list(orbit(F, np.array([x0, x1]), n))
    for start, i in ((x0, 0), (x1, 1)):
        alone = list(orbit(F, start, n))
        assert [v[i] for v, _ in pairs] == [x for x, _ in alone]
        assert [fv[i] for _, fv in pairs] == [fx for _, fx in alone]


def test_transient_steps_are_not_yielded():
    F = RotationLift(0.25)
    assert [x for x, _ in orbit(F, 0.0, 3, transient=2)] == [0.5, 0.75, 0.0]


def test_torus_point_and_batch():
    F = ProductTorusLift(RotationLift(0.25), ChartAffineLift(2.0, 0.0))
    pts = [v for v, _ in orbit(F, (0.5, 0.3), 4)]
    assert len(pts) == 4 and all(p.shape == (2,) for p in pts)
    assert [p[0] for p in pts] == [0.5, 0.75, 0.0, 0.25]
    batch = list(orbit(F, np.array([[0.5, 0.3], [0.1, 0.9]]), 4))
    assert np.array_equal(np.array([v[0] for v, _ in batch]), np.array(pts))


def test_yielded_arrays_are_fresh():
    F = LinearTorusLift(IntMatrix2.identity(), (0.125, 0.5))
    kept = [v for v, _ in orbit(F, (0.0, 0.0), 3)]
    assert [list(v) for v in kept] == [[0.0, 0.0], [0.125, 0.5], [0.25, 0.0]]


def test_just_below_an_integer_wraps_below_one():
    # x - floor(x) rounds to 1.0 for x in (-2^-54, 0)
    F = RotationLift(-1e-20)
    xs = [x for x, _ in orbit(F, 0.0, 3)]
    assert xs[0] == 0.0 and all(0.0 <= x < 1.0 for x in xs)
    assert xs[1] == math.nextafter(1.0, 0.0)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-17)
@example(-0.0)
@example(3.0 - 2.0**-52)
def test_wrap_lies_below_one_with_the_bits_of_the_float_wrap(x):
    w = wrap(x)
    assert 0.0 <= w < 1.0
    assert np.float64(w).tobytes() == np.float64(_wrap_float(x)).tobytes()


def test_rotation_number_just_below_zero_lies_below_one():
    est = rotation_number(RotationLift(-1e-17), iterates=1000)
    assert 0.0 <= est.value < 1.0


@pytest.mark.parametrize("iterates,transient", [(0, 0), (-1, 0), (5, -1)])
def test_rejects_empty_orbits(iterates, transient):
    with pytest.raises(ValueError):
        next(orbit(RotationLift(0.1), 0.0, iterates, transient))


@pytest.mark.parametrize("iterates,transient", [(0, 0), (-1, 0), (5, -1)])
def test_arrays_reject_empty_orbits(iterates, transient):
    with pytest.raises(ValueError):
        orbit_arrays(RotationLift(0.1), 0.0, iterates, transient)


def test_non_finite_image_is_an_error():
    F = RotationLift(math.inf)
    with pytest.raises(ValueError, match="left the real line"):
        list(orbit(F, 0.0, 2))
    G = ProductTorusLift(RotationLift(0.5), RotationLift(math.nan))
    with pytest.raises(ValueError, match="left the real line"):
        list(orbit(G, (0.0, 0.0), 2))
    with pytest.raises(ValueError, match="left the real line"):
        orbit_arrays(G, (0.0, 0.0), 2)
    # the last image is not stepped again
    assert math.isnan(orbit_arrays(G, (0.0, 0.0), 1)[1][0, 1])
