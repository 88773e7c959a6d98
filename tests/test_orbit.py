"""Laws of the orbit kernel `bsdl.circle.orbit`, property-tested on the
exact lift families with drawn parameters, starts and orbit lengths."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bsdl.circle import (
    ChartAffineLift,
    RotationLift,
    _wrap_float,
    orbit,
    rotation_number,
    wrap,
)
from bsdl.torus import LinearTorusLift, ProductTorusLift
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


def test_non_finite_image_is_an_error():
    F = RotationLift(math.inf)
    with pytest.raises(ValueError, match="left the real line"):
        list(orbit(F, 0.0, 2))
    G = ProductTorusLift(RotationLift(0.5), RotationLift(math.nan))
    with pytest.raises(ValueError, match="left the real line"):
        list(orbit(G, (0.0, 0.0), 2))
