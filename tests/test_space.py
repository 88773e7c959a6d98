"""The two spaces, and the composition and inverse laws of the exact
lifts: `compose(F, G)`, which fuses two lifts of one exact family on
the lift class, agrees with the unfused ComposedLift / ComposedTorusLift
at every point, and an exact lift's inverse undoes it. Tolerances follow
from the local slopes of the maps involved, computed from each family's
parameters. The fusion rules themselves are checked in
tests/test_fusion.py."""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsdl.circle import (
    ChartAffineLift,
    ComposedLift,
    PiecewiseLift,
    RotationLift,
    compose,
)
from bsdl.estimators import CellSet
from bsdl.gl2z import IntMatrix2
from bsdl.space import CIRCLE, SPACES, TORUS, space_of
from bsdl.torus import ComposedTorusLift, LinearTorusLift, ProductTorusLift

from test_step import circle_points, exact_circle, matrices, torus_points

EPS = np.finfo(float).eps


class TestSpaces:
    def test_equal_to_their_names(self):
        assert CIRCLE == "circle" and TORUS == "torus"
        assert SPACES["circle"] is CIRCLE and SPACES[TORUS] is TORUS
        assert json.dumps({CIRCLE: TORUS}) == '{"circle": "torus"}'
        assert (CIRCLE.dim, CIRCLE.shape, TORUS.dim, TORUS.shape) == (1, (), 2, (2,))

    def test_copies_and_pickles_are_the_instance(self):
        for space in (CIRCLE, TORUS):
            assert copy.deepcopy(space) is space
            assert pickle.loads(pickle.dumps(space)) is space

    def test_space_of(self):
        assert space_of(RotationLift(0.1)) is CIRCLE
        assert space_of(LinearTorusLift(IntMatrix2.identity())) is TORUS
        with pytest.raises(TypeError):
            space_of(lambda x: x)

    def test_identity_lifts(self):
        assert RotationLift(0.2).power(0).raw(0.3) == 0.3
        v = np.array([0.3, -1.7])
        cat = LinearTorusLift(IntMatrix2.from_rows((2, 1), (1, 1)))
        assert np.array_equal(cat.power(0).raw(v), v)

    def test_lattice(self):
        assert np.array_equal(CIRCLE.lattice(4), [0.0, 0.25, 0.5, 0.75])
        pts = TORUS.lattice(128)
        assert pts.shape == (121, 2)
        assert np.array_equal(pts[:2], [[0.0, 0.0], [0.0, 1 / 11]])

    def test_parse_point(self):
        assert CIRCLE.parse_point("0.25") == 0.25
        assert np.array_equal(TORUS.parse_point("0.25,-1"), [0.25, -1.0])
        for space, text in ((CIRCLE, "0.1,0.2"), (TORUS, "0.1")):
            with pytest.raises(ValueError, match="comma-separated"):
                space.parse_point(text)

    def test_cells_round_trip(self):
        # the integer grid, as a cell set, is every cell once, in order
        for space in (CIRCLE, TORUS):
            idx = space.grid(5)
            cells = CellSet(5, space, idx[::-1])
            assert len(cells) == 5 ** space.dim
            assert np.array_equal(cells.cells, idx)


# ---------------------------------------------------------------------------
# composition and inverse laws


def chart_slope(a, b, r):
    """Derivative of r -> chart(a X + b) with X = -cot(pi r) the real
    coordinate of r; in t = 1/X where |X| >= 1, so the glued point r = 0,
    where the slope is 1/a, needs no infinity."""
    t = -math.tan(math.pi * r)
    if abs(t) <= 1.0:
        return a * (t * t + 1.0) / (t * t + (a + b * t) ** 2)
    X = 1.0 / t
    return a * (1.0 + X * X) / (1.0 + (a * X + b) ** 2)


def slope(F, x):
    """Local slope of an exact lift at x, from its parameters: the largest
    one-sided derivative, in the sup norm on the torus."""
    if isinstance(F, RotationLift):
        return 1.0
    if isinstance(F, ChartAffineLift):
        r = (x - math.floor(x)) * F.m
        v = min(max(r - min(math.floor(r), F.m - 1), 0.0), 1.0)
        return chart_slope(F.a, F.b, v)
    if isinstance(F, PiecewiseLift):
        xs = np.append(F.bx, F.bx[0] + 1.0)
        sl = np.diff(np.append(F.by, F.by[0] + 1.0)) / np.diff(xs)
        r = x - math.floor(x)
        r = r + 1.0 if r < F.bx[0] else r
        j = min(int(np.searchsorted(xs, r, "right")) - 1, sl.size - 1)
        return float(max(sl[j], sl[j - 1]) if xs[j] == r else sl[j])
    if isinstance(F, ComposedLift):
        return slope(F.outer, F.inner.raw(x)) * slope(F.inner, x)
    if isinstance(F, ProductTorusLift):
        return max(slope(F.base, x[0]), slope(F.fiber, x[1]))
    if isinstance(F, LinearTorusLift):
        return float(np.abs(np.array(F.linear_part.rows())).sum(axis=1).max())
    raise TypeError(f"no slope for {type(F).__name__}")


def size(v):
    return float(np.max(np.abs(v)))


def compose_bound(F, G, x):
    """Rounding budget of F(G(x)) in units of eps: each evaluation rounds
    its output, and an error at G(x) reaches the result through the slope
    of F there, an error at x through the slopes of both."""
    g = G.raw(x)
    sF = slope(F, g)
    return (1.0 + size(F.raw(g))) + sF * ((1.0 + size(g)) + slope(G, x) * (1.0 + size(x)))


def inverse_bound(F, x):
    """Rounding budget of F^-1(F(x)) in units of eps: the error of F(x)
    reaches the result through the slope of F^-1 at F(x)."""
    y = F.raw(x)
    return (1.0 + size(x)) + slope(F.inverse(), y) * (1.0 + size(y))


# a few roundings per evaluation
ROUNDINGS = 4.0

exact_torus = st.one_of(
    st.builds(ProductTorusLift, exact_circle, exact_circle),
    st.builds(
        lambda rows, b: LinearTorusLift(IntMatrix2.from_rows(*rows), b),
        matrices, st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    ),
)


def moderate(p):
    # the laws hold where the maps are evaluated in full precision; huge
    # and non-finite points are the subject of tests/test_step.py
    return all(math.isfinite(c) and abs(c) < 1e6 for c in np.ravel(p))


@settings(max_examples=200, deadline=None)
@given(exact_circle, exact_circle, st.data())
def test_circle_compose_agrees_with_unfused(F, G, data):
    fused, unfused = compose(F, G), ComposedLift(F, G)
    for x in data.draw(st.lists(circle_points(G), min_size=1, max_size=8)):
        if moderate(x) and moderate(G.step(x)):
            err = abs(fused.step(x) - unfused.step(x))
            assert err <= ROUNDINGS * EPS * compose_bound(F, G, x), (F.label, G.label, x)


@settings(max_examples=120, deadline=None)
@given(exact_torus, exact_torus, st.data())
def test_torus_compose_agrees_with_unfused(F, G, data):
    fused, unfused = compose(F, G), ComposedTorusLift(F, G)
    for p in data.draw(st.lists(torus_points(G), min_size=1, max_size=4)):
        v = np.array(p)
        if moderate(v) and moderate(G.raw(v)):
            err = size(fused.raw(v) - unfused.raw(v))
            assert err <= ROUNDINGS * EPS * compose_bound(F, G, v), (F.label, G.label, p)


@settings(max_examples=200, deadline=None)
@given(exact_circle, st.data())
def test_circle_inverse_round_trips(F, data):
    Fi = F.inverse()
    for x in data.draw(st.lists(circle_points(F), min_size=1, max_size=8)):
        if moderate(x) and moderate(F.step(x)):
            err = abs(Fi.step(F.step(x)) - x)
            assert err <= ROUNDINGS * EPS * inverse_bound(F, x), (F.label, x)


@settings(max_examples=120, deadline=None)
@given(exact_torus, st.data())
def test_torus_inverse_round_trips(F, data):
    Fi = F.inverse()
    for p in data.draw(st.lists(torus_points(F), min_size=1, max_size=4)):
        v = np.array(p)
        if moderate(v) and moderate(F.raw(v)):
            err = size(Fi.raw(F.raw(v)) - v)
            assert err <= ROUNDINGS * EPS * inverse_bound(F, v), (F.label, p)
