"""The fusion laws of the exact lift families: `compose`, `power` and
`same_map` on the lift classes.

Checked against reference copies of the module-level rules they
replaced (below), on the exact families of tests/test_step.py:

* `F.compose(G)` and `F.power(m)`, |m| <= 6, give the reference's type
  and parameters bit for bit. A power is a closed form or a ValueError:
  where the reference nests m - 1 ComposedLift objects, a power with no
  closed form, `power` raises ValueError.
* `same_map` answers as the reference's whole-turn rule does; when it
  says yes, both lifts' `raw` values on a lattice differ by whole turns
  up to ROUNDINGS eps (1 + |y| + |y'|) at each pair of values y, y',
  and lifts with equal type and parameter bits give the same bits.
* `F.power(m)`, where it has a closed form, agrees with m steps of F
  within the slope-derived rounding budgets of tests/test_space.py; so
  does the power of a chart-affine map on m blocks shifted by whole
  blocks, which multiplies the shift.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsdl
from bsdl.circle import (
    ChartAffineLift,
    ComposedLift,
    RotationLift,
    compose,
)
from bsdl.gl2z import IntMatrix2
from bsdl.space import CIRCLE, TORUS, space_of
from bsdl.torus import (
    ComposedTorusLift,
    ConjugatedTorusLift,
    LinearTorusLift,
    ProductTorusLift,
)

from test_space import EPS, ROUNDINGS, exact_torus, moderate, size, slope
from test_step import circle_points, exact_circle, offsets, torus_points

# ---------------------------------------------------------------------------
# reference: the isinstance tables the lift classes replaced


def ref_compose(outer, inner):
    if isinstance(outer, RotationLift) and isinstance(inner, RotationLift):
        return RotationLift(outer.alpha + inner.alpha)
    if (
        isinstance(outer, ChartAffineLift)
        and isinstance(inner, ChartAffineLift)
        and outer.m == inner.m
    ):
        return ChartAffineLift(
            outer.a * inner.a, outer.a * inner.b + outer.b,
            m=outer.m, shift=outer.shift + inner.shift,
        )
    return ComposedLift(outer, inner)


def ref_compose2(outer, inner):
    if isinstance(outer, ProductTorusLift) and isinstance(inner, ProductTorusLift):
        return ProductTorusLift(
            ref_compose(outer.base, inner.base),
            ref_compose(outer.fiber, inner.fiber),
        )
    if isinstance(outer, LinearTorusLift) and isinstance(inner, LinearTorusLift):
        A = outer.linear_part * inner.linear_part
        ob = np.array(outer.b)
        nb = np.array(outer._rows) @ np.array(inner.b) + ob
        return LinearTorusLift(A, (nb[0], nb[1]))
    return ComposedTorusLift(outer, inner)


def ref_identity(space):
    if space == CIRCLE:
        return RotationLift(0.0, label="id")
    return LinearTorusLift(IntMatrix2.identity(), label="id")


def ref_params_power(F, m):
    if F.a == 1.0:
        return 1.0, F.b * m
    try:
        am = F.a ** m
    except OverflowError:
        am = math.inf
    am1 = am - 1.0
    if 0.5 < am < 2.0:
        # the rule's one amendment: am - 1 cancels near am = 1
        am1 = math.expm1(m * math.log1p(F.a - 1.0))
    return am, F.b * am1 / (F.a - 1.0)


def ref_power_lift(F, m):
    if isinstance(F, ProductTorusLift) and m >= 0:
        # the factors' powers, their identities at m = 0
        return ProductTorusLift(ref_power_lift(F.base, m), ref_power_lift(F.fiber, m))
    if m == 0:
        return ref_identity(space_of(F))
    if m < 0:
        return ref_power_lift(F.inverse(), -m)
    if isinstance(F, RotationLift):
        return RotationLift(F.alpha * m)
    if isinstance(F, ChartAffineLift):
        a, b = ref_params_power(F, m)
        if np.isfinite(a) and a > 0.0 and np.isfinite(b):
            return ChartAffineLift(a, b, m=F.m, shift=F.shift * m)
    compose_ = ref_compose if space_of(F) == CIRCLE else ref_compose2
    out = F
    for _ in range(m - 1):
        out = compose_(out, F)
    return out


def ref_same_map(u, v):
    # the same family, with parameters equal up to whole turns
    if isinstance(u, RotationLift) and isinstance(v, RotationLift):
        return (u.alpha - v.alpha).is_integer()
    if isinstance(u, ChartAffineLift) and isinstance(v, ChartAffineLift):
        return (u.m, u.a, u.b) == (v.m, v.a, v.b) and (u.shift - v.shift) % u.m == 0
    if isinstance(u, ProductTorusLift) and isinstance(v, ProductTorusLift):
        return ref_same_map(u.base, v.base) and ref_same_map(u.fiber, v.fiber)
    if isinstance(u, LinearTorusLift) and isinstance(v, LinearTorusLift):
        turns = (c - d for c, d in zip(u.b, v.b))
        return u.linear_part == v.linear_part and all(t.is_integer() for t in turns)
    if isinstance(u, ConjugatedTorusLift) and isinstance(v, ConjugatedTorusLift):
        return u.psi is v.psi and ref_same_map(u.g, v.g)
    return False


def whole_turn(L):
    """L moved by whole turns in its own family, or None outside the
    exact families."""
    if isinstance(L, RotationLift):
        return RotationLift(L.alpha - 2.0)
    if isinstance(L, ChartAffineLift):
        return ChartAffineLift(L.a, L.b, m=L.m, shift=L.shift + L.m)
    if isinstance(L, LinearTorusLift):
        return LinearTorusLift(L.linear_part, (L.b[0] + 1.0, L.b[1] - 3.0))
    if isinstance(L, ProductTorusLift):
        base, fiber = whole_turn(L.base), whole_turn(L.fiber)
        return None if base is None or fiber is None else ProductTorusLift(base, fiber)
    return None


# ---------------------------------------------------------------------------
# comparing lifts


def describe(L):
    """Type and parameter bits of an exact lift, through compositions and
    products; any other lift is "other"."""
    h = float.hex
    if isinstance(L, RotationLift):
        return ("rotation", h(L.alpha))
    if isinstance(L, ChartAffineLift):
        return ("chart", L.m, L.shift, h(L.a), h(L.b))
    if isinstance(L, LinearTorusLift):
        return ("linear", L.linear_part.rows(), h(L.b[0]), h(L.b[1]))
    if isinstance(L, ProductTorusLift):
        return ("product", describe(L.base), describe(L.fiber))
    if isinstance(L, (ComposedLift, ComposedTorusLift)):
        return (type(L).__name__, describe(L.outer), describe(L.inner))
    return "other"


def exact(d):
    return d != "other" and (not isinstance(d, tuple) or all(exact(c) for c in d))


LATTICE = {CIRCLE: CIRCLE.lattice(257) - 0.5, TORUS: TORUS.lattice(256) - 0.5}


def bits(L):
    with np.errstate(all="ignore"):
        return L.raw(LATTICE[space_of(L)]).tobytes()


def assert_like_reference(new, ref):
    """`new` has the reference's type and parameters, and its bits."""
    assert bits(new) == bits(ref), (new.label, ref.label)
    d_new, d_ref = describe(new), describe(ref)
    if exact(d_ref):
        assert d_new == d_ref
    else:
        assert type(new) is type(ref)
        if isinstance(ref, ProductTorusLift):
            assert_like_reference(new.base, ref.base)
            assert_like_reference(new.fiber, ref.fiber)


def chained(ref):
    """Whether the reference power holds a chain of compositions."""
    if isinstance(ref, ProductTorusLift):
        return chained(ref.base) or chained(ref.fiber)
    return isinstance(ref, (ComposedLift, ComposedTorusLift))


def assert_power_like_reference(F, m):
    """F^m is the reference's power where that has a closed form, and a
    ValueError where the reference is a chain."""
    ref = ref_power_lift(F, m)
    if chained(ref):
        with pytest.raises(ValueError, match="has no closed form$"):
            F.power(m)
    else:
        assert_like_reference(F.power(m), ref)


exponents = st.integers(-6, 6)


# ---------------------------------------------------------------------------
# compose, power and same_map against the reference


@settings(max_examples=300, deadline=None)
@given(exact_circle, exact_circle)
def test_circle_compose_matches_reference(F, G):
    assert_like_reference(F.compose(G), ref_compose(F, G))
    assert_like_reference(compose(F, G), ref_compose(F, G))


@settings(max_examples=150, deadline=None)
@given(exact_torus, exact_torus)
def test_torus_compose_matches_reference(F, G):
    assert_like_reference(F.compose(G), ref_compose2(F, G))
    assert_like_reference(compose(F, G), ref_compose2(F, G))
    assert_like_reference(bsdl.compose2(F, G), ref_compose2(F, G))


@settings(max_examples=300, deadline=None)
@given(exact_circle, exponents)
def test_circle_power_matches_reference(F, m):
    assert_power_like_reference(F, m)


@settings(max_examples=150, deadline=None)
@given(exact_torus, exponents)
def test_torus_power_matches_reference(F, m):
    assert_power_like_reference(F, m)


def candidates(F, G):
    """Lifts with equal and with unequal parameters: F^2, where it has a
    closed form, and F o F agree for rotations and often for the affine
    families; F and G moved by whole turns lift the maps F and G."""
    lifts = [
        F, G, F.compose(F), F.compose(G), G.compose(F),
        F.power(0), G.power(0), F.compose(F.inverse()), F.power(-1), F.inverse(),
    ]
    try:
        lifts.append(F.power(2))
    except ValueError:
        pass
    return lifts + [L for L in (whole_turn(F), whole_turn(G)) if L is not None]


def assert_whole_turns_apart(u, v):
    """u and v give `raw` values a whole number of turns apart on the
    lattice, each pair y, y' up to ROUNDINGS eps (1 + |y| + |y'|): the
    two sides round their translations and their sums apart."""
    with np.errstate(all="ignore"):
        y, z = u.raw(LATTICE[space_of(u)]), v.raw(LATTICE[space_of(v)])
    d = y - z
    err = np.abs(d - np.rint(d))
    assert np.all(err <= ROUNDINGS * EPS * (1.0 + np.abs(y) + np.abs(z))), (u.label, v.label)


def assert_same_map_law(F, G):
    lifts = candidates(F, G)
    for u in lifts:
        for v in lifts:
            same = u.same_map(v)
            assert same == ref_same_map(u, v), (u.label, v.label)
            if same:
                assert_whole_turns_apart(u, v)
            d = describe(u)
            if exact(d) and d == describe(v):
                assert bits(u) == bits(v), (u.label, v.label)


@settings(max_examples=200, deadline=None)
@given(exact_circle, exact_circle)
def test_circle_same_map(F, G):
    assert_same_map_law(F, G)


@settings(max_examples=100, deadline=None)
@given(exact_torus, exact_torus)
def test_torus_same_map(F, G):
    assert_same_map_law(F, G)


def test_same_map_sees_equal_families():
    assert describe(RotationLift(0.5)) == describe(RotationLift(0.25).power(2))
    assert describe(ChartAffineLift(1.0, 1.0).power(3)) == describe(ChartAffineLift(1.0, 3.0))
    assert not ChartAffineLift(2.0, 0.0, m=2).same_map(ChartAffineLift(2.0, 0.0, m=3))
    # a shift of m blocks is a whole turn: the same map, not the same lift
    F2, G2 = ChartAffineLift(2.0, 0.0, m=2), ChartAffineLift(2.0, 0.0, m=2, shift=2)
    assert F2.same_map(G2) and describe(F2) != describe(G2)
    F = ChartAffineLift(2.0, 0.5, m=3, shift=1)
    assert F.same_map(F.power(1)) and F.same_map(ChartAffineLift(2.0, 0.5, m=3, shift=-5))
    assert not F.same_map(ChartAffineLift(2.0, 0.5, m=3, shift=2))
    assert not F.same_map(ChartAffineLift(2.0, 0.5, m=6, shift=4))
    # so is a rotation by a whole number of turns
    R = RotationLift(1 / 3).power(3)
    assert R.same_map(RotationLift(0.0)) and R.same_map(RotationLift(-2.0))
    assert describe(R) != describe(RotationLift(0.0)) and not R.same_map(RotationLift(0.5))
    # and an integer-linear map whose translations are whole turns apart
    A = IntMatrix2.from_rows((2, 1), (1, 1))
    L = LinearTorusLift(A, (0.5, 0.0))
    assert L.same_map(LinearTorusLift(A, (0.5, 0.0)))
    assert L.same_map(LinearTorusLift(A, (-1.5, 3.0)))
    assert not L.same_map(LinearTorusLift(A, (0.5, 0.5)))
    assert not L.same_map(LinearTorusLift(A.inverse(), (0.5, 0.0)))
    assert not RotationLift(0.1).compose(ChartAffineLift(1.0, 0.0)).same_map(
        RotationLift(0.1).compose(ChartAffineLift(1.0, 0.0))
    )


# ---------------------------------------------------------------------------
# power against stepping


def steps_and_budget(F, m, x):
    """m steps of F from x (of F^-1 for m < 0), and their rounding budget
    in units of eps: each step rounds its output, and the error so far
    reaches the next point through the slope of the step there. None if
    a point on the way leaves the moderate range."""
    g = F if m > 0 else F.inverse()
    y = x
    budget = 1.0 + size(x)
    for _ in range(abs(m)):
        s = slope(g, y)
        y = g.raw(y)
        if not moderate(y):
            return None
        budget = (1.0 + size(y)) + s * budget
    return y, budget


def power_budget(F, m, x):
    """m steps of F from x and the rounding budget of F^m at x against
    them, in units of eps, or None as for `steps_and_budget`.

    The budget is the larger of the stepping chain's and the closed
    form's: P = F^m rounds x once on its way in (x * m of a glued map),
    its own slope amplifies that rounding, and it rounds its output.
    Where x is well conditioned the chain rule puts this term inside the
    chain; at a repelling block endpoint the chain crosses the endpoint
    only after its first rounding, while the closed form's slope there
    is 1/a^|m|.
    """
    out = steps_and_budget(F, m, x)
    if out is None:
        return None
    y, chain = out
    direct = slope(F.power(m), x) * (1.0 + size(x)) + (1.0 + size(y))
    return y, max(chain, direct)


def assert_power_is_steps(F, m, x):
    """F^m agrees with m steps of F at x, where F^m has a closed form: the
    reference laws above hold the ValueError of the others."""
    if not moderate(x):
        return
    try:
        F.power(m)
    except ValueError:
        return
    out = power_budget(F, m, x)
    if out is None:
        return
    y, budget = out
    err = size(F.power(m).raw(x) - y)
    assert err <= ROUNDINGS * EPS * budget, (F.label, m, x, err / (EPS * budget))


def test_power_at_a_repelling_block_endpoint():
    # x * 6 rounds to the endpoint 10.0, and the map (1e-32, 0) on six
    # blocks has slope 1e32 there; the four steps of the inverse meet the
    # endpoint an ulp off, after their first rounding
    assert_power_is_steps(ChartAffineLift(1e8, 0.0, m=6), -4, 1.6666666666666667)


def test_power_offset_near_a_unit_slope():
    # a^2 - 1 cancels to five digits at a = 0.99999, which put the square
    # 53 budgets from its two steps at x = 1.5, a draw of the block-shift
    # law; the offset is b (1 + a) to the last bit
    F = ChartAffineLift(0.99999, 1.0)
    assert F.power(2).b == 1.0 + 0.99999
    assert_power_is_steps(F, 2, 1.5)
    # on three blocks, and through the inverse, 6.7 to 8.4 budgets before
    for m in (-6, -1, 3, 6):
        assert_power_is_steps(ChartAffineLift(1.0 - 2.0**-40, -7.0, m=3), m, 0.4)


def test_well_conditioned_budget_is_the_chain():
    for F, m, x in [
        (ChartAffineLift(2.0, 0.3, m=6), 3, 0.3),
        (ChartAffineLift(1e8, 0.0, m=6), -4, 1.61),
        (ChartAffineLift(0.5, -2.0), -5, 0.7),
        (ProductTorusLift(ChartAffineLift(3.0, 0.0, m=2), RotationLift(0.25)), 2, np.array([0.2, 0.9])),
    ]:
        assert power_budget(F, m, x)[1] == steps_and_budget(F, m, x)[1]


@settings(max_examples=300, deadline=None)
@given(exact_circle, exponents.filter(bool), st.data())
def test_circle_power_agrees_with_steps(F, m, data):
    for x in data.draw(st.lists(circle_points(F), min_size=1, max_size=6)):
        assert_power_is_steps(F, m, x)


@settings(max_examples=150, deadline=None)
@given(exact_torus, exponents.filter(bool), st.data())
def test_torus_power_agrees_with_steps(F, m, data):
    for p in data.draw(st.lists(torus_points(F), min_size=1, max_size=4)):
        assert_power_is_steps(F, m, np.array(p))


# A chart-affine map on m blocks followed by a shift of j blocks. The
# float j/m is not on the block grid, so a step that the shift sends to
# a block endpoint may land an ulp to either side of it, where the closed
# form evaluates the map before its one shift. Where the endpoint is
# hyperbolic (a != 1), an ulp grows like a^-k over k steps before the
# slope is of any use, which the first-order budgets do not model:
# slopes stay within [1/2, 2], and at a = 1 (the periodic examples'
# maps) the endpoints are parabolic.
block_shifts = st.builds(
    lambda m, j, a, b: ChartAffineLift(a, b, m=m, shift=j),
    st.integers(1, 110),
    st.integers(-3, 3),
    st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
    offsets,
)


@settings(max_examples=300, deadline=None)
@given(block_shifts, exponents.filter(bool), st.data())
def test_block_shift_power_agrees_with_steps(F, m, data):
    P = F.power(m)
    assert isinstance(P, ChartAffineLift) and (P.m, P.shift) == (F.m, F.shift * m)
    for x in data.draw(st.lists(circle_points(F), min_size=1, max_size=6)):
        assert_power_is_steps(F, m, x)


def test_every_block_shift_fuses():
    for m in range(1, 2000):
        for j in (1, m - 1, 2 * m + 1):
            P = ChartAffineLift(1.0, 1.0, m=m, shift=j).power(m + 5)
            assert describe(P) == describe(
                ChartAffineLift(1.0, m + 5.0, m=m, shift=j * (m + 5))
            ), m
    # a rotation off the block grid does not commute with the blocks
    for alpha in (0.3, 1.0 / 3.0):
        F = compose(RotationLift(alpha), ChartAffineLift(1.0, 1.0, m=2))
        with pytest.raises(ValueError, match="^this power of ComposedLift has no closed form$"):
            F.power(3)
