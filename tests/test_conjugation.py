"""Conjugation by one bump map: `ConjugatedTorusLift` and
`conjugated_action`.

* A bump map psi and its Newton inverse undo each other in both orders
  to 1e-12, on the lattice `conjugated_action`'s guard reads, shifted by
  whole turns.
* psi, psi^-1 and psi g psi^-1 obey the deck law F(v + m) = F(v) + A m
  to 1e-13 relative, for g a generator of the torus catalog or a linear
  map.
* `raw` and `step` of psi g psi^-1 are the bits of the chain
  psi o (g o psi^-1) built from `ComposedTorusLift`s.
* The fused `compose`, `power` and `inverse` of conjugates by one psi
  agree with the unfused chain to 1e-12 (1 + |y|) at each value y.
* The relation of a conjugated catalog action fuses, to a residual of
  exactly 0 where the catalog's own relation fuses; a psi whose inverse
  is loose, a circle action and a psi that is not a torus lift are
  refused with ValueError.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsdl import bsgroup
from bsdl.bsgroup import BSAction, faithfulness, make_action, relation_report
from bsdl.catalog import CATALOG, nonfaithful_circle
from bsdl.circle import RotationLift
from bsdl.experiments import BumpTorusLift, conjugated_action, near_identity_diffeo
from bsdl.gl2z import IntMatrix2
from bsdl.space import TORUS
from bsdl.torus import (
    ComposedTorusLift,
    ConjugatedTorusLift,
    LinearTorusLift,
    ProductTorusLift,
)

from lifts import callable_lift, deck_defect
from test_step import matrices, same

GUARD_LATTICE = TORUS.lattice(2048)
LATTICE = TORUS.lattice(256) - 0.5
TORUS_ENTRIES = [name for name, e in CATALOG.items() if e.build().space == TORUS]

seeds = st.integers(0, 2**32 - 1)
sizes = st.floats(0.0, 1e-2)


@functools.lru_cache(maxsize=None)
def catalog_action(name, n):
    return CATALOG[name].build(n=n)


@functools.lru_cache(maxsize=None)
def bump(seed, size):
    return near_identity_diffeo(size, seed)


catalog_generators = st.builds(
    lambda name, n, gen, inverted: (
        lambda g: g.inverse() if inverted else g
    )(getattr(catalog_action(name, n), gen)),
    st.sampled_from(TORUS_ENTRIES), st.integers(3, 5), st.sampled_from("fh"),
    st.booleans(),
)
linear_maps = st.builds(
    lambda rows, b: LinearTorusLift(IntMatrix2.from_rows(*rows), b),
    matrices, st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
generators = st.one_of(catalog_generators, linear_maps)


def chain(psi, g):
    """psi o g o psi^-1 unfused, as `conjugated_action` built it before
    conjugates fused."""
    return ComposedTorusLift(psi, ComposedTorusLift(g, psi.inverse()))


def assert_close(F, G, tol=1e-12):
    y, z = F.raw(LATTICE), G.raw(LATTICE)
    assert np.all(np.abs(y - z) <= tol * (1.0 + np.abs(z))), (F.label, G.label)


# ---------------------------------------------------------------------------
# the bump map and its inverse


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
def test_bump_round_trips_in_both_orders(seed, size, shift):
    psi = bump(seed, size)
    inv = psi.inverse()
    xs = GUARD_LATTICE + np.array(shift, dtype=float)
    assert np.max(np.abs(psi.raw(inv.raw(xs)) - xs)) <= 1e-12
    assert np.max(np.abs(inv.raw(psi.raw(xs)) - xs)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, generators,
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda m: m != (0, 0)))
def test_deck_law(seed, size, g, m):
    psi = bump(seed, size)
    assert isinstance(psi, BumpTorusLift)
    C = ConjugatedTorusLift(psi, g)
    assert C.linear_part == g.linear_part
    for F in (psi, psi.inverse(), C, C.inverse()):
        assert deck_defect(F, LATTICE, m) <= 1e-13, (F.label, m)


# ---------------------------------------------------------------------------
# the conjugate is the chain


def finite_points():
    coords = st.one_of(
        st.floats(-4.0, 4.0), st.floats(1e3, 1e6).flatmap(lambda a: st.sampled_from([a, -a]))
    )
    return st.tuples(coords, coords)


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, generators, st.lists(finite_points(), min_size=1, max_size=8))
def test_raw_and_step_are_the_chain(seed, size, g, points):
    psi = bump(seed, size)
    C, ref = ConjugatedTorusLift(psi, g), chain(psi, g)
    assert C.label == ref.label
    assert C.linear_part == ref.linear_part
    assert C.raw(LATTICE).tobytes() == ref.raw(LATTICE).tobytes()
    for p in points:
        assert all(same(a, b) for a, b in zip(C.step(p), ref.step(p))), p


# ---------------------------------------------------------------------------
# fusion


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, generators, generators)
def test_fused_compose_is_the_chain(seed, size, g1, g2):
    psi = bump(seed, size)
    C1, C2 = ConjugatedTorusLift(psi, g1), ConjugatedTorusLift(psi, g2)
    fused = C1.compose(C2)
    assert isinstance(fused, ConjugatedTorusLift) and fused.psi is psi
    assert_close(fused, ComposedTorusLift(chain(psi, g1), chain(psi, g2)))


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, generators)
def test_fused_inverse_is_the_chain(seed, size, g):
    psi = bump(seed, size)
    inv = ConjugatedTorusLift(psi, g).inverse()
    assert isinstance(inv, ConjugatedTorusLift) and inv.psi is psi
    assert_close(inv, chain(psi, g).inverse())


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, catalog_generators, st.integers(-3, 3))
def test_fused_power_is_the_chain(seed, size, g, m):
    psi = bump(seed, size)
    P = ConjugatedTorusLift(psi, g).power(m)
    # m = 0 too: psi o g^0 o psi^-1, the identity up to the round trip
    assert isinstance(P, ConjugatedTorusLift) and P.psi is psi
    step = chain(psi, g) if m > 0 else chain(psi, g).inverse()
    stepped = LATTICE
    for _ in range(abs(m)):
        stepped = step.raw(stepped)
    y = P.raw(LATTICE)
    assert np.all(np.abs(y - stepped) <= 1e-12 * (1.0 + np.abs(stepped))), (g.label, m)


def test_conjugated_identity_fuses_to_the_identity():
    # f^0 is psi o g^0 o psi^-1, so an identity f is known as one: f^N
    # same_maps f^0, and the faithfulness decision is exact
    psi = near_identity_diffeo(0.01, seed=1)
    rot = ProductTorusLift(RotationLift(0.0), RotationLift(0.0))
    base = make_action(rot, ProductTorusLift(RotationLift(0.3), RotationLift(0.1)), 2)
    act = conjugated_action(base, psi)
    assert act.f.same_map(act.f.power(0))
    dec = faithfulness(act)
    assert (dec.faithful, dec.exact) == (faithfulness(base).faithful, True) == (False, True)


def test_fusion_needs_the_same_psi():
    psi = near_identity_diffeo(1e-3, seed=4)
    twin = near_identity_diffeo(1e-3, seed=4)
    act = catalog_action("morse-smale", 3)
    C = ConjugatedTorusLift(psi, act.f)
    assert C.same_map(ConjugatedTorusLift(psi, act.f.power(1)))
    assert not C.same_map(ConjugatedTorusLift(psi, act.h))
    # an equal map, but another object: no fusion, no claim of equality
    other = ConjugatedTorusLift(twin, act.f)
    assert not C.same_map(other)
    assert type(C.compose(other)) is ComposedTorusLift
    assert type(C.compose(act.f)) is ComposedTorusLift


# ---------------------------------------------------------------------------
# conjugated_action


@pytest.mark.parametrize("name", TORUS_ENTRIES)
def test_conjugated_relation_fuses(name):
    psi = near_identity_diffeo(1e-3, seed=1)
    for n in (3, 4, 5):
        act = catalog_action(name, n)
        base = relation_report(act, grid=2000)
        rep = relation_report(conjugated_action(act, psi), grid=2000)
        assert rep.passed
        if (base.primary_residual, base.secondary_residual) == (0.0, 0.0):
            assert (rep.primary_residual, rep.secondary_residual) == (0.0, 0.0)


def test_relation_is_still_checked(monkeypatch):
    calls = []
    check = bsgroup.relation_residual
    monkeypatch.setattr(
        bsgroup, "relation_residual", lambda *a, **k: calls.append(a) or check(*a, **k)
    )
    act = catalog_action("perturbed-torus", 3)
    psi = near_identity_diffeo(1e-3, seed=2)
    conjugated_action(act, psi)
    assert len(calls) == 1
    # a pair that fails the relation fails it after conjugation too
    wrong = BSAction(n=3, f=act.f, h=catalog_action("perturbed-torus", 2).h, space=TORUS)
    with pytest.raises(ValueError, match="does not satisfy"):
        conjugated_action(wrong, psi)


def test_loose_inverse_is_refused():
    psi = near_identity_diffeo(1e-2, seed=3)
    # w - D(w) inverts v + D(v) only to first order: off by about 1e-4
    loose = callable_lift(psi.raw, lambda w: 2.0 * w - psi.raw(w), torus=True)
    with pytest.raises(ValueError, match="round trip"):
        conjugated_action(catalog_action("morse-smale", 3), loose)
    # the same lift with its Newton inverse passes
    tight = callable_lift(psi.raw, psi.inverse().raw, torus=True)
    conjugated_action(catalog_action("morse-smale", 3), tight)


def test_needs_a_torus_action_and_a_torus_lift():
    psi = near_identity_diffeo(1e-3, seed=0)
    with pytest.raises(ValueError, match="torus action"):
        conjugated_action(nonfaithful_circle(3, "rot:golden"), psi)
    act = catalog_action("standard-torus", 3)
    for bad in (RotationLift(0.1), lambda v: v, None):
        with pytest.raises(ValueError, match="torus lift"):
            conjugated_action(act, bad)
