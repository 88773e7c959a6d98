"""Constructors for the model actions of < a, b | a b a^-1 = b^n > on the
circle and the torus.

The circle is R/Z throughout; the "line with its ends glued" picture uses
the projective chart of `circle` (chart position 0 is the point at
infinity, 1/2 is the real origin). Torus actions live on (R/Z)^2 with the
projective chart on the first factor, so the paper-style phrase "the
circle at infinity" means {0} x S^1 here.

Families built:

* standard_line(n)            b: x -> x + 1 and a: x -> n x on the line,
                              acting on its one-point compactification.
* standard_torus(n)           line action on the first factor, fiber
                              rotation by log n (mod 1) for a.
* product_action(n, k)        line action on the first factor, arbitrary
                              fiber lift k for a; b ignores the fiber, so
                              any k satisfies the relation.
* periodic_circle_example(n)  n - 1 renormalized copies of the line in
                              cyclic blocks; b shifts blocks while
                              translating inside each, so it has periodic
                              points but no fixed point. Needs n >= 3.
* periodic_torus_example(n)   the same phenomenon one dimension up:
                              first factor the line action, second the
                              periodic circle pair.
* perturbed_torus(n, eps)     standard torus action with the fiber
                              rotation angle shifted to log n + eps.
* morse_smale_example(n)      both generators act as the line action in
                              each coordinate; (infinity, infinity) is a
                              global fixed point, hyperbolic for a.
* nonfaithful_circle(n, k)    b acts trivially, a by k; the action
                              factors through the cyclic quotient and has
                              exactly the dynamics of k.

Every constructor returns a BSAction whose relation residual was checked
at construction. Entries are also registered in CATALOG under kebab-case
ids for the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bsgroup import BSAction, make_action
from .circle import (
    ChartAffineLift,
    CircleLift,
    GOLDEN_MEAN,
    RotationLift,
    parse_k_spec,
)
from .torus import ProductTorusLift

__all__ = [
    "standard_line",
    "standard_torus",
    "product_action",
    "periodic_circle_example",
    "periodic_torus_example",
    "perturbed_torus",
    "morse_smale_example",
    "nonfaithful_circle",
    "CatalogEntry",
    "CATALOG",
    "build_action",
]


def _check_n(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    try:
        # the lifts scale by n in floats
        float(n)
    except OverflowError:
        raise ValueError(
            f"need n to fit in a float, got a {n.bit_length()}-bit n"
        ) from None
    return n


def _fiber(k) -> CircleLift:
    if isinstance(k, CircleLift):
        return k
    return parse_k_spec(str(k))


def _blocks(n: int) -> int:
    """The block count n - 1 of the periodic examples, which need n >= 3."""
    if n == 2:
        raise ValueError(
            "periodic_circle_example needs n >= 3: with n = 2 there is a "
            "single block, the rotation part is a full turn, and b keeps "
            "fixed points"
        )
    return n - 1


def _line_pair(n: int):
    f = ChartAffineLift(1.0, 1.0, label="translate")
    h = ChartAffineLift(float(n), 0.0, label=f"scale({n})")
    return f, h


def standard_line(n: int) -> BSAction:
    """The affine pair x -> x + 1, x -> n x on the compactified line."""
    n = _check_n(n)
    f, h = _line_pair(n)
    return make_action(f, h, n)


def standard_torus(n: int) -> BSAction:
    """Line action times the fiber rotation by log n (reduced mod 1)."""
    return perturbed_torus(n, 0.0)


def product_action(n: int, k) -> BSAction:
    """Line action on the first factor, fiber lift k for the a generator.

    b leaves the fiber alone, so conjugating it by any k is the identity
    on the fiber and the group relation holds for every choice of k.
    """
    n = _check_n(n)
    fb, hb = _line_pair(n)
    f = ProductTorusLift(fb, RotationLift(0.0, label="id"))
    h = ProductTorusLift(hb, _fiber(k))
    return make_action(f, h, n)


def periodic_circle_example(n: int) -> BSAction:
    """Block-cyclic circle action whose b has periodic but no fixed points.

    The circle splits into m = n - 1 blocks [i/m, (i+1)/m], each carrying
    a renormalized copy of the line. b is the in-block translation
    followed by a shift of one block, so block endpoints form a single
    periodic orbit of period m; a rescales inside every block and fixes
    all endpoints. The relation needs n shifts to be one shift modulo
    full turns, which is why the block count is n - 1 and why n = 2 is
    rejected: one block makes the shift a full turn and b recovers its
    fixed points.
    """
    m = _blocks(_check_n(n))
    f = ChartAffineLift(1.0, 1.0, m=m, shift=1)
    h = ChartAffineLift(float(n), 0.0, m=m)
    return make_action(f, h, n)


def periodic_torus_example(n: int) -> BSAction:
    """Torus pair whose b has periodic but no fixed points.

    First factor: the line action. Second factor: the periodic circle
    pair. The product b misses fixed points because its fiber part does,
    while b^(n-1) fixes (infinity, block endpoint)."""
    n = _check_n(n)
    circ = periodic_circle_example(n)
    fb, hb = _line_pair(n)
    F = ProductTorusLift(fb, circ.f)
    H = ProductTorusLift(hb, circ.h)
    return make_action(F, H, n)


def perturbed_torus(n: int, eps: float) -> BSAction:
    """Standard torus action with fiber rotation angle log n + eps.

    The fiber factors of both generators are rotations, which commute, so
    the relation survives any eps; the angle is reduced mod 1."""
    n = _check_n(n)
    eps = float(eps)
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    fb, hb = _line_pair(n)
    alpha = (math.log(n) + eps) % 1.0
    f = ProductTorusLift(fb, RotationLift(0.0, label="id"))
    h = ProductTorusLift(hb, RotationLift(alpha, label=f"rot({alpha:.6g})"))
    return make_action(f, h, n)


def morse_smale_example(n: int) -> BSAction:
    """Both generators act coordinatewise as the line action.

    (infinity, infinity) is fixed by both maps; a contracts toward it at
    rate 1/n in each coordinate and keeps exactly one other fixed point
    at the real origin (0, 0)."""
    n = _check_n(n)
    f = ProductTorusLift(ChartAffineLift(1.0, 1.0), ChartAffineLift(1.0, 1.0))
    h = ProductTorusLift(
        ChartAffineLift(float(n), 0.0), ChartAffineLift(float(n), 0.0)
    )
    return make_action(f, h, n)


def nonfaithful_circle(n: int, k) -> BSAction:
    """b acts trivially and a acts by k; the orbit of x is the k-orbit.

    The relation residual is zero for any k since both sides are the
    identity, and b itself is a kernel element."""
    n = _check_n(n)
    f = RotationLift(0.0, label="id")
    return make_action(f, _fiber(k), n)


# ---------------------------------------------------------------------------
# registry


@dataclass
class CatalogEntry:
    id: str
    space: str
    summary: str
    builder: object
    defaults: dict
    expected: dict = field(default_factory=dict)

    def build(self, n: int | None = None, **params) -> BSAction:
        merged = dict(self.defaults)
        if n is not None:
            merged["n"] = int(n)
        for key, val in params.items():
            if val is not None:
                merged[key] = val
        action = self.builder(**merged)
        extras = ", ".join(
            f"{k}={v}" for k, v in sorted(merged.items()) if k != "n"
        )
        action.name = f"{self.id}(n={merged['n']}" + (
            f", {extras})" if extras else ")"
        )
        action.notes = self.summary
        return action

    def expected_for(self, n: int | None = None) -> dict:
        n = _check_n(self.defaults["n"] if n is None else n)
        return {
            key: (val(n) if callable(val) else val)
            for key, val in self.expected.items()
        }


class _Registry(dict):
    """The entries by id; a missing id is a KeyError naming the known ids."""

    def __missing__(self, name):
        raise KeyError(f"unknown action {name!r}; known: {', '.join(sorted(self))}")


CATALOG: dict[str, CatalogEntry] = _Registry(
    (entry.id, entry)
    for entry in (
        CatalogEntry(
            id="standard-line",
            space="circle",
            summary="translation and scaling of the line glued at its end",
            builder=standard_line,
            defaults={"n": 2},
            expected={
                "faithful": True,
                "rho_f": Fraction(0),
                "witness": (0, 1),
                "minimal": "FiniteOrbit",
                "minimal_size": 1,
            },
        ),
        CatalogEntry(
            id="standard-torus",
            space="torus",
            summary="line action times the fiber rotation by log n",
            builder=standard_torus,
            defaults={"n": 2},
            expected={
                "faithful": True,
                "rho_f2": (0.0, 0.0),
                "fiber_rho": lambda n: math.log(n) % 1.0,
                "minimal": "MinimalCircle",
            },
        ),
        CatalogEntry(
            id="product",
            space="torus",
            summary="line action times an arbitrary fiber lift for a",
            builder=product_action,
            defaults={"n": 2, "k": "rot:1/3"},
            expected={
                "faithful": True,
                "minimal": "FiniteOrbit",
                "minimal_size": 3,
            },
        ),
        CatalogEntry(
            id="periodic-circle",
            space="circle",
            summary="cyclic blocks of renormalized lines; b periodic, fixed-point free",
            builder=periodic_circle_example,
            defaults={"n": 3},
            expected={
                "faithful": True,
                "rho_f": lambda n: Fraction(1, _blocks(n)),
                "witness": lambda n: (1, _blocks(n)),
                "minimal": "FiniteOrbit",
                "minimal_size": _blocks,
            },
        ),
        CatalogEntry(
            id="periodic-torus",
            space="torus",
            summary="line action times the periodic circle pair",
            builder=periodic_torus_example,
            defaults={"n": 3},
            expected={
                "faithful": True,
                "minimal": "FiniteOrbit",
                "minimal_size": _blocks,
            },
        ),
        CatalogEntry(
            id="perturbed-torus",
            space="torus",
            summary="standard torus action with fiber angle log n + eps",
            builder=perturbed_torus,
            defaults={"n": 2, "eps": 1e-3},
            expected={
                "faithful": True,
                "minimal": "MinimalCircle",
            },
        ),
        CatalogEntry(
            id="morse-smale",
            space="torus",
            summary="line action in both coordinates; global fixed point at infinity",
            builder=morse_smale_example,
            defaults={"n": 2},
            expected={
                "faithful": True,
                "rho_f2": (0.0, 0.0),
                "minimal": "FiniteOrbit",
                "minimal_size": 1,
            },
        ),
        CatalogEntry(
            id="nonfaithful-circle",
            space="circle",
            summary="b trivial, a acts by k; the dynamics of k alone",
            builder=nonfaithful_circle,
            defaults={"n": 2, "k": "rot:golden"},
            expected={
                "faithful": False,
                "minimal": "MinimalCircle",
            },
        ),
    )
)


def build_action(name: str, n: int | None = None, **params) -> BSAction:
    """Build the registered action `name`, n and `params` overriding the
    entry's defaults; a parameter the entry does not take is a ValueError."""
    entry = CATALOG[name]
    for key in params:
        if key not in entry.defaults:
            raise ValueError(f"{name} takes no --{key}")
    return entry.build(n, **params)
