"""A lift given by a vectorized callable, for tests that need an arbitrary
map: `callable_lift(fn)` on the circle, `callable_lift(fn, torus=True)`
on the torus, with identity linear part. `CountingTorusLift(lift)` maps
as `lift` does and counts its `raw` calls. `deck_defect(F, v, m)` is how
far a torus lift F is from the deck law F(v + m) = F(v) + A m.
`iterate(F, x, m)` is the tests' stepped reference for F^m at x, and
`batch_orbit(F, starts, n)` their reference for an array of starts
stepped together.

`raw` is fn on float arrays, `step` is `raw` on one point, and the
inverse swaps fn and inverse_fn; with no inverse_fn, `inverse` raises
NotImplementedError as a library lift with no inverse rule does. Every
power beyond the first raises ValueError: a callable has no closed form.
"""

import numpy as np

from bsdl.circle import CircleLift, wrap
from bsdl.torus import TorusLift


class _Callable:
    def __init__(self, fn, inverse_fn=None, label="fn"):
        self._fn = fn
        self._inverse_fn = inverse_fn
        self.label = label

    def raw(self, x):
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)

    def inverse(self):
        if self._inverse_fn is None:
            return super().inverse()
        return type(self)(self._inverse_fn, self._fn, self.label + "^-1")


class CallableCircleLift(_Callable, CircleLift):
    def step(self, x):
        return float(self.raw(x))


class CallableTorusLift(_Callable, TorusLift):
    def step(self, p):
        return tuple(self.raw(np.array(p, dtype=float)).tolist())


def callable_lift(fn, inverse_fn=None, label="fn", torus=False):
    cls = CallableTorusLift if torus else CallableCircleLift
    return cls(fn, inverse_fn, label)


class CountingTorusLift(TorusLift):
    def __init__(self, lift):
        self.lift = lift
        self.label = lift.label
        self.raw_calls = 0

    def raw(self, v):
        self.raw_calls += 1
        return self.lift.raw(v)

    def step(self, p):
        return self.lift.step(p)


def deck_defect(F, v, m):
    """The largest |F(v + m) - F(v) - A m| over the rows of the points v,
    relative to 1 + |F(v) + A m|, for the deck translation m in Z^2 and
    the linear part A of the torus lift F."""
    v = np.asarray(v, dtype=float)
    expected = F.raw(v) + np.array(F.linear_part.apply(m), dtype=float)
    err = np.abs(F.raw(v + np.array(m, dtype=float)) - expected)
    return float(np.max(err / (1.0 + np.abs(expected))))


def iterate(F, x, m):
    """F^m at x (m may be negative): the closed-form power, or |m| steps
    of F or of its inverse where the power has none."""
    try:
        P = F.power(m)
    except ValueError:  # no closed form
        P = F if m > 0 else F.inverse()
        for _ in range(abs(m) - 1):
            x = P(x)
    return P(x)


def batch_orbit(F, starts, iterates, transient=0):
    """(points, images) of an array of starts stepped as one array through
    `F.raw`, each point rewrapped by `wrap` before its step and the first
    `transient` steps dropped, as arrays of shape (iterates,) + the
    starts' shape: the loop by which `torus.rotation_set` steps its grid."""
    fv = np.asarray(starts, dtype=float)
    points, images = [], []
    for k in range(-transient, iterates):
        v = wrap(fv)
        fv = F.raw(v)
        if k >= 0:
            points.append(v)
            images.append(fv)
    return np.array(points), np.array(images)
