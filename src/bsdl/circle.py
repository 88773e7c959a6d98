"""Circle homeomorphisms as monotone lifts F: R -> R with F(x+1) = F(x)+1.

The circle is R/Z. The projective line R u {oo} is identified with it
through the chart u = 1/2 + arctan(x)/pi, which sends oo to u = 0 and
glues the two real ends there. Affine maps x -> a x + b with a > 0 fix
oo, so their circle lifts fix 0, and compositions of such lifts reduce
to exact arithmetic on (a, b). Evaluation near u = 0 goes through the
reciprocal form of arctan, so the distance to the glued point keeps
full relative precision instead of drowning in cancellation.

Conventions used throughout the package:

* lifts are strictly increasing and commute with x -> x + 1;
* `Lift` holds the algebra circle and torus lifts share, and
  `Composition` their one unfused composition;
* every lift defines `raw` on arrays and `step` on one point;
* every inverse is exact or supplied; a lift without one raises
  NotImplementedError from `inverse`;
* a power is a closed form or a ValueError: the exact families
  (rotations, and chart-affine maps on m blocks with a whole-block shift)
  fuse `compose` and `power` into one lift of the family and compare
  through `same_map`, which matches lifts of the same map, whole turns
  apart or not; other lifts compose into a `ComposedLift`, and their
  powers beyond the first raise.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .report import Report

__all__ = [
    "Lift",
    "Composition",
    "CircleLift",
    "RotationLift",
    "ChartAffineLift",
    "PiecewiseLift",
    "DenjoyLift",
    "ComposedLift",
    "compose",
    "rotation_number",
    "rational_witness",
    "RotationNumberEstimate",
    "Witness",
    "denjoy_lift",
    "wrap",
    "orbit_arrays",
    "circle_dist",
    "parse_k_spec",
    "GOLDEN_MEAN",
]

DEGREE_CHECK_TOL = 1e-12
INVERSE_TOL = 1e-12
# The rational witness scans periods q <= WITNESS_PERIODS on a uniform grid
# of WITNESS_GRID points, which contains 0
WITNESS_PERIODS = 64
WITNESS_GRID = 256
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
# largest double below 1: x - floor(x) rounds up to 1.0 for x within
# 2^-54 below an integer, and that point belongs at the top of [0, 1)
_BELOW_ONE = math.nextafter(1.0, 0.0)
# the chart's constants and ufuncs, bound once for the float `step`
_PI = math.pi
_tan, _arctan = np.tan, np.arctan


def wrap(x):
    """Reduce to [0, 1), componentwise for torus points: x - floor(x),
    except that a value that rounds up to 1.0 (x within 2^-54 below an
    integer) becomes the largest double below 1. A finite float wraps to
    the bits of `_wrap_float`; a non-finite one to NaN."""
    x = np.asarray(x, dtype=float)
    return np.minimum(x - np.floor(x), _BELOW_ONE)


def orbit_arrays(F, x0, iterates: int, transient: int = 0):
    """(points, images) of the orbit of one start x0 under a circle or
    torus lift, as float arrays of shape (iterates,) + the point shape.

    The start is a float for a circle lift and a (u, t) pair for a torus
    lift. It steps in Python floats through `F.step`, each point wrapped
    by `_wrap_float` before its step, and the first `transient` steps
    are dropped: points[k] is x_(transient + k) in [0, 1)^d and
    images[k] is F(points[k]), unwrapped, so sums of images - points are
    Birkhoff sums of the displacement. Only the images are kept as the
    loop runs: each point is the wrap of the image before it (of x0
    first), with the bits of `_wrap_float`. A value that rounds up to
    1.0 becomes the largest double below 1, and a non-finite image
    that is stepped again raises ValueError.
    """
    if iterates < 1 or transient < 0:
        raise ValueError(
            f"need iterates >= 1 and transient >= 0, got {iterates}, {transient}"
        )
    step = F.step
    # the chain x0, F(x_0), F(x_1), ... as one flat list of floats, each
    # coordinate wrapped with the float wrap's common case inline
    if isinstance(F, CircleLift):
        x, shape = float(x0), ()
        chain = [x]
        add = chain.append
        for _ in range(transient + iterates):
            r = x % 1.0
            x = step(r if r < 1.0 else _wrap_float(x))
            add(x)
    else:
        (u, t), shape = (float(c) for c in x0), (2,)
        chain = [u, t]
        add = chain.extend
        for _ in range(transient + iterates):
            r = u % 1.0
            u = r if r < 1.0 else _wrap_float(u)
            r = t % 1.0
            t = r if r < 1.0 else _wrap_float(t)
            u, t = p = step((u, t))
            add(p)
    chain = np.fromiter(chain, float, len(chain)).reshape((-1,) + shape)
    return wrap(chain[transient:-1]), chain[transient + 1 :]


def _wrap_float(x: float) -> float:
    """x - floor(x) in [0, 1) with the bits of `wrap`."""
    # Python's x % 1.0 is fmod(x, 1.0), exact, plus 1.0 when negative:
    # x - floor(x) rounded once, as np.floor's wrap rounds it; an integer
    # x gives +0.0 either way, and a non-finite x NaN
    r = x % 1.0
    if r < 1.0:
        return r
    if r == 1.0:
        return _BELOW_ONE
    raise ValueError(f"orbit left the real line at {x}")


def nearest_seam(*distances):
    """The least seam distance of a lift's parts; None (smooth) is skipped."""
    return min((d for d in distances if d is not None), default=None)


def circle_dist(a, b):
    """Distance on R/Z, at most 1/2."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d - np.floor(d)
    return np.minimum(d, 1.0 - d)


def _atan_frac(y):
    """0.5 + arctan(y)/pi computed so both tails keep relative precision."""
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    big = ay > 1.0
    # one arctan per point: of 1/|y| where |y| > 1, of y (NaN too) elsewhere
    a = np.arctan(np.divide(1.0, ay, out=y.copy(), where=big)) / np.pi
    return np.where(y > 1.0, 1.0 - a, np.where(big, a, 0.5 + a))


class Lift:
    """The lift algebra shared by circle and torus lifts.

    Each space's base class (`CircleLift`, `torus.TorusLift`) supplies
    two hooks: `_composed(inner)`, the unfused composition, and
    `_identity()`. Every lift defines `raw` and `step`. A power is a
    closed form or a ValueError. A lift with no inverse rule raises
    NotImplementedError from `inverse`: every inverse is exact or
    supplied.
    """

    label = ""

    def raw(self, x):
        raise NotImplementedError

    def __call__(self, x):
        out = self.raw(np.asarray(x, dtype=float))
        if np.ndim(x) == 0:
            return float(out)
        return out

    def inverse(self):
        raise NotImplementedError(f"{type(self).__name__} has no inverse rule")

    def compose(self, inner):
        """Lift of self o inner."""
        return self._composed(inner)

    def power(self, m: int):
        """Lift of the m-th power; m < 0 powers the inverse. A lift whose
        power has no closed form raises ValueError."""
        if m == 0:
            return self._identity()
        if m < 0:
            return self.inverse().power(-m)
        if m == 1:
            return self
        raise ValueError(f"this power of {type(self).__name__} has no closed form")

    def same_map(self, other) -> bool:
        """Whether other lifts the same map of the space, as an exact
        family tells from its parameters: the same family, parameters
        equal up to a translation by whole turns. False outside the
        exact families."""
        return False

    def seam_distance(self, x):
        """Distance from x to the nearest non-smooth locus, None if smooth."""
        return None


class Composition(Lift):
    """Lift of outer o inner, on either space."""

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self.label = f"({outer.label} o {inner.label})"

    def raw(self, x):
        return self.outer.raw(self.inner.raw(np.asarray(x, dtype=float)))

    def step(self, x):
        return self.outer.step(self.inner.step(x))

    def inverse(self):
        return type(self)(self.inner.inverse(), self.outer.inverse())

    def seam_distance(self, x):
        x = np.asarray(x, dtype=float)
        return nearest_seam(
            self.inner.seam_distance(x), self.outer.seam_distance(self.inner.raw(x))
        )


class CircleLift(Lift):
    """Base class for monotone degree-one lifts. `step(x)` is the lift at
    one point, as a Python float, with the bits of `raw`."""

    def validate(self):
        """Spot-check degree one and strict monotonicity on a 256-point grid."""
        xs = np.arange(256) / 256
        lo = self.raw(xs)
        hi = self.raw(xs + 1.0)
        err = np.max(np.abs(hi - lo - 1.0))
        if err > DEGREE_CHECK_TOL:
            raise ValueError(
                f"{type(self).__name__}{' ' + self.label if self.label else ''}: "
                f"degree-one defect {err:.3e} exceeds {DEGREE_CHECK_TOL:.1e}"
            )
        fine = np.sort(np.concatenate([xs, xs + 0.5 / 256]))
        vals = self.raw(fine)
        if np.any(np.diff(vals) <= 0.0):
            raise ValueError(f"{type(self).__name__}: lift is not strictly increasing")
        return self

    def _composed(self, inner):
        return ComposedLift(self, inner)

    def _identity(self):
        return RotationLift(0.0, label="id")


class RotationLift(CircleLift):
    """x -> x + alpha."""

    def __init__(self, alpha: float, label: str = ""):
        self.alpha = float(alpha)
        self.label = label or f"rot({self.alpha:g})"

    def raw(self, x):
        return x + self.alpha

    step = raw

    def inverse(self):
        return RotationLift(-self.alpha, label=f"rot({-self.alpha:g})")

    def compose(self, inner):
        if isinstance(inner, RotationLift):
            return RotationLift(self.alpha + inner.alpha)
        return super().compose(inner)

    def power(self, m: int):
        # an m of 2^1023 or more is beyond the floats; a NaN angle stays NaN
        alpha = self.alpha * m if 1 <= m < 2**1023 else math.inf
        return super().power(m) if math.isinf(alpha) else RotationLift(alpha)

    def same_map(self, other):
        # angles a whole number of turns apart
        return isinstance(other, RotationLift) and (self.alpha - other.alpha) % 1.0 == 0.0


def _affine_params(a, b) -> bool:
    """Whether x -> a x + b is increasing with float parameters."""
    return 0.0 < a < math.inf and math.isfinite(b)


class ChartAffineLift(CircleLift):
    """Circle lift of x -> a x + b (a > 0) through the projective chart,
    copied onto m blocks and followed by a shift of `shift` whole blocks.

    Block i, [i/m, (i+1)/m), carries a renormalized copy of the chart
    map, with the block endpoints playing the role of the glued point;
    the lift is k + (i + chart(v)) / m + shift / m at x = k + (i + v) / m.
    With m = 1 and shift = 0 it fixes the glued point, pinned by
    F(0) = 0. A whole-block shift commutes with the block maps, so
    composition on the same blocks, inversion and integer powers act on
    (a, b) and add, negate or multiply the integer shift: they are exact,
    which is what makes group relations evaluate to literally zero
    residual for the affine and block-cyclic model actions. Shifts that
    differ by a multiple of m differ by whole turns, so `same_map`
    matches them.
    """

    def __init__(self, a: float, b: float, label: str = "", m: int = 1, shift: int = 0):
        if not _affine_params(a, b):
            raise ValueError(f"need 0 < a < inf and finite b, got a={a}, b={b}")
        m, shift = operator.index(m), operator.index(shift)
        if m < 1:
            raise ValueError(f"need at least one block, got m={m}")
        self.a = float(a)
        self.b = float(b)
        self.m = m
        self.shift = shift
        # m as a float for `step`'s arithmetic, and the shift in turns
        self._mf, self._offset = float(m), shift / m
        blocks = f";{m} blocks,shift {shift}" if (m, shift) != (1, 0) else ""
        self.label = label or f"affine({self.a:g},{self.b:g}{blocks})"

    def raw(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        t = (x - k) * self.m
        # block i and v in [0, 1) exactly; where x - k rounds up to 1.0 or
        # (x - k) * m rounds up to m, t = m is the endpoint k + 1
        i = np.floor(t)
        v = t - i
        with np.errstate(divide="ignore", over="ignore"):
            # xr is -inf at v = 0 and may overflow to inf for v within a
            # few ulp of the glued point: the glued branch below and the
            # arctan re-chart make both harmless
            xr = -1.0 / np.tan(np.pi * v)
            y = self.a * xr + self.b
        # the chart map fixes the glued point v = 0
        c = np.where(v == 0.0, 0.0, _atan_frac(y))
        return k + (i + c) / self.m + self._offset

    def step(self, x):
        # raw's arithmetic on floats; tan and arctan stay numpy's, since
        # math.tan and math.atan round otherwise on some inputs
        m = self._mf
        k = x // 1.0
        r = x - k
        if r == 0.0:
            # an integer is a block endpoint, which the block map fixes:
            # the common case, since the line actions' orbits sit at u = 0
            return k + self._offset
        t = r * m
        i = t // 1.0
        v = t - i
        if v == 0.0:
            return k + i / m + self._offset
        y = self.a * (-1.0 / float(_tan(_PI * v))) + self.b
        if y > 1.0:
            c = 1.0 - float(_arctan(1.0 / y)) / _PI
        elif y < -1.0:
            c = float(_arctan(-1.0 / y)) / _PI
        else:
            c = 0.5 + float(_arctan(y)) / _PI
        return k + (i + c) / m + self._offset

    def inverse(self):
        return ChartAffineLift(1.0 / self.a, -self.b / self.a, m=self.m, shift=-self.shift)

    def compose(self, inner):
        if isinstance(inner, ChartAffineLift) and inner.m == self.m:
            a, b = self.a * inner.a, self.a * inner.b + self.b
            if _affine_params(a, b):
                return ChartAffineLift(a, b, m=self.m, shift=self.shift + inner.shift)
        return super().compose(inner)

    def power(self, k: int):
        # x -> a^k x + b (a^k - 1)/(a - 1), or x + k b, shifted k times;
        # a^k and the shift may overflow
        if k >= 1:
            try:
                ak, bk = self.a**k, self.b * k
                if self.a != 1.0:
                    am1 = ak - 1.0
                    if 0.5 < ak < 2.0:  # ak - 1 cancels there, and a - 1 is exact
                        am1 = math.expm1(k * math.log1p(self.a - 1.0))
                    bk = self.b * am1 / (self.a - 1.0)
                if _affine_params(ak, bk):
                    return ChartAffineLift(ak, bk, m=self.m, shift=self.shift * k)
            except OverflowError:
                pass
        return super().power(k)

    def same_map(self, other):
        # shifts a multiple of m blocks apart differ by whole turns
        return (
            isinstance(other, ChartAffineLift)
            and (self.m, self.a, self.b) == (other.m, other.a, other.b)
            and (self.shift - other.shift) % self.m == 0
        )


class PiecewiseLift(CircleLift):
    """Piecewise-affine lift through breakpoints (bx_i, by_i).

    bx is ascending in [0, 1); by holds real lift values with
    by[-1] < by[0] + 1. Between breakpoints the lift interpolates
    affinely; inversion swaps the roles of the two tables exactly.
    """

    def __init__(self, bx, by, label: str = ""):
        bx = np.asarray(bx, dtype=float)
        by = np.asarray(by, dtype=float)
        if bx.ndim != 1 or bx.shape != by.shape or bx.size < 1:
            raise ValueError("breakpoint tables must be matching 1-d arrays")
        if np.any(bx < 0.0) or np.any(bx >= 1.0) or np.any(np.diff(bx) <= 0.0):
            raise ValueError("bx must be strictly increasing within [0, 1)")
        if np.any(np.diff(by) <= 0.0) or not (by[-1] < by[0] + 1.0):
            raise ValueError("by must be strictly increasing with span < 1")
        self.bx = bx
        self.by = by
        self._xs = np.concatenate([bx, [bx[0] + 1.0]])
        self._ys = np.concatenate([by, [by[0] + 1.0]])
        # float tables for `step`, with np.interp's slopes
        self._xl = self._xs.tolist()
        self._yl = self._ys.tolist()
        self._sl = (np.diff(self._ys) / np.diff(self._xs)).tolist()
        self.label = label or f"piecewise[{bx.size}]"

    def raw(self, x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        r = x - k
        shift = r < self.bx[0]
        rr = np.where(shift, r + 1.0, r)
        return k + np.interp(rr, self._xs, self._ys) - shift.astype(float)

    def step(self, x):
        k = x // 1.0
        r = x - k
        xs, ys = self._xl, self._yl
        shift = r < xs[0]
        rr = r + 1.0 if shift else r
        j = bisect_right(xs, rr) - 1
        # np.interp: the end values outside the table, the table value
        # at a breakpoint, else slope * (rr - xs[j]) + ys[j]
        if j < 0:
            y = ys[0]
        elif j >= len(xs) - 1 or xs[j] == rr:
            y = ys[j]
        else:
            y = self._sl[j] * (rr - xs[j]) + ys[j]
        return k + y - (1.0 if shift else 0.0)

    def inverse(self):
        # unwrap image breakpoints into a canonical [0,1) table
        pos = wrap(self.by)
        order = np.argsort(pos, kind="stable")
        nbx = pos[order]
        vals = self.bx[order]
        adj = np.zeros_like(vals)
        for i in range(1, vals.size):
            adj[i] = adj[i - 1]
            if vals[i] + adj[i] <= vals[i - 1] + adj[i - 1]:
                adj[i] += 1.0
        nby = vals + adj
        # pin the branch so the inverse undoes this lift exactly, not just
        # up to an integer translation: G(by[0]) must equal bx[0]
        i0 = int(np.nonzero(order == 0)[0][0])
        nby -= adj[i0] + np.floor(self.by[0])
        return PiecewiseLift(nbx, nby, label=self.label + "^-1")

    def seam_distance(self, x):
        r = wrap(x)
        return float(np.min(circle_dist(r, self.bx)))


class ComposedLift(Composition, CircleLift):
    """Lift of outer o inner on the circle."""


def compose(outer, inner):
    """Lift of the composition outer o inner of two circle or two torus
    lifts: `outer.compose(inner)`, which fuses exact families."""
    return outer.compose(inner)


# ---------------------------------------------------------------------------
# rotation numbers


class Witness(NamedTuple):
    """An approximate periodic point x of rotation p/q:
    |F^q(x) - x - p| = residual."""

    p: int
    q: int
    x: float
    residual: float


@dataclass
class RotationNumberEstimate(Report):
    """Birkhoff estimate of a rotation number with an optional certificate.

    value            estimate in [0, 1)
    iterates_used    orbit length N behind (F^N(x) - x)/N
    rational_witness `Witness` (p, q, x, residual) certifying an
                     approximate periodic point of rotation p/q, or None
    error_bound      1/N plus the evaluation tolerance

    `value` and a witness's p/q agree mod 1, not as reals: a mean just
    below 0 wraps to just below 1, so `rotation_number(RotationLift(
    -1e-17), 1000)` has value 1 - 2^-53 beside the witness 0/1.
    """

    value: float
    iterates_used: int
    rational_witness: Witness | None
    error_bound: float

    def __post_init__(self):
        if self.rational_witness is not None:
            self.rational_witness = Witness(*self.rational_witness)


def rotation_number(
    F: CircleLift, iterates: int = 10**5, tol: float = 1e-8, pairs=None
) -> RotationNumberEstimate:
    """Rotation number of the circle map under F.

    The estimate is F^N(0)/N mod 1 for N = iterates. A lift with a
    closed-form power gives F^N(0) directly. Otherwise `power` raises
    ValueError, and the displacements F(x) - x of the first N pairs of
    the orbit of 0 are summed in orbit order. `pairs` is a function of
    no arguments that returns that orbit as `orbit_arrays(F, 0.0, m)`
    does, m >= N, and is called only when there is no closed form; by
    default the orbit of 0 is stepped here. The certificate is a grid
    point of period q <= WITNESS_PERIODS (`rational_witness`).
    """
    if iterates < 1:
        raise ValueError("iterates must be positive")
    try:
        total = F.power(iterates)(0.0)
    except ValueError:  # no closed form
        xs, fxs = orbit_arrays(F, 0.0, iterates) if pairs is None else pairs()
        # a running sum in orbit order: a stepwise total's bits on any Python
        total = np.cumsum(fxs[:iterates] - xs[:iterates])[-1]
    value = float(wrap(total / iterates))
    return RotationNumberEstimate(
        value, int(iterates), rational_witness(F, tol), 1.0 / iterates + INVERSE_TOL
    )


def rational_witness(F: CircleLift, tol: float = 1e-8):
    """A `Witness` (p, q, x, residual) with residual < tol, or None.

    Scans periods q <= WITNESS_PERIODS over a uniform grid of WITNESS_GRID
    points, smallest q first. The grid contains 0, so fixed points
    sitting at chart-rational positions certify exactly. A witness
    needs |p| <= q: a lift a turn or more out keeps fewer fraction bits,
    and RotationLift(2^50 + 0.3) moves grid point 3/8 by exactly 2^50, a
    false 0/1 at residual 0. So RotationLift(2.5) gets no witness; the
    CLI wraps angles to [0, 1). Raises ValueError unless tol is
    positive and finite: the test is strict, so no residual passes tol 0.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    xs = np.arange(WITNESS_GRID) / WITNESS_GRID
    ys = xs.copy()
    for q in range(1, WITNESS_PERIODS + 1):
        ys = F.raw(ys)
        disp = ys - xs
        p = np.round(disp)
        resid = np.abs(disp - p)
        i = int(np.argmin(resid))
        if resid[i] < tol and abs(p[i]) <= q:
            return Witness(int(p[i]), q, float(xs[i]), float(resid[i]))
    return None


# ---------------------------------------------------------------------------
# blown-up rotations


class DenjoyLift(PiecewiseLift):
    """Piecewise-affine lift from blowing up a finite orbit segment of an
    irrational rotation; see `denjoy_lift`."""

    def __init__(self, bx, by, alpha, depth, gap_ratio, intervals):
        super().__init__(bx, by, label=f"denjoy({alpha:g},{depth})")
        self.alpha = float(alpha)
        self.depth = int(depth)
        self.gap_ratio = float(gap_ratio)
        self.inserted_intervals = intervals


def denjoy_lift(alpha: float, depth: int, gap_ratio: float) -> CircleLift:
    """Blow up the orbit points k*alpha (|k| <= depth) of the rotation by
    alpha into intervals of length proportional to gap_ratio^|k|.

    The map sends inserted interval I_k affinely onto I_{k+1}; away from
    the inserted family it is the rotation transported through the
    insertion, which is again affine gap-to-gap, so the whole lift is an
    explicit piecewise-affine homeomorphism. Truncation leaves two loose
    ends: the last forward interval exits through a short arc around the
    image of the (depth+1)-st orbit point, and a tiny funnel arc feeds
    the first backward interval. Both arcs are recorded sub-cell-size so
    orbits visit them rarely; at any finite depth the map is only
    conjugate to the rotation away from these seams, and `depth` is
    carried on the result so downstream reports can flag it.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if not (0.0 < gap_ratio < 1.0):
        raise ValueError(f"gap_ratio must lie in (0, 1), got {gap_ratio}")
    if depth == 0:
        return RotationLift(wrap(alpha), label=f"denjoy-limit({alpha:g})")

    ks = np.arange(-depth, depth + 1)
    pos = wrap(ks * alpha)
    lens = gap_ratio ** np.abs(ks).astype(float)
    sp = np.sort(pos)
    gaps = np.concatenate([np.diff(sp), [sp[0] + 1.0 - sp[-1]]])
    if np.min(gaps) < 1e-9:
        raise ValueError("orbit points collide; alpha is too close to rational")
    scale = 1.0 / (1.0 + float(np.sum(lens)))

    order = np.argsort(pos)
    sort_pos = pos[order]
    sort_len = lens[order]
    cum = np.concatenate([[0.0], np.cumsum(sort_len)])

    def to_new(u):
        """Insertion map: old position -> new position (left limit)."""
        u = wrap(u)
        i = np.searchsorted(sort_pos, u)
        return (u + cum[i]) * scale

    left = (sort_pos + cum[:-1]) * scale          # left endpoints, sorted order
    right = left + sort_len * scale
    idx_of_k = {int(ks[order[i]]): i for i in range(ks.size)}

    dom, img = [], []
    for k in range(-depth, depth):
        i, j = idx_of_k[k], idx_of_k[k + 1]
        dom.extend([left[i], right[i]])
        img.extend([left[j], right[j]])

    def room(points, x):
        """Distance from x to the nearest of `points` around the circle."""
        pts = np.sort(np.asarray(points, dtype=float))
        j = np.searchsorted(pts, x)
        return min(
            x - (pts[j - 1] if j > 0 else pts[-1] - 1.0),
            (pts[j] if j < pts.size else pts[0] + 1.0) - x,
        )

    # forward seam: I_depth exits through a short arc around z
    i = idx_of_k[depth]
    z = float(to_new(wrap((depth + 1) * alpha)))
    ib = idx_of_k[-depth]  # I_{-depth} will enter the image set via seam B
    delta = 0.25 * min(room(img + [left[ib], right[ib]], z), sort_len[i] * scale)
    dom.extend([left[i], right[i]])
    img.extend([z - delta, z + delta])

    # backward seam: a narrow funnel arc around ystar feeds I_{-depth}
    i = idx_of_k[-depth]
    ystar = float(to_new(wrap(-(depth + 1) * alpha)))
    # width 1e-6 * room keeps forward re-entry into the truncated interval
    # chain off the scale of 1e5-iterate orbit budgets
    delta2 = 1e-6 * room(dom, ystar)
    dom.extend([ystar - delta2, ystar + delta2])
    img.extend([left[i], right[i]])

    dom = np.asarray(dom, dtype=float)
    img = np.asarray(img, dtype=float)
    dom_wrapped = wrap(dom)
    order2 = np.argsort(dom_wrapped)
    bx = dom_wrapped[order2]
    iw = wrap(img[order2])
    by = np.empty_like(iw)
    by[0] = iw[0]
    for t in range(1, iw.size):
        by[t] = by[t - 1] + wrap(iw[t] - iw[t - 1])
    # a thin blow-up has inserted intervals below the float spacing, whose
    # endpoints, or the seam arcs beside them, round together
    if (np.any(np.diff(bx) <= 0.0) or np.any(np.diff(by) <= 0.0)
            or not by[-1] < by[0] + 1.0):
        raise ValueError(
            f"denjoy({alpha:g}, depth {depth}, gap_ratio {gap_ratio:g}): "
            "breakpoints collide, the smallest inserted interval being "
            f"{float(np.min(sort_len)) * scale:.1e} long; lower the depth or "
            "raise gap_ratio"
        )

    intervals = [(float(left[t]), float(right[t])) for t in range(ks.size)]
    lift = DenjoyLift(bx, by, alpha, depth, gap_ratio, intervals)
    lift.validate()
    return lift


_NAMED_ANGLES = {
    "golden": GOLDEN_MEAN,
}


def _spec_number(cast, tok: str, spec: str):
    """cast(tok), int or float, or a ValueError naming the fiber spec."""
    try:
        return cast(tok)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"fiber spec {spec!r} has {tok!r} where {kind} goes") from None


def _parse_angle(tok: str, spec: str) -> float:
    tok = tok.strip()
    if tok in _NAMED_ANGLES:
        return _NAMED_ANGLES[tok]
    if tok.startswith("ln"):
        x = _spec_number(float, tok[2:].lstrip(":"), spec)
        if not x > 0.0:
            raise ValueError(f"angle {tok!r} takes ln of a number that is not positive")
        angle = math.log(x) % 1.0
    elif "/" in tok:
        p, q = (_spec_number(int, t, spec) for t in tok.split("/"))
        if q == 0:
            raise ValueError(f"angle {tok!r} has a zero denominator")
        try:
            angle = float(p) / float(q)
        except OverflowError:
            raise ValueError(
                f"angle {tok!r} has a numerator or denominator beyond the floats"
            ) from None
    else:
        angle = _spec_number(float, tok, spec)
    if not math.isfinite(angle):
        raise ValueError(f"angle {tok!r} is not finite")
    return angle


def parse_k_spec(spec: str) -> CircleLift:
    """Parse a compact fiber-map spec string.

    Formats: "id", "rot:<angle>", "affine:<a>,<b>",
    "denjoy:<angle>,<depth>,<ratio>", where <angle> is a float, a
    fraction "p/q", "ln<n>" for log n mod 1, or "golden".
    """
    spec = spec.strip()
    if spec in ("id", "identity"):
        return RotationLift(0.0, label="id")
    if ":" not in spec:
        raise ValueError(f"cannot parse fiber spec {spec!r}")
    kind, _, rest = spec.partition(":")
    if kind == "rot":
        return RotationLift(wrap(_parse_angle(rest, spec)))
    if kind == "affine":
        a, b = (_spec_number(float, t, spec) for t in rest.split(","))
        return ChartAffineLift(a, b).validate()
    if kind == "denjoy":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ValueError("denjoy spec needs <angle>,<depth>,<ratio>")
        angle, depth, ratio = parts
        return denjoy_lift(_parse_angle(angle, spec), _spec_number(int, depth, spec),
                           _spec_number(float, ratio, spec))
    raise ValueError(f"unknown fiber spec kind {kind!r}")
