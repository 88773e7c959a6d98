"""Actions of < a, b | a b a^-1 = b^n > through a pair of homeomorphisms,
f for b and h for a: the relation check, faithfulness and finite orbits.

A word acts rightmost letter first: a b a^-1 is h o f o h^-1, which the
relation says is f^n. BS(1,n) = Z[1/n] x| Z, whose every nontrivial
normal subgroup holds some b^c, c != 0, so an action is faithful exactly
when f has infinite order: `faithfulness` decides it from one f^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import INVERSE_TOL, _wrap_float as wrap_float, orbit_arrays, wrap
from .gl2z import IntMatrix2, finite_order
from .report import Report
from .space import SPACES, TORUS, space_of

__all__ = [
    "BSAction",
    "make_action",
    "relation_residual",
    "RelationReport",
    "relation_report",
    "FAITHFUL_TOL",
    "torsion_period",
    "FaithfulnessDecision",
    "faithfulness",
    "CLOSED_DEFECT_RATIO",
    "FiniteOrbit",
    "finite_bs_orbit",
]


# ---------------------------------------------------------------------------
# actions


@dataclass
class BSAction:
    """A pair (f, h) intended to satisfy h f h^-1 = f^n.

    space is `bsdl.space.CIRCLE` or `TORUS` (equal to the strings
    "circle" and "torus", which it also accepts); f, h are the
    corresponding lifts. The letter b of the presentation acts by f, the
    letter a by h.
    """

    n: int
    f: object
    h: object
    space: str
    name: str = ""
    notes: str = ""

    def __post_init__(self):
        self.space = SPACES[self.space]


def relation_residual(
    f, h, n: int, power: int = 1, grid: int = 10000
) -> float:
    """Sup distance between h^p f h^-p and f^(n^p) over a sample grid.

    Exactly zero when both sides fuse to lifts of the same map
    (`same_map`), whose parameters are equal up to whole turns.
    A power of h with no closed form is the composition h o ... o h.
    """
    if grid < 1:
        raise ValueError(f"grid must be positive, got {grid}")
    space = space_of(f)
    try:
        hp = h.power(power)
    except ValueError:
        hp = h
        for _ in range(power - 1):
            hp = hp.compose(h)
    lhs = hp.compose(f.compose(hp.inverse()))
    rhs = f.power(n ** power)
    if lhs.same_map(rhs):
        return 0.0
    xs = space.lattice(grid)
    return float(np.max(space.dist(lhs.raw(xs), rhs.raw(xs))))


@dataclass
class RelationReport(Report):
    """Numerical verification of the defining relation for an action."""

    primary_residual: float
    primary_tol: float
    secondary_residual: float
    secondary_tol: float
    grid: int
    space: str
    primary_passed: bool = field(init=False)
    secondary_passed: bool = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.primary_passed = self.primary_residual <= self.primary_tol
        self.secondary_passed = self.secondary_residual <= self.secondary_tol
        self.passed = self.primary_passed and self.secondary_passed


def relation_report(
    action: BSAction, grid: int = 10000, primary_tol: float = 1e-8
) -> RelationReport:
    """Check h f h^-1 = f^n on a grid to primary_tol, and the derived
    identity h^2 f h^-2 = f^(n^2) to 1e-6, as a stress test of iterated
    powers. Raises ValueError unless primary_tol is finite and >= 0; the
    test is residual <= tol, so 0 asks for an exact relation.
    """
    if not 0.0 <= primary_tol < math.inf:
        raise ValueError(f"primary_tol must be finite and >= 0, got {primary_tol}")
    r1 = relation_residual(action.f, action.h, action.n, power=1, grid=grid)
    r2 = relation_residual(action.f, action.h, action.n, power=2, grid=grid)
    return RelationReport(
        primary_residual=r1,
        primary_tol=primary_tol,
        secondary_residual=r2,
        secondary_tol=1e-6,
        grid=grid,
        space=action.space,
    )


def make_action(f, h, n: int, name: str = "") -> BSAction:
    """Bundle a pair into a BSAction, verifying the relation numerically.

    The space is inferred from the lift types. A primary relation
    residual above 1e-8 on `space.lattice(2048)` (2048 points on the
    circle, 45 x 45 on the torus), or NaN, raises.
    """
    space = space_of(f)
    if space_of(h) != space:
        raise TypeError(
            f"mismatched lift types {type(f).__name__}, {type(h).__name__}"
        )
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    resid = relation_residual(f, h, n, power=1, grid=2048)
    if not resid <= 1e-8:  # a NaN residual fails too
        raise ValueError(
            f"pair does not satisfy h f h^-1 = f^{n}: residual {resid:.3e}"
        )
    return BSAction(n=n, f=f, h=h, space=space, name=name)


# ---------------------------------------------------------------------------
# faithfulness

# f^N counts as moving the space when it moves a lattice point farther
FAITHFUL_TOL = 1e-9


def torsion_period(n: int, A_f: IntMatrix2, A_h: IntMatrix2) -> int | None:
    """An N with f^N = id whenever f has finite order, for an action whose
    b and a have linear parts A_f and A_h; None when A_f, so f, has
    infinite order. A circle action passes identities.

    N = d e2, d the order of A_f and e2 = |det M| / gcd(entries of M)
    the larger invariant factor of M = n I - A_h: a periodic f^d is
    conjugate to a translation by some t with M t in Z^2. With A_h = I,
    N = n - 1. Raises ValueError unless n >= 2 and A_f, A_h lie in GL(2,Z).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not A_h.is_unimodular():
        raise ValueError(f"A_h must lie in GL(2,Z): det={A_h.det()}")
    d = finite_order(A_f)
    if d is None:
        return None
    # n is no eigenvalue of a matrix of GL(2,Z), so det M != 0
    a, b, c, e = n - A_h.a, -A_h.b, -A_h.c, n - A_h.d
    return d * abs(a * e - b * c) // math.gcd(a, b, c, e)


@dataclass
class FaithfulnessDecision(Report):
    """Whether an action is faithful (True, False, or None with a reason),
    from f^N, N = `torsion_period`. exact marks a proof: N is None, or
    f^N fuses to the identity. Otherwise f^N moves the witness point by
    displacement, more than FAITHFUL_TOL, as evidence of faithfulness."""

    N: int | None
    faithful: bool | None
    exact: bool
    witness: object = None
    displacement: float | None = None
    reason: str | None = None


def faithfulness(action: BSAction) -> FaithfulnessDecision:
    """Decide the action faithful or not by the one element f^N.

    f^N is `f.power(N)`, a ValueError where it has no closed form. f^N
    that `same_map`s the identity is a kernel element. f^N moving a point
    of `space.lattice(128)` by more than FAITHFUL_TOL is evidence of
    faithfulness; otherwise the decision is None.
    """
    space, f = action.space, action.f
    ident = IntMatrix2.identity()
    A_f, A_h = (f.linear_part, action.h.linear_part) if space is TORUS else (ident, ident)
    N = torsion_period(action.n, A_f, A_h)
    if N is None:
        return FaithfulnessDecision(N, True, True, reason="A_f has infinite order")
    fN = f.power(N)
    if fN.same_map(f.power(0)):
        return FaithfulnessDecision(N, False, True, reason=f"f^{N} is the identity")
    pts = space.lattice(128)
    moved = space.dist(fN.raw(pts), pts)
    i = int(np.argmax(moved))
    x, d = pts[i].tolist(), float(moved[i])
    if d > FAITHFUL_TOL:
        return FaithfulnessDecision(N, True, False, x, d)
    reason = (f"f^{N} moves no lattice point by more than {FAITHFUL_TOL:g}, "
              "nor fuses to the identity")
    return FaithfulnessDecision(N, None, False, x, d, reason)


# ---------------------------------------------------------------------------
# orbits


# A saturated closure counts as closed when its defect is below this
# fraction of merge_tol. Measured at merge_tol 1e-6 on 442 saturated
# closures (every catalog entry at n = 2, 3, 5, rot:1/q fibers up to
# q = 4999, 36 Denjoy fibers, two starts each): the 424 true closures
# have a defect of at most 8.9e-14 (rot:1/4999), median 3.3e-16; the 18
# false ones, infinite orbits squeezed below merge_tol, have 7.6e-8 to
# 1.0e-6. The bound lies between the two, and a start within
# merge_tol / 1000 of a common fixed point still closes onto it.
CLOSED_DEFECT_RATIO = 1e-2
# the first chunk of each arm of a chain; later chunks double
_ARM_CHUNK = 8


def _gaps_clear(points, merge_tol: float) -> bool:
    """Whether every sorted circular gap of points in [0, 1), the seam's
    included, is at least merge_tol + 2^-50: then the walk's rounded
    distance of every pair is at least merge_tol, and nothing merges.
    A sorted gap and the walk's distance each round by at most 2^-53;
    the floor of 2^-50 covers both roundings, and the walk's merge at
    distance 0 of two points below an ulp of 1 apart."""
    s = np.sort(points)
    return min(np.diff(s).min(), 1.0 - (s[-1] - s[0])) >= merge_tol + 2.0**-50


def _chain_points(g, g_inv, others, x0, size: int, merge_tol: float):
    """The size >= 3 points x0, g x0, g^-1 x0, g^2 x0, g^-2 x0, ... of
    the chain of a wrapped circle or torus point x0, as the walk of
    `finite_bs_orbit` finds them before its cut after point size - 3;
    None when the walk might find others. Each arm steps by
    `orbit_arrays` in chunks that double from _ARM_CHUNK points, each
    chunk from the last image of the one before, and every point is
    wrapped with the walk's bits. The chain is returned only when
    merge_tol >= INVERSE_TOL; the gaps of one coordinate are
    `_gaps_clear` (no image merges with another: the walk's torus
    distance is the larger of its two circle distances); one batch
    `raw` call per generator of others puts each point within
    merge_tol / 2 of itself; and one batch `raw` call per arm
    puts the step back to its parent of each point 1 ... size - 3
    within merge_tol / 2 of that parent. Every such image merges, since
    the bits of a batch row, of the space's distance and of the walk's
    differ by roundings far below that margin. None as soon as a
    chunk's gaps or others fail, or an arm raises ValueError or
    ArithmeticError or ends in an image that is not finite, so that the
    walk decides in its own order."""
    if merge_tol < INVERSE_TOL:
        return None
    dist = space_of(g).dist
    pts = np.empty((size,) + np.shape(x0))
    pts[0] = x0
    arms = ((g, pts[1::2]), (g_inv, pts[2::2]))
    ends, done, chunk, checked = [x0, x0], 0, _ARM_CHUNK, 0
    while done < len(arms[0][1]):
        for i, (F, out) in enumerate(arms):
            m = min(chunk, len(out) - done)
            if m < 1:  # the g^-1 arm is full, one point short of the g arm
                continue
            try:
                images = orbit_arrays(F, ends[i], m)[1]
            except (ValueError, ArithmeticError):
                return None
            if not np.isfinite(images[-1]).all():
                return None
            ends[i] = images[-1].tolist()
            out[done : done + m] = wrap(images)
        done += chunk
        chunk *= 2
        head = pts[: 1 + 2 * done]
        if not any(_gaps_clear(c, merge_tol) for c in head.reshape(len(head), -1).T):
            return None
        new, checked = head[checked:], len(head)  # never empty
        for k in others:
            if not np.all(dist(wrap(k.raw(new)), new) < merge_tol / 2):
                return None
    # point i > 0 is the g (odd i) or g^-1 (even i) image of point
    # max(i - 2, 0), and steps back by the other
    i = np.arange(1, size - 2)
    for back, mine in ((g_inv, i[::2]), (g, i[1::2])):
        if mine.size:
            near = dist(wrap(back.raw(pts[mine])), pts[(mine - 2).clip(0)])
            if not np.all(near < merge_tol / 2):
                return None
    return pts


@dataclass
class FiniteOrbit(Report):
    """Closure of a point under f, h and their inverses, up to merging.

    defect is the largest distance from a generator image of an orbit
    point to the nearest orbit point; it is None only when the search
    was cut at max_size. closed means the search saturated with a
    defect below CLOSED_DEFECT_RATIO * merge_tol; an open orbit carries
    its reason, the cut or a near-closure whose defect is too large.
    """

    points: np.ndarray
    size: int
    closed: bool
    merge_tol: float
    defect: float | None = None
    reason: str | None = None


def finite_bs_orbit(
    action: BSAction,
    x0,
    merge_tol: float = 1e-6,
    max_size: int = 10000,
) -> FiniteOrbit:
    """Breadth-first closure of x0 under both generators and inverses.

    Each orbit point in turn, in the order the points join, is mapped
    through the `step` methods of f, h, f^-1 and h^-1, in Python floats
    (a float on the circle, a (u, t) pair on the torus), and each image
    is wrapped to [0, 1)^d by the orbit kernel's float wrap. `step`
    returns the bits of `raw`. A generator that `same_map`s its own
    `power(0)`, the exact identity, or a generator before it in that
    order is not stepped: its images are the same points of the space.

    One rule closes a chain on either space: the walk of a kept
    generator g and its inverse, the last kept generator, from an x0
    that every other kept generator fixes. Until two of its points
    merge, the search adds x0, g x0, g^-1 x0, g^2 x0, g^-2 x0, ..., one
    point per orbit point, whose other images merge. On the torus g is
    h, with f and f^-1 the others; a circle chain with f the identity
    has none. Its two arms step as single-start orbits
    (`_chain_points`), in chunks that double from 8 points. They are the
    result only when merge_tol >= `INVERSE_TOL`, the gaps of one
    coordinate of the chain cut at max_size clear merge_tol + 2^-50, and
    one batch `raw` call per arm puts each step back within
    merge_tol / 2 of its parent, and one per other generator each point
    within merge_tol / 2 of itself. Otherwise the search walks from x0.

    An image within merge_tol of an orbit point (circle or torus metric)
    merges with it, through a spatial hash whose buckets are scanned the
    image's own first; otherwise it joins the orbit. A merge at a
    positive distance keeps its image and that distance. Once the search
    saturates, the merged images are measured again against the final
    orbit, without stepping, and the defect is the largest distance from
    a generator image of an orbit point to the orbit, bit for bit what
    scanning all points would give; which orbit point an image first
    merged with does not change it. A saturated search is closed when
    its defect is below CLOSED_DEFECT_RATIO * merge_tol, and open as a
    near-closure otherwise. If the search exceeds max_size the orbit is
    open and its defect None, cut after the point whose images pushed it
    past.

    Raises ValueError unless merge_tol is positive and finite (with a
    finite reciprocal), max_size is at least 1 and x0 is one finite
    point of the action's space, and when an image is not finite.
    """
    space = action.space
    if not 0.0 < merge_tol < math.inf or not 1.0 / merge_tol < math.inf:
        raise ValueError(f"merge_tol must be positive and finite, got {merge_tol}")
    if not max_size >= 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != space.shape or not np.isfinite(x0).all():
        raise ValueError(f"start must be one finite {space} point, got {x0.tolist()}")
    gens = (action.f, action.h, action.f.inverse(), action.h.inverse())
    kept, slot = [], []  # slot: the kept index of each of gens, -1 for the identity
    for g in gens:
        same = [i for i, k in enumerate(kept) if g.same_map(k)] or [len(kept)]
        slot.append(-1 if g.same_map(g.power(0)) else same[0])
        if slot[-1] == len(kept):
            kept.append(g)
    torus, inf = space is TORUS, math.inf
    start = tuple(map(wrap_float, x0.tolist())) if torus else wrap_float(x0.tolist())

    cut = f"cut at max_size {max_size}"

    # a chain, g = kept[j] and its inverse kept last, which the others
    # fix: unless two of its points merge, the walk adds one point per
    # orbit point, max(max_size, 2) + 1 in all, and is cut after the
    # third from last
    j = slot[(slot.index(len(kept) - 1) + 2) % 4] if kept else -1
    if 0 <= j < len(kept) - 1:
        others = kept[:j] + kept[j + 1 : -1]
        pts = _chain_points(
            kept[j], kept[-1], others, start, max(max_size, 2) + 1, merge_tol
        )
        if pts is not None:
            return FiniteOrbit(pts, len(pts), False, merge_tol, None, cut)

    # The walk steps each point in the order the points join, wraps each
    # image (the float wrap's common case inline) and scans the buckets
    # around it, its own first, for an orbit point within merge_tol, in
    # circle_dist's arithmetic (d > 0.5 exactly when 1 - d < d; the sup
    # metric on the torus). Buckets have width 1/K >= 2 merge_tol, so two
    # points within merge_tol share a bucket or sit in adjacent ones,
    # across the seam too and whatever the rounding of q * K; a torus
    # bucket (ku, kt) is ku K + kt. An image none is near joins the
    # orbit; a merge at a positive distance is kept.
    K = max(3, int(0.5 / merge_tol))
    key = 0
    for c in start if torus else (start,):
        key = key * K + int(c * K) % K
    steps = [g.step for g in kept]
    points, buckets, near_merges = [start], {key: [0]}, []
    get = buckets.get
    n = 1
    for p in points:  # points grows as the walk goes
        for step in steps:
            q = step(p)
            if torus:
                u, t = q
                r = u % 1.0
                u = r if r < 1.0 else wrap_float(u)
                r = t % 1.0
                t = r if r < 1.0 else wrap_float(t)
                q = (u, t)
                ku, kt = int(u * K) % K, int(t * K) % K
                lt, rt = (kt - 1) % K, (kt + 1) % K
                k, a, b = ku * K, (ku - 1) % K * K, (ku + 1) % K * K
                keys = (k + kt, k + lt, k + rt, a + kt, a + lt, a + rt,
                        b + kt, b + lt, b + rt)
            else:
                r = q % 1.0
                q = r if r < 1.0 else wrap_float(q)
                k = int(q * K) % K
                keys = (k, (k - 1) % K, (k + 1) % K)
            d = inf
            for kk in keys:
                for idx in get(kk, ()):
                    if torus:
                        pu, pt = points[idx]
                        d, e = u - pu, t - pt
                        e -= e // 1.0
                        if e > 0.5:
                            e = 1.0 - e
                    else:
                        d, e = q - points[idx], 0.0
                    d -= d // 1.0
                    if d > 0.5:
                        d = 1.0 - d
                    if e > d:
                        d = e
                    if d < merge_tol:
                        break
                if d < merge_tol:
                    break
            if d >= merge_tol:
                buckets.setdefault(keys[0], []).append(n)
                n += 1
                points.append(q)
            elif d > 0.0:
                near_merges.append((d, q, keys))
        if n > max_size:
            break

    pts = np.asarray(points, dtype=float)
    if n > max_size:
        return FiniteOrbit(pts, n, False, merge_tol, None, cut)
    # The nearest orbit point to a merged image may be another than its
    # merge partner, one that joined later. Measure the merged images
    # against the final orbit in the buckets around them, the farthest
    # merges first, until no merge distance left can raise the defect.
    defect = 0.0
    for d, q, keys in sorted(near_merges, reverse=True):
        if d <= defect:
            break
        near = [idx for kk in keys for idx in get(kk, ())]
        defect = max(defect, float(np.min(space.dist(q, pts[near]))))
    closed = defect < CLOSED_DEFECT_RATIO * merge_tol
    reason = None if closed else f"near-closure at defect {defect:.3e}"
    return FiniteOrbit(pts, len(pts), closed, merge_tol, defect, reason)
