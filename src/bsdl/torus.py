"""Homeomorphisms of the 2-torus as lifts F: R^2 -> R^2 with
F(v + m) = F(v) + A m for integer vectors m and a fixed A in GL(2, Z).

The first coordinate is the projectively glued circle used throughout
(`bsdl.circle`), the second an ordinary R/Z factor, so product maps are
built from two circle lifts and inherit their exact composition rules.
Linear models A v + b cover the algebraic examples whose translation
parts are forced by the group relation. Both fuse `compose` and `power`;
the rest of the lift algebra is `circle.Lift`'s, shared with circle lifts.

Rotation vectors and rotation sets are displacement averages of lifts
with identity linear part; they live in R^2 (changing the lift shifts
them by integers, which is why the relation constrains them only mod
Z^2, see `bs_rotation_constraint`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import (
    CircleLift,
    Composition,
    Lift,
    circle_dist,
    nearest_seam,
    orbit_arrays,
    wrap,
)
from .gl2z import IntMatrix2, rational_to_json
from .report import Report

__all__ = [
    "TorusLift",
    "ProductTorusLift",
    "LinearTorusLift",
    "ComposedTorusLift",
    "ConjugatedTorusLift",
    "torus_dist",
    "rotation_vector",
    "RotationVectorEstimate",
    "rotation_set",
    "RotationSetEstimate",
    "convex_hull",
    "hausdorff_distance",
    "conjugate_rotation_set_check",
    "ConjugacyRotationReport",
    "bs_rotation_constraint",
    "RotationConstraintReport",
]

# `LinearTorusLift.power` fuses m - 1 compositions in a loop, so it caps m:
# f^(n^2) may ask for 10^400
MAX_STEPPED_POWER = 10**6


def torus_dist(p, q):
    """Sup metric on the torus: the larger of the two circle distances."""
    d = circle_dist(p, q)
    # two columns: np.max over a trailing axis of length 2 is a slow path
    return np.maximum(d[..., 0], d[..., 1])


class TorusLift(Lift):
    """Base class for torus lifts; `linear_part` A is the induced map on
    H_1 = Z^2, so F(v + m) = F(v) + A m for every deck translation m.
    `step(p)` is the lift at one point (u, t), as a pair of Python
    floats, with the bits of `raw`."""

    linear_part = IntMatrix2.identity()

    def _composed(self, inner):
        return ComposedTorusLift(self, inner)

    def _identity(self):
        return LinearTorusLift(IntMatrix2.identity(), label="id")


class ProductTorusLift(TorusLift):
    """(u, t) -> (F(u), K(t)) for two circle lifts."""

    def __init__(self, base: CircleLift, fiber: CircleLift):
        self.base = base
        self.fiber = fiber
        self.label = f"({base.label} x {fiber.label})"

    def raw(self, v):
        v = np.asarray(v, dtype=float)
        return np.stack(
            [self.base.raw(v[..., 0]), self.fiber.raw(v[..., 1])], axis=-1
        )

    def step(self, p):
        u, t = p
        return self.base.step(u), self.fiber.step(t)

    def inverse(self):
        return ProductTorusLift(self.base.inverse(), self.fiber.inverse())

    def compose(self, inner):
        if isinstance(inner, ProductTorusLift):
            return ProductTorusLift(
                self.base.compose(inner.base), self.fiber.compose(inner.fiber)
            )
        return super().compose(inner)

    def power(self, m: int):
        if m >= 0:
            return ProductTorusLift(self.base.power(m), self.fiber.power(m))
        return super().power(m)

    def same_map(self, other):
        if not isinstance(other, ProductTorusLift):
            return False
        return self.base.same_map(other.base) and self.fiber.same_map(other.fiber)

    def seam_distance(self, v):
        v = np.asarray(v, dtype=float)
        return nearest_seam(
            self.base.seam_distance(float(v[..., 0])),
            self.fiber.seam_distance(float(v[..., 1])),
        )


class LinearTorusLift(TorusLift):
    """v -> A v + b with A in GL(2, Z)."""

    def __init__(self, A: IntMatrix2, b=(0.0, 0.0), label: str = ""):
        if not A.is_unimodular():
            raise ValueError(f"linear part must have determinant +-1, got {A.det()}")
        self.linear_part = A
        self.b = (float(b[0]), float(b[1]))
        try:
            self._rows = tuple(tuple(float(x) for x in r) for r in A.rows())
        except OverflowError:
            raise ValueError(
                "linear part has an entry beyond the float range"
            ) from None
        self.label = label or f"linear{A.rows()}"

    def raw(self, v):
        v = np.asarray(v, dtype=float)
        return np.stack(self.step((v[..., 0], v[..., 1])), axis=-1)

    def step(self, p):
        # elementwise on arrays, not v @ M.T: BLAS sums the rows of a
        # large batch in another order than a lone point, and a batch row
        # must equal that point mapped alone
        u, t = p
        (m00, m01), (m10, m11) = self._rows
        b0, b1 = self.b
        return u * m00 + t * m01 + b0, u * m10 + t * m11 + b1

    def inverse(self):
        Ainv = self.linear_part.inverse()
        return LinearTorusLift(Ainv, [-c for c in Ainv.apply(self.b)])

    def compose(self, inner):
        if isinstance(inner, LinearTorusLift):
            nb = np.array(self._rows) @ np.array(inner.b) + np.array(self.b)
            return LinearTorusLift(
                self.linear_part * inner.linear_part, (nb[0], nb[1])
            )
        return super().compose(inner)

    def power(self, m: int):
        # m - 1 fused compositions: the offsets h f h^-1 fuses to, bit for bit
        if not 2 <= m <= MAX_STEPPED_POWER:
            return super().power(m)
        out = self
        for _ in range(m - 1):
            out = out.compose(self)
        return out

    def same_map(self, other):
        # translations a whole number of turns apart in each coordinate
        return (
            isinstance(other, LinearTorusLift)
            and self.linear_part == other.linear_part
            and all((c - d) % 1.0 == 0.0 for c, d in zip(self.b, other.b))
        )


class ComposedTorusLift(Composition, TorusLift):
    """Lift of outer o inner on the torus."""

    def __init__(self, outer: TorusLift, inner: TorusLift):
        super().__init__(outer, inner)
        self.linear_part = outer.linear_part * inner.linear_part


class ConjugatedTorusLift(ComposedTorusLift):
    """psi o g o psi^-1, evaluated as the chain psi o (g o psi^-1).

    Conjugates by the same psi object fuse on g: `compose`, `power` and
    `inverse` conjugate g's own fused result, so a relation that fuses
    exactly for g fuses exactly for its conjugates. `power(0)` is psi o
    g^0 o psi^-1 too, so a conjugated identity `same_map`s its own
    `power(0)`, as the exact identity g does.
    """

    def __init__(self, psi: TorusLift, g: TorusLift):
        super().__init__(psi, ComposedTorusLift(g, psi.inverse()))
        self.psi = psi
        self.g = g

    def inverse(self):
        return ConjugatedTorusLift(self.psi, self.g.inverse())

    def compose(self, inner):
        if isinstance(inner, ConjugatedTorusLift) and inner.psi is self.psi:
            return ConjugatedTorusLift(self.psi, self.g.compose(inner.g))
        return super().compose(inner)

    def power(self, m: int):
        return ConjugatedTorusLift(self.psi, self.g.power(m))

    def same_map(self, other):
        if not isinstance(other, ConjugatedTorusLift) or other.psi is not self.psi:
            return False
        return self.g.same_map(other.g)


# ---------------------------------------------------------------------------
# rotation vectors and sets


@dataclass
class RotationVectorEstimate(Report):
    value: tuple
    iterates_used: int
    error_bound: float


def _require_identity_linear_part(F, what):
    if F.linear_part != IntMatrix2.identity():
        raise ValueError(
            f"{what} needs a lift with identity action on homology, "
            f"got {F.linear_part.rows()}"
        )


def rotation_vector(
    F: TorusLift, v0=(0.0, 0.0), iterates: int = 10**4
) -> RotationVectorEstimate:
    """Mean displacement of the orbit of v0 under the lift F.

    The error bound is heuristic: the deviation between the two half-orbit
    means, floored at the trivial 1/N term scaled by the displacement
    spread.
    """
    _require_identity_linear_part(F, "rotation_vector")
    half = iterates // 2
    v, fv = orbit_arrays(F, v0, iterates)
    d = fv - v
    # running sums in orbit order from 0, the bits of a stepwise total
    sums = np.cumsum(np.concatenate([np.zeros((1, 2)), d]), axis=0)
    total, first = sums[-1], sums[half]
    mean = total / iterates
    mean_first = first / max(half, 1)
    mean_second = (total - first) / max(iterates - half, 1)
    spread = float(np.linalg.norm(d.max(axis=0) - d.min(axis=0)))
    err = max(
        float(np.max(np.abs(mean_first - mean_second))), spread / iterates, 1e-12
    )
    return RotationVectorEstimate(
        value=(float(mean[0]), float(mean[1])),
        iterates_used=iterates,
        error_bound=err,
    )


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Vertices of the convex hull, counterclockwise (monotone chain).

    Collinear clouds collapse to their two extreme points, single points
    to themselves.
    """
    pts = np.unique(np.round(np.asarray(points, dtype=float), 12), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    P = pts[order]

    def build(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and _cross(h[-2], h[-1], p) <= 0.0:
                h.pop()
            h.append((float(p[0]), float(p[1])))
        return h

    lower = build(P)
    upper = build(P[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _point_to_segment(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_to_hull(p, hull):
    hull = np.asarray(hull, dtype=float)
    p = np.asarray(p, dtype=float)
    n = hull.shape[0]
    if n == 1:
        return float(np.linalg.norm(p - hull[0]))
    if n == 2:
        return _point_to_segment(p, hull[0], hull[1])
    inside = all(
        _cross(hull[i], hull[(i + 1) % n], p) >= -1e-12 for i in range(n)
    )
    if inside:
        return 0.0
    return min(
        _point_to_segment(p, hull[i], hull[(i + 1) % n]) for i in range(n)
    )


def hausdorff_distance(hull_a, hull_b) -> float:
    """Hausdorff distance between two convex regions given by hull vertices."""
    a = np.atleast_2d(np.asarray(hull_a, dtype=float))
    b = np.atleast_2d(np.asarray(hull_b, dtype=float))
    d1 = max(_point_to_hull(p, b) for p in a)
    d2 = max(_point_to_hull(q, a) for q in b)
    return max(d1, d2)


@dataclass
class RotationSetEstimate(Report):
    """Convex hull of orbitwise mean displacements.

    vertices are counterclockwise hull vertices in R^2; is_point flags a
    diameter below 1e-3, the working resolution for distinguishing a
    point rotation set from a genuine continuum.
    """

    vertices: np.ndarray
    diameter: float
    is_point: bool
    error_bound: float
    grid: int
    iterates_used: int

    @property
    def center(self):
        v = np.atleast_2d(self.vertices)
        return (float(np.mean(v[:, 0])), float(np.mean(v[:, 1])))


# Steps `rotation_set` discards from each start before it averages
ROTATION_SET_TRANSIENT = 100


def rotation_set(F: TorusLift, grid: int = 32, iterates: int = 10**4) -> RotationSetEstimate:
    """Outer numerical estimate of the rotation set of the lift F.

    Runs mean displacements over `iterates` steps from a grid x grid
    array of starts, after ROTATION_SET_TRANSIENT steps from each, and
    returns the convex hull of the resulting cloud.
    """
    _require_identity_linear_part(F, "rotation_set")
    if grid < 1:
        raise ValueError(f"grid must be positive, got {grid}")
    if iterates < 1:
        raise ValueError(f"iterates must be positive, got {iterates}")
    g = (np.arange(grid) + 0.5) / grid
    starts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    total = np.zeros_like(starts)
    lo = np.full(2, np.inf)
    hi = np.full(2, -np.inf)
    # the grid steps as one array; the displacement is periodic, so each
    # point is rewrapped before its step and never grows an integer part
    fv = starts
    for k in range(-ROTATION_SET_TRANSIENT, iterates):
        v = wrap(fv)
        fv = F.raw(v)
        if k >= 0:
            d = fv - v
            total += d
            lo = np.minimum(lo, d.min(axis=0))
            hi = np.maximum(hi, d.max(axis=0))
    means = total / iterates
    hull = convex_hull(means)
    pts = np.atleast_2d(hull)
    diam = 0.0
    for i in range(pts.shape[0]):
        d = np.linalg.norm(pts - pts[i], axis=1)
        diam = max(diam, float(np.max(d)))
    spread = float(np.linalg.norm(hi - lo))
    err = max(spread / math.sqrt(iterates), 1.0 / iterates)
    return RotationSetEstimate(
        vertices=pts,
        diameter=diam,
        is_point=diam < 1e-3,
        error_bound=err,
        grid=grid,
        iterates_used=iterates,
    )


@dataclass
class ConjugacyRotationReport(Report):
    hausdorff: float
    tolerance: float
    consistent: bool
    mapped_vertices: np.ndarray
    target_vertices: np.ndarray


def conjugate_rotation_set_check(
    F: TorusLift,
    G: TorusLift,
    A: IntMatrix2,
    grid: int = 16,
    iterates: int = 4000,
) -> ConjugacyRotationReport:
    """Test the rotation-set covariance rho(H F H^-1) = A rho(F) mod Z^2
    for a claimed conjugacy with linear part A carrying F to G.

    Both rotation sets are estimated numerically, the hull of F is pushed
    through A, and the two hulls are compared in Hausdorff distance after
    translating by the best integer vector. The tolerance is the larger
    of 1e-2 and the two hulls' error bounds, the first pushed through A.
    """
    RF = rotation_set(F, grid=grid, iterates=iterates)
    RG = rotation_set(G, grid=grid, iterates=iterates)
    M = np.array(A.rows(), dtype=float)
    mapped = np.atleast_2d(RF.vertices) @ M.T
    mapped_hull = convex_hull(mapped)
    shift = np.round(
        np.mean(np.atleast_2d(RG.vertices), axis=0)
        - np.mean(np.atleast_2d(mapped_hull), axis=0)
    )
    mapped_hull = np.atleast_2d(mapped_hull) + shift
    hd = hausdorff_distance(mapped_hull, RG.vertices)
    opnorm = float(np.max(np.sum(np.abs(M), axis=1)))
    tolerance = max(1e-2, opnorm * RF.error_bound + RG.error_bound)
    return ConjugacyRotationReport(
        hausdorff=hd,
        tolerance=tolerance,
        consistent=hd <= tolerance,
        mapped_vertices=mapped_hull,
        target_vertices=np.atleast_2d(RG.vertices),
    )


@dataclass
class RotationConstraintReport(Report):
    """Outcome of the relation constraint (n I - A_h) rho(f) in Z^2.

    q_float is the left side at the numerical rotation vector, q_int its
    integer rounding, residual the rounding defect. When the constraint
    matrix is invertible, snapped is the exact rational rotation vector
    solving (n I - A_h) rho = q_int.
    """

    n: int
    matrix: IntMatrix2
    q_float: tuple
    q_int: tuple
    residual: float
    satisfied: bool
    snapped: tuple | None

    def to_json(self):
        # the matrix as rows under the key constraint_matrix, and the
        # exact rationals as {num, den}
        out = super().to_json()
        del out["matrix"]
        out["constraint_matrix"] = self.matrix.to_json()
        if self.snapped is not None:
            out["snapped"] = [rational_to_json(q) for q in self.snapped]
        return out


def bs_rotation_constraint(rho, A_h: IntMatrix2, n: int) -> RotationConstraintReport:
    """Check a rotation vector against the constraint the group relation
    imposes: conjugating by h multiplies rho(f) by A_h on homology while
    f^n multiplies it by n, so (n I - A_h) rho(f) must be an integer
    vector, up to a rounding residual of 1e-2. rho is a pair.
    """
    r0, r1 = float(rho[0]), float(rho[1])
    rows = A_h.rows()
    M = IntMatrix2.from_rows(
        (n - rows[0][0], -rows[0][1]), (-rows[1][0], n - rows[1][1])
    )
    m = M.rows()
    q0 = m[0][0] * r0 + m[0][1] * r1
    q1 = m[1][0] * r0 + m[1][1] * r1
    qi0, qi1 = int(round(q0)), int(round(q1))
    residual = max(abs(q0 - qi0), abs(q1 - qi1))
    satisfied = residual <= 1e-2
    snapped = None
    if satisfied and M.det() != 0:
        d = Fraction(M.det())
        # adjugate solve, exact
        s0 = Fraction(m[1][1] * qi0 - m[0][1] * qi1) / d
        s1 = Fraction(-m[1][0] * qi0 + m[0][0] * qi1) / d
        snapped = (s0, s1)
    return RotationConstraintReport(
        n=n,
        matrix=M,
        q_float=(q0, q1),
        q_int=(qi0, qi1),
        residual=residual,
        satisfied=satisfied,
        snapped=snapped,
    )
