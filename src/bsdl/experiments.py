"""Perturbation harness: invariant circles by graph transform, rotation
number of the restricted return map, trichotomy classification, and
persistent common fixed points.

Perturbations are applied only inside relation-preserving families:
fiber changes of a product action, and simultaneous conjugation of both
generators by a small diffeomorphism. Arbitrary independent bumps on f
and h would break h f h^-1 = f^n, so they are out of scope. Outcomes
are reported together with the diagnostics that justify them; when the
evidence is inconclusive the harness says Unknown instead of guessing.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
import math

import numpy as np

from .bsgroup import BSAction, FiniteOrbit, finite_bs_orbit, make_action
from .circle import (
    CircleLift,
    RotationNumberEstimate,
    circle_dist,
    orbit_arrays,
    rotation_number,
    wrap,
)
from .estimators import GAP_TRANSIENT, CellSet, fixed_cells, gap_profile_label
from .report import Report
from .space import CIRCLE, TORUS
from .torus import ConjugatedTorusLift, ProductTorusLift, TorusLift

# Sup residual at which the graph transform's circle counts as invariant,
# and the pushes after which the transform gives up
CIRCLE_TOL = 1e-10
MAX_PUSHES = 200


class GraphFoldError(RuntimeError):
    """The pushed graph stopped being a graph over the fiber angle."""


class NonConvergentError(RuntimeError):
    """An iteration (the graph transform, the bump inverse) failed to
    reach its target; `residuals` holds its history."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals or [])


@dataclass
class InvariantCircleEstimate:
    """Sampled graph theta -> u of an attracting h-invariant circle.

    Graph values are stored as real numbers in a window of width one
    centered at the seed, so a circle hugging the glued point does not
    get chopped by the wrap seam. residual is the sup over samples of
    the vertical circle distance between h(graph point) and the graph;
    it is recomputed from scratch after the transform, so a small value
    certifies invariance independently of how the graph was found.
    spline is the `PeriodicSpline` through (thetas, graph) that `at`
    evaluates.
    """

    thetas: np.ndarray
    graph: np.ndarray
    residual: float
    iterations: int
    tol: float
    spline: "PeriodicSpline" = field(repr=False, compare=False)

    def at(self, theta):
        return self.spline.at(theta)

    def at_float(self, theta: float) -> float:
        """`at` on one angle, in Python floats, with the bits of `at`."""
        return self.spline.at_float(theta)

    def spread(self):
        return float(np.max(self.graph) - np.min(self.graph))


class PeriodicSpline:
    """Period-one C^2 cubic spline through (knots, values).

    The knots are finite and strictly increasing within one period
    [lo, lo + 1), lo = knots[0]; the knot lo + 1 closes the last
    interval. The second derivatives M solve the cyclic tridiagonal
    system h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] =
    6 (d[i] - d[i-1]), h the knot spacings and d the chord slopes, by
    Thomas's algorithm with a Sherman-Morrison correction for the two
    corner entries. Any real x is mapped into the period by x - floor(x
    - lo), so a knot maps to itself and the value there is exact. On the
    interval from knot i, at s = x - knots[i], the spline is c3 + s (c2
    + s (c1 + s c0)): `at` evaluates this on arrays and `at_float` on
    one Python float, with the same operations in the same order, so
    the two agree bit for bit. Non-finite x gives NaN.

    A clamped monotone interpolant would be safer against overshoot,
    but its derivative limiting at interior extrema floors the
    achievable self-residual near 1e-8 at 512 samples; the periodic
    spline interpolates smooth graphs to round-off. Fold safety is
    handled before interpolation, on the angle sequence itself.
    """

    def __init__(self, knots, values):
        x = np.asarray(knots, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) == 0:
            raise ValueError("need knots and values of one equal, nonzero length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("spline knots and values must be finite")
        xs = np.append(x, x[0] + 1.0)
        h = np.diff(xs)
        if not (h > 0.0).all():
            raise ValueError("spline knots must increase strictly within one period")
        d = np.diff(np.append(y, y[0])) / h
        M = _cyclic_solve(h, 6.0 * (d - np.concatenate((d[-1:], d[:-1]))))
        M1 = np.concatenate((M[1:], M[:1]))
        # rows: the left knot of each interval, then its cubic, square,
        # linear and constant coefficients c0, c1, c2, c3
        self.table = np.stack([x, (M1 - M) / (6.0 * h), 0.5 * M, d - h * (2.0 * M + M1) / 6.0, y])
        self.knots = xs
        self.lo = float(x[0])
        # x lies in interval i when i of the knots after the first are
        # <= x; x at lo + 1, and NaN, fall in the last one
        self._inner = x[1:]

    @cached_property
    def _float_table(self):
        # built on the first `at_float`: the graph transform's splines
        # are evaluated only on arrays
        return self._inner.tolist(), self.table.T.tolist()

    def at(self, x):
        x = np.asarray(x, dtype=float)
        x = x - np.floor(x - self.lo)
        k, c0, c1, c2, c3 = self.table[:, np.searchsorted(self._inner, x, side="right")]
        s = x - k
        y = s * c0
        y += c1
        y *= s
        y += c2
        y *= s
        y += c3
        return y

    def at_float(self, x: float) -> float:
        # x // 1.0 is np.floor(x), and bisect_right is searchsorted's
        # right side, NaN included
        x = x - (x - self.lo) // 1.0
        inner, rows = self._float_table
        k, c0, c1, c2, c3 = rows[bisect_right(inner, x)]
        s = x - k
        return c3 + s * (c2 + s * (c1 + s * c0))


def _cyclic_solve(h, r):
    """Solve `PeriodicSpline`'s cyclic system with spacings h for the
    right-hand side r.

    With g = -diag[0], the matrix is T + u v^T for u = (g, 0, ..., 0,
    h[-1]) and v = (1, 0, ..., 0, h[-1] / g), T tridiagonal; Thomas's
    sweeps solve T x = r and T z = u together, and Sherman-Morrison
    gives x - z (v.x) / (1 + v.z). The system is diagonally dominant,
    so no pivoting is needed.
    """
    hs = h.tolist()
    sub = [hs[-1]] + hs[:-1]
    diag = [2.0 * (a + b) for a, b in zip(sub, hs)]
    corner = hs[-1]
    g = -diag[0]
    diag[0] -= g
    diag[-1] -= corner * corner / g
    u = [0.0] * len(hs)
    u[-1] = corner
    u[0] = g
    # sub[0] only ever multiplies the zero carried into the first row
    cs, xs, zs = [], [], []
    c = x = z = 0.0
    for a, b, up, ri, ui in zip(sub, diag, hs, r.tolist(), u):
        m = b - a * c
        c = up / m
        x = (ri - a * x) / m
        z = (ui - a * z) / m
        cs.append(c)
        xs.append(x)
        zs.append(z)
    for i in range(len(hs) - 2, -1, -1):
        x = xs[i] = xs[i] - cs[i] * x
        z = zs[i] = zs[i] - cs[i] * z
    k = (xs[0] + corner * xs[-1] / g) / (1.0 + zs[0] + corner * zs[-1] / g)
    return np.array(xs) - k * np.array(zs)


def find_invariant_circle(h: TorusLift, seed, samples: int = 512) -> InvariantCircleEstimate:
    """Graph transform for an attracting normally hyperbolic h-invariant
    circle.

    Starting from the constant graph u = seed, the graph is pushed by h:
    its image points are reprojected to a graph over the uniform fiber
    grid through the periodic cubic spline (`PeriodicSpline`) through
    them, and the loop runs until the recomputed residual drops to
    CIRCLE_TOL. The image h(g(theta), theta) of each graph is computed
    once and serves both its residual and its push, so k pushes evaluate
    h k + 1 times. A repelling circle of h is an attracting circle of
    h^-1: find it as `find_invariant_circle(h.inverse(), seed)`. The
    residual is checked before the first push, so an exactly invariant
    seed converges in zero iterations; a NaN residual (an image holding
    NaN) stops the loop and, like a residual still above CIRCLE_TOL
    after MAX_PUSHES pushes, raises NonConvergentError.
    """
    thetas = np.arange(samples) / samples
    center = float(seed)
    g = np.full(samples, center)

    def reproject(img):
        up = center + (np.mod(img[..., 0] - center + 0.5, 1.0) - 0.5)
        tp = np.mod(img[..., 1], 1.0)
        # a degree-one monotone image has exactly one cyclic descent;
        # anything else means the pushed curve folded over the fiber
        descents = int(np.sum(tp[1:] <= tp[:-1])) + int(tp[0] <= tp[-1])
        if descents != 1:
            raise GraphFoldError(
                f"pushed curve is not a graph ({descents} descents "
                f"over {samples} samples)"
            )
        order = np.argsort(tp, kind="stable")
        return PeriodicSpline(tp[order], up[order]).at(thetas)

    def measure(g):
        # the spline through g is kept for the estimate once g converges;
        # the image of g under h serves both its residual and its push
        graph = PeriodicSpline(thetas, g)
        img = h.raw(np.stack([g, thetas], axis=-1))
        target = graph.at(img[..., 1])
        return img, float(np.max(circle_dist(img[..., 0], target))), graph

    img, res, graph = measure(g)
    history = [res]
    iters = 0
    # pushing an image that holds NaN cannot help, so NaN stops the loop
    while res > CIRCLE_TOL and iters < MAX_PUSHES:
        g = reproject(img)
        iters += 1
        img, res, graph = measure(g)
        history.append(res)
    if not res <= CIRCLE_TOL:
        raise NonConvergentError(
            f"graph transform stalled at residual {res:.3e} after "
            f"{iters} iterations (tol {CIRCLE_TOL:.1e})",
            history,
        )
    return InvariantCircleEstimate(thetas, g, res, iters, CIRCLE_TOL, graph)


@dataclass
class TrichotomyReport(Report):
    """Classification of the minimal set living on an invariant circle.

    rotation_number is the estimate for h restricted to the circle;
    outcome is FiniteOrbits, MinimalCircle, MinimalCantor, or Unknown,
    and evidence holds the diagnostics that back it (witness data,
    orbit closure, gap profiles, per-resolution cell counts).
    """

    rotation_number: RotationNumberEstimate
    outcome: str
    evidence: dict = field(default_factory=dict)
    orbit: FiniteOrbit | None = None

    def to_json(self):
        out = super().to_json()
        w = out["rotation_number"]["rational_witness"]
        if w is not None:
            # the witness point is an angle on the invariant circle
            w["angle"] = w.pop("x")
        return out


class GraphRestriction(CircleLift):
    """Return map of a torus lift h on an invariant graph theta -> u, as
    a circle lift in theta: t -> the angle coordinate of h(u(t), t).

    `raw` evaluates the graph and h on arrays. `step` evaluates the
    graph by `InvariantCircleEstimate.at_float` and maps the point
    through `h.step`, all in Python floats, so the exact factors of h
    and the bump maps of a conjugation step without numpy arrays beyond
    the bump field's own; it gives the bits of `raw` on that angle
    alone. Its powers beyond the first have no closed form and raise.
    """

    label = "h on invariant circle"

    def __init__(self, h: TorusLift, circle: InvariantCircleEstimate):
        self.h = h
        self.circle = circle

    def raw(self, t):
        t = np.asarray(t, dtype=float)
        u = np.asarray(self.circle.at(t), dtype=float)
        return self.h.raw(np.stack([u, np.broadcast_to(t, u.shape)], axis=-1))[..., 1]

    def step(self, t):
        return self.h.step((self.circle.at_float(t), t))[1]


def restricted_circle_map(h: TorusLift, circle: InvariantCircleEstimate):
    """Return map of h on an invariant circle as a circle lift, and its kind.

    When the graph is a horizontal fiber of a product action the fiber
    factor is returned as-is ("product-fiber"), exactly; interpolating
    through the graph would smear an exactly rational fiber angle by the
    interpolation error and fake or destroy rational witnesses.
    Otherwise the map is a `GraphRestriction` ("graph").
    """
    if circle.spread() < 1e-12 and isinstance(h, ProductTorusLift):
        return h.fiber, "product-fiber"
    return GraphRestriction(h, circle), "graph"


def classify_perturbed(
    action: BSAction,
    circle: InvariantCircleEstimate = None,
    resolutions=(256, 512, 1024),
    orbit_iterates: int = 100000,
) -> TrichotomyReport:
    """Decide the minimal-set trichotomy on an h-invariant circle.

    The restricted map is stepped along one orbit of 0 of N + T points,
    N = orbit_iterates and T = GAP_TRANSIENT, by `circle.orbit_arrays`,
    once and only when it is read. `circle.rotation_number` sums its
    first N pairs (a lift with a closed-form power gives h^N(0) instead),
    and its points T ... T + N - 1 give the gap profile. A rational
    rotation number, certified by a witness of period at most
    `circle.WITNESS_PERIODS`, sends the search to finite_bs_orbit from
    the witness point (at its default merge_tol, cut past 5000 points);
    FiniteOrbits is reported only when that orbit actually closes. An
    irrational one is classified through the largest-gap profile of the
    orbit, reusing it across all resolutions. Anything inconclusive is
    Unknown.
    """
    if action.space != "torus":
        raise ValueError("trichotomy classification expects a torus action")
    N = int(orbit_iterates)
    if N < 1:
        raise ValueError(f"need orbit_iterates >= 1, got {N}")
    if circle is None:
        circle = find_invariant_circle(action.h, 0.0)

    evidence = {
        "circle_residual": circle.residual,
        "circle_spread": circle.spread(),
    }
    P = fixed_cells(action.f, resolutions[0])
    circ_cells0 = _circle_cells(circle, resolutions[0])
    meets = len(P.intersect(circ_cells0)) > 0
    evidence["fixed_cells"] = len(P)
    evidence["fixed_meets_circle"] = meets

    restriction, kind = restricted_circle_map(action.h, circle)
    evidence["restriction"] = kind
    orbit = cache(lambda: orbit_arrays(restriction, 0.0, N + GAP_TRANSIENT))
    rho = rotation_number(restriction, N, pairs=orbit)

    if not meets:
        evidence["reason"] = "f-fixed cells never meet the circle"
        return TrichotomyReport(rho, "Unknown", evidence)

    if rho.rational_witness is not None:
        p, q, angle, wres = rho.rational_witness
        evidence["witness"] = {"p": p, "q": q, "angle": angle, "residual": wres}
        x0 = np.array([wrap(float(circle.at(angle))), wrap(angle)])
        orb = finite_bs_orbit(action, x0, max_size=5000)
        evidence["orbit_size"] = orb.size
        evidence["orbit_closed"] = orb.closed
        if orb.closed:
            evidence["orbit_defect"] = orb.defect
            return TrichotomyReport(rho, "FiniteOrbits", evidence, orb)
        evidence["reason"] = f"rational witness but the orbit is open: {orb.reason}"
        return TrichotomyReport(rho, "Unknown", evidence, orb)

    # irrational: gap statistics at several sample sizes, cell coverage
    # at several resolutions
    angles = orbit()[0][GAP_TRANSIENT:]
    label, evidence["gap_profile"], reason = gap_profile_label(
        angles, min(resolutions)
    )

    orbit_pts = np.stack([wrap(circle.at(angles)), angles], axis=-1)
    per_res = []
    all_strict = True
    for R in resolutions:
        ccells = circ_cells0 if R == resolutions[0] else _circle_cells(circle, R)
        ocells = CellSet.from_points(orbit_pts, R, "torus")
        strict = ocells.issubset(ccells.dilate()) and len(ocells) < len(ccells)
        per_res.append(
            {
                "resolution": R,
                "circle_cells": len(ccells),
                "orbit_cells": len(ocells),
                "strict_subset": strict,
            }
        )
        all_strict = all_strict and strict
    evidence["refinements"] = per_res

    if label == "MinimalCantor":
        evidence["cantor_strict_subset"] = all_strict
    if reason is not None:
        evidence["reason"] = reason
    return TrichotomyReport(rho, label, evidence)


def _circle_cells(circle: InvariantCircleEstimate, R: int) -> CellSet:
    """The torus cells at resolution R that the circle's points at 4 R
    evenly spaced angles fall in."""
    t = np.arange(4 * R) / (4 * R)
    return CellSet.from_points(np.stack([wrap(circle.at(t)), t], axis=-1), R, "torus")


# Per space: the largest h-displacement of a grid candidate, and the
# distance in grid steps below which a candidate repeats a tried one.
_FP_CANDIDATES = {CIRCLE: (0.1, 0.0), TORUS: (0.2, 2.0)}


def persistent_fixed_point(
    action: BSAction, search_resolution: int = 64, tol: float = 1e-8
):
    """Common fixed point of f and h, or None.

    Grid-scans the h-displacement (the grid contains the exact lattice
    corner, so a fixed glued point is hit exactly), Newton-refines the
    best candidates on h(v) - v with central-difference Jacobians, and
    keeps a refined point only when both generator residuals pass tol.
    Each single point is mapped through `step`, which gives the bits of
    `raw` on it. Raises ValueError unless tol is positive and finite:
    the test is strict, so no point passes tol 0.
    """
    f, h, space = action.f, action.h, action.space
    S = int(search_resolution)
    if S < 1:
        raise ValueError(f"search_resolution must be positive, got {S}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    cutoff, repeat = _FP_CANDIDATES[space]
    eye = np.eye(space.dim)
    vs = space.grid(S) / S
    disp = space.dist(h.raw(vs), vs)
    order = np.argsort(disp, kind="stable")
    tried = []
    for idx in order[:12]:
        if disp[idx] > cutoff:
            break
        v = vs[idx].reshape(space.dim)
        if any(space.dist(v, w) < repeat / S for w in tried):
            continue
        tried.append(v)
        for _ in range(40):
            gv = _at_point(h, v) - v
            if float(np.max(np.abs(gv))) < 1e-14:
                break
            s = 1e-6
            cols = [(_at_point(h, v + s * e) - _at_point(h, v - s * e)) / (2 * s) for e in eye]
            J = np.stack(cols, axis=-1) - eye
            try:
                step = np.linalg.solve(J, -gv)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -gv, rcond=None)[0]
            v = v + step
        v = wrap(v.reshape(space.shape))
        if space.dist(_at_point(h, v), v) < tol and space.dist(_at_point(f, v), v) < tol:
            return v
    return None


def _at_point(F, v):
    """F at one point, an array holding one angle or one (u, t) pair,
    through `F.step`, as an array of v's shape."""
    p = v.ravel().tolist()
    return np.reshape(F.step(p[0] if len(p) == 1 else tuple(p)), v.shape)


# The integer frequencies of a bump field run up to BUMP_MODES
BUMP_MODES = 2

_TWO_PI = 2.0 * math.pi


def _products(u, t):
    """The 25 products U_i T_j, i and j in 0..4, of U = (1, cos A, sin A,
    cos 2A, sin 2A) at A = 2 pi u and T, the same terms at B = 2 pi t,
    with index 5 i + j: a point costs four libm calls and 16 products, a
    product by 1 being the other factor. On two Python floats they are a
    list; on two coordinate arrays of one shape, a (25,) + shape array from
    one broadcast product. Every product is elementwise, so a point gets
    the same bits as floats, alone or in a batch, where numpy's float64
    cos and sin are math's: numpy calls the C library for them (numpy 2.4,
    AVX-512 included), and `test_products_are_elementwise` checks it.
    """
    if isinstance(u, float):
        # math's cos and sin and a list: numpy's per-call cost would double
        # a float bump step, which orbits of single starts take by the thousand
        a, b = _TWO_PI * u, _TWO_PI * t
        c, s, C, S = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
        c2, s2, C2, S2 = c * c - s * s, 2.0 * s * c, C * C - S * S, 2.0 * S * C
        return [1.0, C, S, C2, S2, c, c * C, c * S, c * C2, c * S2, s, s * C, s * S, s * C2,
                s * S2, c2, c2 * C, c2 * S, c2 * C2, c2 * S2, s2, s2 * C, s2 * S, s2 * C2, s2 * S2]
    # X[i] holds U_i and T_i; u and t share one cos and one sin call
    # through X[4], whose [..., ] views a 0-d point can write to
    X = np.empty((5, 2) + np.shape(u))
    X[0] = 1.0
    np.multiply(_TWO_PI, u, out=X[4, 0, ...])
    np.multiply(_TWO_PI, t, out=X[4, 1, ...])
    c, s = np.cos(X[4], out=X[1]), np.sin(X[4], out=X[2])
    np.subtract(c * c, s * s, out=X[3])
    np.multiply(2.0 * s, c, out=X[4])
    return (X[:, 0, None] * X[:, 1]).reshape((25,) + X.shape[2:])


def _wave_terms(k):
    """The coefficients of cos kx and of sin kx, |k| <= 2, over (1,
    cos x, sin x, cos 2x, sin 2x), as two length-5 vectors."""
    c, s = np.zeros(5), np.zeros(5)
    if k == 0:
        c[0] = 1.0
    else:
        i = 2 * abs(k) - 1
        c[i], s[i + 1] = 1.0, math.copysign(1.0, k)
    return c, s


@cache
def _bump_modes():
    """What `_bump_field` needs of BUMP_MODES alone, for every seed.

    Returns the wave vectors K = 2 pi k, one integer frequency k = (p, q)
    per row, their lengths |K|, the 0/+-1 table P that maps the 25
    `_products` at v to the waves cos(K . v) and then sin(K . v), by
    cos(pA + qB) = cos pA cos qB - sin pA sin qB and sin(pA + qB) =
    sin pA cos qB + cos pA sin qB, and the products on the 64 x 64
    normalization mesh, a (25, 4096) table. The arrays are read-only,
    because every map shares them.
    """
    ks = [
        (p, q)
        for p in range(-BUMP_MODES, BUMP_MODES + 1)
        for q in range(0, BUMP_MODES + 1)
        if q > 0 or p > 0
    ]
    J = len(ks)
    P = np.empty((2 * J, 25))
    for row, (p, q) in enumerate(ks):
        (cp, sp), (cq, sq) = _wave_terms(p), _wave_terms(q)
        P[row] = np.outer(cp, cq).ravel() - np.outer(sp, sq).ravel()
        P[J + row] = np.outer(sp, cq).ravel() + np.outer(cp, sq).ravel()
    K = _TWO_PI * np.array(ks, dtype=float)
    g = np.arange(64) / 64
    shared = (K, np.hypot(K[:, 0], K[:, 1]), P, _products(np.repeat(g, 64), np.tile(g, 64)))
    for a in shared:
        a.flags.writeable = False
    return shared


def _bump_field(size: float, seed: int):
    """Displacement field of `near_identity_diffeo` and its Jacobian.

    Returns field(u, t), which takes one point as two Python floats, and
    returns a list, or points as two coordinate arrays, and returns an
    array of their rows: D_0, D_1, dD_0/du, dD_0/dt, dD_1/du, dD_1/dt,
    with D = size * B. Each is linear in the waves cos(K . v) and
    sin(K . v), so in the 25 `_products` at v: the field is one matrix
    product G @ products, G = M @ P with M the weights of the waves and
    P the table of `_bump_modes`: a point costs four libm calls, 16
    products and one 6 x 25 product. Validates the arguments as
    `near_identity_diffeo` documents.
    """
    if not (np.isfinite(size) and size >= 0.0):
        raise ValueError(f"need a finite size >= 0, got {size}")
    K, norms, P, mesh_products = _bump_modes()
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(2, len(K)))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(2, len(K)))

    # amp cos(a + phase) = cos a (amp cos phase) - sin a (amp sin phase),
    # and its gradient is -amp sin(a + phase) k: each row of M weighs the
    # stacked [cos a, sin a] into one output row.
    ca = amp * np.cos(phase)
    sa = amp * np.sin(phase)
    M = np.array(
        [np.concatenate([ca[i], -sa[i]]) for i in range(2)]
        + [
            np.concatenate([-sa[i] * K[:, d], -ca[i] * K[:, d]])
            for i in range(2)
            for d in range(2)
        ]
    )
    G = M @ P
    scale = 1.0 / float(np.max(np.abs(G[:2] @ mesh_products)))
    lip = scale * float(np.max(np.abs(amp) @ norms))
    if not size * lip < 0.5:
        raise ValueError(
            f"size {size:g} times the Lipschitz bound {lip:.3g} of the "
            "unit field is not below 1/2, so the map may fold"
        )
    G = size * scale * G

    def field(u, t):
        if isinstance(u, float):
            return G.dot(np.fromiter(_products(u, t), float, 25)).tolist()
        return G.dot(_products(u, t))

    return field


class BumpTorusLift(TorusLift):
    """v -> v + D(v) for a bump field D of `_bump_field`, or its inverse.

    The map is written once, in `step`, which takes a point (u, t) of two
    Python floats or the two coordinate arrays of a batch, and passes the
    field frac(v) in the same form; `raw` is `step` on the coordinates
    of its array, so a float `step` gives the bits of `raw` on that point
    alone. The forward map is one field pass (per point, four libm
    calls, 16 products and one 6 x 25 product), the inverse Newton's
    method from the starting guess y = w, stopping once every step of
    the batch (at once, on an empty batch) falls below 1e-15. A
    non-finite point makes the inverse raise NonConvergentError, whose
    residuals are each iteration's largest |step|.
    """

    def __init__(self, field, label: str, inverted: bool = False):
        self._field = field
        self._label = label
        self._inverted = inverted
        self.label = label + "^-1" if inverted else label

    def inverse(self):
        return BumpTorusLift(self._field, self._label, not self._inverted)

    def raw(self, v):
        v = np.asarray(v, dtype=float)
        w = v.reshape(-1, 2) if v.ndim > 1 else v
        out = np.empty(w.shape)
        out[..., 0], out[..., 1] = self.step((w[..., 0], w[..., 1]))
        return out.reshape(v.shape)

    def step(self, p):
        u, t = p
        floats = isinstance(u, float)
        # D is periodic, so it is evaluated at frac(v): its angles keep
        # their bits where v itself is large. On floats, x // 1.0 is
        # np.floor(x).
        if floats:
            p0, p1 = u - u // 1.0, t - t // 1.0
        else:
            p0, p1 = u - np.floor(u), t - np.floor(t)
        if not self._inverted:
            d0, d1 = self._field(p0, p1)[:2]
            return u + d0, t + d1
        # Newton on the displacement z = y - w, with D evaluated at
        # frac(w) + z: the residual z + D stays at the size of z and its
        # argument keeps the bits of z, so steps fall below 1e-15 even
        # where w itself is large
        z0 = z1 = 0.0
        steps = []
        for _ in range(60):
            d0, d1, j00, j01, j10, j11 = self._field(p0 + z0, p1 + z1)
            r0, r1 = z0 + d0, z1 + d1
            j00, j11 = j00 + 1.0, j11 + 1.0
            det = j00 * j11 - j01 * j10
            s0 = (j11 * r0 - j01 * r1) / det
            s1 = (j00 * r1 - j10 * r0) / det
            z0, z1 = z0 - s0, z1 - s1
            steps.append((s0, s1))
            # false when a step is NaN; an empty batch is done at once
            if floats:
                done = abs(s0) < 1e-15 and abs(s1) < 1e-15
            else:
                done = np.abs(s0).max(initial=0.0) < 1e-15 and np.abs(s1).max(initial=0.0) < 1e-15
            if done:
                return u + z0, t + z1
        largest = [float(np.max(np.abs(s))) for s in steps]
        raise NonConvergentError(
            f"bump inverse steps stalled at {largest[-1]:.3e} after "
            f"{len(largest)} Newton iterations (tol 1e-15)",
            largest,
        )


def near_identity_diffeo(size: float = 1e-3, seed: int = 0) -> BumpTorusLift:
    """Random torus diffeomorphism v -> v + size * B(v), sup|B| = 1.

    B is a seeded random trigonometric displacement field with integer
    frequencies up to BUMP_MODES, normalized to unit sup norm on a 64 x
    64 sample grid, so `size` is the C0 distance to the identity. B and
    its analytic Jacobian are linear in the 25 products of (1, cos x,
    sin x, cos 2x, sin 2x) at x = 2 pi u and the same five terms at x =
    2 pi t: a pass over a point takes four libm calls, 16 products and
    one matrix product by the map's 6 x 25 weights (`_bump_field`). The
    products on the normalization grid are the same for every seed: they
    are computed once and shared read-only by every later map, which
    draws only its amplitudes and phases. The inverse is computed by
    Newton's method from the starting guess y = w, and raises
    NonConvergentError if its steps do not fall below 1e-15 within 60
    iterations.

    Raises ValueError unless size is finite and nonnegative and size *
    Lip < 1/2. Lip = scale * max_i sum_k |amp_ik| 2 pi |k|, with scale
    the sup-norm normalization, bounds the gradient of each component
    of B, so each gradient row of size * B is below 1/2, the derivative
    of the map is invertible everywhere and the map is a
    diffeomorphism. Over 2000 seeds Lip is at most 26.3, so sizes up to
    about 0.019 pass for every seed.
    """
    return BumpTorusLift(_bump_field(size, seed), f"bump(size={size:g},seed={seed})")


def conjugated_action(action: BSAction, psi) -> BSAction:
    """Conjugate both generators of a torus action by psi.

    psi f psi^-1 and psi h psi^-1 satisfy the same group relation as
    (f, h), so this is the safe way to perturb an action by an
    arbitrary small diffeomorphism. Both are `ConjugatedTorusLift`s of
    the one psi, so the relation check of `make_action` fuses to
    psi (h f h^-1) psi^-1 against psi f^n psi^-1, and a relation that
    fuses exactly for (f, h) keeps a residual of exactly 0. What the
    fusion takes on trust, psi^-1 inverting psi, is checked directly:
    a round trip psi(psi^-1(x)) more than 1e-8 from x on the 45 x 45
    points of `TORUS.lattice(2048)` raises ValueError, as does a circle
    action or a psi that is not a torus lift.
    """
    if action.space != TORUS or not isinstance(psi, TorusLift):
        raise ValueError(
            "conjugated_action needs a torus action and a torus lift psi, "
            f"got a {action.space} action and {type(psi).__name__}"
        )
    xs = TORUS.lattice(2048)
    err = float(np.max(TORUS.dist(psi.raw(psi.inverse().raw(xs)), xs)))
    if not err <= 1e-8:  # a NaN round trip fails too
        raise ValueError(
            f"{psi.label}: round trip psi(psi^-1(x)) is {err:.3e} from x, "
            "above 1e-8"
        )
    return make_action(
        ConjugatedTorusLift(psi, action.f),
        ConjugatedTorusLift(psi, action.h),
        action.n,
        name=f"{action.name or 'action'} conjugated by {psi.label}",
    )
