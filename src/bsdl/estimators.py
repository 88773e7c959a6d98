"""Grid estimators for fixed sets, the K_l family, and minimal-set type.

Displacement tests run on cell centers of a uniform partition of the
circle or torus, with one refinement pass so flagged cells are re-tested
at double resolution and half tolerance. Minimal-set classification
compares largest-empty-arc statistics of a long orbit across sample
sizes: for an orbit equidistributing on a full circle the largest gap
decays like log(N)/N, while on a Cantor set it stabilizes at the widest
complementary gap.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .bsgroup import BSAction, finite_bs_orbit
from .circle import circle_dist, orbit_arrays, wrap
from .report import Report, jsonable
from .space import CIRCLE, SPACES, TORUS, space_of

# Samples per cell axis in `bs_minimal_set`, per space: corner-first
# samples for the K family, then a finer grid of each surviving cell for
# the start point.
_CELL_SAMPLES = {CIRCLE: (5, 9), TORUS: (3, 5)}


def cell_index(points, resolution: int):
    """Grid cell of each point, wrapped first, as int coordinates.

    Raises ValueError on a non-finite coordinate, which lies in no cell.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("a point with a non-finite coordinate lies in no grid cell")
    return np.minimum((wrap(points) * resolution).astype(int), resolution - 1)


@dataclass
class CellSet(Report):
    """Subset of the uniform cell partition at a fixed resolution R.

    Circle cells are column indices i, standing for [i/R, (i+1)/R);
    torus cells are index pairs (i, j) for the product of two such
    intervals. cells is an int array of shape (k,) + space.shape,
    ascending (first axis slowest) and without repeats; the constructor
    takes any int array-like of cells, their indices mod R, and
    normalizes it by sorting their flat grid positions and dropping
    each that repeats its neighbour. Membership is a lookup in a
    boolean mask over the R^dim grid.
    """

    resolution: int
    space: str
    cells: np.ndarray = ()

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        if self.resolution < 1:
            raise ValueError("resolution must be positive")
        self.space = space = SPACES[self.space]
        idx = np.asarray(self.cells, dtype=int).reshape((-1,) + space.shape)
        flat = np.sort(self._flat(idx % self.resolution))
        first = np.ones(len(flat), dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        # back to columns, the first axis slowest
        cols = [flat[first]]
        for _ in range(space.dim - 1):
            cols[:1] = np.divmod(cols[0], self.resolution)
        self.cells = np.stack(cols, axis=-1).reshape((-1,) + space.shape)

    def _flat(self, idx):
        """Position of each cell of an int array of shape (...) + shape in
        the flattened grid, first axis slowest."""
        lead = idx.shape[: idx.ndim - len(self.space.shape)]
        cols = np.moveaxis(idx.reshape(lead + (self.space.dim,)), -1, 0)
        flat = cols[0]
        for col in cols[1:]:
            flat = flat * self.resolution + col
        return flat

    def _mask(self):
        """Flags over the flattened grid, set on the cells of the set."""
        mask = np.zeros(self.resolution**self.space.dim, dtype=bool)
        mask[self._flat(self.cells)] = True
        return mask

    @classmethod
    def from_points(cls, points, resolution, space):
        """The cells hit by an array of points (wrapped first)."""
        return cls(resolution, space, cell_index(points, resolution))

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        # the dataclass rule would compare the cell arrays elementwise
        return isinstance(other, CellSet) and self.to_json() == other.to_json()

    def contains(self, points):
        """Whether each point (wrapped first) lies in a cell of the set,
        as flags of the points' leading shape."""
        return self._mask()[self._flat(cell_index(points, self.resolution))]

    def issubset(self, other):
        return bool(other._lookup(self).all())

    def intersect(self, other):
        return CellSet(self.resolution, self.space, self.cells[other._lookup(self)])

    def _lookup(self, other):
        """Whether each cell of `other` is a cell of this set."""
        if self.resolution != other.resolution or self.space != other.space:
            raise ValueError("cell sets live on different grids")
        return self._mask()[self._flat(other.cells)]

    def dilate(self):
        """Grow by the full neighborhood (2 neighbors on the circle, 8 on
        the torus), wrapping."""
        return CellSet(
            self.resolution, self.space, self.cells[:, None] + (self.space.grid(3) - 1)
        )

    def measure(self):
        """Total cell area as a fraction of the whole space."""
        return len(self.cells) / float(self.resolution) ** self.space.dim


def _any_sample(flags):
    """Whether some sample of each cell is flagged, for flags of shape
    (cells, samples): the columns ORed, as `any` over a short trailing
    axis is a slow path."""
    hit = flags[:, 0].copy()
    for col in flags.T[1:]:
        hit |= col
    return hit


def fixed_cells(f, resolution: int = 256, delta: float = None) -> CellSet:
    """Cells whose center moves less than delta under f, refined once.

    The test runs at half resolution first; flagged cells are subdivided
    and their children re-tested at delta / 2, so the returned set lives
    at the requested resolution. Default delta is twice the coarse cell
    diameter, 4 / resolution. Raises ValueError unless delta is positive
    and finite: the test is strict, so no cell passes delta 0.
    """
    if resolution < 2 or resolution % 2:
        raise ValueError("resolution must be an even integer >= 2")
    space = space_of(f)
    coarse = resolution // 2
    if delta is None:
        delta = 4.0 / resolution
    elif not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    idx = space.grid(coarse)
    c = (idx + 0.5) / coarse
    flag = idx[space.dist(f.raw(c), c) < delta]
    if len(flag) == 0:
        return CellSet(resolution, space)
    # the 2^dim children of each flagged cell
    kids = np.concatenate([2 * flag + o for o in space.grid(2)])
    xs = (kids + 0.5) / resolution
    keep = space.dist(f.raw(xs), xs) < delta / 2.0
    return CellSet(resolution, space, kids[keep])


@dataclass
class DifferentialReport(Report):
    """Central-difference Jacobian with a step-halving diagnostic.

    richardson is the ratio of successive difference norms under step
    halving, near 4 for a clean second-order stencil; it is None when
    the differences sit at round-off level, in which case the estimate
    is converged and the ratio would be noise. seam_distance is the
    distance to the nearest non-smooth point of the map, None for
    everywhere-smooth lifts.
    """

    jacobian: np.ndarray
    moduli: tuple
    step: float
    richardson: float | None
    converged: bool
    seam_distance: float | None


def differential_at(f, x) -> DifferentialReport:
    """Jacobian of f at x by central differences at steps 1e-3, 5e-4, 2.5e-4.

    The reported matrix uses the smallest step. Eigenvalue moduli are
    sorted ascending, so an attracting-repelling saddle reads off as
    (contraction, expansion).
    """
    space = space_of(f)
    dim = space.dim
    x0 = np.asarray(x, dtype=float).reshape(space.shape)
    basis = np.eye(dim).reshape((dim,) + space.shape)

    def jac(s):
        cols = [(f.raw(x0 + s * e) - f.raw(x0 - s * e)) / (2.0 * s) for e in basis]
        return np.stack(cols, axis=-1).reshape(dim, dim)

    step = 1e-3
    J1 = jac(step)
    J2 = jac(step / 2.0)
    J3 = jac(step / 4.0)
    d1 = float(np.max(np.abs(J1 - J2)))
    d2 = float(np.max(np.abs(J2 - J3)))
    scale = max(1.0, float(np.max(np.abs(J1))))
    if d1 < 1e-12 * scale or d2 < 1e-13 * scale:
        ratio = None
        converged = True
    else:
        ratio = d1 / d2
        converged = 3.5 <= ratio <= 4.5
    moduli = tuple(sorted(float(abs(z)) for z in np.linalg.eigvals(J3)))
    sd = f.seam_distance(x0)
    return DifferentialReport(J3, moduli, step, ratio, converged, sd)


def _largest_gap(vals):
    """Widest empty arc left by a set of circle points, in [0, 1]."""
    s = np.sort(wrap(np.asarray(vals, dtype=float)).ravel())
    if s.size <= 1:
        return 1.0
    d = np.diff(s)
    inner = float(np.max(d)) if d.size else 0.0
    return max(inner, float(1.0 - s[-1] + s[0]))


GAP_SIZES = (1000, 10000, 100000)
# A gap-profile orbit that comes back this close to its first point is
# periodic. A filling orbit of N points comes back to about 1/(2N): the
# battery's 10^5-point orbits to 2.5e-6 at the closest
RETURN_TOL = 1e-9
# Orbit steps discarded before the points of a gap profile
GAP_TRANSIENT = 200


def gap_profile_label(coords, resolution: int):
    """(label, profile, reason) of one long circle orbit from its largest gaps.

    profile maps str(N) to the largest empty arc g of the first N points,
    N in GAP_SIZES capped at the orbit length. A filling orbit has
    g ~ log(N)/N: MinimalCircle needs g < 5/sqrt(N) at the last size and
    at most half the first size's gap. A Cantor set keeps its widest
    gap: MinimalCantor needs the last two sizes within 10% and g above
    ten cells at `resolution`, the coarsest grid the caller reads. An
    orbit with a later point within RETURN_TOL of its first is periodic
    (a circle homeomorphism has no preperiodic points), and a finite
    orbit can pass for a circle or a Cantor set: it is Unknown. reason
    says why a label is Unknown, naming each failed test with its
    numbers, and is None otherwise.
    """
    sizes = sorted({min(s, len(coords)) for s in GAP_SIZES})
    gaps = [_largest_gap(coords[:s]) for s in sizes]
    profile = {str(s): g for s, g in zip(sizes, gaps)}
    returns = circle_dist(coords[1:], coords[0])
    back = np.flatnonzero(returns <= RETURN_TOL)
    if back.size:
        k = int(back[0])
        return "Unknown", profile, (
            f"orbit is periodic: step {k + 1} returns to {returns[k]:.1e} of "
            f"the first point, within {RETURN_TOL:.0e}"
        )
    g, n = gaps[-1], sizes[-1]
    bound = 5.0 / math.sqrt(n)
    if g < bound and g <= 0.5 * gaps[0]:
        return "MinimalCircle", profile, None
    if len(gaps) >= 2 and abs(gaps[-2] - g) <= 0.1 * g:
        if g > 10.0 / resolution:
            return "MinimalCantor", profile, None
        return "Unknown", profile, (
            f"gap profile stabilized below ten cells at resolution {resolution}"
        )
    if len(gaps) < 2:
        return "Unknown", profile, (
            f"gap profile has one sample size ({n} points), so it can "
            "neither halve nor stabilize"
        )
    failed = []
    if not g < bound:
        failed.append(
            f"largest gap {g:.3e} at {n} points is not below 5/sqrt(N) = {bound:.3e}"
        )
    if not g <= 0.5 * gaps[0]:
        ratio = g / gaps[0] if gaps[0] > 0.0 else math.nan
        failed.append(
            f"largest gap {g:.3e} at {n} points is {ratio:.2f} of "
            f"{gaps[0]:.3e} at {sizes[0]} points, above 1/2"
        )
    return "Unknown", profile, (
        f"gap profile not vanishing: {'; '.join(failed)}; not stabilized: it "
        f"moved from {gaps[-2]:.3e} at {sizes[-2]} points, more than 10%"
    )


@dataclass
class MinimalSetEstimate(Report):
    """Outcome of the minimal-set search for one action.

    label is FiniteOrbit, MinimalCircle, MinimalCantor, or Unknown.
    points is a sample of the candidate minimal set (the finite orbit
    itself, or a subsample of the long generator orbit). cells covers
    the candidate set at the working resolution, fixed is the estimated
    fixed-cell set of f, and k_family[l] approximates the intersection
    of h^j-preimages of the fixed set for |j| <= l.
    """

    label: str
    points: np.ndarray
    cells: CellSet
    fixed: CellSet
    k_family: list
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "label": self.label,
            "cells": self.cells.to_json(),
            "fixed_count": len(self.fixed),
            "k_counts": [len(k) for k in self.k_family],
            "diagnostics": jsonable(self.diagnostics),
            "points": np.asarray(self.points, dtype=float)[:2000].tolist(),
        }


def bs_minimal_set(
    action: BSAction, resolution: int = 256, orbit_iterates: int = 100000
) -> MinimalSetEstimate:
    """Locate the minimal set of the action inside the fixed set of f.

    The candidate region is fix(f) estimated by cell displacement; the
    family K_l, l = 0 ... 8, intersects it with dilated forward and
    backward h-images of its own centers, shrinking toward the
    h-invariant part. A start point is picked in the surviving region by
    minimizing f-displacement over a subgrid of each cell that includes
    its exact corners, the lowest cell winning ties, then classified: a
    generator orbit (`finite_bs_orbit` at its default merge_tol, cut
    past 2000 points) that closes gives FiniteOrbit, otherwise the
    h-orbit of orbit_iterates points after GAP_TRANSIENT steps is
    classified by its largest-gap profile. Empty candidate regions (f
    has no fixed points at this tolerance) report Unknown. Raises
    ValueError unless orbit_iterates >= 1.
    """
    if orbit_iterates < 1:
        raise ValueError(f"need orbit_iterates >= 1, got {orbit_iterates}")
    space = action.space
    P = fixed_cells(action.f, resolution)
    diag = {
        "resolution": resolution,
        "fixed_count": len(P),
        # labels rest on finite orbits and grid gap statistics, not on
        # invariant-measure hypotheses; they are evidence, not certificates
        "evidence": "finite orbit and gap statistics",
    }
    if len(P) == 0:
        diag["reason"] = "no cells with small f-displacement"
        return MinimalSetEstimate(
            "Unknown", np.zeros((0,) + space.shape), P, P, [P], diag
        )

    h = action.h
    hinv = h.inverse()
    near = P.dilate()
    # Sample closed cells corner-first: corners sit on invariant circles
    # that centers always miss, and under an expanding h the preimage of
    # the fixed band is thinner than one cell after a few steps. A cell
    # stays while some forward and some backward sample lands in the
    # dilated fixed set.
    corners, picks = _CELL_SAMPLES[space]
    cells_now = P.cells
    offs = space.grid(corners) / (corners - 1)
    fwd = (cells_now[:, None] + offs) / resolution
    bwd = fwd.copy()
    family = [P]
    for _ in range(8):
        fwd = wrap(h.raw(fwd))
        bwd = wrap(hinv.raw(bwd))
        keep = _any_sample(near.contains(fwd)) & _any_sample(near.contains(bwd))
        cells_now = cells_now[keep]
        fwd = fwd[keep]
        bwd = bwd[keep]
        family.append(CellSet(resolution, space, cells_now))
    K = family[-1]
    diag["k_counts"] = [len(k) for k in family]

    seed_region = K if len(K) else P
    diag["k_empty"] = len(K) == 0
    # the subgrids of every surviving cell, in cell order so that the
    # lowest cell wins ties: near a parabolic fixed point f flags the
    # cells beside it too, and the lowest need not hold the point
    cells = seed_region.cells.reshape(-1, space.dim)
    ticks = np.linspace(cells / resolution, (cells + 1) / resolution, picks, axis=-1)
    sub = space.grid(picks).reshape(-1, space.dim)
    cand = ticks[:, np.arange(space.dim), sub].reshape((-1,) + space.shape)
    x0 = cand[int(np.argmin(space.dist(action.f.raw(cand), cand)))]
    diag["start"] = x0.tolist()

    orb = finite_bs_orbit(action, x0, max_size=2000)
    diag["orbit_closed"] = orb.closed
    diag["orbit_size"] = orb.size
    if orb.closed:
        diag["orbit_defect"] = orb.defect
        cells = CellSet.from_points(orb.points, resolution, space)
        return MinimalSetEstimate(
            "FiniteOrbit", orb.points, cells, P, family, diag
        )
    diag["orbit_reason"] = orb.reason

    pts = orbit_arrays(h, x0, int(orbit_iterates), GAP_TRANSIENT)[0]
    columns = list(pts.reshape(len(pts), space.dim).T)
    if len(columns) > 1:
        # classify the coordinate whose projection leaves the narrowest gap
        gaps = [_largest_gap(c) for c in columns]
        diag["axis"] = axis = gaps.index(min(gaps))
        diag["axis_gaps"] = gaps
        columns = [columns[axis]]
    coords = columns[0]

    label, diag["gap_profile"], reason = gap_profile_label(coords, resolution)
    if reason is not None:
        diag["reason"] = reason

    N = coords.shape[0]
    stride = max(1, N // 5000)
    sample = pts[::stride]
    cells = CellSet.from_points(pts, resolution, space)
    return MinimalSetEstimate(label, sample, cells, P, family, diag)
