"""The two spaces the package models, the circle R/Z and the torus
(R/Z)^2, as one `Space` type with exactly two instances.

A Space is the string "circle" or "torus", so it compares, hashes and
serializes as that name, and it carries what the estimators need to
treat both spaces alike. Points are float arrays of trailing shape
`shape`: () on the circle, (2,) on the torus. Grid cells of a uniform
partition with `resolution` cells per axis are Python ints on the
circle and int pairs on the torus.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import CircleLift, circle_dist, wrap
from .torus import TorusLift, torus_dist

__all__ = ["Space", "CIRCLE", "TORUS", "SPACES", "space_of", "cell_index"]


class Space(str):
    """The circle or the torus: dimension, metric, product lattices and
    grid cells."""

    def __new__(cls, name, shape, cell_keys, dist):
        self = super().__new__(cls, name)
        self.shape = shape
        self.dim = math.prod(shape)
        # cells from `dim` lists of int coordinates
        self._cell_keys = cell_keys
        self.dist = dist
        return self

    def __reduce__(self):
        # copies and pickles stay the module's instance
        return self.upper()

    def product(self, axes):
        """Points of the product of `dim` coordinate arrays, the first
        axis varying slowest, as a (k,) + shape array."""
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape((-1,) + self.shape)

    def grid(self, side: int):
        """The integer points of {0, ..., side - 1}^dim."""
        return self.product([np.arange(side)] * self.dim)

    def lattice(self, count: int):
        """About `count` evenly spaced sample points, at least two per axis."""
        side = max(2, round(count ** (1.0 / self.dim)))
        return self.grid(side) / side

    def parse_point(self, text: str):
        """A point from `dim` comma-separated coordinates."""
        parts = [float(p) for p in text.split(",")]
        if len(parts) != self.dim:
            raise ValueError(
                f"a {self} point has {self.dim} comma-separated "
                f"coordinate(s), got {text!r}"
            )
        return np.reshape(parts, self.shape)

    def cells(self, idx):
        """The cells of an int array of shape (k,) + shape, as a frozenset."""
        return frozenset(self._cell_keys(*idx.reshape(-1, self.dim).T.tolist()))

    def cell_array(self, cells):
        """Cells, in iteration order, as an int array of shape (k,) + shape."""
        return np.array(list(cells), dtype=int).reshape((-1,) + self.shape)

    def flat(self, idx, resolution: int):
        """Position of each cell of an int array of shape (...) + shape in
        the flattened grid, first axis slowest."""
        lead = idx.shape[: idx.ndim - len(self.shape)]
        return idx.reshape(lead + (self.dim,)) @ self._place(resolution)

    def cells_of(self, points, resolution: int):
        """Cells hit by an array of points (wrapped first)."""
        flat = np.unique(self.flat(cell_index(points, resolution), resolution))
        return self.cells(flat[:, None] // self._place(resolution) % resolution)

    def _place(self, resolution):
        # the weight of each axis in a flat grid position
        return resolution ** np.arange(self.dim - 1, -1, -1)


def cell_index(points, resolution: int):
    """Grid cell of each point, wrapped first, as int coordinates.

    Raises ValueError on a non-finite coordinate, which lies in no cell.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("a point with a non-finite coordinate lies in no grid cell")
    return np.minimum((wrap(points) * resolution).astype(int), resolution - 1)


CIRCLE = Space("circle", (), lambda i: i, circle_dist)
TORUS = Space("torus", (2,), zip, torus_dist)
SPACES = {CIRCLE: CIRCLE, TORUS: TORUS}


def space_of(lift) -> Space:
    """The space a circle or torus lift acts on."""
    if isinstance(lift, CircleLift):
        return CIRCLE
    if isinstance(lift, TorusLift):
        return TORUS
    raise TypeError(f"not a circle or torus lift: {type(lift).__name__}")
