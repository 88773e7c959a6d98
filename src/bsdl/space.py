"""The two spaces the package models, the circle R/Z and the torus
(R/Z)^2, as one `Space` type with exactly two instances.

A Space is the string "circle" or "torus", so it compares, hashes and
serializes as that name, and it carries what the estimators need to
treat both spaces alike. Points are float arrays of trailing shape
`shape`: () on the circle, (2,) on the torus. Grid cells are not a
Space's: they live in `estimators.CellSet`.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import CircleLift, circle_dist
from .torus import TorusLift, torus_dist

__all__ = ["Space", "CIRCLE", "TORUS", "SPACES", "space_of"]


class Space(str):
    """The circle or the torus: dimension, metric and product lattices."""

    def __new__(cls, name, shape, dist):
        self = super().__new__(cls, name)
        self.shape = shape
        self.dim = math.prod(shape)
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


CIRCLE = Space("circle", (), circle_dist)
TORUS = Space("torus", (2,), torus_dist)
SPACES = {CIRCLE: CIRCLE, TORUS: TORUS}


def space_of(lift) -> Space:
    """The space a circle or torus lift acts on."""
    if isinstance(lift, CircleLift):
        return CIRCLE
    if isinstance(lift, TorusLift):
        return TORUS
    raise TypeError(f"not a circle or torus lift: {type(lift).__name__}")
