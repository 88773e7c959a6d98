"""Letter sequences over a, b and their inverses A, B, for the group
tests: `element(letters, n)` is their product in the affine model
x -> n^k x + w, as the pair (k, w), and `apply_letters(action, letters,
x)` applies the letters one `raw` call each, the rightmost first.
"""

from fractions import Fraction

import numpy as np

# a: x -> n x and b: x -> x + 1, as (k, w) steps
_STEPS = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}


def element(letters, n):
    """(k, w) of the product of the letters, composed left to right."""
    k, w = 0, Fraction(0)
    for c in letters:
        dk, dw = _STEPS[c]
        w += dw * Fraction(n) ** k
        k += dk
    return k, w


def apply_letters(action, letters, x):
    """The letters applied to x one `raw` call each, rightmost first."""
    y = np.asarray(x, dtype=float)
    for c in reversed(letters):
        g = action.h if c in "aA" else action.f
        y = (g if c.islower() else g.inverse()).raw(y)
    return y
