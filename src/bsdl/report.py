"""The one rule that turns a result into plain JSON.

`jsonable` walks a value: a Fraction becomes [num, den], a numpy scalar
its Python value, an ndarray its `tolist()`, a `Report` its `to_json()`,
another dataclass or a named tuple the dict of its fields, a dict a dict
with string keys, and a list or tuple a list. A result's JSON is
`Report.to_json`, its fields, `points` cut to its first `POINT_SAMPLE`
rows; a result that renames or truncates other fields overrides
`to_json`, and `jsonable` honours the override wherever the result sits,
so it writes the same JSON nested or not.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

__all__ = ["POINT_SAMPLE", "Report", "jsonable"]


_PLAIN = {str, int, float, bool, type(None)}
POINT_SAMPLE = 2000  # the most points a report writes; the result keeps all


def jsonable(x):
    """x as plain JSON values: dicts, lists, str, int, float, bool, None."""
    if type(x) in _PLAIN:
        return x
    if isinstance(x, Report):
        return x.to_json()
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return {k: jsonable(v) for k, v in zip(x._fields, x)}
    if isinstance(x, (list, tuple)):
        # the bulk of a report is lists of floats (its points), which
        # skip the call
        return [v if type(v) in _PLAIN else jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, Fraction):
        return [int(x.numerator), int(x.denominator)]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


class Report:
    """A dataclass result. Its JSON is its fields, through `jsonable`, and
    at most `POINT_SAMPLE` rows of `points`; a subclass whose JSON differs
    otherwise overrides `to_json`, and returns plain JSON values from it."""

    def to_json(self):
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            out[f.name] = jsonable(v[:POINT_SAMPLE] if f.name == "points" else v)
        return out
