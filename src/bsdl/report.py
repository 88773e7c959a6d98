"""The one rule that turns a result into plain JSON.

`jsonable` walks a value: a Fraction becomes [num, den], a numpy scalar
its Python value, an ndarray its `tolist()`, a dataclass the dict of its
fields, a dict a dict with string keys, a list or tuple a list, and a
frozenset a sorted list. A result whose JSON is exactly its fields
inherits `Report.to_json`; one whose JSON differs (derived flags,
renamed or truncated fields, exact rationals) writes its own.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

__all__ = ["Report", "jsonable"]


_PLAIN = {str, int, float, bool, type(None)}


def jsonable(x):
    """x as plain JSON values: dicts, lists, str, int, float, bool, None."""
    if type(x) in _PLAIN:
        return x
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
    if isinstance(x, frozenset):
        return [jsonable(v) for v in sorted(x)]
    return x


class Report:
    """A dataclass result whose JSON is its fields, through `jsonable`."""

    def to_json(self):
        return jsonable(self)
