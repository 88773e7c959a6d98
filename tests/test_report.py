"""The one JSON writer: `bsdl.report.jsonable` and `Report.to_json`.

The results whose JSON is exactly their fields inherit `Report.to_json`.
Reference copies of the methods it replaced (below) must give the same
`json.dumps(..., sort_keys=True)` text, so every key, type and float
bit, on the results of every catalog entry. `RelationReport` holds its
derived flags as fields, and `RotationNumberEstimate` its witness as a
named tuple. `FaithfulnessDecision` came after the methods; its
reference writes the fields it is documented to have. The three
results that override `to_json` are checked against their former
methods too: `TrichotomyReport`, which renames the witness point to
`angle`, `MinimalSetEstimate`, which counts its cell sets, and
`RotationConstraintReport`, which writes exact rationals.

A report writes at most `POINT_SAMPLE` = 2000 points, the first rows of
its `points`: the references of `FiniteOrbit` and `MinimalSetEstimate`
cut their points there.

`jsonable` writes a result nested in another value as it writes it
alone, for every result type.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from bsdl import estimators
from bsdl.bsgroup import (
    FaithfulnessDecision,
    FiniteOrbit,
    RelationReport,
    faithfulness,
    finite_bs_orbit,
    relation_report,
)
from bsdl.catalog import CATALOG, build_action
from bsdl.circle import RotationNumberEstimate, parse_k_spec, rotation_number
from bsdl.estimators import (
    CellSet,
    DifferentialReport,
    MinimalSetEstimate,
    bs_minimal_set,
    differential_at,
    fixed_cells,
)
from bsdl.experiments import TrichotomyReport
from bsdl.gl2z import IntMatrix2
from bsdl.report import POINT_SAMPLE, Report, jsonable
from bsdl.space import CIRCLE
from bsdl.torus import (
    ConjugacyRotationReport,
    RotationConstraintReport,
    RotationSetEstimate,
    RotationVectorEstimate,
    bs_rotation_constraint,
    conjugate_rotation_set_check,
    rotation_set,
    rotation_vector,
)

# ---------------------------------------------------------------------------
# reference: the hand-written to_json methods that Report replaced


def ref_finite_orbit(self):
    return {
        "size": self.size,
        "closed": self.closed,
        "merge_tol": self.merge_tol,
        "defect": self.defect,
        "reason": self.reason,
        "points": self.points[:2000].tolist(),
    }


def ref_cell_set(self):
    return {
        "resolution": self.resolution,
        "space": self.space,
        "cells": sorted(self.cells.tolist()),
    }


def ref_differential(self):
    return {
        "jacobian": [[float(v) for v in row] for row in self.jacobian],
        "moduli": [float(m) for m in self.moduli],
        "step": self.step,
        "richardson": self.richardson,
        "converged": self.converged,
        "seam_distance": self.seam_distance,
    }


def ref_rotation_vector(self):
    return {
        "value": [float(self.value[0]), float(self.value[1])],
        "iterates_used": self.iterates_used,
        "error_bound": self.error_bound,
    }


def ref_rotation_set(self):
    return {
        "vertices": [[float(x), float(y)] for x, y in np.atleast_2d(self.vertices)],
        "diameter": self.diameter,
        "is_point": self.is_point,
        "error_bound": self.error_bound,
        "grid": self.grid,
        "iterates_used": self.iterates_used,
    }


def ref_conjugacy(self):
    return {
        "hausdorff": self.hausdorff,
        "tolerance": self.tolerance,
        "consistent": self.consistent,
        "mapped_vertices": [
            [float(x), float(y)] for x, y in np.atleast_2d(self.mapped_vertices)
        ],
        "target_vertices": [
            [float(x), float(y)] for x, y in np.atleast_2d(self.target_vertices)
        ],
    }


def ref_trichotomy(self):
    rho = self.rotation_number
    w = rho.rational_witness
    return {
        "outcome": self.outcome,
        "rotation_number": {
            "value": rho.value,
            "iterates_used": rho.iterates_used,
            "error_bound": rho.error_bound,
            "rational_witness": None
            if w is None
            else {"p": w[0], "q": w[1], "angle": w[2], "residual": w[3]},
        },
        "evidence": self.evidence,
        "orbit": None if self.orbit is None else ref_finite_orbit(self.orbit),
    }


def ref_relation(self):
    return {
        "primary_residual": self.primary_residual,
        "primary_tol": self.primary_tol,
        "primary_passed": self.primary_passed,
        "secondary_residual": self.secondary_residual,
        "secondary_tol": self.secondary_tol,
        "secondary_passed": self.secondary_passed,
        "passed": self.passed,
        "grid": self.grid,
        "space": self.space,
    }


def ref_faithfulness(self):
    return {
        "N": self.N,
        "faithful": self.faithful,
        "exact": self.exact,
        "witness": self.witness,
        "displacement": self.displacement,
        "reason": self.reason,
    }


def ref_rotation_number(self):
    w = None
    if self.rational_witness is not None:
        p, q, x, res = self.rational_witness
        w = {"p": int(p), "q": int(q), "x": float(x), "residual": float(res)}
    return {
        "value": self.value,
        "iterates_used": self.iterates_used,
        "rational_witness": w,
        "error_bound": self.error_bound,
    }


def ref_minimal_set(self):
    return {
        "label": self.label,
        "cells": ref_cell_set(self.cells),
        "fixed_count": len(self.fixed),
        "k_counts": [len(k) for k in self.k_family],
        "diagnostics": self.diagnostics,
        "points": np.asarray(self.points, dtype=float)[:2000].tolist(),
    }


def ref_rotation_constraint(self):
    m = self.matrix
    return {
        "n": self.n,
        "constraint_matrix": [[m.a, m.b], [m.c, m.d]],
        "q_float": [float(self.q_float[0]), float(self.q_float[1])],
        "q_int": [int(self.q_int[0]), int(self.q_int[1])],
        "residual": self.residual,
        "satisfied": self.satisfied,
        "snapped": None
        if self.snapped is None
        else [{"num": q.numerator, "den": q.denominator} for q in self.snapped],
    }


REFERENCE = {
    FiniteOrbit: ref_finite_orbit,
    CellSet: ref_cell_set,
    DifferentialReport: ref_differential,
    RotationVectorEstimate: ref_rotation_vector,
    RotationSetEstimate: ref_rotation_set,
    ConjugacyRotationReport: ref_conjugacy,
    TrichotomyReport: ref_trichotomy,
    RelationReport: ref_relation,
    FaithfulnessDecision: ref_faithfulness,
    RotationNumberEstimate: ref_rotation_number,
    MinimalSetEstimate: ref_minimal_set,
    RotationConstraintReport: ref_rotation_constraint,
}

# ---------------------------------------------------------------------------


def text(payload):
    # the CLI's rule: sorted keys, every bit of each float
    return json.dumps(jsonable(payload), sort_keys=True)


def assert_plain(v):
    """v holds only the types json writes natively, no numpy scalars."""
    if isinstance(v, dict):
        assert all(type(k) is str for k in v), v
        for x in v.values():
            assert_plain(x)
    elif isinstance(v, list):
        for x in v:
            assert_plain(x)
    else:
        # a Space is a str
        assert isinstance(v, str) or type(v) in (int, float, bool, type(None)), v


def assert_same_as_reference(result):
    new = result.to_json()
    assert_plain(new)
    assert json.dumps(new, sort_keys=True) == text(REFERENCE[type(result)](result))


def results_of(name):
    """One of each fields-only result from the catalog entry `name`."""
    act = build_action(name)
    space = act.space
    origin = np.zeros(space.shape)
    out = [
        finite_bs_orbit(act, origin),
        fixed_cells(act.f, resolution=32),
        CellSet(32, space),
        differential_at(act.f, origin),
        differential_at(act.h, origin),
        relation_report(act, grid=64),
        faithfulness(act),
    ]
    if space == "circle":
        out.append(rotation_number(act.f, iterates=500))
        out.append(rotation_number(act.h, iterates=500))
    if space == "torus":
        out.append(rotation_vector(act.f, iterates=500))
        out.append(rotation_set(act.f, grid=4, iterates=200))
        out.append(
            conjugate_rotation_set_check(
                act.f, act.f, IntMatrix2.identity(), grid=3, iterates=200
            )
        )
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fields_match_the_former_methods(name):
    results = results_of(name)
    assert all(isinstance(r, Report) for r in results)
    for r in results:
        assert_same_as_reference(r)


def test_cover_every_former_method():
    kinds = {type(r) for name in CATALOG for r in results_of(name)}
    overrides = {TrichotomyReport, MinimalSetEstimate, RotationConstraintReport}
    assert kinds == set(REFERENCE) - overrides


@pytest.mark.parametrize("witness", [None, (1, 3, 0.25, 1e-12)])
def test_trichotomy_renames_only_the_witness_point(witness):
    rho = RotationNumberEstimate(1 / 3, 1000, witness, 1e-3)
    orbit = finite_bs_orbit(build_action("product", k="rot:1/3"), np.zeros(2))
    for rep in (
        TrichotomyReport(rho, "FiniteOrbits", {"cells": [3, 3]}, orbit),
        TrichotomyReport(rho, "Unknown"),
    ):
        assert_same_as_reference(rep)
        w = rep.to_json()["rotation_number"]["rational_witness"]
        assert w is None or set(w) == {"p", "q", "angle", "residual"}


def test_reports_write_one_point_sample():
    # every report that carries points writes their first POINT_SAMPLE
    # rows, nested or not; the result keeps them all, and an orbit's size
    # keeps the whole count
    assert POINT_SAMPLE == 2000 and estimators.POINT_SAMPLE is POINT_SAMPLE
    line = np.linspace(0.0, 1.0, POINT_SAMPLE + 7, endpoint=False)
    plane = np.stack([line, line[::-1]], axis=1)
    cells = CellSet(8, CIRCLE)
    rho = RotationNumberEstimate(0.5, 10, None, 1e-3)
    for pts in (line, plane):
        orb = FiniteOrbit(pts, len(pts), False, 1e-6, None, "cut at max_size")
        est = MinimalSetEstimate("Unknown", pts, cells, cells, [cells])
        tri = TrichotomyReport(rho, "Unknown", {}, orb)
        for sample in (
            orb.to_json()["points"],
            est.to_json()["points"],
            jsonable([tri])[0]["orbit"]["points"],
        ):
            assert sample == pts[:POINT_SAMPLE].tolist()
        assert len(orb.points) == orb.to_json()["size"] == POINT_SAMPLE + 7
        short = FiniteOrbit(pts[:5], 5, True, 1e-6, 0.0)
        assert short.to_json()["points"] == pts[:5].tolist()


class TestJsonable:
    def test_fraction_is_a_pair(self):
        assert jsonable(Fraction(4, -6)) == [-2, 3]
        assert jsonable({"q": (Fraction(1, 2), 3)}) == {"q": [[1, 2], 3]}

    def test_numpy_scalars_become_python_values(self):
        out = jsonable([np.float64(0.1), np.int64(-3), np.bool_(True), np.float32(0.5)])
        assert out == [0.1, -3, True, 0.5]
        assert [type(v) for v in out] == [float, int, bool, float]

    def test_ndarray_goes_through_tolist(self):
        a = np.array([[0.1, -0.0], [np.pi, 2.5]])
        assert jsonable(a) == a.tolist()
        assert json.dumps(jsonable(a)) == "[[0.1, -0.0], [3.141592653589793, 2.5]]"
        assert jsonable(np.zeros((0, 2))) == []
        assert jsonable(np.array(7)) == 7

    def test_dataclass_becomes_its_fields_and_keys_become_strings(self):
        @dataclasses.dataclass
        class Pair:
            p: int
            q: Fraction

        assert jsonable(Pair(1, Fraction(2, 3))) == {"p": 1, "q": [2, 3]}
        assert jsonable({1: None, "a": "b"}) == {"1": None, "a": "b"}
        assert jsonable(Pair) is Pair


# ---------------------------------------------------------------------------
# nested and top-level JSON


def _trichotomy():
    rho = rotation_number(parse_k_spec("rot:1/3"), iterates=1000)
    orbit = finite_bs_orbit(build_action("product", k="rot:1/3"), np.zeros(2))
    return TrichotomyReport(rho, "FiniteOrbits", {"q": np.int64(3)}, orbit)


# one result of each type; those that derive, rename or truncate fields
# with their witnesses, flags and numpy diagnostics in place
BUILDERS = {
    FiniteOrbit: lambda: finite_bs_orbit(build_action("product"), np.zeros(2)),
    RelationReport: lambda: relation_report(build_action("standard-torus"), grid=64),
    FaithfulnessDecision: lambda: faithfulness(build_action("periodic-torus")),
    RotationNumberEstimate: lambda: rotation_number(parse_k_spec("rot:1/3"), iterates=1000),
    CellSet: lambda: fixed_cells(build_action("standard-torus").f, resolution=8),
    DifferentialReport: lambda: differential_at(build_action("standard-torus").h, np.zeros(2)),
    MinimalSetEstimate: lambda: bs_minimal_set(
        build_action("nonfaithful-circle"), resolution=32, orbit_iterates=2000
    ),
    TrichotomyReport: _trichotomy,
    RotationVectorEstimate: lambda: rotation_vector(
        build_action("standard-torus").f, iterates=200
    ),
    RotationSetEstimate: lambda: rotation_set(
        build_action("standard-torus").f, grid=3, iterates=100
    ),
    ConjugacyRotationReport: lambda: conjugate_rotation_set_check(
        build_action("product").f,
        build_action("product").f,
        IntMatrix2.identity(),
        grid=3,
        iterates=100,
    ),
    RotationConstraintReport: lambda: bs_rotation_constraint(
        (0.25, 0.5), IntMatrix2.from_rows((1, 1), (0, 1)), 3
    ),
}


def report_types(cls=Report):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | report_types(sub)
    return out


def test_every_result_type_has_a_builder():
    assert set(BUILDERS) == report_types()


@pytest.mark.parametrize("kind", list(BUILDERS), ids=lambda k: k.__name__)
def test_nested_json_is_top_level_json(kind):
    r = BUILDERS[kind]()
    assert type(r) is kind
    top = r.to_json()
    assert_plain(top)
    assert jsonable({"r": r}) == {"r": top}
    assert jsonable([r]) == [top]
    assert text({"r": r}) == json.dumps({"r": top}, sort_keys=True)
    assert_same_as_reference(r)
