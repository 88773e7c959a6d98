"""`classify_perturbed` steps the restricted circle map along one orbit.

Checked against a reference copy of the version it replaced (below),
which stepped that orbit twice: once in `rotation_number` for the
Birkhoff sum, through a callable lift on the graph, and once
more from 0 for the gap profile. Both give the same report, bit for
bit, on conjugated actions (graph restrictions) at a rational and an
irrational fiber angle, and on product actions (the exact fiber, with
and without a closed-form power).
"""

import json
import math

import numpy as np
import pytest

from bsdl.bsgroup import finite_bs_orbit
from bsdl.catalog import perturbed_torus, product_action
from bsdl.circle import (
    INVERSE_TOL,
    CircleLift,
    RotationNumberEstimate,
    orbit_arrays,
    wrap,
)
from bsdl.estimators import CellSet, fixed_cells, gap_profile_label
from bsdl.experiments import (
    GraphRestriction,
    TrichotomyReport,
    classify_perturbed,
    conjugated_action,
    find_invariant_circle,
    near_identity_diffeo,
    restricted_circle_map,
)
from bsdl.torus import ProductTorusLift

from lifts import callable_lift, iterate

# ---------------------------------------------------------------------------
# reference: the two-orbit classify_perturbed, its closure restriction and
# the rotation_number it called


def ref_restricted_circle_map(h, circle):
    if circle.spread() < 1e-12 and isinstance(h, ProductTorusLift):
        return h.fiber, "product-fiber"

    def angle_map(t):
        t = np.asarray(t, dtype=float)
        u = np.asarray(circle.at(t), dtype=float)
        return h.raw(np.stack([u, np.broadcast_to(t, u.shape)], axis=-1))[..., 1]

    return callable_lift(angle_map, label="h on invariant circle"), "graph"


def ref_rotation_number(F, iterates, q_max, tol=1e-8, x0=0.0, cert_grid=256):
    total = None
    if type(F).power is not CircleLift.power:  # a closed-form power
        try:
            total = iterate(F, x0, iterates) - x0
        except ValueError:
            pass
    if total is None:
        points, images = orbit_arrays(F, x0, iterates)
        total = sum((images - points).tolist())
    value = float(wrap(total / iterates))
    witness = None
    xs = np.arange(cert_grid) / cert_grid
    ys = xs.copy()
    for q in range(1, q_max + 1):
        ys = F.raw(ys)
        disp = ys - xs
        p = np.round(disp)
        resid = np.abs(disp - p)
        i = int(np.argmin(resid))
        if resid[i] < tol and abs(p[i]) <= q:
            witness = (int(p[i]), q, float(xs[i]), float(resid[i]))
            break
    return RotationNumberEstimate(
        value=value,
        iterates_used=int(iterates),
        rational_witness=witness,
        error_bound=1.0 / iterates + INVERSE_TOL,
    )


def ref_classify_perturbed(
    action, circle, resolutions, orbit_iterates, transient=200, q_max=64,
    merge_tol=1e-6, max_orbit=5000,
):
    evidence = {
        "circle_residual": circle.residual,
        "circle_spread": circle.spread(),
    }
    P = fixed_cells(action.f, resolutions[0])
    dense_t = np.arange(4 * resolutions[0]) / (4 * resolutions[0])
    circle_pts = np.stack([wrap(circle.at(dense_t)), dense_t], axis=-1)
    circ_cells0 = CellSet.from_points(circle_pts, resolutions[0], "torus")
    meets = len(P.intersect(circ_cells0)) > 0
    evidence["fixed_cells"] = len(P)
    evidence["fixed_meets_circle"] = meets

    restriction, kind = ref_restricted_circle_map(action.h, circle)
    evidence["restriction"] = kind
    rho = ref_rotation_number(restriction, orbit_iterates, q_max)

    if not meets:
        evidence["reason"] = "f-fixed cells never meet the circle"
        return TrichotomyReport(rho, "Unknown", evidence)

    if rho.rational_witness is not None:
        p, q, angle, wres = rho.rational_witness
        evidence["witness"] = {"p": p, "q": q, "angle": angle, "residual": wres}
        x0 = np.array([wrap(float(circle.at(angle))), wrap(angle)])
        orb = finite_bs_orbit(action, x0, merge_tol=merge_tol, max_size=max_orbit)
        evidence["orbit_size"] = orb.size
        evidence["orbit_closed"] = orb.closed
        if orb.closed:
            evidence["orbit_defect"] = orb.defect
            return TrichotomyReport(rho, "FiniteOrbits", evidence, orb)
        evidence["reason"] = f"rational witness but the orbit is open: {orb.reason}"
        return TrichotomyReport(rho, "Unknown", evidence, orb)

    angles = orbit_arrays(restriction, 0.0, int(orbit_iterates), transient)[0]
    label, evidence["gap_profile"], reason = gap_profile_label(
        angles, min(resolutions)
    )

    orbit_pts = np.stack([wrap(circle.at(angles)), angles], axis=-1)
    per_res = []
    all_strict = True
    for R in resolutions:
        tg = np.arange(4 * R) / (4 * R)
        cpts = np.stack([wrap(circle.at(tg)), tg], axis=-1)
        ccells = CellSet.from_points(cpts, R, "torus")
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


# ---------------------------------------------------------------------------


def assert_same_report(action, circle, **kw):
    new = classify_perturbed(action, circle, **kw)
    ref = ref_classify_perturbed(action, circle, **kw)
    # json text keeps the sign of zero and every bit of each float
    assert json.dumps(new.to_json()) == json.dumps(ref.to_json())
    return new


# n = 2 at log 2 ends MinimalCircle, n = 3 at log 3 Unknown at this size;
# 2/5 and 3/7 end FiniteOrbits
@pytest.mark.parametrize(
    "n, angle, outcome",
    [(2, None, "MinimalCircle"), (3, None, "Unknown"),
     (2, 2 / 5, "FiniteOrbits"), (3, 3 / 7, "FiniteOrbits")],
)
def test_graph_restriction_matches_two_orbit_reference(n, angle, outcome):
    eps = 0.0 if angle is None else angle - math.log(n)
    act = conjugated_action(perturbed_torus(n, eps), near_identity_diffeo(1e-3, seed=7))
    circle = find_invariant_circle(act.h, 0.0, samples=256)
    assert isinstance(restricted_circle_map(act.h, circle)[0], GraphRestriction)
    rep = assert_same_report(act, circle, resolutions=(64, 128), orbit_iterates=2000)
    assert rep.outcome == outcome
    assert rep.evidence["restriction"] == "graph"


@pytest.mark.parametrize(
    "action",
    [
        perturbed_torus(2, 1e-3),  # a rotation fiber: closed-form power
        perturbed_torus(2, 0.7 - math.log(2.0)),
        product_action(2, "denjoy:ln2,11,0.45"),  # a fiber that steps
    ],
    ids=["rotation", "rational-rotation", "denjoy"],
)
def test_product_fiber_matches_two_orbit_reference(action):
    circle = find_invariant_circle(action.h, 0.0)
    rep = assert_same_report(action, circle, resolutions=(64, 128), orbit_iterates=3000)
    assert rep.evidence["restriction"] == "product-fiber"


def test_invalid_orbit_lengths_are_refused():
    with pytest.raises(ValueError, match="orbit_iterates >= 1"):
        classify_perturbed(perturbed_torus(2, 1e-3), orbit_iterates=0)
