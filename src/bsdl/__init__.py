"""Dynamics of the solvable Baumslag-Solitar groups BS(1,n) on the circle and the 2-torus.

The package builds pairs of homeomorphism lifts (f, h) satisfying
h o f o h^-1 = f^n, estimates rotation numbers and rotation sets,
locates invariant circles and minimal sets, classifies the linear data
of torus actions exactly over the integers, and ships a catalog of
worked actions plus a numbered acceptance battery reproducing their
headline dynamics.
"""

from .gl2z import (
    IntMatrix2,
    finite_order,
    conjugate_in_gl2z,
)
from .circle import (
    CircleLift,
    RotationLift,
    ChartAffineLift,
    PiecewiseLift,
    DenjoyLift,
    RotationNumberEstimate,
    compose,
    rotation_number,
    denjoy_lift,
    circle_dist,
    wrap,
    parse_k_spec,
)
from .torus import (
    TorusLift,
    ProductTorusLift,
    LinearTorusLift,
    RotationVectorEstimate,
    RotationSetEstimate,
    rotation_vector,
    rotation_set,
    conjugate_rotation_set_check,
    bs_rotation_constraint,
    torus_dist,
)
from .space import Space, CIRCLE, TORUS, space_of
from .bsgroup import (
    BSAction,
    FiniteOrbit,
    make_action,
    relation_report,
    relation_residual,
    torsion_period,
    faithfulness,
    finite_bs_orbit,
)
from .catalog import (
    CATALOG,
    build_action,
    standard_line,
    standard_torus,
    product_action,
    periodic_circle_example,
    periodic_torus_example,
    perturbed_torus,
    morse_smale_example,
    nonfaithful_circle,
)
from .estimators import (
    CellSet,
    MinimalSetEstimate,
    DifferentialReport,
    fixed_cells,
    bs_minimal_set,
    differential_at,
)
from .experiments import (
    InvariantCircleEstimate,
    TrichotomyReport,
    GraphFoldError,
    NonConvergentError,
    find_invariant_circle,
    restricted_circle_map,
    classify_perturbed,
    persistent_fixed_point,
    near_identity_diffeo,
    conjugated_action,
)

# the earlier name of `compose` for torus lifts
compose2 = compose
__version__ = "0.1.0"


def __getattr__(name):
    # the acceptance battery, and the hashlib it loads, is imported on
    # first use, so a CLI start does not pay for it
    if name == "run_all":
        from .acceptance import run_all

        return run_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "IntMatrix2", "finite_order", "conjugate_in_gl2z",
    "CircleLift", "RotationLift", "ChartAffineLift", "PiecewiseLift",
    "DenjoyLift",
    "RotationNumberEstimate", "compose", "rotation_number", "denjoy_lift",
    "circle_dist", "wrap",
    "parse_k_spec",
    "TorusLift", "ProductTorusLift", "LinearTorusLift",
    "RotationVectorEstimate", "RotationSetEstimate", "compose2",
    "rotation_vector", "rotation_set", "conjugate_rotation_set_check",
    "bs_rotation_constraint", "torus_dist",
    "Space", "CIRCLE", "TORUS", "space_of",
    "BSAction", "FiniteOrbit", "make_action", "relation_report",
    "relation_residual", "torsion_period", "faithfulness", "finite_bs_orbit",
    "CATALOG", "build_action",
    "standard_line", "standard_torus", "product_action",
    "periodic_circle_example", "periodic_torus_example", "perturbed_torus",
    "morse_smale_example", "nonfaithful_circle",
    "CellSet", "MinimalSetEstimate", "DifferentialReport", "fixed_cells",
    "bs_minimal_set", "differential_at",
    "InvariantCircleEstimate", "TrichotomyReport",
    "GraphFoldError", "NonConvergentError",
    "find_invariant_circle", "restricted_circle_map", "classify_perturbed",
    "persistent_fixed_point",
    "near_identity_diffeo", "conjugated_action",
    "run_all",
]
