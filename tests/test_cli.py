import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bsdl import cli, experiments
from bsdl.bsgroup import RelationReport, finite_bs_orbit
from bsdl.catalog import CATALOG, build_action
from bsdl.experiments import GraphFoldError, NonConvergentError
from bsdl.report import POINT_SAMPLE


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity extensions."""

    def refuse(token):
        raise ValueError(f"non-finite {token} in JSON output")

    return json.loads(text, parse_constant=refuse)


def unknown_action_error(name):
    """The whole stderr of a subcommand given an action not in the catalog:
    the message unquoted, with the known ids."""
    return f"error: unknown action {name!r}; known: {', '.join(sorted(CATALOG))}\n"


class TestCatalog:
    def test_lists_all_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        rows = json.loads(out)
        assert code == cli.OK
        assert len(rows) == 8
        assert {"standard-torus", "morse-smale"} <= {r["id"] for r in rows}

    def test_single_entry_resolves_expected(self, capsys):
        code, out, _ = run(capsys, "catalog", "periodic-circle")
        d = json.loads(out)
        assert code == cli.OK
        assert d["defaults"]["n"] == 3
        assert d["expected"]["minimal_size"] == 2

    @pytest.mark.parametrize("name", ["periodic-circle", "periodic-torus"])
    def test_periodic_entry_at_n_two_is_the_builders_error(self, capsys, name):
        with pytest.raises(ValueError) as built:
            CATALOG[name].build(2)
        code, out, err = run(capsys, "catalog", name, "--n", "2")
        assert code == cli.ERROR
        assert out == ""
        assert err == f"error: {built.value}\n"

    def test_unknown_entry_errors(self, capsys):
        code, _, err = run(capsys, "catalog", "nope")
        assert code == cli.ERROR
        assert err == unknown_action_error("nope")


class TestVerifyRelation:
    def test_standard_torus_passes(self, capsys):
        code, out, _ = run(capsys, "verify-relation", "standard-torus")
        d = json.loads(out)
        assert code == cli.OK
        assert d["passed"] is True
        assert d["grid"] == 10000

    def test_periodic_circle_steps_a_long_power(self, capsys):
        # the second check needs f^1600 of a lift with no closed-form power
        code, out, _ = run(capsys, "verify-relation", "periodic-circle", "--n", "40")
        d = strict_json(out)
        assert code == cli.OK
        assert d["passed"] is True

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_faithfulness_rides_along(self, capsys, name):
        code, out, _ = run(capsys, "verify-relation", name, "--resolution", "64")
        d = strict_json(out)
        assert code == cli.OK
        assert d["faithfulness"]["faithful"] == CATALOG[name].expected["faithful"]

    def test_exit_status_stays_the_relations(self, capsys):
        # the Denjoy fiber's relation is not exact, so --tol 0 fails it;
        # the decision, a kernel element, is still written
        argv = ("nonfaithful-circle", "--k", "denjoy:golden,5,0.3", "--tol", "0")
        code, out, _ = run(capsys, "verify-relation", *argv)
        d = strict_json(out)
        assert (code, d["passed"]) == (cli.INCONCLUSIVE, False)
        assert d["faithfulness"]["faithful"] is False
        assert d["faithfulness"]["exact"] is True

    def test_blocks_narrower_than_an_ulp_are_undecided(self, capsys):
        # at n = 10^21 the relation fuses exactly, but f^(n-1) moves no
        # lattice point, whose blocks of width 1/(n - 1) floats cannot
        # tell apart, and does not fuse to the identity either
        code, out, _ = run(capsys, "verify-relation", "periodic-circle", "--n", str(10**21))
        d = strict_json(out)
        assert (code, d["passed"]) == (cli.OK, True)
        dec = d["faithfulness"]
        assert dec["N"] == 10**21 - 1
        assert (dec["faithful"], dec["exact"]) == (None, False)
        assert "nor fuses to the identity" in dec["reason"]

    def test_unknown_action_errors(self, capsys):
        code, _, err = run(capsys, "verify-relation", "no-such-thing")
        assert code == cli.ERROR
        assert err == unknown_action_error("no-such-thing")


class TestRotationNumber:
    def test_rational_fiber(self, capsys):
        code, out, _ = run(
            capsys,
            "rotation-number",
            "nonfaithful-circle",
            "--k",
            "rot:1/3",
            "--iterates",
            "1000",
        )
        d = json.loads(out)
        assert code == cli.OK
        assert abs(d["value"] - 1.0 / 3.0) < 1e-12
        assert d["rational_witness"]["q"] == 3

    def test_torus_action_rejected(self, capsys):
        code, _, err = run(capsys, "rotation-number", "standard-torus")
        assert code == cli.ERROR
        assert "circle actions" in err


class TestMatrixAndOrbits:
    def test_order_four(self, capsys):
        code, out, _ = run(capsys, "classify-matrix", "0,1,-1,0")
        d = json.loads(out)
        assert code == cli.OK
        assert d["order"] == 4 and d["det"] == 1

    def test_shear_square_not_conjugate(self, capsys):
        code, out, _ = run(capsys, "classify-matrix", "1,1,0,1", "1,2,0,1")
        d = json.loads(out)
        assert code == cli.OK
        assert d["order"] is None
        assert d["conjugator"] is None and d["conjugate"] is False

    def test_equal_invariants_not_conjugate(self, capsys):
        # same trace, det and gcd(b, c, a - d), inequivalent forms
        code, out, _ = run(capsys, "classify-matrix", "--", "-5,-11,6,13", "-4,-7,7,12")
        d = json.loads(out)
        assert code == cli.OK
        assert d["conjugator"] is None and d["conjugate"] is False

    def test_conjugator_beyond_small_entries_is_found(self, capsys):
        code, out, _ = run(capsys, "classify-matrix", "--", "-2001,3575,-1120,2001", "0,-1,-1,0")
        d = json.loads(out)
        assert code == cli.OK
        assert d["conjugate"] is True
        (a, b), (c, e) = d["conjugator"]
        assert abs(a * e - b * c) == 1
        # X B = A X with B = [[0, -1], [-1, 0]], A = [[-2001, 3575], [-1120, 2001]]
        assert [[-b, -a], [-e, -c]] == [
            [-2001 * a + 3575 * c, -2001 * b + 3575 * e],
            [-1120 * a + 2001 * c, -1120 * b + 2001 * e],
        ]

    def test_bad_matrix_errors(self, capsys):
        code, _, err = run(capsys, "classify-matrix", "1,2,3")
        assert code == cli.ERROR
        assert "4 comma-separated" in err

    def test_finite_orbit_closes(self, capsys):
        code, out, _ = run(capsys, "finite-orbit", "product", "--k", "rot:1/3")
        d = json.loads(out)
        assert code == cli.OK
        assert d["size"] == 3 and d["closed"]
        assert d["reason"] is None

    def test_open_orbit_writes_a_point_sample(self, capsys):
        # h and h^-1 step the irrational chain to its cut at 10,001
        # points; the report writes the first POINT_SAMPLE of them
        code, out, _ = run(capsys, "finite-orbit", "nonfaithful-circle", "--k", "rot:golden")
        d = strict_json(out)
        assert code == cli.INCONCLUSIVE and not d["closed"]
        assert d["size"] == 10001 and len(d["points"]) == POINT_SAMPLE
        orb = finite_bs_orbit(build_action("nonfaithful-circle", k="rot:golden"), 0.0)
        assert len(orb.points) == 10001
        assert d["points"] == orb.points[:POINT_SAMPLE].tolist()

    def test_denjoy_near_closure_is_open(self, capsys):
        # an infinite Denjoy orbit squeezed below merge_tol used to
        # report a closed orbit of 9428 points
        code, out, _ = run(
            capsys, "finite-orbit", "nonfaithful-circle", "--k", "denjoy:ln2,11,0.45"
        )
        d = strict_json(out)
        assert code == cli.INCONCLUSIVE
        assert d["closed"] is False
        assert 1e-9 < d["defect"] < d["merge_tol"]
        assert d["reason"].startswith("near-closure at defect ")


class TestEstimatorCommands:
    def test_fixed_set_counts_cells(self, capsys):
        code, out, _ = run(capsys, "fixed-set", "standard-torus", "--resolution", "64")
        d = json.loads(out)
        assert code == cli.OK
        assert d["resolution"] == 64
        assert d["count"] == len(d["cells"]) > 0

    def test_minimal_set_label(self, capsys):
        code, out, _ = run(
            capsys, "minimal-set", "nonfaithful-circle", "--k", "rot:1/3"
        )
        d = json.loads(out)
        assert code == cli.OK
        assert d["label"] == "FiniteOrbit"

    def test_cut_finite_orbit_is_not_a_cantor_set(self, capsys):
        # the group orbit of n - 1 points is cut at 2000, and h fixes the
        # start, so the gap profile sees one point repeated
        code, out, _ = run(
            capsys, "minimal-set", "periodic-circle", "--n", "2500", "--iterates", "20000"
        )
        d = json.loads(out)
        assert code == cli.INCONCLUSIVE
        assert d["label"] == "Unknown"
        assert d["diagnostics"]["orbit_closed"] is False
        assert d["diagnostics"]["reason"].startswith(
            "orbit is periodic: step 1 returns to 0.0e+00 "
        )

    @pytest.mark.parametrize(
        "command, action, label, evidence",
        [
            ("minimal-set", "nonfaithful-circle", "label", "diagnostics"),
            ("trichotomy", "product", "outcome", "evidence"),
        ],
    )
    def test_periodic_orbit_past_the_closure_cap_is_unknown(
        self, capsys, command, action, label, evidence
    ):
        # h rotates by 1/2500: the group orbit is cut at 2000 points, and
        # the float h-orbit comes back near its start at step 2500
        code, out, _ = run(
            capsys, command, action, "--k", "rot:1/2500", "--iterates", "20000"
        )
        d = json.loads(out)
        assert code == cli.INCONCLUSIVE
        assert d[label] == "Unknown"
        assert d[evidence]["reason"].startswith("orbit is periodic: step 2500 ")

    def test_rotation_set_with_constraint(self, capsys):
        code, out, _ = run(
            capsys,
            "rotation-set",
            "standard-torus",
            "--resolution",
            "8",
            "--iterates",
            "500",
        )
        d = json.loads(out)
        assert code == cli.OK
        assert d["estimate"]["is_point"] is True
        assert d["constraint"]["snapped"] == [
            {"num": 0, "den": 1},
            {"num": 0, "den": 1},
        ]

    def test_trichotomy_conclusive(self, capsys):
        code, out, _ = run(capsys, "trichotomy", "product", "--k", "rot:1/3")
        d = json.loads(out)
        assert code == cli.OK
        assert d["outcome"] == "FiniteOrbits"

    def test_persistent_fp_exit_codes(self, capsys):
        code, out, _ = run(capsys, "persistent-fp", "morse-smale")
        d = json.loads(out)
        assert code == cli.OK
        assert d["point"] == [0.0, 0.0]
        code2, out2, _ = run(capsys, "persistent-fp", "standard-torus")
        assert code2 == cli.INCONCLUSIVE
        assert json.loads(out2)["found"] is False


class TestOverflowingPowers:
    # powers like a**(10**5) of an expanding chart map overflow; the
    # estimators fall back to stepping instead of crashing
    def test_trichotomy_finds_the_fixed_orbit(self, capsys):
        code, out, _ = run(capsys, "trichotomy", "morse-smale")
        d = strict_json(out)
        assert code == cli.OK
        assert d["outcome"] == "FiniteOrbits"
        w = d["evidence"]["witness"]
        assert (w["p"], w["q"]) == (0, 1)

    def test_trichotomy_unknown_carries_reason(self, capsys):
        code, out, _ = run(capsys, "trichotomy", "periodic-torus")
        d = strict_json(out)
        assert code == cli.INCONCLUSIVE
        assert d["outcome"] == "Unknown"
        assert d["evidence"]["reason"] == "f-fixed cells never meet the circle"

    @pytest.mark.parametrize("action", ["standard-line", "periodic-circle"])
    def test_rotation_number_of_expanding_generator(self, capsys, action):
        code, out, _ = run(capsys, "rotation-number", action, "--gen", "h")
        d = strict_json(out)
        assert code == cli.OK
        assert d["value"] == 0.0


class TestBadInput:
    def test_nan_parameter_is_an_error(self, capsys):
        code, out, err = run(capsys, "verify-relation", "perturbed-torus", "--eps", "nan")
        assert code == cli.ERROR
        assert out == ""
        assert "eps must be finite, got nan" in err

    def test_non_finite_report_is_an_error(self, capsys, monkeypatch):
        # a report that holds NaN stops at the JSON writer
        report = RelationReport(math.nan, 1e-8, 0.0, 1e-6, 10000, "torus")
        monkeypatch.setattr(cli, "relation_report", lambda *a, **kw: report)
        code, out, err = run(capsys, "verify-relation", "standard-torus")
        assert code == cli.ERROR
        assert out == ""
        assert "JSON" in err

    def test_memory_error_is_an_error(self, capsys, monkeypatch):
        # a grid numpy cannot allocate, without asking for one
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, "fixed_cells", refuse)
        code, out, err = run(capsys, "fixed-set", "standard-torus", "--resolution", "100000")
        assert code == cli.ERROR
        assert out == ""
        assert err == "error: Unable to allocate 74.5 GiB for an array\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("fixed-set", "standard-torus", "--tol", "-1"),
            ("fixed-set", "standard-torus", "--tol", "nan"),
            ("rotation-number", "nonfaithful-circle", "--k", "rot:1/3", "--tol", "nan"),
            ("verify-relation", "standard-torus", "--tol", "-1"),
            ("persistent-fp", "morse-smale", "--tol", "nan"),
            ("minimal-set", "product", "--iterates", "0"),
            ("minimal-set", "product", "--iterates", "-5"),
        ],
    )
    def test_out_of_range_tol_and_iterates_are_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.ERROR
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (("rotation-number", "nonfaithful-circle", "--k", "rot:inf"), "'inf'"),
            (("rotation-number", "nonfaithful-circle", "--k", "rot:nan"), "'nan'"),
            (("trichotomy", "perturbed-torus", "--eps", "nan"), "eps must be finite, got nan"),
            (("trichotomy", "perturbed-torus", "--eps", "inf"), "eps must be finite, got inf"),
            (("rotation-number", "nonfaithful-circle", "--k", "denjoy:inf,3,0.5"), "'inf'"),
            (("rotation-number", "nonfaithful-circle", "--k", "rot:ln0"), "'ln0'"),
            (("rotation-number", "nonfaithful-circle", "--k", "rot:ln-1"), "'ln-1'"),
            # a = 1e-300 takes points near the origin below 5.6e-309,
            # where 1 / y overflows in the chart's unused branches
            (("minimal-set", "nonfaithful-circle", "--k", "affine:1e-300,0"),
             "not strictly increasing"),
        ],
    )
    def test_non_finite_or_undefined_angle_or_eps_is_named(self, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == cli.ERROR
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "argv,named",
        [
            (("rotation-number", "nonfaithful-circle", "--k", f"rot:{10**400}/3"),
             "beyond the floats"),
            (("rotation-number", "nonfaithful-circle", "--k", f"rot:1/{10**400}"),
             "beyond the floats"),
            (("trichotomy", "product", "--eps", "nan"), "product takes no --eps"),
            (("minimal-set", "nonfaithful-circle", "--eps", "inf"),
             "nonfaithful-circle takes no --eps"),
            (("finite-orbit", "standard-torus", "--k", "rot:1/3"),
             "standard-torus takes no --k"),
        ],
    )
    def test_angle_beyond_the_floats_or_foreign_parameter_is_named(
        self, capsys, argv, named
    ):
        code, out, err = run(capsys, *argv)
        assert code == cli.ERROR
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", sorted(CATALOG))
    @pytest.mark.parametrize("flag,value", [("eps", "0.01"), ("k", "rot:1/3")])
    def test_eps_and_k_are_taken_by_the_entries_whose_builders_read_them(
        self, capsys, entry, flag, value
    ):
        takes = flag in inspect.signature(CATALOG[entry].builder).parameters
        code, _, err = run(
            capsys, "verify-relation", entry, f"--{flag}", value, "--resolution", "64"
        )
        assert (code == cli.OK) == takes
        assert (f"{entry} takes no --{flag}" in err) == (not takes)

    def test_zero_relation_tol_asks_for_an_exact_relation(self, capsys):
        code, out, _ = run(capsys, "verify-relation", "standard-torus", "--tol", "0")
        assert code == cli.OK
        assert json.loads(out)["primary_residual"] == 0.0

    def test_zero_denominator_angle_is_an_error(self, capsys):
        code, _, err = run(capsys, "finite-orbit", "product", "--k", "rot:1/0")
        assert code == cli.ERROR
        assert "zero denominator" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("standard-line", "0.3", "--tol", "0"),
            ("standard-line", "0.3", "--tol", "inf"),
            ("standard-line", "0.3", "--tol", "-1"),
            ("standard-line", "0.3", "--tol", "nan"),
            ("standard-line", "nan"),
            ("standard-torus", "0.3,inf"),
        ],
    )
    def test_finite_orbit_rejects_bad_tol_and_start(self, capsys, argv):
        code, out, err = run(capsys, "finite-orbit", *argv)
        assert code == cli.ERROR
        assert out == ""
        assert err.startswith("error: ")
        assert "merge_tol" in err or "start" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-relation", "standard-line", "--resolution", "0"),
            ("rotation-number", "standard-line", "--iterates", "0"),
            ("rotation-set", "standard-torus", "--resolution", "0"),
            ("rotation-set", "standard-torus", "--iterates", "0"),
            ("fixed-set", "standard-torus", "--resolution", "0"),
            ("minimal-set", "nonfaithful-circle", "--resolution", "0"),
            ("minimal-set", "nonfaithful-circle", "--iterates", "0"),
            ("trichotomy", "perturbed-torus", "--resolution", "0"),
            ("persistent-fp", "morse-smale", "--resolution", "0"),
        ],
    )
    def test_zero_flags_are_not_replaced_by_defaults(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.ERROR
        assert out == ""
        assert "positive" in err or ">= 2" in err or ">= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-relation", "standard-line"),
            ("finite-orbit", "standard-torus"),
        ],
    )
    def test_n_beyond_the_floats_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--n", str(2**1100))
        assert code == cli.ERROR
        assert out == ""
        assert err.startswith("error: ") and "fit in a float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["catalog", "verify-relation"])
    @pytest.mark.parametrize("entry", sorted(CATALOG))
    def test_n_one_is_an_error_for_every_entry(self, capsys, command, entry):
        code, out, err = run(capsys, command, entry, "--n", "1")
        assert code == cli.ERROR
        assert out == ""
        assert err == "error: need n >= 2, got 1\n"


# the value flags each subcommand reads, besides its positional arguments
FLAGS_READ = {
    "catalog": {"--n", "--out"},
    "verify-relation": {"--n", "--eps", "--k", "--resolution", "--tol", "--out"},
    "rotation-number": {"--n", "--eps", "--k", "--iterates", "--tol", "--out"},
    "rotation-set": {"--n", "--eps", "--k", "--resolution", "--iterates", "--out"},
    "fixed-set": {"--n", "--eps", "--k", "--resolution", "--tol", "--out"},
    "minimal-set": {"--n", "--eps", "--k", "--resolution", "--iterates", "--out"},
    "finite-orbit": {"--n", "--eps", "--k", "--tol", "--out"},
    "classify-matrix": {"--out"},
    "trichotomy": {"--n", "--eps", "--k", "--resolution", "--iterates", "--out"},
    "persistent-fp": {"--n", "--eps", "--k", "--resolution", "--tol", "--out"},
    "reproduce-all": {"--seed", "--out"},
}
# the flags every subcommand accepted before each took only its own
FORMER_FLAGS = (
    "--n", "--eps", "--k", "--resolution", "--iterates", "--tol", "--seed", "--out"
)
POSITIONAL = {"classify-matrix": ("0,1,-1,0",), "reproduce-all": ()}


@pytest.mark.parametrize(
    "action,primary,secondary",
    [
        ("nonfaithful-circle", 2.122857445385762e-12, 1.1758150009200108e-11),
        ("product", 3.3306690738754696e-16, 1.7208456881689926e-15),
    ],
)
def test_verify_relation_on_a_denjoy_fiber(capsys, action, primary, secondary):
    # h^2 has no closed form, so the secondary relation composes h o h,
    # with the bits of two steps of h
    code, out, err = run(capsys, "verify-relation", action, "--k", "denjoy:golden,5,0.3")
    d = strict_json(out)
    assert (code, err) == (cli.OK, "")
    assert (d["primary_residual"], d["secondary_residual"]) == (primary, secondary)


class TestFlags:
    def test_each_subcommand_takes_the_flags_it_reads(self):
        (sub,) = [a for a in cli._parser()._actions if a.dest == "command"]
        taken = {
            name: {o for a in p._actions for o in a.option_strings} & set(FORMER_FLAGS)
            for name, p in sub.choices.items()
        }
        assert taken == FLAGS_READ
        assert sum(map(len, taken.values())) == 52

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c in FLAGS_READ for f in FORMER_FLAGS if f not in FLAGS_READ[c]],
    )
    def test_an_ignored_flag_is_a_usage_error(self, capsys, command, flag):
        argv = (command, *POSITIONAL.get(command, ("standard-torus",)), flag, "3")
        code, out, err = run(capsys, *argv)
        assert code == cli.ERROR
        assert out == ""
        assert f"unrecognized arguments: {flag} 3" in err
        # the subcommand's own usage, which lists the flags it does take
        assert err.startswith(f"usage: bsdl {command} [-h]")
        assert f"bsdl {command}: error:" in err


class TestNumericalGiveUp:
    """A numerical method that gives up on valid input is inconclusive (2),
    not an error (1), and ends without a traceback."""

    @pytest.mark.parametrize(
        "error",
        [
            GraphFoldError("pushed graph folded over the fiber"),
            NonConvergentError("graph transform stalled", [1e-3, 2e-3]),
        ],
    )
    def test_graph_failure_is_inconclusive(self, capsys, monkeypatch, error):
        def give_up(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "find_invariant_circle", give_up)
        code, out, err = run(capsys, "trichotomy", "perturbed-torus")
        assert code == cli.INCONCLUSIVE
        assert out == ""
        assert str(error) in err
        assert "Traceback" not in err

    def test_usage_errors_keep_exit_one(self, capsys):
        code, _, _ = run(capsys, "trichotomy", "standard-line")
        assert code == cli.ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ("minimal-set", "standard-line", "--bogus"),
            ("finite-orbit", "standard-torus", "-0.5,0.2"),
            ("no-such-command",),
            (),
        ],
    )
    def test_parse_errors_exit_one(self, capsys, argv):
        # argparse's own status for these is 2, which means inconclusive
        code, out, err = run(capsys, *argv)
        assert code == cli.ERROR
        assert out == ""
        assert "error:" in err

    def test_start_after_double_dash_may_begin_with_minus(self, capsys):
        code, out, _ = run(capsys, "finite-orbit", "product", "--", "-1,-0.5")
        assert code == cli.OK
        assert strict_json(out)["closed"] is True

    @pytest.mark.parametrize(
        "argv,start",
        [
            (("product", "0.5,0.5", "--k", "rot:1/5"), [0.5, 0.5]),
            (("product", "--k", "rot:1/5", "0.5,0.5"), [0.5, 0.5]),
            (("--k", "rot:1/5", "product", "0.5,0.5"), [0.5, 0.5]),
            (("product", "--k", "rot:1/5", "--", "-0.25,0.5"), [0.75, 0.5]),
            (("--k", "rot:1/5", "product", "--", "-0.25,0.5"), [0.75, 0.5]),
            (("--k", "rot:1/5", "--", "product", "-0.25,0.5"), [0.75, 0.5]),
        ],
    )
    def test_start_before_or_after_the_flags(self, capsys, argv, start):
        code, out, err = run(capsys, "finite-orbit", *argv)
        d = strict_json(out)
        # the line action's orbit of u = 0.5 is open: inconclusive
        assert (code, err) == (cli.INCONCLUSIVE, "")
        assert (d["action"], d["points"][0]) == ("product(n=2, k=rot:1/5)", start)

    def test_matrix_after_double_dash(self, capsys):
        code, out, err = run(capsys, "classify-matrix", "--", "-1,-1,1,0")
        assert (code, err) == (cli.OK, "")
        assert strict_json(out)["order"] == 3

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["finite-orbit", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestParser:
    """The parser is built once per process; each call parses into its own
    namespace."""

    def test_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_successive_parses_share_no_values(self, tmp_path):
        calls = [
            ["finite-orbit", "product", "0.5,0.5", "--n", "3", "--k", "rot:1/5",
             "--tol", "1e-4", "--out", str(tmp_path / "o.json")],
            ["trichotomy", "perturbed-torus", "--eps", "0.01", "--iterates", "10"],
            ["finite-orbit", "standard-torus"],
            ["rotation-number", "nonfaithful-circle", "--gen", "f"],
            ["rotation-number", "nonfaithful-circle"],
            ["classify-matrix", "0,1,-1,0"],
        ]
        for argv in calls + calls[::-1]:
            fresh = cli._parser.__wrapped__().parse_args(argv)
            assert vars(cli._parser().parse_args(argv)) == vars(fresh)

    def test_a_call_after_another_reads_its_own_flags(self, capsys):
        code, out, _ = run(
            capsys, "finite-orbit", "nonfaithful-circle", "--k", "rot:1/5", "--tol", "1e-3"
        )
        assert code == cli.OK
        assert strict_json(out)["merge_tol"] == 1e-3
        code, out, _ = run(capsys, "finite-orbit", "product")
        d = strict_json(out)
        assert code == cli.OK
        assert (d["action"], d["merge_tol"]) == ("product(n=2, k=rot:1/3)", 1e-6)

    @pytest.mark.parametrize("argv", [["--help"], ["minimal-set", "--help"]])
    def test_help_exits_zero_and_leaves_the_parser_working(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: bsdl" in capsys.readouterr().out
        code, out, _ = run(capsys, "classify-matrix", "0,1,-1,0")
        assert code == cli.OK
        assert strict_json(out)["order"] == 4


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(-0.0) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def written(fn, x):
    try:
        return fn(x)
    except ValueError as exc:
        return ValueError, str(exc)


@given(json_values)
def test_writer_is_the_indented_json_layout(x):
    # NaN and infinities raise json's own ValueError, the first one met
    expected = written(
        lambda v: json.dumps(v, indent=1, sort_keys=True, allow_nan=False), x
    )
    assert written(cli._dumps, x) == expected


@pytest.mark.parametrize(
    "x",
    [[], {}, {"a": [], "b": {}}, [[[]]], -0.0, [-0.0, 0.0, 1e-320, 1e308],
     {"ключ": ["π", "\u2028", "\x00"], "": None}, [True, False, None, 2**70]],
)
def test_writer_keeps_empty_containers_and_edge_scalars(x):
    assert cli._dumps(x) == json.dumps(x, indent=1, sort_keys=True, allow_nan=False)


class TestOutputFile:
    def test_out_writes_json_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify-relation",
            "standard-line",
            "--out",
            str(target),
        )
        assert code == cli.OK
        assert out == ""
        d = json.loads(target.read_text())
        assert d["passed"] is True
        assert list(tmp_path.iterdir()) == [target]


class TestReproduceAll:
    def test_row_per_criterion_and_exit(self, capsys, tmp_path, monkeypatch):
        rows = [
            {"id": 1, "name": "relation-suite", "passed": True,
             "details": {"x": 1.5}, "elapsed": 0.01},
            {"id": 12, "name": "determinism", "passed": False,
             "details": {}, "elapsed": 0.02},
        ]
        monkeypatch.setattr("bsdl.acceptance.run_all", lambda seed: rows)
        target = tmp_path / "rows.json"
        code, out, _ = run(capsys, "reproduce-all", "--out", str(target))
        lines = out.strip().splitlines()
        assert code == cli.INCONCLUSIVE
        assert len(lines) == 3
        assert "relation-suite" in lines[0] and "PASS" in lines[0]
        assert "determinism" in lines[1] and "FAIL" in lines[1]
        assert "1/2 criteria passed" in lines[2]
        assert json.loads(target.read_text())[0]["id"] == 1

    def test_seed_is_forwarded(self, capsys, monkeypatch):
        seen = {}

        def fake(seed):
            seen["seed"] = seed
            return [{"id": 1, "name": "relation-suite", "passed": True,
                     "details": {}, "elapsed": 0.0}]

        monkeypatch.setattr("bsdl.acceptance.run_all", fake)
        code, out, _ = run(capsys, "reproduce-all", "--seed", "11")
        assert code == cli.OK
        assert seen["seed"] == 11
        assert "seed 11" in out


def test_import_loads_no_scipy():
    # every command pays the package import; scipy serves only as a
    # test reference
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bsdl.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_defers_the_acceptance_battery():
    # `reproduce-all` imports the battery, and the hashlib it loads, on
    # its own; `bsdl.run_all` still reaches it
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, bsdl.cli; "
        "print([m for m in ('bsdl.acceptance', '_hashlib') if m in sys.modules]); "
        "import bsdl; print(bsdl.run_all.__module__)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["[]", "bsdl.acceptance"]
