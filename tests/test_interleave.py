"""scripts/interleave.py `summarize` and `report` on synthetic records:
the sums of per-query minima, their ratios per kind and the queries
whose outputs differ. No benchmark query is run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "interleave.py"
_spec = importlib.util.spec_from_file_location("interleave", SCRIPT)
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)


def record(qid, kind, rev, tree, outputs=("x", "x")):
    return {"id": qid, "kind": kind, "times": {"rev": rev, "tree": tree},
            "output": dict(zip(interleave.SIDES, outputs))}


RECORDS = [
    record("q0", "persistence", [0.5, 0.4, 0.6], [0.3, 0.35, 0.2]),
    record("q1", "persistence", [1.0, 1.2, 1.1], [0.9, 0.8, 1.0]),
    record("q2", "cli minimal-set", [2.0, 2.5, 3.0], [3.0, 2.0, 2.2], outputs=("a", "b")),
]


def test_sums_are_of_per_query_minima():
    total = interleave.summarize(RECORDS)["total"]
    assert total["queries"] == 3
    assert abs(total["rev"] - 3.4) < 1e-12 and abs(total["tree"] - 3.0) < 1e-12
    assert abs(total["ratio"] - 3.0 / 3.4) < 1e-12


def test_each_kind_has_its_own_sums():
    kinds = interleave.summarize(RECORDS)["kinds"]
    assert list(kinds) == ["cli minimal-set", "persistence"]
    assert kinds["persistence"]["queries"] == 2
    assert abs(kinds["persistence"]["tree"] - 1.0) < 1e-12
    assert abs(kinds["cli minimal-set"]["ratio"] - 1.0) < 1e-12


def test_differing_outputs_are_listed():
    summary = interleave.summarize(RECORDS)
    assert summary["differ"] == ["q2"]
    lines = interleave.report(summary, "t")
    assert lines[0] == "t"
    assert "differs: q2" in lines
    assert lines[-1] == "1 of 3 queries differ"
    assert lines[-4].startswith("persistence") and lines[-3].startswith("total")


def test_cli_queries_take_their_subcommand_as_kind():
    assert interleave.kind({"kind": "cli", "argv": ["trichotomy", "x"]}) == "cli trichotomy"
    assert interleave.kind({"kind": "covariance", "params": {}}) == "covariance"
