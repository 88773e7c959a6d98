"""Self-tests of the benchmark: metric names, oracle, generator, tracer.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from oracle import judge  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_what_runs_emit():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    emitted = set(tracer.per_layer_metrics({}, 0, 1.0, 0)) | {"failed_ratio", "unknown_ratio"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "query_p50_s", "query_tail_s", "setup_s", "peak_rss_mb"}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


MINIMAL = {"kind": "cli", "argv": ["minimal-set", "standard-torus", "--n", "2"],
           "expect": {"label": "MinimalCircle"}}


def test_oracle_accepts_the_constructed_verdict():
    out = json.dumps({"label": "MinimalCircle", "diagnostics": {}})
    assert judge(MINIMAL, {"exit": 0, "output": out})[0] == "ok"
    assert judge(MINIMAL, {"exit": 2, "output": json.dumps({"label": "Unknown"})})[0] == "unknown"


def test_oracle_rejects_nan_json():
    rec = {"exit": 0, "output": '{"label": "MinimalCircle", "gap": NaN}'}
    assert judge(MINIMAL, rec)[0] == "invalid"
    rec = {"exit": 0, "output": '{"label": "MinimalCircle", "gap": -Infinity}'}
    assert judge(MINIMAL, rec)[0] == "invalid"


def test_oracle_rejects_a_wrong_confident_label():
    out = json.dumps({"label": "MinimalCantor", "diagnostics": {}})
    assert judge(MINIMAL, {"exit": 0, "output": out})[0] == "wrong"
    q = {"kind": "trichotomy", "expect": {"outcome": "FiniteOrbits", "witness": [2, 5]}}
    out = json.dumps({"outcome": "FiniteOrbits", "witness": [1, 5], "circle_residual": 0.0})
    assert judge(q, {"exit": 0, "output": out})[0] == "wrong"


def test_oracle_counts_only_listed_defects_as_known():
    closed = json.dumps({"closed": True, "size": 9428})
    denjoy = {"kind": "cli", "argv": ["finite-orbit", "nonfaithful-circle", "--k",
                                      "denjoy:ln2,11,0.45"], "expect": {"closed": False}}
    golden = {"kind": "cli", "argv": ["finite-orbit", "nonfaithful-circle", "--k",
                                      "rot:golden"], "expect": {"closed": False}}
    assert judge(denjoy, {"exit": 0, "output": closed})[0] == "known"
    assert judge(golden, {"exit": 0, "output": closed})[0] == "wrong"


def test_oracle_counts_a_raised_exception_and_exit_one_as_crashes():
    rec = {"raised": "OverflowError: (34, 'Numerical result out of range')", "output": ""}
    assert judge(MINIMAL, rec)[0] == "crash"
    assert judge(MINIMAL, {"exit": 1, "output": ""})[0] == "crash"


def test_oracle_verifies_conjugators_exactly():
    q = {"kind": "cli", "argv": ["classify-matrix", "--", "0,-1,1,0", "0,1,-1,0"],
         "expect": {"conjugate": True}}
    good = {"conjugator": [[0, 1], [1, 0]]}
    bad = {"conjugator": [[1, 0], [0, 1]]}
    assert judge(q, {"exit": 0, "output": json.dumps(good)})[0] == "ok"
    assert judge(q, {"exit": 0, "output": json.dumps(bad)})[0] == "wrong"


def _shape(queries):
    return sorted((q["kind"], tuple(q.get("argv", ())[:2])) for q in queries)


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for w in WORKLOADS:
        a, b, c = generate(w, 5, 20), generate(w, 5, 20), generate(w, 6, 20)
        assert a == b
        assert a != c
        # every seed runs the same mix of kinds
        assert _shape(a) == _shape(c)


def test_traced_fixed_set_call_records_one_fixed_cells_span(tmp_path):
    q = [{"id": "q0", "kind": "cli",
          "argv": ["fixed-set", "standard-torus", "--resolution", "256"]}]
    path = tmp_path / "trace.json"
    report = run.run_worker(q, time.perf_counter() + 120, trace_path=path)
    trace = json.loads(path.read_text())
    assert trace["totals"]["estimators.fixed_cells"]["calls"] == 1
    assert trace["totals"]["cli.main"]["calls"] == 1
    assert report["max_child_excess_ns"] == 0
    spans = trace["spans"]
    child_time = {}
    for name, start, end, parent, query, points in spans:
        assert end >= start
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0) + end - start
    for idx, total in child_time.items():
        assert total <= spans[idx][2] - spans[idx][1]


def test_traced_verdicts_equal_untraced_verdicts(tmp_path):
    queries = [q for q in generate("orbit-scalar", 3, 20) if q["cost"] < 0.1][:12]
    queries += [q for q in generate("conjugation", 3, 20) if q["kind"] == "persistence"][:2]
    sent = [{k: q[k] for k in ("id", "kind", "argv", "params") if k in q} for q in queries]
    plain = run.run_worker(sent, time.perf_counter() + 120)
    traced = run.run_worker(sent, time.perf_counter() + 120,
                            trace_path=tmp_path / "t.json")
    for q, a, b in zip(queries, plain["records"], traced["records"]):
        assert (a["output"], a["exit"], a["raised"]) == (b["output"], b["exit"], b["raised"])
        assert judge(q, a) == judge(q, b)
    assert traced["trace_totals"]["experiments.bump_inverse"]["calls"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "orbit-scalar",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
