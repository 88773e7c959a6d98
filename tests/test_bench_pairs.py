"""scripts/bench_pairs.py `write` on a synthetic log: the series it writes,
the claim verdict and the note on traced blocks. No benchmark is run."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def record(side, seed, wall, failed=0, trace=0):
    return {
        "side": side, "workload": "w", "seed": seed, "trace": trace,
        "metrics": {"wall_s": wall}, "units": {"wall_s": "s"},
        "failed": failed, "correct": True,
        "provenance": {"commit": side, "cpu_count": 2},
    }


def write(tmp_path, records, *extra):
    log, out = tmp_path / "runs.jsonl", tmp_path / "BENCH.json"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    bench_pairs.main(["write", "--log", str(log), "--out", str(out), "--title", "t",
                      "--claim", "w", "wall_s", "lower", *extra])
    return json.loads(out.read_text())


def pairs(change_failed=0):
    recs = []
    for seed in range(10):
        recs.append(record("parent", seed, 10.0 + seed % 3))
        recs.append(record("change", seed, 5.0 + seed % 3, failed=change_failed))
    return recs


def test_a_clear_gain_meets_the_claim(tmp_path):
    doc = write(tmp_path, pairs())
    assert doc["verdict"]["claim_met"] is True
    assert list(doc["series"]) == ["final"]
    w = doc["series"]["final"]["workloads"]["w"]
    assert w["pairs"] == 10
    assert w["metrics"]["wall_s"]["change_lower_in_pairs"] == 10


def test_more_failed_queries_void_the_claim(tmp_path):
    doc = write(tmp_path, pairs(change_failed=1))
    assert doc["verdict"]["claim_met"] is False
    assert doc["verdict"]["summary"].endswith("failed queries 0 -> 10")


def test_the_trace_note_lands_in_each_traced_block(tmp_path):
    recs = pairs() + [record("parent", 1, 11.0, trace=1), record("change", 1, 6.0, trace=1)]
    doc = write(tmp_path, recs, "--trace-note", "raw only")
    block = doc["trace_seed_1_w"]
    assert block["note"] == "raw only"
    assert block["parent"] == {"wall_s": 11.0} and block["change"] == {"wall_s": 6.0}
    assert doc["series"]["final"]["workloads"]["w"]["pairs"] == 10
