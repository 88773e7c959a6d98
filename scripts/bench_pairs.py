"""Paired benchmark runs of a parent and a change checkout, written as a
BENCH_<n>.json file.

    python3 scripts/bench_pairs.py run --parent P --change C \\
        --workload conjugation --seeds 11-20 --log runs.jsonl
    python3 scripts/bench_pairs.py write --log runs.jsonl --out BENCH_11.json \\
        --title "..." --claim conjugation wall_s "at least 20% lower" \\
        --trace-note "..."

`run` runs `perfbench/run.py --workload W --seed S --seconds 40 --trace 0`
once in each checkout per seed, the parent first on odd seeds and the
change first on even ones, and appends each run's parsed result to the
log as one JSON line, so an interrupted series keeps what it measured.
`--trace-seed S` adds one traced run on each side. `write` groups the
log by workload into pairs and writes, per end-to-end metric, each
side's runs with their quartiles (statistics.quantiles, inclusive), the
pairs in which the change is lower or higher, the median change ratio
and the parent's interquartile range, as one series named "final"; with
`--claim`, a verdict that holds when the change is lower in nine pairs of
ten, its median by more than the parent's interquartile range, and its
runs of the claimed workload fail no more queries in all than the
parent's. `--trace-note` is written into each traced block, to say what
its per-layer counters cover. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(checkout, workload, seed, trace):
    """One perfbench run in a checkout: its metrics, failures and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "40", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    prov = [ln for ln in lines if ln.startswith("provenance ")]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "correct": result["correct"],
        "provenance": json.loads(prov[0].split(" ", 1)[1]) if prov else {},
    }


def cmd_run(args):
    checkouts = {"parent": args.parent, "change": args.change}
    jobs = [(s, 0) for s in parse_seeds(args.seeds)]
    if args.trace_seed is not None:
        jobs.append((args.trace_seed, 1))
    with open(args.log, "a") as log:
        for seed, trace in jobs:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                rec = bench(checkouts[side], args.workload, seed, trace)
                rec.update(side=side, workload=args.workload, seed=seed, trace=trace)
                log.write(json.dumps(rec) + "\n")
                log.flush()
                print(f"{args.workload} seed {seed} {side}"
                      f"{' traced' if trace else ''}: {rec['metrics'].get('wall_s')}",
                      flush=True)


def quartiles(runs):
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "runs": runs}


def summarize(records):
    """The pairs of one workload in BENCH_9.json's layout."""
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    seeds = sorted(s for s, pair in by_seed.items() if len(pair) == 2)
    pairs = [by_seed[s] for s in seeds]
    out = {
        "seeds": seeds,
        "pairs": len(seeds),
        "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
        "correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
        "metrics": {},
    }
    for name, unit in pairs[0]["parent"]["units"].items():
        runs = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
        out["metrics"][name] = {
            "unit": unit,
            "parent": parent,
            "change": change,
            "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            "change_higher_in_pairs": sum(c > p for p, c in zip(runs["parent"], runs["change"])),
            "median_change_ratio": change["median"] / parent["median"] - 1.0,
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def cmd_write(args):
    records = [json.loads(ln) for ln in Path(args.log).read_text().splitlines() if ln]
    timed = [r for r in records if not r["trace"]]
    workloads = {}
    for r in timed:
        workloads.setdefault(r["workload"], []).append(r)
    prov = {side: next(r["provenance"] for r in timed if r["side"] == side) for side in SIDES}
    machine = {k: prov["change"].get(k) for k in ("cpu_count", "cpu_model", "python",
                                                   "numpy", "scipy")}
    doc = {"title": args.title}
    if args.claim:
        workload, metric, expected = args.claim
        summary = summarize(workloads[workload])
        m = summary["metrics"][metric]
        diff = m["parent"]["median"] - m["change"]["median"]
        lower, pairs = m["change_lower_in_pairs"], len(m["parent"]["runs"])
        failed = {side: sum(summary["failed"][side]) for side in SIDES}
        doc["claim"] = {"workload": workload, "metric": metric, "better": "lower",
                        "expected": expected}
        doc["verdict"] = {
            # lower in nine pairs of ten, by more than the parent's spread,
            # with no more failed queries
            "claim_met": (lower >= 0.9 * pairs and diff > m["parent_iqr"]
                          and failed["change"] <= failed["parent"]),
            "summary": (
                f"{workload} {metric} median {m['parent']['median']:.4g} -> "
                f"{m['change']['median']:.4g} ({m['median_change_ratio']:+.1%}), lower "
                f"in {lower}/{pairs} pairs; median difference {diff:.4g} against a "
                f"parent IQR of {m['parent_iqr']:.4g}; failed queries "
                f"{failed['parent']} -> {failed['change']}"
            ),
        }
        print(doc["verdict"]["summary"])
    doc["parent_commit"] = prov["parent"].get("commit")
    doc["change_commit"] = prov["change"].get("commit")
    doc["machine"] = machine
    doc["method"] = (
        "python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0, run in a "
        "checkout of each commit; one parent and one change run per seed, alternating "
        "which side runs first (odd seeds: parent first); quartiles by "
        "statistics.quantiles(method='inclusive'); written by scripts/bench_pairs.py"
    )
    doc["series"] = {"final": {
        "note": args.note,
        "workloads": {w: summarize(rs) for w, rs in sorted(workloads.items())},
    }}
    for r in records:
        if r["trace"]:
            key = f"trace_seed_{r['seed']}_{r['workload']}"
            block = doc.setdefault(key, {"command": (
                f"python3 perfbench/run.py --workload {r['workload']} --seed {r['seed']} "
                "--seconds 40 --trace 1")})
            if args.trace_note:
                block["note"] = args.trace_note
            block[r["side"]] = r["metrics"]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run paired benchmarks, appending to a log")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="A-B, inclusive")
    r.add_argument("--trace-seed", type=int, help="also one traced run per side")
    r.add_argument("--log", required=True, help="JSON-lines file to append to")
    r.set_defaults(fn=cmd_run)
    w = sub.add_parser("write", help="write BENCH_<n>.json from a log")
    w.add_argument("--log", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--title", required=True)
    w.add_argument("--note", default="", help="note on the series")
    w.add_argument("--trace-note", default="", help="note on each traced block")
    w.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "EXPECTED"))
    w.set_defaults(fn=cmd_write)
    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
