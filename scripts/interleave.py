"""Time a benchmark workload's queries on a git revision and on the
working tree in one process, query by query.

    python scripts/interleave.py REV --workload conjugation --seed 31 [--reps 3]

REV's `src/bsdl` is copied from a `git archive` into a temporary
directory as the package `bsdl_rev` (the package imports itself only
relatively) and imported beside the working tree's `bsdl`. The query
list is the one `perfbench/workloads.py` builds for a 40 s run of the
workload at that seed. Each query runs R times on each side, the side
that goes first alternating from query to query and from repeat to
repeat, through `perfbench/worker.py`'s own query functions, with the
`bsdl` modules of `sys.modules` pointing at that side's package. A run
is timed as the worker times it: library objects are built untimed,
after a garbage collection. The script prints the sum of per-query
minima of each side and their ratio (tree / REV), the same sums per
query kind (a CLI query's kind is its subcommand), and each query whose
output or exit status differs between the sides; it exits 1 if any
differs. Both sides share one interpreter, so a slow spell of a shared
machine falls on both alike. Standard library only; the package itself
needs numpy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("rev", "tree")


def package_modules(name):
    """The modules of package `name` in sys.modules, keyed as `bsdl`'s."""
    importlib.import_module(name)
    importlib.import_module(name + ".cli")
    return {"bsdl" + key[len(name):]: mod for key, mod in sys.modules.items()
            if key == name or key.startswith(name + ".")}


def load_sides(rev, tmp):
    """{"rev": modules, "tree": modules}: REV's package as `bsdl_rev`
    from a git archive in tmp, and the working tree's `bsdl`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp)]
    tree = package_modules("bsdl")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/bsdl"],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
    (tmp / "src" / "bsdl").rename(tmp / "bsdl_rev")
    return {"rev": package_modules("bsdl_rev"), "tree": tree}


def kind(q):
    return f"cli {q['argv'][0]}" if q["kind"] == "cli" else q["kind"]


def run_once(worker, q):
    """One run of query q on the package `bsdl` now names: its time and
    its output, as text."""
    obj = None if q["kind"] == "cli" else worker._build_library_query(q)
    gc.collect()
    t0 = time.perf_counter()
    try:
        if q["kind"] == "cli":
            status, text = worker._run_cli_query(q["argv"])
            elapsed = time.perf_counter() - t0
            return elapsed, f"exit {status}\n{text}"
        result = worker._run_library_query(q, obj)
        elapsed = time.perf_counter() - t0
        return elapsed, json.dumps(worker._residuals(q, obj, result))
    except Exception as exc:  # a raise is an outcome to compare
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"


def measure(sides, worker, queries, reps):
    """One record per query: its id, kind, each side's run times and
    first output."""
    records = [{"id": q["id"], "kind": kind(q), "times": {s: [] for s in SIDES},
                "output": {}} for q in queries]
    for r in range(reps):
        for i, (q, rec) in enumerate(zip(queries, records)):
            for side in SIDES if (i + r) % 2 == 0 else SIDES[::-1]:
                sys.modules.update(sides[side])
                elapsed, output = run_once(worker, q)
                rec["times"][side].append(elapsed)
                rec["output"].setdefault(side, output)
    return records


def summarize(records):
    """Sums of per-query minima per side, overall and per kind, with
    their ratios, and the ids of the queries whose outputs differ."""
    def sums(recs):
        out = {s: sum(min(r["times"][s]) for r in recs) for s in SIDES}
        out["queries"] = len(recs)
        out["ratio"] = out["tree"] / out["rev"] if out["rev"] > 0 else float("nan")
        return out

    kinds = sorted({r["kind"] for r in records})
    return {
        "total": sums(records),
        "kinds": {k: sums([r for r in records if r["kind"] == k]) for k in kinds},
        "differ": [r["id"] for r in records if r["output"]["rev"] != r["output"]["tree"]],
    }


def report(summary, title):
    lines = [title, f"{'kind':<24}{'queries':>8}{'rev_s':>10}{'tree_s':>10}{'ratio':>8}"]
    rows = list(summary["kinds"].items()) + [("total", summary["total"])]
    for name, s in rows:
        lines.append(f"{name:<24}{s['queries']:>8}{s['rev']:>10.4f}{s['tree']:>10.4f}"
                     f"{s['ratio']:>8.3f}")
    lines += [f"differs: {i}" for i in summary["differ"]]
    lines.append(f"{len(summary['differ'])} of {summary['total']['queries']} queries differ")
    return lines


def main(argv=None):
    sys.dont_write_bytecode = True
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, default=3, help="runs of each query per side")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides(args.rev, Path(tmp))
        sys.modules.update(sides["tree"])
        import worker
        from workloads import generate

        queries = generate(args.workload, args.seed, 40.0)
        summary = summarize(measure(sides, worker, queries, args.reps))
    title = (f"{args.workload} seed {args.seed}, {args.reps} runs per query and side, "
             f"sums of per-query minima (s), rev {args.rev} against the tree")
    print("\n".join(report(summary, title)))
    return 1 if summary["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
