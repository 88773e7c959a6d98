"""Run the same commands on a git revision and on the working tree, and
print each command whose output differs.

    python scripts/same_outputs.py REV

The commands are:

* those of `scripts/reachability.py` (every subcommand on every catalog
  entry, again on each fiber of its `FIBERS` for the entries that take
  `--k`, and the command of each row of `tests/console_cases.py`),
  except `reproduce-all`, whose report prints wall times;
* the seed-1 query list of each benchmark workload, as
  `perfbench/workloads.py` builds it for a 40 s run: CLI queries through
  `bsdl.cli.main`, library queries through `perfbench/worker.py`'s own
  functions, their result as the JSON text the worker sends.

Both sides run the one list, made from the working tree, each in its
own interpreter on its own `src` and `perfbench`: REV from a `git
archive` in a temporary directory, the two at once. Each CLI call runs
in-process through `bsdl.cli.main`, its exit status, stdout and stderr
kept. The script prints each command whose exit status, stdout, stderr
or result differs, then the counts, and exits 1 if any differs. It
writes no bytecode, so it imports the benchmark's files without writing
to them. It takes a few minutes. Standard library only; the package
itself needs numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a side's interpreter: run_side(TREE, JOBS, OUT) of this file
SIDE = ("import sys; sys.path.insert(0, sys.argv[1]); import same_outputs; "
        "same_outputs.run_side(*sys.argv[2:])")


def jobs():
    """The commands of both sides, as {"id", "argv"} or {"id", "query"}."""
    sys.path[:0] = [str(ROOT / "scripts")]
    import reachability  # puts the working tree's src and perfbench first
    from workloads import WORKLOADS, generate

    with tempfile.TemporaryDirectory() as out_dir:
        calls = reachability.cli_calls(out_dir)
    out = [{"id": " ".join(argv), "argv": argv} for argv in calls
           if argv[0] != "reproduce-all"]
    for workload in WORKLOADS:
        for q in json.loads(json.dumps(generate(workload, 1, 40.0))):
            out.append({"id": f"{workload} {q['id']} {q.get('argv') or q['kind']}",
                        "query": q})
    return out


def run_cli(argv):
    """(exit status, stdout, stderr) of `bsdl.cli.main(argv)`, in-process."""
    from bsdl import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def run_side(tree, jobs_path, out_path):
    """Run every job on the package and benchmark of `tree`, writing one
    JSON line per job: its id, exit status, output and stderr."""
    tree = Path(tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import bsdl
    import worker

    if tree not in Path(bsdl.__file__).resolve().parents:
        raise SystemExit(f"imported bsdl from {bsdl.__file__}, not from {tree}")
    with open(out_path, "w") as out:
        for job in json.loads(Path(jobs_path).read_text()):
            rec = {"id": job["id"], "status": 0, "output": "", "stderr": ""}
            try:
                q = job.get("query", {"kind": "cli", "argv": job.get("argv")})
                if q["kind"] == "cli":
                    rec["status"], rec["output"], rec["stderr"] = run_cli(q["argv"])
                else:
                    obj = worker._build_library_query(q)
                    result = worker._run_library_query(q, obj)
                    rec["output"] = json.dumps(worker._residuals(q, obj, result))
            except Exception as exc:  # a raise is an outcome to compare
                rec["status"] = f"raised {type(exc).__name__}: {exc}"
            out.write(json.dumps(rec) + "\n")
            out.flush()


def read_side(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def main(argv=None):
    sys.dont_write_bytecode = True
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        base.mkdir()
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", args.rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(base)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {args.rev} failed")
        job_list = jobs()
        (tmp / "jobs.json").write_text(json.dumps(job_list))
        sides = {"rev": base, "tree": ROOT}
        procs = {
            name: subprocess.Popen([sys.executable, "-B", "-c", SIDE, str(ROOT / "scripts"),
                                    str(tree), str(tmp / "jobs.json"),
                                    str(tmp / f"{name}.jsonl")])
            for name, tree in sides.items()
        }
        for name, proc in procs.items():
            if proc.wait() != 0:
                raise SystemExit(f"the {name} side failed with status {proc.returncode}")
        rev, tree = (read_side(tmp / f"{name}.jsonl") for name in sides)

    differ = 0
    for a, b in zip(rev, tree):
        what = [k for k in ("status", "output", "stderr") if a[k] != b[k]]
        if what:
            differ += 1
            print(f"differs ({' and '.join(what)}): {a['id']}")
    print(f"{len(job_list)} commands, {differ} differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
