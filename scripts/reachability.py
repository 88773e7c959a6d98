"""List the functions of `src/bsdl` that no program path enters.

Under a `sys.setprofile` hook, in one process, this runs:

* the acceptance battery, `bsdl reproduce-all --seed 7`, writing its
  report into a temporary directory with `--out` as CI does;
* every subcommand on every catalog entry at its default settings, and
  again on each fiber of `FIBERS` for the entries that take `--k`;
* the command of each row of `tests/console_cases.py`, the console
  cases that Tier-1 checks;
* the seed-1 query list of each benchmark workload, as
  `perfbench/workloads.py` builds it for a 40 s run, each query through
  `perfbench/worker.py`'s own functions.

Every CLI call runs in-process through `bsdl.cli.main`, its output
discarded. It then prints each function and method defined in
`src/bsdl` whose code was never entered, as module.qualified_name, by
file and line, and their count. Class bodies, lambdas
and comprehensions are not listed.

`EXPECTED` names the functions allowed to stay unentered, each with
its reason. The script exits 1 when a listed name is not in `EXPECTED`,
or when an expected name was entered or is no longer defined, and 0
otherwise. It takes about a minute, and imports the benchmark's files
without writing to them. Standard library only.

    python scripts/reachability.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench"), str(ROOT / "tests")]

FIBERS = ("rot:1/3", "rot:golden", "denjoy:golden,5,0.3", "affine:2,0.1", "id")
SUBCOMMANDS = (
    "verify-relation", "rotation-number", "rotation-set", "fixed-set",
    "minimal-set", "finite-orbit", "trichotomy", "persistent-fp",
)

# the functions allowed to stay unentered, each with why
EXPECTED = {
    "bsdl.circle.Lift.raw": "stub: every lift defines its own",
    "bsdl.circle.Lift.inverse": "stub: raises for a lift with no inverse rule",
    "bsdl.circle.Composition.seam_distance": "read by estimators.differential_at",
    "bsdl.circle.PiecewiseLift.seam_distance": "read by estimators.differential_at",
    "bsdl.experiments.NonConvergentError.__init__": "entered only when a search fails",
    "bsdl.space.Space.__reduce__": "keeps `space is TORUS` across copy and pickle",
    "bsdl.torus.TorusLift._identity": "LinearTorusLift.power(0): a hyperbolic h (ROADMAP item 14)",
    "bsdl.torus.LinearTorusLift.power": "a hyperbolic h (ROADMAP item 14)",
    "bsdl.torus.LinearTorusLift.same_map": "a hyperbolic h (ROADMAP item 14)",
    "bsdl.torus._point_to_segment": "Hausdorff distance of segment-shaped rotation sets",
}


def defined_functions():
    """{(file, first line, name): module.qualified_name} of every function
    and method in the source files of `src/bsdl`."""
    out = {}

    def walk(code, path, prefix):
        for c in code.co_consts:
            if not inspect.iscode(c) or c.co_name.startswith("<"):
                continue
            name = f"{prefix}.{c.co_name}"
            if c.co_flags & inspect.CO_NEWLOCALS:
                out[(path, c.co_firstlineno, c.co_name)] = name
            walk(c, path, name)

    for path in sorted((SRC / "bsdl").glob("*.py")):
        module = f"bsdl.{path.stem}" if path.stem != "__init__" else "bsdl"
        walk(compile(path.read_text(), str(path), "exec"), str(path), module)
    return out


def cli_calls(out_dir):
    """The argv lists of the battery, writing into `out_dir`, the
    subcommands on every entry and fiber, and the console cases."""
    from bsdl.catalog import CATALOG
    from console_cases import CASES

    calls = [["reproduce-all", "--seed", "7", "--out", str(Path(out_dir) / "report.json")]]
    for name, entry in CATALOG.items():
        calls.append(["catalog", name])
        fibers = [[]] + [["--k", k] for k in FIBERS if "k" in entry.defaults]
        calls += [[cmd, name] + k for cmd in SUBCOMMANDS for k in fibers]
    calls += [case.argv for case in CASES]
    return calls


def run_workloads():
    import worker
    from workloads import WORKLOADS, generate

    for workload in WORKLOADS:
        queries = json.loads(json.dumps(generate(workload, 1, 40.0)))
        for q in queries:
            if q["kind"] == "cli":
                worker._run_cli_query(q["argv"])
                continue
            obj = worker._build_library_query(q)
            worker._residuals(q, obj, worker._run_library_query(q, obj))


def main():
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from bsdl import cli

        sink = io.StringIO()
        with tempfile.TemporaryDirectory() as out_dir:
            for argv in cli_calls(out_dir):
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        cli.main(argv)
                    except SystemExit:  # argparse rejected the command line
                        pass
                sink.seek(0)
                sink.truncate()
        run_workloads()
    finally:
        sys.setprofile(None)
    seen = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in entered}
    defined = defined_functions()
    never = sorted((key, name) for key, name in defined.items() if key not in seen)
    for _, name in never:
        print(name)
    print(f"{len(never)} functions never entered")
    unentered = {name for _, name in never}
    problems = [f"not in EXPECTED: {name}" for name in sorted(unentered - EXPECTED.keys())]
    for name in EXPECTED:
        if name not in defined.values():
            problems.append(f"expected but no longer defined: {name}")
        elif name not in unentered:
            problems.append(f"expected but entered: {name}")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
