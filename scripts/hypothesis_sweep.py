"""Run the property tests at hypothesis seeds 1 ... K with the example
database off, and print each failing test with its falsifying draw.

    python scripts/hypothesis_sweep.py --seeds 1-40 [--rev HEAD]

A Tier-1 run draws new inputs each time and replays the failures that
the local `.hypothesis/` database holds, so a law that is false on a rare
draw passes or fails by chance. This script makes those draws a function
of the tree and the seed. It runs the tests of a `git archive` of REV
(default HEAD) in a temporary directory, each module that imports
hypothesis on its own, once per seed, as

    pytest tests/test_<name>.py -m hypothesis --hypothesis-seed S

(`-m hypothesis` selects the tests that hypothesis's pytest plugin marks,
those under `@given`), with a plugin written next to the copy that loads
a settings profile with `database=None`; `@settings` on a test keep
their `max_examples`. A module runs alone because hypothesis also draws
the literal constants of the modules a run has loaded, so the draws at a
seed depend on which modules were collected with it: before the offset
of `ChartAffineLift.power` kept its bits near a unit slope, the failing
`ChartAffineLift(0.99999, 1.0)` draw of `test_fusion.py` showed at seeds
30 and 33 when that module ran alone, and not in a run of the whole
suite. Each failure is printed under its seed with the "Falsifying
example" and "Draw" lines of its report. The script exits 1 if any seed
fails. A seed takes 60 to 80 s on two cores, so K = 40 takes about an
hour. It is not part of Tier-1 or CI. Standard library and pytest only;
the package needs numpy and the tests hypothesis.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PLUGIN = """\
from hypothesis import settings

settings.register_profile("sweep", database=None)
settings.load_profile("sweep")
"""


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def archive(rev, dest):
    """The files of rev under dest, as `git archive` gives them."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if tar.returncode != 0:
        raise SystemExit(f"git archive {rev} failed:\n{tar.stderr.decode()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def draw_lines(text):
    """The lines of a failure report that say what hypothesis drew: its
    falsifying example, whose call may run over several lines, and the
    values drawn through `st.data()`."""
    out, depth, indent = [], 0, 0
    for line in text.splitlines():
        if line.startswith("E "):  # pytest's prefix on an exception's lines
            line = line[1:]
        s = line.strip()
        if depth > 0 or s.startswith("Falsifying example:"):
            if depth == 0:
                indent = len(line) - len(line.lstrip())
            out.append(line[indent:].rstrip())
            depth = max(depth + s.count("(") - s.count(")"), 0)
        elif s.startswith("Draw "):
            out.append(s)
    return out


def failures(junit):
    """(test id, draw lines) for each failed or erroring test of a junit file."""
    out = []
    for case in ET.parse(junit).getroot().iter("testcase"):
        for bad in list(case.findall("failure")) + list(case.findall("error")):
            name = f"{case.get('classname')}::{case.get('name')}"
            out.append((name, draw_lines(bad.text or bad.get("message") or "")))
    return out


def property_modules(copy):
    return sorted(
        p.relative_to(copy).as_posix()
        for p in (copy / "tests").glob("test_*.py")
        if "from hypothesis" in p.read_text() or "import hypothesis" in p.read_text()
    )


def run_module(copy, plugin_dir, module, seed):
    """The failures of one module at one seed, as `failures` gives them."""
    junit = plugin_dir / "report.xml"
    junit.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "pytest", module, "-q", "-p", "no:cacheprovider",
        "-p", "sweep_profile", "-m", "hypothesis", "--tb=short",
        f"--hypothesis-seed={seed}", f"--junitxml={junit}",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(plugin_dir), str(copy / "src")])
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if not junit.exists():
        raise SystemExit(f"{module} at seed {seed}: pytest wrote no report\n"
                         f"{proc.stdout}{proc.stderr}")
    return failures(junit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-40", help="A-B, inclusive (default 1-40)")
    ap.add_argument("--rev", default="HEAD", help="git revision to test (default HEAD)")
    args = ap.parse_args(argv)
    failed_seeds = 0
    with tempfile.TemporaryDirectory(prefix="hypothesis-sweep-") as tmp:
        tmp = Path(tmp)
        copy, plugin_dir = tmp / "tree", tmp / "plugin"
        copy.mkdir()
        plugin_dir.mkdir()
        archive(args.rev, copy)
        (plugin_dir / "sweep_profile.py").write_text(PLUGIN)
        modules = property_modules(copy)
        for seed in parse_seeds(args.seeds):
            fails = []
            for module in modules:
                fails += run_module(copy, plugin_dir, module, seed)
            print(f"seed {seed}: {len(fails)} failed", flush=True)
            failed_seeds += bool(fails)
            for name, draw in fails:
                print(f"  FAILED {name}")
                for line in draw:
                    print(f"    {line}")
    n = len(parse_seeds(args.seeds))
    print(f"{failed_seeds} of {n} seeds failed")
    return 1 if failed_seeds else 0


if __name__ == "__main__":
    sys.exit(main())
