"""Command line front end: catalog inspection, relation checks, and the
numerical estimators, all reporting JSON.

Exit status is 0 for a conclusive positive report, 2 for an inconclusive
or failing one (Unknown labels, open orbits, no fixed point found, a
relation or criterion that does not pass, or a numerical method that
gave up on valid input: GraphFoldError, NonConvergentError), and 1 for
usage or runtime errors. Reports are strict JSON: a NaN or infinite
value is an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .bsgroup import faithfulness, finite_bs_orbit, relation_report
from .catalog import CATALOG, build_action
from .circle import rotation_number
from .estimators import bs_minimal_set, fixed_cells
from .experiments import (
    GraphFoldError,
    NonConvergentError,
    classify_perturbed,
    persistent_fixed_point,
)
from .gl2z import IntMatrix2, conjugate_in_gl2z, finite_order
from .report import jsonable
from .torus import bs_rotation_constraint, rotation_set

OK = 0
ERROR = 1
INCONCLUSIVE = 2

_CLI_ERRORS = (ValueError, TypeError, KeyError, RuntimeError, OSError, MemoryError)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps(payload):
    return _indented(payload, "\n")


def _indented(x, pad):
    """json.dumps(jsonable(x), indent=1, sort_keys=True, allow_nan=False),
    byte for byte, in one walk; pad is the newline and indent of the line
    x starts on.

    With an indent the standard library encodes value by value in
    Python. Here a float is its repr, an int its repr, and every other
    scalar and each key goes through json.dumps, which the C encoder
    writes. Plain JSON values are written as they are; any other value,
    such as a `Report` or an array, is first made plain by `jsonable`.
    """
    if isinstance(x, float):
        if not math.isfinite(x):
            json.dumps(x, indent=1, allow_nan=False)  # json's own ValueError
        return float.__repr__(x)
    inner = pad + " "
    if isinstance(x, dict):
        if not x:
            return "{}"
        if not all(type(k) is str for k in x):
            x = jsonable(x)  # its keys as strings
        items = [json.dumps(k) + ": " + _indented(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(x) is list or type(x) is tuple:
        if not x:
            return "[]"
        # the bulk of a report is finite floats and ints, which skip the call
        items = [
            float.__repr__(v) if type(v) is float and v - v == 0.0
            else int.__repr__(v) if type(v) is int
            else _indented(v, inner)
            for v in x
        ]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if type(x) in (str, int, bool, type(None)):
        return json.dumps(x)
    plain = jsonable(x)
    return json.dumps(x) if plain is x else _indented(plain, pad)


def _emit(payload, args):
    text = _dumps(payload)
    if args.out:
        _atomic_write(args.out, text + "\n")
    else:
        print(text)


def _build(args):
    flags = {key: getattr(args, key) for key in ("eps", "k")}
    params = {key: value for key, value in flags.items() if value is not None}
    return build_action(args.action, args.n, **params)


def _parse_matrix(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"matrix needs 4 comma-separated integers, got {text!r}")
    a, b, c, d = (int(p) for p in parts)
    return IntMatrix2.from_rows((a, b), (c, d))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_catalog(args):
    if args.action:
        e = CATALOG[args.action]
        _emit(
            {
                "id": e.id,
                "space": e.space,
                "summary": e.summary,
                "defaults": e.defaults,
                "expected": e.expected_for(args.n),
            },
            args,
        )
        return OK
    rows = [
        {
            "id": e.id,
            "space": e.space,
            "summary": e.summary,
            "defaults": e.defaults,
        }
        for e in (CATALOG[k] for k in sorted(CATALOG))
    ]
    _emit(rows, args)
    return OK


def _cmd_verify_relation(args):
    act = _build(args)
    rep = relation_report(act, grid=args.resolution, primary_tol=args.tol)
    # the exit status is the relation's; the decision rides along
    _emit({"action": act.name, **rep.to_json(), "faithfulness": faithfulness(act)}, args)
    return OK if rep.passed else INCONCLUSIVE


def _cmd_rotation_number(args):
    act = _build(args)
    if act.space != "circle":
        raise ValueError(
            "rotation-number works on circle actions; use trichotomy or "
            "rotation-set for torus actions"
        )
    lift = act.h if args.gen == "h" else act.f
    est = rotation_number(lift, iterates=args.iterates, tol=args.tol)
    _emit({"action": act.name, "generator": args.gen, **est.to_json()}, args)
    return OK


def _cmd_rotation_set(args):
    act = _build(args)
    if act.space != "torus":
        raise ValueError("rotation-set needs a torus action")
    est = rotation_set(act.f, grid=args.resolution, iterates=args.iterates)
    constraint = bs_rotation_constraint(est.center, act.h.linear_part, act.n)
    _emit(
        {
            "action": act.name,
            "estimate": est.to_json(),
            "constraint": constraint.to_json(),
        },
        args,
    )
    return OK


def _cmd_fixed_set(args):
    act = _build(args)
    cells = fixed_cells(act.f, resolution=args.resolution, delta=args.tol)
    _emit(
        {
            "action": act.name,
            "count": len(cells),
            "measure": cells.measure(),
            **cells.to_json(),
        },
        args,
    )
    return OK


def _cmd_minimal_set(args):
    act = _build(args)
    est = bs_minimal_set(
        act, resolution=args.resolution, orbit_iterates=args.iterates
    )
    _emit({"action": act.name, **est.to_json()}, args)
    return OK if est.label != "Unknown" else INCONCLUSIVE


def _cmd_finite_orbit(args):
    act = _build(args)
    space = act.space
    x0 = space.parse_point(args.start) if args.start else np.zeros(space.shape)
    orb = finite_bs_orbit(act, x0, merge_tol=args.tol)
    _emit({"action": act.name, **orb.to_json()}, args)
    return OK if orb.closed else INCONCLUSIVE


def _cmd_classify_matrix(args):
    A = _parse_matrix(args.matrix)
    payload = {
        "matrix": [list(r) for r in A.rows()],
        "det": A.det(),
        "trace": A.trace(),
        "unimodular": A.is_unimodular(),
        "order": finite_order(A) if A.is_unimodular() else None,
    }
    if args.other:
        B = _parse_matrix(args.other)
        X = conjugate_in_gl2z(A, B)
        payload["other"] = [list(r) for r in B.rows()]
        payload["conjugator"] = None if X is None else [list(r) for r in X.rows()]
        payload["conjugate"] = X is not None
    _emit(payload, args)
    return OK


def _cmd_trichotomy(args):
    act = _build(args)
    base = args.resolution
    rep = classify_perturbed(
        act,
        resolutions=(base, 2 * base, 4 * base),
        orbit_iterates=args.iterates,
    )
    _emit({"action": act.name, **rep.to_json()}, args)
    return OK if rep.outcome != "Unknown" else INCONCLUSIVE


def _cmd_persistent_fp(args):
    act = _build(args)
    v = persistent_fixed_point(act, search_resolution=args.resolution, tol=args.tol)
    if v is None:
        _emit({"action": act.name, "found": False, "point": None}, args)
        return INCONCLUSIVE
    point = [float(p) for p in np.atleast_1d(np.asarray(v, dtype=float))]
    _emit({"action": act.name, "found": True, "point": point}, args)
    return OK


def _cmd_reproduce_all(args):
    from .acceptance import run_all

    rows = run_all(seed=args.seed)
    for r in rows:
        mark = "PASS" if r["passed"] else "FAIL"
        print(f"[{r['id']:2d}] {r['name']:26s} {mark} {r['elapsed']:7.2f}s")
    n_pass = sum(r["passed"] for r in rows)
    print(f"{n_pass}/{len(rows)} criteria passed (seed {args.seed})")
    if args.out:
        _atomic_write(args.out, _dumps(rows) + "\n")
    return OK if n_pass == len(rows) else INCONCLUSIVE


# ---------------------------------------------------------------------------
# wiring


# type and help text of the flags that `_subcommand` adds with a default
_FLAGS = {
    "resolution": (int, "grid resolution"),
    "iterates": (int, "orbit length"),
    "tol": (float, "tolerance"),
    "seed": (int, "random seed"),
}
_ENTRY_DEFAULT = "(default: the entry's)"


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser takes its positionals before, between or
    after the flags, and reports leftover arguments itself, so the usage
    line shows the flags this subcommand takes."""

    _intermixed = False

    def parse_known_args(self, args=None, namespace=None):
        parsed, extra = super().parse_known_args(args, namespace)
        if self._intermixed:  # a pass of parse_known_intermixed_args
            return parsed, extra
        if extra:
            # the plain parse fills the positionals at the first one, so a
            # start after a flag is left over. The intermixed parse takes
            # it, but drops a "--" in front of every positional, where the
            # plain parse is right.
            self._intermixed = True
            try:
                parsed, extra = self.parse_known_intermixed_args(args, namespace)
            finally:
                self._intermixed = False
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return parsed, extra


def _subcommand(sub, name, fn, help, action=True, **defaults):
    """The parser of one subcommand. With `action` it takes a catalog
    action and --n, --eps, --k; then one flag per keyword, with that
    default, and --out."""
    p = sub.add_parser(name, help=help)
    if action:
        p.add_argument("action")
        p.add_argument("--n", type=int, help=f"group parameter n {_ENTRY_DEFAULT}")
        p.add_argument("--eps", type=float, help=f"fiber angle offset {_ENTRY_DEFAULT}")
        p.add_argument("--k", metavar="SPEC", help=f"fiber lift spec {_ENTRY_DEFAULT}")
    for flag, default in defaults.items():
        kind, text = _FLAGS[flag]
        p.add_argument(
            f"--{flag}", type=kind, default=default,
            help=f"{text} (default: %(default)s)",
        )
    p.add_argument("--out", metavar="PATH", help="write the JSON to PATH")
    p.set_defaults(fn=fn)
    return p


@functools.cache
def _parser():
    ap = argparse.ArgumentParser(
        prog="bsdl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    p = _subcommand(
        sub, "catalog", _cmd_catalog, "list actions or show one entry", action=False
    )
    p.add_argument("action", nargs="?", default=None)
    p.add_argument(
        "--n", type=int, help=f"group parameter n of the verdicts {_ENTRY_DEFAULT}"
    )

    _subcommand(
        sub, "verify-relation", _cmd_verify_relation,
        "check h f h^-1 = f^n on a grid, and decide faithfulness",
        resolution=10000, tol=1e-8,
    )

    p = _subcommand(
        sub, "rotation-number", _cmd_rotation_number,
        "rotation number of a generator", iterates=10**5, tol=1e-8,
    )
    p.add_argument(
        "--gen", choices=("f", "h"), default="h",
        help="generator (default: %(default)s)",
    )

    _subcommand(
        sub, "rotation-set", _cmd_rotation_set,
        "rotation set of b with the relation constraint", resolution=32, iterates=10**4,
    )

    p = _subcommand(
        sub, "fixed-set", _cmd_fixed_set,
        "cells with small b displacement", resolution=256,
    )
    p.add_argument(
        "--tol", type=float, help="displacement bound (default: 4 / resolution)"
    )

    _subcommand(
        sub, "minimal-set", _cmd_minimal_set,
        "minimal set estimate and label", resolution=256, iterates=10**5,
    )

    p = _subcommand(
        sub, "finite-orbit", _cmd_finite_orbit,
        "orbit closure under both generators", tol=1e-6,
    )
    p.add_argument(
        "start", nargs="?", default=None,
        help="x or u,theta; after -- when it begins with - (default: the origin)",
    )

    p = _subcommand(
        sub, "classify-matrix", _cmd_classify_matrix,
        "order and conjugacy of integer matrices", action=False,
    )
    p.add_argument("matrix", help="a,b,c,d")
    p.add_argument("other", nargs="?", default=None, help="a,b,c,d to test conjugacy")

    _subcommand(
        sub, "trichotomy", _cmd_trichotomy,
        "classify the minimal set of a torus action", resolution=256, iterates=10**5,
    )

    _subcommand(
        sub, "persistent-fp", _cmd_persistent_fp,
        "common fixed point of both generators", resolution=64, tol=1e-8,
    )

    _subcommand(
        sub, "reproduce-all", _cmd_reproduce_all, "run the numbered acceptance checks",
        action=False, seed=7,
    )

    return ap


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means inconclusive;
        # --help exits 0 as before
        if exc.code == 0:
            raise
        return ERROR
    try:
        return args.fn(args)
    except (GraphFoldError, NonConvergentError) as exc:
        # valid input on which a numerical method gave up: inconclusive
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except _CLI_ERRORS as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {text}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
