"""One workload process: set up, then run the queries in a closed loop.

Started by run.py as a fresh single-threaded interpreter with `src` on
PYTHONPATH. Reads the query list (without expectations) as JSON on
stdin, imports bsdl and builds the workload's actions, prints READY,
then issues the queries one after another. Each query's output is sent
back as the text the program produced (CLI stdout, or the library
result as JSON written with NaN allowed, so the oracle sees it), with
its exit status or exception; verdicts are judged by run.py.

    python3 perfbench/worker.py [--setup-only] [--trace PATH] < queries.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _build_library_query(q):
    """Objects a conjugation query needs; built during set-up. A
    persistence query conjugates its action itself, in the timed call."""
    import bsdl
    from bsdl.torus import LinearTorusLift

    p = q["params"]
    if q["kind"] == "covariance":
        ident = bsdl.IntMatrix2.identity()
        F = LinearTorusLift(ident, tuple(p["t"]))
        psi = bsdl.near_identity_diffeo(p["psi_size"], seed=p["psi_seed"])
        if p["shear"]:
            A = bsdl.IntMatrix2.from_rows((1, 1), (0, 1))
            H = bsdl.compose2(LinearTorusLift(A), psi)
        else:
            A, H = ident, psi
        G = bsdl.compose2(H, bsdl.compose2(F, H.inverse()))
        return {"F": F, "G": G, "A": A}
    if q["kind"] == "persistence":
        return {"base": bsdl.morse_smale_example(p["n"]),
                "psi": bsdl.near_identity_diffeo(p["psi_size"], seed=p["psi_seed"])}
    psi = bsdl.near_identity_diffeo(p["psi_size"], seed=p["psi_seed"])
    return {"action": bsdl.conjugated_action(bsdl.perturbed_torus(p["n"], p["eps"]), psi)}


def _run_library_query(q, obj):
    import bsdl

    p = q["params"]
    if q["kind"] == "covariance":
        rep = bsdl.conjugate_rotation_set_check(obj["F"], obj["G"], obj["A"],
                                                grid=p["grid"], iterates=p["iterates"])
        return {"consistent": bool(rep.consistent), "hausdorff": rep.hausdorff,
                "tolerance": rep.tolerance}
    if q["kind"] == "persistence":
        # conjugated_action re-verifies the relation numerically
        obj["action"] = bsdl.conjugated_action(obj["base"], obj["psi"])
        v = bsdl.persistent_fixed_point(obj["action"], search_resolution=p["search_resolution"],
                                        tol=p["tol"])
        return {"found": v is not None, "point": None if v is None else [float(c) for c in v]}
    act = obj["action"]
    circle = bsdl.find_invariant_circle(act.h, 0.0, samples=p["samples"])
    rep = bsdl.classify_perturbed(act, circle=circle, resolutions=tuple(p["resolutions"]),
                                  orbit_iterates=p["orbit_iterates"])
    w = rep.evidence.get("witness")
    return {"outcome": rep.outcome, "circle_residual": circle.residual,
            "witness": None if w is None else [int(w["p"]), int(w["q"])]}


def _residuals(q, obj, result):
    """Generator residuals at a returned fixed point, computed after the
    query's clock has stopped."""
    import numpy as np
    from bsdl import torus_dist

    if q["kind"] != "persistence" or not result["found"]:
        return result
    act, v = obj["action"], np.asarray(result["point"], dtype=float)
    result["residual"] = max(float(torus_dist(act.h.raw(v), v)),
                             float(torus_dist(act.f.raw(v), v)))
    return result


def _run_cli_query(argv):
    from bsdl import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit:  # argparse rejected the command line
            code = 1
    return code, out.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, metavar="PATH")
    args = ap.parse_args(argv)
    queries = json.loads(sys.stdin.read())

    import bsdl
    import bsdl.cli  # noqa: F401

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = install(Tracer())
    built = {q["id"]: _build_library_query(q) for q in queries if q["kind"] != "cli"}
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records = []
    output_bytes = 0
    between = 0.0
    t_start = time.perf_counter()
    for q in queries:
        if tracer:
            tracer.query = q["id"]
        # start every query from a collected heap, as a fresh CLI process
        # would, so a collection left over from earlier queries is not
        # charged to this one; the collection itself is not timed
        t_gc = time.perf_counter()
        gc.collect()
        between += time.perf_counter() - t_gc
        rec = {"id": q["id"], "raised": None, "exit": 0, "output": ""}
        t0 = time.perf_counter()
        try:
            if q["kind"] == "cli":
                rec["exit"], rec["output"] = _run_cli_query(q["argv"])
            else:
                result = _run_library_query(q, built[q["id"]])
                rec["elapsed"] = time.perf_counter() - t0
                rec["output"] = json.dumps(_residuals(q, built[q["id"]], result))
        except Exception as exc:  # the oracle counts it as a failure
            where = traceback.extract_tb(exc.__traceback__)[-1]
            rec["raised"] = (f"{type(exc).__name__}: {exc} "
                             f"at {Path(where.filename).name}:{where.lineno}")
        rec.setdefault("elapsed", time.perf_counter() - t0)
        output_bytes += len(rec["output"])
        records.append(rec)
    wall = time.perf_counter() - t_start - between
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0,
              "output_bytes": output_bytes, "records": records,
              "bsdl_file": str(Path(bsdl.__file__).resolve())}
    if tracer:
        dump = tracer.dump()
        dump["max_child_excess_ns"] = tracer.max_child_excess
        Path(args.trace).write_text(json.dumps(dump))
        report["trace_totals"] = dump["totals"]
        report["span_count"] = dump["span_count"]
        report["max_child_excess_ns"] = tracer.max_child_excess
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
