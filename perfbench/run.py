"""bsdl benchmark: seeded closed-loop workloads, judged and timed.

    python3 perfbench/run.py --workload conjugation --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository. The workload's query list is
generated from --seed (README.md describes the workloads). One fresh
single-threaded worker process sets up and issues the queries one after
another; every verdict goes through the oracle. Set-up is repeated in
SETUP_SAMPLES processes and its median reported.

--trace 0 prints the end-to-end metrics. --trace 1 runs the list twice,
in an untraced and a traced worker, checks that both give the same
verdicts, prints the per-layer metrics and writes the span trace to
.perfbench_out/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

from oracle import FAILED, INCORRECT, judge  # noqa: E402
from workloads import TAIL_PERCENTILE, WORKLOADS, generate  # noqa: E402


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # the library default (one thread in the orbit sweeps) applies
    env.pop("BSDL_THREADS", None)
    return env


def _run(queries, deadline, setup_only=False, trace_path=None):
    """Run one worker to completion; return (set-up seconds, output).

    A watchdog kills the worker at `deadline` (a perf_counter time), so
    a hung worker ends the run with an error instead of outliving it."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(queries))
        proc.stdin.close()
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode} "
                         f"(killed at the run deadline if negative)")
    return setup, out


def run_worker(queries, deadline, trace_path=None):
    setup, out = _run(queries, deadline, trace_path=trace_path)
    report = json.loads(out.strip().splitlines()[-1])
    if not Path(report["bsdl_file"]).is_relative_to(SRC):
        raise BenchError(f"worker imported bsdl from {report['bsdl_file']}, not {SRC}")
    report["setup_s"] = setup
    return report


def setup_samples(queries, deadline, count):
    return [_run(queries, deadline, setup_only=True)[0] for _ in range(count)]


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-p * len(s) // 100) - 1))
    return s[k]


def judge_all(queries, report):
    verdicts = []
    for q, rec in zip(queries, report["records"]):
        status, reason = judge(q, rec)
        verdicts.append({"id": q["id"], "status": status, "reason": reason,
                         "elapsed": rec["elapsed"]})
    return verdicts


def end_to_end(workload, verdicts, report, setups):
    attempted = len(verdicts)
    good = [v["elapsed"] for v in verdicts if v["status"] not in FAILED]
    if not good:
        raise BenchError("no query succeeded")
    failed = sum(v["status"] in FAILED for v in verdicts)
    unknown = sum(v["status"] == "unknown" for v in verdicts)
    p = TAIL_PERCENTILE[workload]
    metrics = {
        "wall_s": (report["wall_s"], "s"),
        "query_p50_s": (statistics.median(good), "s"),
        "query_tail_s": (percentile(good, p), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    ratios = {"failed_ratio": (failed / attempted, "ratio"),
              "unknown_ratio": (unknown / attempted, "ratio")}
    return metrics, ratios, len(good), failed


def provenance(seed):
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
        "BSDL_THREADS": "unset in the worker, library default of 1 thread",
        "blas_threads": 1,
    }


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "bsdl" / "__init__.py").is_file():
        print(f"error: no bsdl sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    queries = generate(args.workload, args.seed, args.seconds)
    sent = [{k: q[k] for k in ("id", "kind", "argv", "params") if k in q} for q in queries]

    try:
        report = run_worker(sent, deadline)
        verdicts = judge_all(queries, report)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            traced = run_worker(sent, deadline, trace_path=trace_path)
            setups = [report["setup_s"]]
        else:
            setups = setup_samples(sent, deadline, SETUP_SAMPLES - 1)
            setups.append(report["setup_s"])
        metrics, ratios, n_good, failed = end_to_end(args.workload, verdicts, report, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = not any(v["status"] in INCORRECT for v in verdicts)
    for v in verdicts:
        if v["status"] != "ok":
            print(f"query {v['id']}: {v['status']}: {v['reason']}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))

    if args.trace:
        from tracer import per_layer_metrics

        traced_verdicts = judge_all(queries, traced)
        same = [(a["status"], r["output"], r["exit"], r["raised"])
                for a, r in zip(verdicts, report["records"])] == [
                (a["status"], r["output"], r["exit"], r["raised"])
                for a, r in zip(traced_verdicts, traced["records"])]
        if not same:
            print("error: traced and untraced runs gave different verdicts", file=sys.stderr)
            correct = False
        if traced["max_child_excess_ns"] > 0:
            print("error: a span's children outlasted it", file=sys.stderr)
            correct = False
        layer = per_layer_metrics(traced["trace_totals"], traced["output_bytes"],
                                  traced["wall_s"] / report["wall_s"], traced["span_count"])
        layer.update(ratios)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        for name, (value, unit) in layer.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        emit(correct, len(verdicts), failed, layer)
        return 0

    for name, (value, unit) in {**metrics, **ratios}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} samples: {len(verdicts)} queries, {n_good} in the latency "
          f"metrics, tail = p{TAIL_PERCENTILE[args.workload]}")
    emit(correct, len(verdicts), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
