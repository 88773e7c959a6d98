"""Span tracer that wraps bsdl's layer boundaries from outside.

`install()` replaces the public functions listed in TRACED and the
`raw` method of every lift class with timing wrappers. The package
imports functions by name into other modules (`bsdl.cli` binds its own
`fixed_cells`, `bsdl.experiments` its own `rotation_set`), so every
module-level binding of a traced function in `bsdl.*` is replaced, not
only the one in the defining module. No library file is touched.

A span has a name, start, end, parent span, query id and (for `raw`)
the number of points. Self time (a span's duration minus the time its
child spans cover) and per-name and per-query totals are accumulated as
spans close; span records themselves are kept in memory up to SPAN_CAP
per query and written out with the totals.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function): public functions timed as spans
TRACED = (
    ("gl2z", "finite_order"),
    ("gl2z", "conjugate_in_gl2z"),
    ("circle", "rotation_number"),
    ("torus", "rotation_set"),
    ("torus", "conjugate_rotation_set_check"),
    ("bsgroup", "make_action"),
    ("bsgroup", "relation_report"),
    ("bsgroup", "finite_bs_orbit"),
    ("catalog", "build_action"),
    ("estimators", "fixed_cells"),
    ("estimators", "bs_minimal_set"),
    ("experiments", "find_invariant_circle"),
    ("experiments", "classify_perturbed"),
    ("experiments", "persistent_fixed_point"),
    ("experiments", "near_identity_diffeo"),
    ("experiments", "conjugated_action"),
    ("cli", "main"),
)

SPAN_CAP = 2000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.query = "setup"
        self.stack = []  # open spans: [record index, start ns, child ns]
        self.totals = {}  # name -> [calls, self ns, total ns, points, extra]
        self.by_query = {}  # query -> name -> [calls, self ns]
        self.spans = []  # [name, start ns, end ns, parent index, query, points]
        self.kept = {}  # query -> span records kept
        self.count = 0
        self.max_child_excess = 0
        self.t0 = time.perf_counter_ns()

    def open(self, name, points=0):
        now = time.perf_counter_ns()
        idx = -1
        kept = self.kept.get(self.query, 0)
        if kept < self.span_cap:
            self.kept[self.query] = kept + 1
            parent = self.stack[-1][0] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([name, now - self.t0, None, parent, self.query, points])
        frame = [idx, now, 0]
        self.stack.append(frame)
        return frame

    def close(self, frame, name, points=0, extra=0):
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame[1]
        own = dur - frame[2]
        if own < 0:
            self.max_child_excess = max(self.max_child_excess, -own)
        if self.stack:
            self.stack[-1][2] += dur
        if frame[0] >= 0:
            self.spans[frame[0]][2] = end - self.t0
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = [0, 0, 0, 0, 0]
        t[0] += 1
        t[1] += own
        t[2] += dur
        t[3] += points
        t[4] += extra
        q = self.by_query.setdefault(self.query, {}).get(name)
        if q is None:
            q = self.by_query[self.query][name] = [0, 0]
        q[0] += 1
        q[1] += own
        self.count += 1

    def dump(self):
        return {
            "totals": {
                name: {
                    "calls": t[0],
                    "self_s": t[1] * 1e-9,
                    "total_s": t[2] * 1e-9,
                    "points": t[3],
                    "extra": t[4],
                }
                for name, t in sorted(self.totals.items())
            },
            "by_query": {
                query: {name: {"calls": c, "self_s": ns * 1e-9} for name, (c, ns) in names.items()}
                for query, names in self.by_query.items()
            },
            "span_count": self.count,
            "span_cap_per_query": self.span_cap,
            "spans_kept": len(self.spans),
            "spans": self.spans,
        }


# counts taken from a traced function's result: (points, extra)
POST_HOOKS = {
    "bsgroup.finite_bs_orbit": lambda r: (int(r.size), int(bool(r.closed))),
    "experiments.find_invariant_circle": lambda r: (0, int(r.iterations)),
}


def _wrap_function(tracer, name, fn, post):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            points, extra = post(result) if (post and result is not None) else (0, 0)
            tracer.close(frame, name, points, extra)

    return traced


def _raw_name(layer, lift, size):
    label = getattr(lift, "label", "")
    if layer == "torus" and label.startswith("bump("):
        return "experiments.bump_inverse" if label.endswith("^-1") else "experiments.bump"
    return f"{layer}.raw.{'scalar' if size <= 1 else 'batch'}"


def _wrap_raw(tracer, layer, raw):
    width = 2 if layer == "torus" else 1

    @functools.wraps(raw)
    def traced(self, x):
        points = max(1, np.size(x) // width)
        name = _raw_name(layer, self, points)
        frame = tracer.open(name, points)
        try:
            return raw(self, x)
        finally:
            tracer.close(frame, name, points)

    return traced


def install(tracer: Tracer):
    """Wrap every traced function binding and lift `raw` in bsdl.*."""
    import bsdl
    import bsdl.cli  # noqa: F401  (bind the CLI's names before patching)
    from bsdl.circle import CircleLift
    from bsdl.torus import TorusLift

    modules = [m for k, m in list(sys.modules.items()) if k == "bsdl" or k.startswith("bsdl.")]
    for mod_name, fn_name in TRACED:
        mod = sys.modules[f"bsdl.{mod_name}"]
        orig = getattr(mod, fn_name)
        span = f"{mod_name}.{fn_name}"
        wrapped = _wrap_function(tracer, span, orig, POST_HOOKS.get(span))
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)
    for base, layer in ((CircleLift, "circle"), (TorusLift, "torus")):
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "raw" in vars(cls):
                setattr(cls, "raw", _wrap_raw(tracer, layer, vars(cls)["raw"]))
    return tracer


def per_layer_metrics(totals: dict, output_bytes: int, overhead_ratio: float,
                      span_count: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from per-name totals."""

    def t(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for layer in ("circle", "torus"):
        s, b = f"{layer}.raw.scalar", f"{layer}.raw.batch"
        m[f"{s}_calls"] = (t(s, "calls"), "count")
        m[f"{s}_self_s"] = (t(s, "self_s"), "s")
        m[f"{s}_us"] = (ratio(t(s, "self_s"), t(s, "calls"), 1e6), "us")
        m[f"{b}_calls"] = (t(b, "calls"), "count")
        m[f"{b}_points"] = (t(b, "points"), "count")
        m[f"{b}_self_s"] = (t(b, "self_s"), "s")
        m[f"{b}_ns_per_point"] = (ratio(t(b, "self_s"), t(b, "points"), 1e9), "ns")
    for name in ("torus.rotation_set", "circle.rotation_number",
                 "estimators.fixed_cells", "bsgroup.make_action",
                 "gl2z.conjugate_in_gl2z", "cli.main"):
        m[f"{name}.calls"] = (t(name, "calls"), "count")
        m[f"{name}.self_s"] = (t(name, "self_s"), "s")
    for name in ("experiments.bump", "experiments.bump_inverse"):
        m[f"{name}.calls"] = (t(name, "calls"), "count")
        m[f"{name}.points"] = (t(name, "points"), "count")
        m[f"{name}.self_s"] = (t(name, "self_s"), "s")
    bi = "experiments.bump_inverse"
    m[f"{bi}.us_per_point"] = (ratio(t(bi, "self_s"), t(bi, "points"), 1e6), "us")
    fic = "experiments.find_invariant_circle"
    m[f"{fic}.calls"] = (t(fic, "calls"), "count")
    m[f"{fic}.self_s"] = (t(fic, "self_s"), "s")
    m[f"{fic}.iterations"] = (t(fic, "extra"), "count")
    for name in ("experiments.classify_perturbed", "experiments.persistent_fixed_point",
                 "experiments.near_identity_diffeo", "experiments.conjugated_action",
                 "estimators.bs_minimal_set", "bsgroup.relation_report",
                 "catalog.build_action", "gl2z.finite_order"):
        m[f"{name}.self_s"] = (t(name, "self_s"), "s")
    fo = "bsgroup.finite_bs_orbit"
    m[f"{fo}.calls"] = (t(fo, "calls"), "count")
    m[f"{fo}.self_s"] = (t(fo, "self_s"), "s")
    m[f"{fo}.points"] = (t(fo, "points"), "count")
    m[f"{fo}.closed_ratio"] = (ratio(t(fo, "extra"), t(fo, "calls")), "ratio")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.spans"] = (span_count, "count")
    return m
