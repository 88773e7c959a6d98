"""Per-query correctness oracle.

A query's record (exit status, raised exception, output text) is judged
against the verdict its seeded construction implies:

    ok       the verdict agrees with the construction
    unknown  the program declined: Unknown, "not found", an open orbit
             where one should close, or "not conjugate within bound"
    crash    it raised, or exited with status 1
    invalid  its output is not strict JSON (NaN and Infinity rejected)
    wrong    a confident verdict that contradicts the construction
    known    a wrong verdict listed in KNOWN_DEFECTS: a defect of the
             program reproduced at the baseline, kept in the workload

crash, invalid, wrong and known count as failed; invalid and wrong also
make the run incorrect.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

FAILED = ("crash", "invalid", "wrong", "known")
INCORRECT = ("invalid", "wrong")

# Wrong verdicts of the program as it stands, each with a reproduction.
# A query that hits one counts as failed; any other wrong verdict makes
# the run incorrect.
KNOWN_DEFECTS = (
    (
        # finite_bs_orbit merges points closer than merge_tol = 1e-6, and
        # the truncated Denjoy map squeezes orbits through a seam arc of
        # width about 1e-6, so an infinite orbit "closes":
        # bsdl finite-orbit nonfaithful-circle --k denjoy:ln2,11,0.45
        "finite-orbit closes an infinite Denjoy orbit",
        lambda argv: argv[0] == "finite-orbit" and any(a.startswith("denjoy:") for a in argv),
    ),
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _frac_mod1(p, q) -> Fraction:
    return Fraction(int(p), int(q)) % 1


def _witness_matches(witness, expected) -> bool:
    """A witness (p, q) certifies rotation p/q; compare as reduced
    fractions mod 1 with the same period."""
    p, q = witness
    want = _frac_mod1(*expected)
    return _frac_mod1(p, q) == want and Fraction(p, q).denominator == want.denominator


def judge(query: dict, record: dict):
    """(status, reason) for one query."""
    if record.get("raised"):
        return "crash", record["raised"]
    if record.get("exit") not in (0, 2):
        return "crash", f"exit status {record.get('exit')}"
    try:
        data = strict_json(record.get("output", ""))
    except ValueError as exc:
        return "invalid", f"output is not strict JSON: {exc}"
    try:
        if query["kind"] != "cli":
            return _judge_library(query["kind"], query["expect"], data)
        status, reason = _judge_cli(query["argv"], query["expect"], data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return "invalid", f"output lacks the verdict fields: {exc!r}"
    if status == "wrong":
        for name, matches in KNOWN_DEFECTS:
            if matches(query["argv"]):
                return "known", f"{name}: {reason}"
    return status, reason


def _judge_library(kind, e, d):
    if kind == "covariance":
        if not math.isfinite(d["hausdorff"]):
            return "wrong", "non-finite Hausdorff distance"
        return ("ok", "") if d["consistent"] else ("wrong", "covariance check inconsistent")
    if kind == "persistence":
        if not d["found"]:
            return "unknown", "no persistent fixed point found"
        r = d["residual"]
        return ("ok", "") if r < e["residual_below"] else ("wrong", f"residual {r:.3e}")
    return _judge_outcome(e, d["outcome"], d["witness"])


def _judge_outcome(e, outcome, witness):
    if outcome == "Unknown":
        return "unknown", "trichotomy Unknown"
    if outcome != e["outcome"]:
        return "wrong", f"outcome {outcome}, construction implies {e['outcome']}"
    if "witness" in e:
        if witness is None or not _witness_matches(witness, e["witness"]):
            return "wrong", f"witness {witness}, construction implies {e['witness']}"
    return "ok", ""


def _judge_cli(argv, e, d):
    cmd = argv[0]
    if cmd == "verify-relation":
        return ("ok", "") if d["passed"] == e["passed"] else ("wrong", "relation check failed")
    if cmd == "classify-matrix":
        return _judge_matrix(argv, e, d)
    if cmd == "minimal-set":
        label = d["label"]
        if label == "Unknown":
            return "unknown", "minimal set Unknown"
        if label != e["label"]:
            return "wrong", f"label {label}, construction implies {e['label']}"
        size = d["diagnostics"].get("orbit_size")
        if label == "FiniteOrbit" and size != e["size"]:
            return "wrong", f"orbit size {size}, construction implies {e['size']}"
        return "ok", ""
    if cmd == "finite-orbit":
        if d["closed"] and not e["closed"]:
            return "wrong", f"closed orbit of size {d['size']} for an infinite orbit"
        if not d["closed"] and e["closed"]:
            return "unknown", "orbit did not close"
        if d["closed"] and d["size"] != e["size"]:
            return "wrong", f"orbit size {d['size']}, construction implies {e['size']}"
        return "ok", ""
    if cmd == "trichotomy":
        w = d["evidence"].get("witness")
        return _judge_outcome(e, d["outcome"], None if w is None else (w["p"], w["q"]))
    raise ValueError(f"no oracle for {cmd}")


def _judge_matrix(argv, e, d):
    from bsdl.gl2z import IntMatrix2

    def parse(text):
        a, b, c, dd = (int(x) for x in text.split(","))
        return IntMatrix2.from_rows((a, b), (c, dd))

    if "order" in e:
        return ("ok", "") if d["order"] == e["order"] else (
            "wrong", f"order {d['order']}, want {e['order']}")
    X = d["conjugator"]
    if X is None:
        return "unknown", "not conjugate within bound"
    A, B = parse(argv[-2]), parse(argv[-1])
    Xm = IntMatrix2.from_rows(*X)
    if abs(Xm.det()) != 1 or Xm * B != A * Xm:
        return "wrong", f"returned conjugator {X} fails X B = A X"
    if not e["conjugate"]:
        return "wrong", "conjugator returned for a non-conjugate pair"
    return "ok", ""
