"""Seeded query lists for the two benchmark workloads.

A workload is a fixed template of slots. Each slot names one query kind
(a CLI subcommand on a catalog entry, or a library call) and draws its
parameters from a generator seeded by (workload, seed, pass). A run is a
whole number of passes over the template, chosen so that the nominal
cost of the list (baseline seconds per slot, measured on a 2-CPU x86-64
machine) is close to the requested run length. The list therefore
depends only on (workload, seed, seconds), never on how fast the
program is. Every pass has the same mix of kinds; a few slots also
depend on the pass index (orbit-scalar swaps its two long torus entries
from one pass to the next), never on the seed.

Query sizes are kept small enough that a run holds two to three passes
and no single query takes more than a few seconds: the median and the
tail are then read inside groups of many like queries, and the run
total is not carried by one or two long calls.

Every query carries `expect`, the verdict its construction implies; the
worker never sees it. Expectations come from the seeded construction
(a rational fiber angle p/q implies a closed orbit of size q, a
conjugation preserves a fixed point, ...) and from
`CatalogEntry.expected_for(n)`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Percentile reported as query_tail_s. Each falls inside a group of like
# queries (README.md lists them), so it does not jump between groups from
# seed to seed, and leaves at least ten queries beyond it at the default
# run length of 40 s.
TAIL_PERCENTILE = {"conjugation": 70, "orbit-scalar": 85}

CATALOG_IDS = (
    "standard-line",
    "standard-torus",
    "product",
    "periodic-circle",
    "periodic-torus",
    "perturbed-torus",
    "morse-smale",
    "nonfaithful-circle",
)
CIRCLE_IDS = ("standard-line", "periodic-circle", "nonfaithful-circle")
TORUS_IDS = tuple(e for e in CATALOG_IDS if e not in CIRCLE_IDS)
IRRATIONAL_NAMES = ("golden", "ln2", "ln3", "ln5", "ln7")
# orbit length of minimal-set and trichotomy in orbit-scalar (CLI default 10^5)
ORBIT_ITERATES = 20000
# orbit cap of finite_bs_orbit
ORBIT_CAP = 10**4


def _n_for(entry: str, rng) -> int:
    # the periodic examples need n >= 3 (one block would be a full turn)
    if entry.startswith("periodic"):
        return rng.choice((3, 5))
    return rng.choice((2, 3, 5))


def _fraction(rng, q_max: int = 12) -> Fraction:
    q = rng.randint(2, q_max)
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    return Fraction(p, q)


def _near_rational(alpha: float, q_max: int = ORBIT_CAP, tol: float = 1e-5) -> bool:
    """Whether q * alpha comes within tol of an integer for some q <= q_max.

    finite_bs_orbit caps an orbit at 10^4 points and merges points closer
    than 1e-6, so a fiber angle whose q-th return is that close closes
    numerically: log 2 + 0.010435879 lies 2.3e-9 from 216/307, and
    `finite-orbit perturbed-torus --n 2 --eps 0.010435879` rightly reports
    a closed orbit of 307 points."""
    return any(abs(a - round(a)) < tol for a in (alpha * q for q in range(1, q_max + 1)))


def _generic_eps(rng, n: int) -> float:
    """Detuning eps in [1e-3, 2e-2] whose fiber angle log n + eps is
    not near a rational in the sense of _near_rational."""
    while True:
        eps = round(rng.uniform(1e-3, 2e-2), 9)
        if not _near_rational((math.log(n) + eps) % 1.0):
            return eps


def _tuned_eps(n: int, frac: Fraction) -> float:
    """eps that puts the fiber angle log n + eps at p/q."""
    return float(frac) - math.log(n)


def _expected(entry: str, n: int) -> dict:
    from bsdl.catalog import CATALOG

    return CATALOG[entry].expected_for(n)


def _cli(argv, expect, cost):
    return {"kind": "cli", "argv": [str(a) for a in argv], "expect": expect, "cost": cost}


# ---------------------------------------------------------------------------
# conjugation: library calls on actions conjugated by seeded bump maps


def _covariance(rng, shear):
    t = [round(rng.uniform(0.05, 0.95), 12) for _ in range(2)]
    return {
        "kind": "covariance",
        "params": {"t": t, "psi_size": 1e-2, "psi_seed": rng.randrange(10**6),
                   "shear": shear, "grid": 8, "iterates": 250},
        "expect": {"consistent": True},
        "cost": 1.05,
    }


def _persistence(rng, n):
    """The Morse-Smale action conjugated by a seeded bump map, as in the
    persistence criterion; the common fixed point must survive. The
    query builds the conjugation (and its relation check) itself."""
    return {
        "kind": "persistence",
        "params": {"n": n, "psi_size": 1e-3, "psi_seed": rng.randrange(10**6),
                   "search_resolution": 64, "tol": 1e-8},
        "expect": {"found": True, "residual_below": 1e-8},
        "cost": 0.09,
    }


def _circle_sizes(rng):
    # the smallest sizes at which both outcomes are still decided: 128
    # samples stall the graph transform, 1000 orbit iterates leave the
    # minimal circle Unknown
    return {"psi_size": 1e-3, "psi_seed": rng.randrange(10**6), "samples": 256,
            "resolutions": [64, 128], "orbit_iterates": 2000}


def _circle_minimal(rng):
    return {
        "kind": "trichotomy",
        "params": {"n": rng.choice((2, 3)), "eps": 0.0, **_circle_sizes(rng)},
        "expect": {"outcome": "MinimalCircle"},
        "cost": 3.9,
    }


def _circle_finite(rng):
    n = rng.choice((2, 3))
    frac = _fraction(rng, 10)
    return {
        "kind": "trichotomy",
        "params": {"n": n, "eps": _tuned_eps(n, frac), **_circle_sizes(rng)},
        "expect": {"outcome": "FiniteOrbits", "witness": [frac.numerator, frac.denominator]},
        "cost": 1.5,
    }


def _conjugation_pass(rng, index):
    # twenty persistence queries hold the median and the tail; the
    # covariance check takes the shear on every other pass
    return (
        [_covariance(rng, shear=index % 2 == 1), _circle_minimal(rng), _circle_finite(rng)]
        + [_persistence(rng, n) for n in (2, 3) * 10]
    )


# ---------------------------------------------------------------------------
# exact GL(2,Z) queries, part of orbit-scalar


_EXEMPLARS = (
    ((1, 0), (0, 1), 1),
    ((-1, 0), (0, -1), 2),
    ((0, 1), (-1, 1), 6),
    ((0, 1), (-1, 0), 4),
    ((0, -1), (1, 1), 6),
    ((-1, -1), (1, 0), 3),
    ((1, 1), (0, 1), None),
)
_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1)))


def _mat(rows):
    return ",".join(str(x) for r in rows for x in r)


def _mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _inv(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((a[1][1] * det, -a[0][1] * det), (-a[1][0] * det, a[0][0] * det))


def _small_unimodular(rng, steps: int = 3):
    x = ((1, 0), (0, 1))
    for _ in range(steps):
        g = rng.choice(_GENERATORS)
        x = _mul(x, g if rng.random() < 0.5 else _inv(g))
    return x


def _shear_pair(rng):
    """Shears S^a and S^b are conjugate in GL(2,Z) only when |a| = |b|."""
    a, b = rng.sample((-4, -3, -2, 1, 2, 3, 4, 5), 2)
    while abs(a) == abs(b):
        a, b = rng.sample((-4, -3, -2, 1, 2, 3, 4, 5), 2)
    return [f"1,{a},0,1", f"1,{b},0,1"]


# ---------------------------------------------------------------------------
# orbit-scalar: CLI subcommands whose estimators step one point per call


def _rational_k(rng):
    frac = _fraction(rng)
    return f"rot:{frac.numerator}/{frac.denominator}", frac


def _orbit_scalar_pass(rng, index):
    # each query kind on an irrational fiber takes every angle of a fixed
    # set once per pass, in seeded order, so every pass has the same mix
    angles = {kind: iter(rng.sample(names, len(names))) for kind, names in (
        ("minimal-set", IRRATIONAL_NAMES + IRRATIONAL_NAMES[:4]),
        ("finite-orbit", IRRATIONAL_NAMES[:2] + IRRATIONAL_NAMES[:5]),
        ("trichotomy", IRRATIONAL_NAMES + IRRATIONAL_NAMES[:1]),
    )}
    # minimal-set and finite-orbit on standard-torus and perturbed-torus
    # take 2 to 4 s each; a pass holds one of each subcommand, and the
    # entries swap on the next pass
    long_entries = {"minimal-set": ("standard-torus", "perturbed-torus")[index % 2],
                    "finite-orbit": ("perturbed-torus", "standard-torus")[index % 2]}
    skip = lambda cmd, entry: (  # noqa: E731
        entry in ("standard-torus", "perturbed-torus") and entry != long_entries[cmd])
    iterates = ["--iterates", ORBIT_ITERATES]
    out = []
    # minimal-set over the catalog
    for entry in CATALOG_IDS:
        if skip("minimal-set", entry):
            continue
        n = _n_for(entry, rng)
        argv = ["minimal-set", entry, "--n", n]
        exp = _expected(entry, n)
        expect = {"label": exp["minimal"]}
        cost = 0.02
        if entry == "product":
            k, frac = _rational_k(rng)
            argv += ["--k", k]
            expect = {"label": "FiniteOrbit", "size": frac.denominator}
        elif entry == "nonfaithful-circle":
            argv += ["--k", "rot:" + next(angles["minimal-set"])]
            cost = 0.16
        elif entry == "perturbed-torus":
            argv += ["--eps", _generic_eps(rng, n)]
            cost = 1.8
        elif entry == "standard-torus":
            cost = 1.8
        if expect["label"] == "FiniteOrbit" and "size" not in expect:
            expect["size"] = exp["minimal_size"]
        out.append(_cli(argv + iterates, expect, cost))
    # a Denjoy fiber on the non-faithful circle
    angle = rng.choice(("golden", "ln2", "ln3"))
    depth = rng.choice((10, 11, 12))
    ratio = rng.choice((0.45, 0.5, 0.55))
    denjoy = ["--k", f"denjoy:{angle},{depth},{ratio}"]
    out.append(_cli(["minimal-set", "nonfaithful-circle"] + denjoy + iterates,
                    {"label": "MinimalCantor"}, 0.45))
    out.append(_cli(["finite-orbit", "nonfaithful-circle"] + denjoy, {"closed": False}, 0.8))
    # finite-orbit over the catalog, from the default start
    for entry in CATALOG_IDS:
        if skip("finite-orbit", entry):
            continue
        n = _n_for(entry, rng)
        argv = ["finite-orbit", entry, "--n", n]
        cost = 0.01
        if entry in ("standard-line", "morse-smale"):
            expect = {"closed": True, "size": 1}
        elif entry.startswith("periodic"):
            expect = {"closed": True, "size": n - 1}
        elif entry == "product":
            k, frac = _rational_k(rng)
            argv += ["--k", k]
            expect = {"closed": True, "size": frac.denominator}
        elif entry == "nonfaithful-circle":
            argv += ["--k", "rot:" + next(angles["finite-orbit"])]
            expect = {"closed": False}
            cost = 0.55
        elif entry == "perturbed-torus":
            argv += ["--eps", _generic_eps(rng, n)]
            expect = {"closed": False}
            cost = 3.4
        else:  # standard-torus: the fiber turns by log n
            expect = {"closed": False}
            cost = 3.4
        out.append(_cli(argv, expect, cost))
    k, frac = _rational_k(rng)
    out.append(_cli(
        ["finite-orbit", "nonfaithful-circle", "--k", k],
        {"closed": True, "size": frac.denominator}, 0.01,
    ))
    # trichotomy over every torus entry, plus fiber and eps variants
    for entry in TORUS_IDS:
        n = _n_for(entry, rng)
        argv = ["trichotomy", entry, "--n", n]
        cost = 0.02
        if entry == "standard-torus":
            expect = {"outcome": "MinimalCircle"}
            cost = 0.17
        elif entry == "product":
            k, frac = _rational_k(rng)
            argv += ["--k", k]
            expect = {"outcome": "FiniteOrbits", "witness": [frac.numerator, frac.denominator]}
        elif entry == "perturbed-torus":
            frac = _fraction(rng)
            argv += ["--eps", _tuned_eps(n, frac)]
            expect = {"outcome": "FiniteOrbits", "witness": [frac.numerator, frac.denominator]}
        elif entry == "periodic-torus":
            # b^(n-1) fixes the block endpoints on the circle at infinity
            expect = {"outcome": "FiniteOrbits"}
        else:  # morse-smale: (infinity, infinity) is a global fixed point
            expect = {"outcome": "FiniteOrbits"}
        out.append(_cli(argv + iterates, expect, cost))
    # the exact GL(2,Z) layer: a finite-order exemplar, a seeded conjugate
    # pair A = X B X^-1, and two non-conjugate shear pairs whose searches
    # exhaust the bound 50; and the relation check, one entry per pass
    a, b, order = rng.choice(_EXEMPLARS)
    out.append(_cli(["classify-matrix", "--", _mat((a, b))], {"order": order}, 0.01))
    a, b, _order = rng.choice(_EXEMPLARS[2:])
    X = _small_unimodular(rng)
    out.append(_cli(["classify-matrix", "--", _mat(_mul(_mul(X, (a, b)), _inv(X))), _mat((a, b))],
                    {"conjugate": True}, 0.01))
    for _ in range(2):
        out.append(_cli(["classify-matrix", "--"] + _shear_pair(rng), {"conjugate": False}, 0.15))
    entry = CATALOG_IDS[index % len(CATALOG_IDS)]
    out.append(_cli(["verify-relation", entry, "--n", _n_for(entry, rng)], {"passed": True}, 0.01))
    # The median and the tail must fall inside groups of like queries, or
    # they jump between groups from seed to seed. Ascending, a pass holds
    # 18 small queries (under 0.1 s, two of them crashes), 21 minimal-set
    # and trichotomy queries on irrational fibers and non-conjugate
    # matrix searches (0.1 to 0.2 s: the median), 9 open orbits of
    # finite-orbit and the Denjoy fiber (0.3 to 0.8 s: the tail) and the
    # two long torus queries.
    for _ in range(5):
        out.append(_cli(
            ["minimal-set", "nonfaithful-circle", "--n", rng.choice((2, 3, 5)),
             "--k", "rot:" + next(angles["minimal-set"])] + iterates,
            {"label": "MinimalCircle"}, 0.16,
        ))
    for _ in range(3):
        for _ in range(2):
            out.append(_cli(
                ["trichotomy", "product", "--n", rng.choice((2, 3, 5)),
                 "--k", "rot:" + next(angles["trichotomy"])] + iterates,
                {"outcome": "MinimalCircle"}, 0.17,
            ))
        n = rng.choice((2, 3, 5))
        out.append(_cli(
            ["trichotomy", "perturbed-torus", "--n", n, "--eps", _generic_eps(rng, n)]
            + iterates,
            {"outcome": "MinimalCircle"}, 0.17,
        ))
        out.append(_cli(
            ["minimal-set", "nonfaithful-circle", "--n", rng.choice((2, 3, 5)),
             "--k", "rot:" + next(angles["minimal-set"])] + iterates,
            {"label": "MinimalCircle"}, 0.16,
        ))
    # open orbits on irrational circle fibers, capped at max_size
    for _ in range(6):
        out.append(_cli(
            ["finite-orbit", "nonfaithful-circle", "--n", rng.choice((2, 3, 5)),
             "--k", "rot:" + next(angles["finite-orbit"])],
            {"closed": False}, 0.55,
        ))
    return out


_PASSES = {
    "conjugation": _conjugation_pass,
    "orbit-scalar": _orbit_scalar_pass,
}
WORKLOADS = tuple(_PASSES)


def generate(workload: str, seed: int, seconds: float) -> list:
    """The query list of one run: whole passes over the template."""
    if workload not in _PASSES:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    make = _PASSES[workload]
    pass_cost = sum(q["cost"] for q in make(random.Random(f"{workload}:cost"), 0))
    passes = max(1, round(seconds / pass_cost))
    queries = []
    for p in range(passes):
        rng = random.Random(f"{workload}:{seed}:{p}")
        batch = make(rng, p)
        # spread each kind over the run, so slow drifts of the machine's
        # speed touch every percentile alike
        rng.shuffle(batch)
        queries += batch
    for i, q in enumerate(queries):
        q["id"] = f"{workload}-{i:03d}"
    return queries
