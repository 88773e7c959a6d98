"""The console cases: `bsdl` command lines, each with the exit status it
must end in and the text its output must hold.

`tests/test_cli.py::test_console_case` runs every row through
`bsdl.cli.main` and checks it, and that it raises no warning.
`scripts/reachability.py` runs the commands among its program paths,
so `scripts/same_outputs.py` compares them across revisions.

A row's `holds` texts must be in its stdout, or in its stderr on exit 1,
where stdout must be empty; its `lacks` texts must not be there. Each
exit-1 row holds its whole error message.
`points` is the number of points its JSON report writes. A command is
split on whitespace. Standard library only.
"""

from typing import NamedTuple


class Case(NamedTuple):
    command: str
    status: int
    holds: tuple = ()
    lacks: tuple = ()
    points: int | None = None

    @property
    def argv(self):
        return self.command.split()


def error(command, message, **kw):
    """A row that ends in exit 1 with "error: <message>" on stderr."""
    return Case(command, 1, (f"error: {message}",), **kw)


CUT = '"reason": "cut at max_size 10000"'
OPEN = ('"size": 10001', CUT)
BIG_INT = 10**400  # beyond the floats
BIG_N = 2**1100

CASES = [
    Case("catalog", 0),
    Case("verify-relation standard-torus", 0),
    Case("verify-relation periodic-circle --n 40", 0),
    # at m = 49 blocks, 49 * (1/49) is not 1.0 in floats; the block shift
    # is an integer, so f^n still has a closed form. The exit status
    # stays the relation's: f^(n-1) moves a point, or is the identity
    Case("verify-relation periodic-circle --n 50", 0, ('"faithful": true',)),
    Case("verify-relation nonfaithful-circle", 0, ('"faithful": false',)),
    # f^(n^2) has a closed form past 10^6 steps: the block shift is an integer
    Case("verify-relation periodic-circle --n 1001", 0),
    # h^2 of a Denjoy fiber has no closed form: h composes with itself
    Case("verify-relation nonfaithful-circle --k denjoy:golden,5,0.3", 0),
    Case("verify-relation product --k denjoy:golden,5,0.3", 0),
    # a start after the flags is the start: the orbit of (0, 0.5) closes,
    # that of (0.5, 0.5) under the line action is open
    Case("finite-orbit product --k rot:1/5 0,0.5", 0),
    Case("finite-orbit product --k rot:1/5 0.5,0.5", 2),
    # the closure steps every generator of each point: the 7-point orbit
    # closes; at --tol 1e-17 an image an ulp from an orbit point does not
    # merge, so the orbit is cut
    Case("finite-orbit nonfaithful-circle --k rot:1/7", 0, ('"size": 7',)),
    Case("finite-orbit nonfaithful-circle --k rot:1/7 --tol 1e-17", 2, (CUT,)),
    # h^-1 = rot(-1/2) lifts the map of h, a whole turn apart: h alone
    Case("finite-orbit nonfaithful-circle --k rot:1/2", 0, ('"size": 2',)),
    # h and h^-1 alone step the irrational chain as two single-start arms,
    # which nothing merges; at --tol 1e-13, below INVERSE_TOL = 1e-12, the
    # chain takes the walk from its start. Both are cut at the cap
    Case("finite-orbit nonfaithful-circle --k rot:golden", 2, OPEN, points=2000),
    Case("finite-orbit nonfaithful-circle --k rot:golden --tol 1e-13", 2, OPEN,
         points=2000),
    # the standard torus from (0, 0) is the same chain on u = 0, which f
    # and f^-1 fix; from (0.1, 0.3), which f moves off the chain, the walk
    Case("finite-orbit standard-torus", 2, OPEN, points=2000),
    Case("finite-orbit standard-torus --tol 1e-13", 2, OPEN, points=2000),
    Case("finite-orbit standard-torus 0.1,0.3", 2),
    # an infinite Denjoy orbit that merges below merge_tol is open
    Case("finite-orbit nonfaithful-circle --k denjoy:ln2,11,0.45", 2),
    # a finite orbit cut at 2000 points, whose h-orbit repeats one point,
    # is Unknown rather than a Cantor set; an h-orbit of period 2500, past
    # the closure cap, comes back near its start: Unknown, not a circle
    Case("minimal-set periodic-circle --n 2500 --iterates 20000", 2),
    Case("minimal-set nonfaithful-circle --k rot:1/2500 --iterates 20000", 2),
    Case("trichotomy product --k rot:1/2500 --iterates 20000", 2),
    # a Denjoy blow-up too thin for floats is an error naming its parameters
    error("minimal-set nonfaithful-circle --k denjoy:golden,12,0.05",
          "denjoy(0.618034, depth 12, gap_ratio 0.05): breakpoints collide"),
    # an unknown action is an error naming the known ids, unquoted
    error("catalog foo", "unknown action 'foo'; known: morse-smale",
          lacks=("'unknown", '"unknown')),
    # a flag the subcommand does not read is a usage error
    error("classify-matrix 0,1,-1,0 --seed 3", "unrecognized arguments: --seed 3"),
    # the subcommands whose library calls take fixed settings, at small sizes
    Case("rotation-number nonfaithful-circle --k rot:1/3", 0),
    Case("rotation-set standard-torus --resolution 8 --iterates 1000", 0),
    Case("fixed-set standard-torus", 0),
    Case("minimal-set product", 0),
    Case("trichotomy product --k rot:1/3", 0),
    Case("persistent-fp morse-smale", 0),
    # shears of different size are not conjugate: gcd(b, c, a - d) differs.
    # Hyperbolic matrices of one trace are decided by their reduced cycles
    Case("classify-matrix 1,2,0,1 1,3,0,1", 0, ('"conjugate": false',)),
    Case("classify-matrix 2,1,1,1 1,1,1,2", 0, ('"conjugate": true',)),
    Case("classify-matrix -- -5,-11,6,13 -4,-7,7,12", 0, ('"conjugate": false',)),
    # out-of-range tolerances and iterates are errors naming the setting
    error("fixed-set standard-torus --tol -1", "delta must be positive and finite, got -1.0"),
    error("fixed-set standard-torus --tol nan", "delta must be positive and finite, got nan"),
    error("rotation-number nonfaithful-circle --k rot:1/3 --tol nan",
          "tol must be positive and finite, got nan"),
    error("verify-relation standard-torus --tol -1",
          "primary_tol must be finite and >= 0, got -1.0"),
    error("persistent-fp morse-smale --tol nan", "tol must be positive and finite, got nan"),
    error("minimal-set product --iterates 0", "need orbit_iterates >= 1, got 0"),
    error("minimal-set product --iterates -5", "need orbit_iterates >= 1, got -5"),
    # a non-finite or undefined angle or eps is an error naming it, not a
    # numpy warning
    error("rotation-number nonfaithful-circle --k rot:inf", "angle 'inf' is not finite"),
    error("rotation-number nonfaithful-circle --k rot:nan", "angle 'nan' is not finite"),
    error("verify-relation perturbed-torus --eps nan", "eps must be finite, got nan"),
    error("trichotomy perturbed-torus --eps nan", "eps must be finite, got nan"),
    error("trichotomy perturbed-torus --eps inf", "eps must be finite, got inf"),
    error("rotation-number nonfaithful-circle --k denjoy:inf,3,0.5", "angle 'inf' is not finite"),
    error("rotation-number nonfaithful-circle --k rot:ln0",
          "angle 'ln0' takes ln of a number that is not positive"),
    error("rotation-number nonfaithful-circle --k rot:ln-1",
          "angle 'ln-1' takes ln of a number that is not positive"),
    error("finite-orbit product --k rot:1/0", "angle '1/0' has a zero denominator"),
    # a = 1e-300 takes points near the origin below 5.6e-309, where 1 / y
    # overflows in the chart's unused branches
    error("minimal-set nonfaithful-circle --k affine:1e-300,0",
          "ChartAffineLift: lift is not strictly increasing"),
    # a malformed spec is an error naming the spec
    error("rotation-number nonfaithful-circle --k rot:",
          "fiber spec 'rot:' has '' where a number goes"),
    error("rotation-number nonfaithful-circle --k rot:0.5/0.5",
          "fiber spec 'rot:0.5/0.5' has '0.5' where an integer goes"),
    error("rotation-number nonfaithful-circle --k denjoy:golden,1.5,0.5",
          "fiber spec 'denjoy:golden,1.5,0.5' has '1.5' where an integer goes"),
    # an angle fraction beyond the floats, and a parameter the entry does
    # not take, are errors naming them
    error(f"rotation-number nonfaithful-circle --k rot:{BIG_INT}/3",
          f"angle '{BIG_INT}/3' has a numerator or denominator beyond the floats"),
    error(f"rotation-number nonfaithful-circle --k rot:1/{BIG_INT}",
          f"angle '1/{BIG_INT}' has a numerator or denominator beyond the floats"),
    error("trichotomy product --eps nan", "product takes no --eps"),
    error("minimal-set nonfaithful-circle --eps inf", "nonfaithful-circle takes no --eps"),
    error("finite-orbit standard-torus --k rot:1/3", "standard-torus takes no --k"),
    # finite-orbit's merge tolerance and start must be finite, and positive
    *(error(f"finite-orbit standard-line 0.3 --tol {tol}",
            f"merge_tol must be positive and finite, got {shown}")
      for tol, shown in [("0", "0.0"), ("inf", "inf"), ("-1", "-1.0"), ("nan", "nan")]),
    error("finite-orbit standard-line nan", "start must be one finite circle point, got nan"),
    error("finite-orbit standard-torus 0.3,inf",
          "start must be one finite torus point, got [0.3, inf]"),
    # a zero size flag is an error, not a default
    error("verify-relation standard-line --resolution 0", "grid must be positive, got 0"),
    error("rotation-number standard-line --iterates 0", "iterates must be positive"),
    error("rotation-set standard-torus --resolution 0", "grid must be positive, got 0"),
    error("rotation-set standard-torus --iterates 0", "iterates must be positive, got 0"),
    error("fixed-set standard-torus --resolution 0", "resolution must be an even integer >= 2"),
    error("minimal-set nonfaithful-circle --resolution 0",
          "resolution must be an even integer >= 2"),
    error("minimal-set nonfaithful-circle --iterates 0", "need orbit_iterates >= 1, got 0"),
    error("trichotomy perturbed-torus --resolution 0", "resolution must be an even integer >= 2"),
    error("persistent-fp morse-smale --resolution 0", "search_resolution must be positive, got 0"),
    # an n beyond the floats is an error
    error(f"verify-relation standard-line --n {BIG_N}",
          "need n to fit in a float, got a 1101-bit n"),
    error(f"finite-orbit standard-torus --n {BIG_N}",
          "need n to fit in a float, got a 1101-bit n"),
]
