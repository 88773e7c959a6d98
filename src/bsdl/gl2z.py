"""Exact arithmetic for 2x2 integer matrices.

Everything here is integer or Fraction arithmetic. No floats enter: the
isotopy-class bookkeeping of torus actions (finite order, GL(2,Z)
conjugacy, the linear relation A_h A_f A_h^-1 = A_f^n) is decided
exactly. The rotation-vector constraint (n I - A_h) rho(f) in Z^2 is
solved exactly by `bsdl.torus.bs_rotation_constraint`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "IntMatrix2",
    "finite_order",
    "conjugate_in_gl2z",
    "bs_linear_compatible",
    "rational_to_json",
]

# Enumeration in conjugate_in_gl2z walks coefficient shells; this caps the
# total number of candidates so a degenerate call cannot hang.
MAX_CONJUGACY_CANDIDATES = 20_000_000


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity() -> "IntMatrix2":
        return IntMatrix2(1, 0, 0, 1)

    @staticmethod
    def from_rows(rows, second=None) -> "IntMatrix2":
        if second is not None:
            rows = (rows, second)
        (a, b), (c, d) = rows
        return IntMatrix2(int(a), int(b), int(c), int(d))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "IntMatrix2":
        return IntMatrix2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "IntMatrix2":
        """Exact inverse; only defined for det = +-1."""
        det = self.det()
        if abs(det) != 1:
            raise ValueError(f"inverse requires det +-1, got det={det}")
        # adjugate divided by det; det is +-1 so entries stay integral
        return IntMatrix2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def __pow__(self, k: int) -> "IntMatrix2":
        if k < 0:
            return self.inverse() ** (-k)
        out = IntMatrix2.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def apply(self, v):
        """Apply to a length-2 vector of ints or Fractions."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def to_json(self):
        return [[self.a, self.b], [self.c, self.d]]


def rational_to_json(q: Fraction) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def _require_unimodular(m: IntMatrix2, name: str) -> None:
    if not m.is_unimodular():
        raise ValueError(f"{name} must lie in GL(2,Z): det={m.det()}")


def finite_order(A: IntMatrix2) -> int | None:
    """Order of A in GL(2,Z) if finite, else None.

    Finite orders of 2x2 integer matrices are restricted to
    {1, 2, 3, 4, 6}, so checking powers up to 6 decides the question.
    """
    _require_unimodular(A, "A")
    ident = IntMatrix2.identity()
    power = ident
    for k in range(1, 7):
        power = power * A
        if power == ident:
            return k
    return None


def _sylvester_rows(A: IntMatrix2, B: IntMatrix2):
    """4x4 integer matrix of X -> A X - X B on vec(X) = (x11, x12, x21, x22)."""
    a = A.rows()
    b = B.rows()
    rows = []
    for i in range(2):
        for j in range(2):
            row = [0, 0, 0, 0]
            for k in range(2):
                row[2 * k + j] += a[i][k]      # (A X)_{ij} hits X_{kj}
                row[2 * i + k] -= b[k][j]      # (X B)_{ij} hits X_{ik}
            rows.append(row)
    return rows


def _integer_kernel_basis(rows):
    """Basis of the integer kernel {v in Z^m : M v = 0} via column reduction.

    Column operations are accumulated in a unimodular U, so the returned
    vectors generate the full (saturated) kernel lattice, not a finite
    index sublattice.
    """
    nrows = len(rows)
    ncols = len(rows[0])
    acols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    ucols = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    lead = 0
    for r in range(nrows):
        while True:
            live = [j for j in range(lead, ncols) if acols[j][r] != 0]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda j: abs(acols[j][r]))
            for j in live:
                if j == piv:
                    continue
                q = acols[j][r] // acols[piv][r]
                if q:
                    for i in range(nrows):
                        acols[j][i] -= q * acols[piv][i]
                    for i in range(ncols):
                        ucols[j][i] -= q * ucols[piv][i]
        live = [j for j in range(lead, ncols) if acols[j][r] != 0]
        if live:
            j = live[0]
            acols[lead], acols[j] = acols[j], acols[lead]
            ucols[lead], ucols[j] = ucols[j], ucols[lead]
            lead += 1
    return [ucols[j] for j in range(ncols) if all(v == 0 for v in acols[j])]


def _shell_tuples(dim: int, shell: int):
    """The integer tuples of length dim and sup norm exactly shell, in
    lexicographic order."""
    box = range(-shell, shell + 1)
    # a first coordinate inside the shell leaves the rest on its own shell
    inner = list(_shell_tuples(dim - 1, shell)) if dim > 1 else []
    for t in box:
        rests = itertools.product(box, repeat=dim - 1) if abs(t) == shell else inner
        for rest in rests:
            yield (t,) + rest


def _conjugacy_invariants(A: IntMatrix2):
    """Trace, det and gcd(b, c, a - d) of A, equal for any two matrices
    conjugate in GL(2,Z): the gcd is the largest k with A = m I mod k
    for some m, a property conjugation keeps."""
    return A.trace(), A.det(), math.gcd(A.b, A.c, A.a - A.d)


def conjugate_in_gl2z(A: IntMatrix2, B: IntMatrix2, bound: int = 50) -> IntMatrix2 | None:
    """Search X in GL(2,Z) with X B X^-1 = A.

    Solves X B = A X as a 4x4 integer linear system, takes an integer
    basis of the solution lattice and enumerates coefficient vectors in
    sup-norm shells up to `bound`, returning the first combination with
    det +-1. None means no conjugator exists with coefficients within
    the bound (for a trivial solution lattice, or for A and B that
    differ in trace, det or gcd(b, c, a - d), none exists at all, and
    no candidate is walked).

    The shells are walked outward from sup norm 1, and the coefficient
    vectors of one shell in lexicographic order, so the conjugator
    returned is the first of that order.
    """
    _require_unimodular(A, "A")
    _require_unimodular(B, "B")
    if A == B:
        return IntMatrix2.identity()
    basis = _integer_kernel_basis(_sylvester_rows(A, B))
    if not basis:
        return None
    dim = len(basis)
    if (2 * bound + 1) ** dim > MAX_CONJUGACY_CANDIDATES:
        raise ValueError(
            f"enumeration of {(2 * bound + 1) ** dim} candidates exceeds cap; "
            "reduce bound"
        )
    if _conjugacy_invariants(A) != _conjugacy_invariants(B):
        return None
    for shell in range(1, bound + 1):
        for coeffs in _shell_tuples(dim, shell):
            e = [0, 0, 0, 0]
            for c, vec in zip(coeffs, basis):
                if c:
                    for i in range(4):
                        e[i] += c * vec[i]
            if abs(e[0] * e[3] - e[1] * e[2]) != 1:
                continue
            X = IntMatrix2(e[0], e[1], e[2], e[3])
            if X * B == A * X:
                return X
    return None


def bs_linear_compatible(Af: IntMatrix2, Ah: IntMatrix2, n: int) -> bool:
    """Whether Ah Af Ah^-1 = Af^n holds exactly."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _require_unimodular(Af, "Af")
    _require_unimodular(Ah, "Ah")
    return Ah * Af * Ah.inverse() == Af ** n
