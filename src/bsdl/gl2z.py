"""Exact arithmetic for 2x2 integer matrices.

Everything here is integer or Fraction arithmetic. No floats enter: the
isotopy-class bookkeeping of torus actions (finite order, GL(2,Z)
conjugacy) is decided exactly. The rotation-vector constraint
(n I - A_h) rho(f) in Z^2 is solved exactly by
`bsdl.torus.bs_rotation_constraint`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "IntMatrix2",
    "finite_order",
    "conjugate_in_gl2z",
    "rational_to_json",
]


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
    def from_rows(first, second) -> "IntMatrix2":
        (a, b), (c, d) = first, second
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

    def inverse(self) -> "IntMatrix2":
        """Exact inverse; only defined for det = +-1."""
        det = self.det()
        if abs(det) != 1:
            raise ValueError(f"inverse requires det +-1, got det={det}")
        # adjugate divided by det; det is +-1 so entries stay integral
        return IntMatrix2(self.d * det, -self.b * det, -self.c * det, self.a * det)

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


def _conjugacy_invariants(A: IntMatrix2):
    """Trace, det and gcd(b, c, a - d) of A, equal for any two matrices
    conjugate in GL(2,Z): the gcd is the largest k with A = m I mod k
    for some m, a property conjugation keeps."""
    return A.trace(), A.det(), math.gcd(A.b, A.c, A.a - A.d)


def _definite_basis(A: IntMatrix2) -> IntMatrix2:
    """M = [v | A v] for a v with Q_A(v) = +-1, Q_A = c x^2 + (d - a) x y - b y^2.

    det [v | A v] = Q_A(v), and M^-1 A M is the companion matrix
    [[0, -det], [1, tr]]. Q_A is definite of discriminant -3 or -4, whose
    reduced form is x^2 + x y + y^2 or x^2 + y^2 up to sign, so Gauss
    reduction of the basis (u, w) ends with Q_A(u) = +-1.
    """
    # p = |Q(u)|, r = |Q(w)|, q = 2 B(u, w) in the sign that makes Q positive
    sign = 1 if A.c > 0 else -1
    p, q, r = sign * A.c, sign * (A.d - A.a), -sign * A.b
    u, w = (1, 0), (0, 1)
    while True:
        m = (q + p) // (2 * p)  # nearest integer to B(u, w) / Q(u)
        q, r = q - 2 * m * p, r - m * q + m * m * p
        w = (w[0] - m * u[0], w[1] - m * u[1])
        if r >= p:
            Au = A.apply(u)
            return IntMatrix2(u[0], Au[0], u[1], Au[1])
        p, r, u, w = r, p, w, u


def _eigen_basis(A: IntMatrix2, lam: int) -> IntMatrix2:
    """M with M^-1 A M = [[lam, k], [0, mu]] and k normalised: |k| when
    mu = lam (parabolic), k mod 2 when mu = -lam (trace 0, det -1)."""
    # the primitive integer kernel vector (x, y) of the nonzero A - lam I
    x, y = (A.b, lam - A.a) if (A.a - lam, A.b) != (0, 0) else (lam - A.d, A.c)
    g = math.gcd(x, y)
    x, y = x // g, y // g
    # complete it by s x = 1 mod y to M = [[x, t], [y, s]], det M = s x - t y = 1
    s = pow(x, -1, y) if y else x
    M = IntMatrix2(x, (s * x - 1) // (y or 1), y, s)
    R = M.inverse() * A * M
    if R.d == lam:
        return M * IntMatrix2(1, 0, 0, -1) if R.b < 0 else M
    # [[1, j], [0, 1]] takes k to k + 2 j
    return M * IntMatrix2(1, -(R.b // 2), 0, 1)


def _cycle_basis(A: IntMatrix2, D: int) -> IntMatrix2:
    """M with M^-1 A M fixing the least reduced state of the continued
    fraction of A's lam+ eigenvector slope (P + sqrt D) / Q.

    Two hyperbolic matrices of equal trace and det are conjugate exactly
    when their eigenvector slopes are GL(2,Z)-equivalent, that is when
    their continued fractions end in the same cycle of complete
    quotients (Serret). A state (P, Q) fixes the quotient, and with the
    trace and det it fixes M^-1 A M, whose c is Q / 2 and a - d is P.
    """
    root = math.isqrt(D)
    P, Q = A.a - A.d, 2 * A.c
    M = IntMatrix2.identity()
    convergents = {}  # state -> the M with slope = M . (P + sqrt D) / Q
    while (P, Q) not in convergents:
        convergents[P, Q] = M
        # floor((P + sqrt D) / Q); sqrt D lies strictly between root and root + 1
        q = (P + root + (Q < 0)) // Q
        M = M * IntMatrix2(q, 1, 1, 0)
        P = q * Q - P
        Q = (D - P * P) // Q
    states = list(convergents)
    return convergents[min(states[states.index((P, Q)):])]


def _canonical_basis(A: IntMatrix2) -> IntMatrix2:
    """M in GL(2,Z) taking the non-scalar A to its canonical form M^-1 A M,
    one matrix per conjugacy class, by the discriminant D = tr^2 - 4 det."""
    D = A.trace() ** 2 - 4 * A.det()
    if D < 0:
        return _definite_basis(A)
    root = math.isqrt(D)
    if root * root == D:  # D is 0 or 4: the eigenvalues are integers
        return _eigen_basis(A, (A.trace() + root) // 2)
    return _cycle_basis(A, D)


def conjugate_in_gl2z(A: IntMatrix2, B: IntMatrix2) -> IntMatrix2 | None:
    """An X in GL(2,Z) with X B X^-1 = A, or None when A and B are not
    conjugate in GL(2,Z).

    The decision is exact. Matrices differing in trace, det or
    gcd(b, c, a - d) are not conjugate. Otherwise each matrix is carried
    by some M to its canonical form M^-1 A M (see `_canonical_basis`),
    and A and B are conjugate exactly when their forms are equal; then
    X = M_A M_B^-1.
    """
    _require_unimodular(A, "A")
    _require_unimodular(B, "B")
    if _conjugacy_invariants(A) != _conjugacy_invariants(B):
        return None
    if A == B:  # this includes the scalars, alone in their classes
        return IntMatrix2.identity()
    MA, MB = _canonical_basis(A), _canonical_basis(B)
    if MA.inverse() * A * MA != MB.inverse() * B * MB:
        return None
    return MA * MB.inverse()
