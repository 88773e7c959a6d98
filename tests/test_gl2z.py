"""Exact matrix layer: finite order and the GL(2,Z) conjugacy decision.

Oracle helpers here are written independently of the library (plain tuple
arithmetic) so the checks do not share code paths with what they verify.
"""

import itertools
import random
from fractions import Fraction

import pytest

from bsdl.gl2z import (
    IntMatrix2,
    _conjugacy_invariants,
    conjugate_in_gl2z,
    finite_order,
    rational_to_json,
)

# ---------------------------------------------------------------------------
# oracle arithmetic on ((a, b), (c, d)) tuples

ID = ((1, 0), (0, 1))


def omul(m, n):
    return (
        (
            m[0][0] * n[0][0] + m[0][1] * n[1][0],
            m[0][0] * n[0][1] + m[0][1] * n[1][1],
        ),
        (
            m[1][0] * n[0][0] + m[1][1] * n[1][0],
            m[1][0] * n[0][1] + m[1][1] * n[1][1],
        ),
    )


def opow(m, k):
    out = ID
    for _ in range(k):
        out = omul(out, m)
    return out


def odet(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def oinv_unimodular(m):
    d = odet(m)
    assert abs(d) == 1
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def as_lib(m):
    return IntMatrix2.from_rows(*m)


ORDER_EXEMPLARS = [
    (ID, 1),
    (((-1, 0), (0, -1)), 2),
    (((0, 1), (-1, 0)), 4),
    (((0, -1), (1, 1)), 6),
]


class TestFiniteOrder:
    @pytest.mark.parametrize("mat,order", ORDER_EXEMPLARS)
    def test_exemplar_orders_match_power_oracle(self, mat, order):
        # oracle first: the claimed order really is minimal
        for k in range(1, order):
            assert opow(mat, k) != ID
        assert opow(mat, order) == ID
        assert finite_order(as_lib(mat)) == order

    def test_shear_has_infinite_order(self):
        shear = ((1, 1), (0, 1))
        for k in range(1, 7):
            assert opow(shear, k) != ID
        assert finite_order(as_lib(shear)) is None

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            finite_order(IntMatrix2(2, 0, 0, 1))

    def test_order_divides_and_is_minimal_on_random_unimodular(self):
        # products of the standard generators stay in GL(2,Z)
        import random

        rng = random.Random(7)
        gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1))]
        for _ in range(200):
            m = ID
            for _ in range(rng.randrange(1, 6)):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    g = oinv_unimodular(g)
                m = omul(m, g)
            k = finite_order(as_lib(m))
            if k is None:
                for j in range(1, 7):
                    assert opow(m, j) != ID
            else:
                assert opow(m, k) == ID
                for j in range(1, k):
                    assert opow(m, j) != ID


class TestConjugacy:
    def test_brute_force_oracle_confirms_order4_pair(self):
        # exhaustive search over all integer matrices with entries in [-3, 3]
        A = ((0, 1), (-1, 0))
        B = ((0, -1), (1, 0))
        found = []
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    for d in range(-3, 4):
                        X = ((a, b), (c, d))
                        if abs(odet(X)) != 1:
                            continue
                        if omul(X, B) == omul(A, X):
                            found.append(X)
        assert found, "oracle found no conjugator, the pair is not conjugate"
        X = conjugate_in_gl2z(as_lib(A), as_lib(B))
        assert X is not None
        xt = X.rows()
        assert abs(odet(xt)) == 1
        assert omul(xt, B) == omul(A, xt)

    def test_identity_pair_returns_identity(self):
        A = as_lib(((0, -1), (1, 1)))
        assert conjugate_in_gl2z(A, A) == IntMatrix2.identity()

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            conjugate_in_gl2z(IntMatrix2(2, 0, 0, 1), as_lib(ID))

    def test_shear_not_conjugate_to_its_square(self):
        A = as_lib(((1, 1), (0, 1)))
        B = A * A
        # oracle: within entries [-6, 6] no conjugator exists
        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    for d in range(-6, 7):
                        X = ((a, b), (c, d))
                        if abs(odet(X)) != 1:
                            continue
                        assert omul(X, B.rows()) != omul(A.rows(), X)
        assert conjugate_in_gl2z(A, B) is None

    def test_result_verifies_on_seeded_conjugate_pairs(self):
        import random

        rng = random.Random(11)
        gens = [((0, -1), (1, 0)), ((1, 1), (0, 1))]
        base = ((0, 1), (-1, 0))
        for _ in range(20):
            P = ID
            for _ in range(rng.randrange(1, 5)):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    g = oinv_unimodular(g)
                P = omul(P, g)
            A = omul(omul(P, base), oinv_unimodular(P))
            X = conjugate_in_gl2z(as_lib(A), as_lib(base))
            assert X is not None
            xt = X.rows()
            assert omul(xt, base) == omul(A, xt)


# finite-order matrices and the generators that conjugate them, as in the
# GL(2,Z) queries of the benchmark
FINITE_ORDER = (((0, 1), (-1, 1)), ((0, 1), (-1, 0)), ((0, -1), (1, 1)), ((-1, -1), (1, 0)))
GL2Z_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1)))


def random_word(rng, length):
    X = ID
    for _ in range(length):
        g = rng.choice(GL2Z_GENERATORS)
        X = omul(X, g if rng.random() < 0.5 else oinv_unimodular(g))
    return X


class TestConjugacyInvariants:
    def test_conjugation_keeps_trace_det_and_gcd(self):
        rng = random.Random(22)
        for _ in range(500):
            A = random_word(rng, rng.randrange(1, 7))
            X = random_word(rng, rng.randrange(1, 7))
            B = omul(omul(X, A), oinv_unimodular(X))
            assert _conjugacy_invariants(as_lib(A)) == _conjugacy_invariants(as_lib(B))


def unimodular_box(radius):
    box = range(-radius, radius + 1)
    return [
        ((a, b), (c, d))
        for a, b, c, d in itertools.product(box, repeat=4)
        if abs(a * d - b * c) == 1
    ]


def assert_conjugator(X, A, B):
    xt = X.rows()
    assert abs(odet(xt)) == 1
    assert omul(xt, B) == omul(A, xt)


# pairs sharing trace, det and gcd(b, c, a - d) whose forms
# c x^2 + (d - a) x y - b y^2 are not equivalent up to sign: among values
# prime to 5 the first two pairs' forms take only +-1 and only +-2 mod 5,
# and of the third pair only the second form represents 1
DISCRIMINANT_60 = [
    (((-5, -11), (6, 13)), ((-4, -7), (7, 12))),
    (((-1, -7), (2, 13)), ((0, -1), (1, 12))),
    (((-3, -8), (5, 13)), ((-1, -12), (1, 11))),
]


BOX = unimodular_box(3)
# the box's matrices by (trace, det), the invariants a conjugator keeps
BOX_CLASSES = {}
for _m in BOX:
    BOX_CLASSES.setdefault((_m[0][0] + _m[1][1], odet(_m)), []).append(_m)


class TestConjugacyDecision:
    def test_box_holds_3942_same_invariant_pairs(self):
        assert len(BOX) == 232 and len(BOX_CLASSES) == 18
        assert sum(len(ms) ** 2 for ms in BOX_CLASSES.values()) == 3942

    @pytest.mark.parametrize(
        "key", sorted(BOX_CLASSES), ids=lambda k: f"trace{k[0]}_det{k[1]}"
    )
    def test_agrees_with_brute_force_on_a_box(self, key):
        mats = BOX_CLASSES[key]
        # the conjugates X B X^-1 of each B over every X of the box
        conjugates = {B: {omul(omul(X, B), oinv_unimodular(X)) for X in BOX} for B in mats}
        for A in mats:
            for B in mats:
                X = conjugate_in_gl2z(as_lib(A), as_lib(B))
                if X is None:
                    assert A not in conjugates[B], (A, B)
                else:
                    assert_conjugator(X, A, B)

    @pytest.mark.parametrize("A,B", DISCRIMINANT_60)
    def test_discriminant_60_pairs_are_not_conjugate(self, A, B):
        assert _conjugacy_invariants(as_lib(A)) == _conjugacy_invariants(as_lib(B))
        assert conjugate_in_gl2z(as_lib(A), as_lib(B)) is None
        assert conjugate_in_gl2z(as_lib(B), as_lib(A)) is None

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (-2, 4), (5, -4)])
    def test_shears_of_different_size_are_not_conjugate(self, a, b):
        A = as_lib(((1, a), (0, 1)))
        B = as_lib(((1, b), (0, 1)))
        assert conjugate_in_gl2z(A, B) is None

    @pytest.mark.parametrize(
        "B",
        FINITE_ORDER
        + (((1, 3), (0, 1)), ((-1, 2), (0, -1)), ((0, 1), (1, 0)), ((1, 1), (0, -1)))
        + (((2, 1), (1, 1)), ((1, 1), (1, 0)), ((-5, -11), (6, 13)), ((0, -1), (1, 12))),
    )
    def test_conjugates_by_long_words_are_found(self, B):
        # finite order, parabolic, trace 0 with det -1, and hyperbolic
        rng = random.Random(28)
        X = random_word(rng, 4000)
        A = omul(omul(X, B), oinv_unimodular(X))
        assert max(abs(v) for row in A for v in row) > 10**100
        assert_conjugator(conjugate_in_gl2z(as_lib(A), as_lib(B)), A, B)


class TestSerialization:
    def test_rational_normalized(self):
        assert rational_to_json(Fraction(4, -6)) == {"num": -2, "den": 3}
