"""Exact matrix layer: finite order, conjugacy search, relation compatibility.

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
    _integer_kernel_basis,
    _shell_tuples,
    _sylvester_rows,
    bs_linear_compatible,
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
    return IntMatrix2.from_rows(m)


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
        X = conjugate_in_gl2z(as_lib(A), as_lib(B), bound=10)
        assert X is not None
        xt = X.rows()
        assert abs(odet(xt)) == 1
        assert omul(xt, B) == omul(A, xt)

    def test_identity_pair_returns_identity(self):
        A = as_lib(((0, -1), (1, 1)))
        assert conjugate_in_gl2z(A, A, bound=3) == IntMatrix2.identity()

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
        assert conjugate_in_gl2z(A, B, bound=50) is None

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
            X = conjugate_in_gl2z(as_lib(A), as_lib(base), bound=50)
            assert X is not None
            xt = X.rows()
            assert omul(xt, base) == omul(A, xt)


def reference_shell(dim, shell):
    """The shell as it was enumerated: the whole box, filtered."""
    box = range(-shell, shell + 1)
    return [t for t in itertools.product(box, repeat=dim) if max(map(abs, t)) == shell]


def reference_conjugator(A, B, bound):
    """The first det +-1 combination of the library's kernel basis, shell
    by shell, each shell in itertools.product order."""
    if A == B:
        return IntMatrix2.identity()
    basis = _integer_kernel_basis(_sylvester_rows(A, B))
    for shell in range(1, bound + 1):
        for coeffs in reference_shell(len(basis), shell):
            e = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(4)]
            X = IntMatrix2(*e)
            if abs(X.det()) == 1 and X * B == A * X:
                return X
    return None


# finite-order matrices and the generators that conjugate them, as in the
# GL(2,Z) queries of the benchmark
FINITE_ORDER = (((0, 1), (-1, 1)), ((0, 1), (-1, 0)), ((0, -1), (1, 1)), ((-1, -1), (1, 0)))
GL2Z_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1)))


class TestShellEnumeration:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("shell", [1, 2, 3, 4, 5, 6])
    def test_equals_the_filtered_box_in_order(self, dim, shell):
        assert list(_shell_tuples(dim, shell)) == reference_shell(dim, shell)

    def test_conjugators_of_seeded_pairs_are_the_first_in_order(self):
        rng = random.Random(20)
        for _ in range(40):
            B = rng.choice(FINITE_ORDER)
            X = ID
            for _ in range(rng.randrange(1, 5)):
                g = rng.choice(GL2Z_GENERATORS)
                X = omul(X, g if rng.random() < 0.5 else oinv_unimodular(g))
            A = as_lib(omul(omul(X, B), oinv_unimodular(X)))
            found = conjugate_in_gl2z(A, as_lib(B), bound=50)
            assert found is not None
            assert found == reference_conjugator(A, as_lib(B), bound=50)

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (-2, 4), (5, -4)])
    def test_shears_of_different_size_are_not_conjugate(self, a, b):
        A = as_lib(((1, a), (0, 1)))
        B = as_lib(((1, b), (0, 1)))
        assert conjugate_in_gl2z(A, B, bound=50) is None


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

    def test_search_agrees_with_the_full_walk(self):
        # shears S^a against conjugates of S^b, and conjugates of random
        # words: the pairs whose invariants differ return None unwalked,
        # the others walk as before
        rng = random.Random(23)
        skipped = 0
        for _ in range(60):
            if rng.random() < 0.5:
                A = ((1, rng.randint(-4, 4)), (0, 1))
                B = ((1, rng.randint(-4, 4)), (0, 1))
            else:
                A = B = random_word(rng, rng.randrange(1, 5))
            X = random_word(rng, rng.randrange(0, 3))
            A, B = as_lib(A), as_lib(omul(omul(X, B), oinv_unimodular(X)))
            skipped += _conjugacy_invariants(A) != _conjugacy_invariants(B)
            assert conjugate_in_gl2z(A, B, bound=12) == reference_conjugator(A, B, bound=12)
        assert skipped > 10


class TestRelationCompatibility:
    def test_identity_af_is_compatible(self):
        assert bs_linear_compatible(as_lib(ID), as_lib(((2, 1), (1, 1))), 2)

    def test_shear_af_fails_for_generic_ah(self):
        Af = ((1, 1), (0, 1))
        Ah = ((2, 1), (1, 1))
        # oracle check of the failure
        lhs = omul(omul(Ah, Af), oinv_unimodular(Ah))
        assert lhs != opow(Af, 2)
        assert not bs_linear_compatible(as_lib(Af), as_lib(Ah), 2)

    def test_minus_identity_compatible_iff_n_odd(self):
        m = ((-1, 0), (0, -1))
        anyh = as_lib(((1, 1), (0, 1)))
        assert bs_linear_compatible(as_lib(m), anyh, 3)
        assert not bs_linear_compatible(as_lib(m), anyh, 2)


class TestSerialization:
    def test_rational_normalized(self):
        assert rational_to_json(Fraction(4, -6)) == {"num": -2, "den": 3}


class TestPowers:
    def test_integer_power_matches_oracle(self):
        m = ((2, 1), (1, 1))
        lib = as_lib(m)
        for k in range(0, 7):
            assert (lib ** k).rows() == opow(m, k)

    def test_negative_power_of_unimodular(self):
        m = as_lib(((2, 1), (1, 1)))
        assert (m ** -1) * m == IntMatrix2.identity()
        assert (m ** -3) * (m ** 3) == IntMatrix2.identity()
