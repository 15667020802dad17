"""Laurent polynomial arithmetic and quantum integers."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klrdim.errors import DivisionInexact, TooManyTerms
from klrdim.qpoly import (
    MAX_TERMS,
    LaurentPoly,
    divide_exact,
    eval_one,
    quantum_factorial,
    quantum_int,
    sum_of_products,
)
from oracles import bar, from_pairs, quantum_binomial, shallow_stack

polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


def P(*pairs):
    return from_pairs(pairs)


class TestQuantumInt:
    def test_two(self):
        assert quantum_int(2, 1) == P((1, 1), (-1, 1))

    def test_zero(self):
        for d in (1, 2, 5):
            assert quantum_int(0, d).is_zero()

    def test_minus_three_doubled(self):
        # negate the m=3 expansion in the variable q^2
        assert quantum_int(-3, 2) == P((4, -1), (0, -1), (-4, -1))

    def test_negation_rule(self):
        for m in range(1, 7):
            for d in (1, 2, 3):
                assert quantum_int(-m, d) == -quantum_int(m, d)

    def test_bar_invariance(self):
        for m in range(-6, 7):
            for d in range(1, 7):
                p = quantum_int(m, d)
                assert bar(p) == p

    def test_eval_one_is_m(self):
        assert eval_one(quantum_int(5, 1)) == 5
        for m in range(-7, 8):
            assert eval_one(quantum_int(m, 3)) == m

    @pytest.mark.parametrize("d", [0, -1])
    def test_variable_needs_a_positive_power(self, d):
        with pytest.raises(ValueError, match="positive"):
            quantum_int(1, d)

    @pytest.mark.parametrize("m", [MAX_TERMS + 1, -MAX_TERMS - 1, 10**2200])
    def test_refused_past_the_cap(self, m):
        with pytest.raises(TooManyTerms):
            quantum_int(m, 1)


class TestFactorialBinomial:
    def test_factorial_two(self):
        assert quantum_factorial(2, 1) == quantum_int(2, 1)

    def test_factorial_zero(self):
        assert quantum_factorial(0, 1) == LaurentPoly.one()

    def test_factorial_of_a_negative_is_refused(self):
        with pytest.raises(ValueError, match="m >= 0"):
            quantum_factorial(-1)

    def test_factorial_recurrence(self):
        for m in range(1, 9):
            assert quantum_factorial(m) == quantum_int(m) * quantum_factorial(m - 1)

    def test_factorial_needs_no_deep_stack(self):
        # 47 factors with the recursion limit 20 frames above this test.
        expected = LaurentPoly.one()
        for k in range(1, 48):
            expected = expected * quantum_int(k, 2)
        with shallow_stack(headroom=20):
            assert quantum_factorial(47, 2) == expected

    @pytest.mark.parametrize("fn, args", [
        (quantum_factorial, (3000,)),
        (quantum_factorial, (1449, 3)),
        (quantum_binomial, (3000, 1)),
    ], ids=["factorial-3000", "factorial-1449-d3", "binomial-3000-1"])
    def test_factorial_refused_past_the_cap(self, fn, args):
        # [m]! has m(m-1)/2 + 1 terms: 1049077 at m = 1449, past 2^20.
        with pytest.raises(TooManyTerms):
            fn(*args)

    def test_binomial_three_one(self):
        assert quantum_binomial(3, 1) == quantum_int(3, 1)

    def test_binomial_symmetry_and_one_value(self):
        for m in range(7):
            for n in range(m + 1):
                b = quantum_binomial(m, n, 2)
                assert b == quantum_binomial(m, m - n, 2)
                from math import comb

                assert eval_one(b) == comb(m, n)

    def test_division_inexact(self):
        with pytest.raises(DivisionInexact):
            divide_exact(P((1, 1), (0, 1)), P((1, 2)))
        with pytest.raises(DivisionInexact):
            divide_exact(P((2, 1), (0, 1)), P((1, 1), (0, 1)))

    def test_division_by_zero_and_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(quantum_int(2), LaurentPoly.zero())
        assert divide_exact(LaurentPoly.zero(), quantum_int(2)).is_zero()


class TestEquality:
    @pytest.mark.parametrize("k", [-3, 0, 1, 7])
    def test_constants_hash_as_their_integers(self, k):
        p = LaurentPoly({0: k})
        assert p == k and hash(p) == hash(k)
        assert len({k, p}) == 1

    # An int must become a polynomial before it is added; only an int scales one.
    @pytest.mark.parametrize("op", [
        lambda p: p + 1, lambda p: p * 1.5, lambda p: 1.5 * p,
    ], ids=["add-int", "mul-float", "rmul-float"])
    def test_other_operands_are_refused(self, op):
        with pytest.raises(TypeError):
            op(quantum_int(2))

    def test_equals_nothing_but_polynomials_and_ints(self):
        assert LaurentPoly.one() != 1.0 and LaurentPoly.one() != "1"

    def test_one_and_1_are_one_set_member(self):
        assert len({1, LaurentPoly.one()}) == 1
        assert len({LaurentPoly.one(), quantum_int(2)}) == 2


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(polys, polys, polys)
    def test_add_mul_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(polys, polys)
    def test_eval_one_homomorphism(self, a, b):
        assert eval_one(a + b) == eval_one(a) + eval_one(b)
        assert eval_one(a * b) == eval_one(a) * eval_one(b)

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_bar_is_ring_involution(self, a):
        assert bar(bar(a)) == a

    @settings(max_examples=60, deadline=None)
    @given(polys, st.integers(min_value=-10, max_value=10))
    def test_shift_and_scale(self, a, k):
        assert a.shift(3).shift(-3) == a
        assert eval_one(a.scale(k)) == k * eval_one(a)


class TestSumOfProducts:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(polys, polys), max_size=5))
    # Two products that cancel to zero, through different exponents.
    @example([(P((3, 1)), P((0, 2))), (P((3, -1)), P((0, 2)))])
    # A cancelling pair beside a term that stays.
    @example([(P((-3, 3), (-1, 1)), P((1, 1))), (P((0, -1)), P((0, 1)))])
    def test_matches_the_fold_of_products(self, pairs):
        fold = LaurentPoly.zero()
        for a, b in pairs:
            fold = fold + a * b
        got = sum_of_products(pairs)
        assert got == fold
        assert 0 not in dict(got.items()).values()


def test_geometric_sum_identity():
    # sum_{k=0}^{t-1} [l-2k] q^{l-t} == [t] (1 + q^2 + ... + q^{2(l-t)})
    for l in range(1, 8):
        for t in range(1, l + 1):
            lhs = LaurentPoly.zero()
            for k in range(t):
                lhs = lhs + quantum_int(l - 2 * k, 1).shift(l - t)
            rhs = quantum_int(t, 1) * from_pairs(
                (2 * j, 1) for j in range(l - t + 1)
            )
            assert lhs == rhs


class TestRendering:
    def test_descending_print(self):
        p = P((6, 2), (4, 5), (2, 6), (0, 4), (-2, 1))
        assert str(p) == "2q^6+5q^4+6q^2+4+q^-2"

    def test_small_cases(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.one()) == "1"
        assert str(P((1, 1), (-1, -1))) == "q-q^-1"
        assert str(P((1, -3))) == "-3q"

    def test_pairs_roundtrip(self):
        p = P((3, 2), (-5, -7), (0, 1))
        assert from_pairs(tuple(x) for x in p.to_pairs()) == p

    def test_no_zero_terms_stored(self):
        p = P((2, 1), (2, -1), (0, 3))
        assert p.support() == [0]
        assert p.coeff(2) == 0
