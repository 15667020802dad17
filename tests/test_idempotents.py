"""Vanishing criteria for idempotents: four routes, one verdict."""

from itertools import permutations, product

import pytest

from conftest import dominant_weights
from klrdim.cartan import Weight, builtin_cartan, validate_cartan
from klrdim.errors import NotBlockForm
from klrdim.idempotents import (
    nonzero_blockwise,
    nonzero_by_shuffle,
    nonzero_direct,
    nonzero_divided,
)
from oracles import Recording, first_shuffle_witness, shallow_stack

RANK1 = validate_cartan([[2]])
A2 = builtin_cartan("A2")


class TestDirect:
    def test_level_two_single_letter(self):
        v = nonzero_direct(RANK1, Weight((2,)), (0, 0))
        assert v.nonzero and v.witness == 4

    def test_dead_first_letter(self):
        v = nonzero_direct(A2, Weight((0, 1)), (0, 1))
        assert not v.nonzero and v.witness == 0

    def test_a2_pair(self):
        v = nonzero_direct(A2, Weight((1, 1)), (0, 1))
        assert v.nonzero and v.witness == 2

    def test_truthiness(self):
        assert nonzero_direct(RANK1, Weight((1,)), (0,))
        assert not nonzero_direct(RANK1, Weight((0,)), (0,))


class TestDivided:
    def test_same_three_examples(self):
        assert nonzero_divided(RANK1, Weight((2,)), (0, 0)).nonzero
        assert not nonzero_divided(A2, Weight((0, 1)), (0, 1)).nonzero
        assert nonzero_divided(A2, Weight((1, 1)), (0, 1)).nonzero


class TestBlockwise:
    def test_level_one_two_strands_dies(self):
        v = nonzero_blockwise(RANK1, Weight((1,)), (0, 0))
        assert not v.nonzero
        assert v.witness == ((1, 2),)

    def test_level_two_two_strands_lives(self):
        v = nonzero_blockwise(RANK1, Weight((2,)), (0, 0))
        assert v.nonzero
        assert v.witness == ((2, 2),)

    def test_boundary_equality_passes(self):
        v = nonzero_blockwise(A2, Weight((1, 0)), (0,))
        assert v.nonzero and v.witness == ((1, 1),)

    def test_rejects_scattered_letters(self):
        with pytest.raises(NotBlockForm):
            nonzero_blockwise(A2, Weight((1, 1)), (0, 1, 0))


class TestShuffle:
    def test_level_one_reduces_to_direct(self):
        lam = Weight((1, 0))
        for nu in product(range(2), repeat=3):
            s = nonzero_by_shuffle(A2, nu, (0,))
            d = nonzero_direct(A2, lam, nu)
            assert s.nonzero == d.nonzero

    def test_two_strand_witness(self):
        v = nonzero_by_shuffle(RANK1, (0, 0), (0, 0))
        assert v.nonzero
        assert v.witness == ((0,), (0,))

    def test_failure_has_no_witness(self):
        v = nonzero_by_shuffle(RANK1, (0, 0), (0,))
        assert not v.nonzero and v.witness is None

    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_agrees_with_direct(self, name):
        c = builtin_cartan(name)
        for lam in dominant_weights(c.n, 3):
            fundamentals = tuple(
                i for i, k in enumerate(lam.coeffs) for _ in range(k)
            )
            for n in range(5):
                for nu in product(range(c.n), repeat=n):
                    s = nonzero_by_shuffle(c, nu, fundamentals)
                    d = nonzero_direct(c, lam, nu)
                    assert s.nonzero == d.nonzero, (lam, nu)

    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_witness_is_the_first_passing_assignment(self, name):
        # Every order of the fundamental weights: from level 3 on, equal
        # ones may stand apart, as in (0, 1, 0), and equal pieces open in
        # order.
        c = builtin_cartan(name)
        for lam in dominant_weights(c.n, 3):
            units = tuple(i for i, k in enumerate(lam.coeffs) for _ in range(k))
            for fundamentals in sorted(set(permutations(units))):
                for n in range(7 if len(units) < 3 else 6):
                    for nu in product(range(c.n), repeat=n):
                        got = nonzero_by_shuffle(c, nu, fundamentals).witness
                        assert got == first_shuffle_witness(c, nu, fundamentals), (fundamentals, nu)

    def test_equal_pieces_open_in_order(self):
        # A1~ at Lambda = 3 Lambda_1 on nu = 1, 1, 1, 1, 0, 1, 1 is zero.
        # Lambda_1 pairs to zero with letter 0, so a piece opens only on a
        # 1, and the three equal pieces open in order: a prefix of m
        # letters is a partition of its positions into at most three
        # pieces, numbered as they open, in which position 4 (the 0) joins
        # an open piece.  For m = 0..7 there are 1, 1, 2, 5, 14, 33, 98
        # and 293 of them, one check each.  Every order of the pieces
        # would take 2,656.
        c = builtin_cartan("A1~")
        deadline = Recording(3600)
        verdict = nonzero_by_shuffle(c, (1, 1, 1, 1, 0, 1, 1), (1, 1, 1), deadline=deadline)
        assert not verdict.nonzero and verdict.witness is None
        assert deadline.seen["shuffle search"] == 447

    def test_long_words_need_no_deep_stack(self):
        # The search loops over an explicit stack, so 300 positions run with
        # the recursion limit 150 frames above this test.  On A300 the word
        # 0, 1, ..., 299 is a row at the first fundamental weight and goes
        # whole into the first piece; at level one on A1, 300 equal letters
        # are zero from their second, and the search backs out of all 300.
        a300, word = builtin_cartan("A300"), tuple(range(300))
        with shallow_stack():
            assert nonzero_by_shuffle(a300, word, (0, 0)).witness == (word, ())
            assert nonzero_by_shuffle(RANK1, (0,) * 300, (0,)).witness is None


class TestAgreement:
    @pytest.mark.parametrize("name", ["A2", "C2", "G2", "A1~"])
    def test_all_methods_agree(self, name):
        c = builtin_cartan(name)
        for lam in dominant_weights(c.n, 3):
            for n in range(5):
                for nu in product(range(c.n), repeat=n):
                    d = nonzero_direct(c, lam, nu).nonzero
                    assert nonzero_divided(c, lam, nu).nonzero == d
                    try:
                        b = nonzero_blockwise(c, lam, nu)
                    except NotBlockForm:
                        pass
                    else:
                        assert b.nonzero == d

    def test_dead_first_letter_everywhere(self):
        lam = Weight((0, 2))
        for nu in [(0,), (0, 1), (0, 0), (0, 1, 1)]:
            assert not nonzero_direct(A2, lam, nu).nonzero
            assert not nonzero_divided(A2, lam, nu).nonzero
            fundamentals = (1, 1)
            assert not nonzero_by_shuffle(A2, nu, fundamentals).nonzero
