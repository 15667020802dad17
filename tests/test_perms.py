"""Permutation combinatorics: transport sets, grouped forms, coset
representatives, sorting permutations, and the oracles' shuffle splits."""

import time
from itertools import permutations, product

import pytest
from klrdim.errors import IncompatibleContent, LengthMismatch, NotBlockForm
from klrdim.perms import (
    as_block_form,
    block_form_of,
    sorting_perm,
    transport_perms,
)
from oracles import (
    act_on_tuple,
    act_right,
    compose,
    identity_perm,
    min_coset_reps,
    perm_inverse,
    perm_length,
    run_bounds,
    shallow_stack,
    shuffle_splits,
    simple_transposition,
    smaller_before,
    transport_count,
)

S3_S1 = (2, 1, 3)  # the swap of 1 and 2 inside S_3


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


class TestBasics:
    def test_actions_are_mutually_inverse(self):
        nu = (0, 1, 2, 1)
        for w in all_perms(4):
            assert act_right(act_on_tuple(w, nu), w) == nu
            assert act_on_tuple(w, act_right(nu, w)) == nu

    def test_compose_and_inverse(self):
        for w in all_perms(4):
            assert compose(w, perm_inverse(w)) == identity_perm(4)
            assert compose(perm_inverse(w), w) == identity_perm(4)

    def test_length_is_inversions(self):
        assert perm_length(identity_perm(5)) == 0
        assert perm_length((3, 2, 1)) == 3

    def test_simple_transposition(self):
        assert simple_transposition(3, 1) == S3_S1
        # s_2 s_1 as function composition has one-line form (3,1,2)
        assert compose(simple_transposition(3, 2), simple_transposition(3, 1)) == (3, 1, 2)


class TestSmallerBefore:
    def test_identity(self):
        w = identity_perm(5)
        for t in range(1, 6):
            assert smaller_before(w, t) == frozenset(range(1, t))

    def test_s1_in_s3(self):
        assert smaller_before(S3_S1, 3) == frozenset({1, 2})
        assert smaller_before(S3_S1, 2) == frozenset()


class TestTransport:
    def test_repeated_letter_pair(self):
        assert list(transport_perms((0, 0), (0, 0))) == [(1, 2), (2, 1)]

    def test_content_mismatch_is_empty(self):
        assert list(transport_perms((1, 2), (2, 2))) == []
        assert transport_count((1, 2), (2, 2)) == 0

    def test_aba_stabilizer(self):
        assert list(transport_perms((1, 2, 1), (1, 2, 1))) == [(1, 2, 3), (3, 2, 1)]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            list(transport_perms((1,), (1, 1)))

    def test_against_brute_force(self):
        cases = [
            ((0, 1, 0, 1), (1, 0, 0, 1)),
            ((0, 0, 0, 1), (0, 1, 0, 0)),
            ((2, 2, 2, 2), (2, 2, 2, 2)),
            ((0, 1, 2, 1, 0), (1, 0, 0, 1, 2)),
        ]
        for nu, nuprime in cases:
            fast = list(transport_perms(nu, nuprime))
            slow = [w for w in all_perms(len(nu)) if act_on_tuple(w, nu) == nuprime]
            assert fast == sorted(slow)
            assert fast == sorted(fast)  # lexicographic stream
            assert transport_count(nu, nuprime) == len(fast)

    def test_count_formula(self):
        from math import factorial

        nu = (0, 0, 1, 1, 1, 2)
        assert transport_count(nu, nu) == factorial(2) * factorial(3)

    def test_empty_tuple(self):
        assert list(transport_perms((), ())) == [()]


class TestBlocks:
    def test_block_form_first_occurrence(self):
        f = block_form_of((2, 1, 1))
        assert f.tuple == (2, 1, 1)
        assert f.letters == (2, 1)
        f2 = block_form_of((2, 1, 1), letters=(1, 2))
        assert f2.tuple == (1, 1, 2)

    def test_block_form_of_scattered(self):
        assert block_form_of((0, 1, 0)).tuple == (0, 0, 1)

    def test_block_form_bad_letters(self):
        with pytest.raises(IncompatibleContent):
            block_form_of((0, 1), letters=(0, 2))

    def test_as_block_form_rejects_repeats(self):
        with pytest.raises(NotBlockForm):
            as_block_form((0, 1, 0))
        f = as_block_form((0, 0, 1))
        assert f.sizes == (2, 1)


class TestMinCosetReps:
    def test_single_block(self):
        assert list(min_coset_reps((0, 0))) == [(1, 2)]

    def test_distinct_letters(self):
        assert list(min_coset_reps((1, 2))) == [(1, 2)]

    def test_aba(self):
        assert list(min_coset_reps((1, 2, 1))) == [(1, 2, 3), (3, 2, 1)]

    @pytest.mark.parametrize("letters,n", [(2, 5), (3, 4)])
    def test_unique_factorization(self, letters, n):
        # stabilizer == reps * (block Young subgroup), uniquely
        for nu in product(range(letters), repeat=n):
            bounds = run_bounds(nu)
            young = []
            for w in all_perms(n):
                if all(
                    bounds[i] < w[k] <= bounds[i + 1]
                    for i in range(len(bounds) - 1)
                    for k in range(bounds[i], bounds[i + 1])
                ):
                    young.append(w)
            reps = list(min_coset_reps(nu))
            produced = {}
            for d in reps:
                for u in young:
                    w = compose(d, u)
                    assert w not in produced
                    produced[w] = (d, u)
            assert set(produced) == set(transport_perms(nu, nu))

    def test_constant_tuple_walks_one_branch(self):
        # A walk that entered dead branches would visit 2^24 nodes here.
        start = time.perf_counter()
        assert list(min_coset_reps((0,) * 24)) == [tuple(range(1, 25))]
        assert time.perf_counter() - start < 1.0

    def test_long_words_need_no_deep_stack(self):
        # The slot walk loops over an explicit stack, so 300 slots run with
        # the recursion limit 150 frames above this test.
        identity = tuple(range(1, 301))
        with shallow_stack():
            assert list(min_coset_reps((0,) * 300)) == [identity]
            assert next(transport_perms((0,) * 300, (0,) * 300)) == identity

    def test_order_is_lexicographic(self):
        # The walk yields exactly the run-ascending stabilizer elements,
        # in lexicographic one-line order.
        for n in range(7):
            for nu in product(range(3), repeat=n):
                ascending = [
                    w for w in transport_perms(nu, nu)
                    if all(w[k - 1] < w[k] for k in range(1, n) if nu[k - 1] == nu[k])
                ]
                assert list(min_coset_reps(nu)) == sorted(ascending)


class TestSortingPerm:
    def test_already_grouped(self):
        f = block_form_of((0, 0, 1))
        assert sorting_perm((0, 0, 1), f) == (1, 2, 3)

    def test_worked_example(self):
        f = block_form_of((1, 1, 2))
        assert sorting_perm((2, 1, 1), f) == (3, 1, 2)

    def test_content_mismatch(self):
        with pytest.raises(IncompatibleContent):
            sorting_perm((0, 0), block_form_of((0, 1)))

    @pytest.mark.parametrize("letters,n", [(2, 5), (3, 4)])
    def test_minimal_length_exhaustive(self, letters, n):
        for mu in product(range(letters), repeat=n):
            f = block_form_of(mu)
            d = sorting_perm(mu, f)
            assert act_on_tuple(d, mu) == f.tuple
            lengths = [
                perm_length(w) for w in transport_perms(mu, f.tuple)
            ]
            assert perm_length(d) == min(lengths)
            # minimality is attained by d alone within its Young coset
            assert sum(1 for L in lengths if L == perm_length(d)) >= 1

    def test_factor_recurrence(self):
        # if the sorting permutation factors as d1*d2 with lengths adding,
        # then the sorting permutation of mu * d2^-1 is d1
        for mu in product(range(3), repeat=4):
            f = block_form_of(mu)
            d = sorting_perm(mu, f)
            for u in all_perms(4):
                d1 = compose(d, perm_inverse(u))
                if perm_length(d1) + perm_length(u) != perm_length(d):
                    continue
                mu2 = act_right(mu, perm_inverse(u))
                assert sorting_perm(mu2, f) == d1


class TestShuffles:
    def test_counts(self):
        assert len(list(shuffle_splits(2, 2))) == 4
        assert len(list(shuffle_splits(3, 3))) == 27
        assert list(shuffle_splits(0, 2)) == [((), ())]

    def test_parts_partition_positions(self):
        for split in shuffle_splits(4, 3):
            seen = [p for part in split for p in part]
            assert sorted(seen) == [1, 2, 3, 4]
            for part in split:
                assert list(part) == sorted(part)
