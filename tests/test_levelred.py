"""Level reduction identities and the failure of their graded analogue."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dominant_weights, random_cartan, small_battery
from klrdim.budget import Deadline
from klrdim.cartan import (
    RootElement, Weight, builtin_cartan, tuple_content, validate_cartan,
)
from klrdim.dims import block_dim, blocks_of_size, dim, graded_dim, tuples_with_content
from klrdim.errors import (
    BadShape, LengthMismatch, OutOfRange, PreconditionFail, TimeBudgetExceeded,
)
from klrdim.levelred import (
    _kept,
    dominant_splits,
    reduce_block_dim,
    reduce_pair_dim_multi,
    reduce_pair_graded,
)
from klrdim.qpoly import LaurentPoly, eval_one
from oracles import (
    Recording, every_dealing, from_pairs, kept_dealings, shallow_stack, shuffle_splits,
)

RANK1 = validate_cartan([[2]])
TWO = Weight((2,))
HALVES = (Weight((1,)), Weight((1,)))


class TestPairReduction:
    def test_single_strand(self):
        assert reduce_pair_dim_multi(RANK1, TWO, (0,), (0,), HALVES) == 2
        assert dim(RANK1, TWO, (0,), (0,)) == 2

    def test_two_strands(self):
        assert reduce_pair_dim_multi(RANK1, TWO, (0, 0), (0, 0), HALVES) == 4
        assert dim(RANK1, TWO, (0, 0), (0, 0)) == 4

    def test_empty(self):
        assert reduce_pair_dim_multi(RANK1, TWO, (), (), HALVES) == 1

    def test_multi_specializes_to_pair(self):
        # A two-part split is the pairwise reduction.
        c = builtin_cartan("A2")
        lam = Weight((1, 1))
        split = (Weight((1, 0)), Weight((0, 1)))
        for nu in tuples_with_content(RootElement((1, 1))):
            for mu in tuples_with_content(RootElement((1, 1))):
                assert reduce_pair_dim_multi(c, lam, nu, mu, split) == dim(c, lam, nu, mu)

    def test_all_fundamental_parts(self):
        c = builtin_cartan("A2")
        lam = Weight((2, 1))
        split = (Weight((1, 0)), Weight((1, 0)), Weight((0, 1)))
        for n in range(4):
            for beta in blocks_of_size(c, n):
                for nu in tuples_with_content(beta):
                    for mu in tuples_with_content(beta):
                        assert reduce_pair_dim_multi(c, lam, nu, mu, split) == dim(
                            c, lam, nu, mu
                        )

    def test_identity_on_small_battery(self):
        for c, lam in small_battery():
            splits = [s for k in (2, 3) for s in dominant_splits(lam, k)]
            cache = {}
            for n in range(3):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    for nu in tuples:
                        for mu in tuples:
                            direct = dim(c, lam, nu, mu)
                            for split in splits:
                                assert (
                                    reduce_pair_dim_multi(
                                        c, lam, nu, mu, split, cache=cache
                                    )
                                    == direct
                                )

    def test_bad_split_rejected(self):
        with pytest.raises(PreconditionFail):
            reduce_pair_dim_multi(RANK1, TWO, (0,), (0,), (Weight((1,)), Weight((2,))))
        with pytest.raises(PreconditionFail):
            reduce_pair_dim_multi(RANK1, TWO, (0,), (0,), (Weight((3,)), Weight((-1,))))
        with pytest.raises(PreconditionFail):
            reduce_pair_dim_multi(RANK1, TWO, (0,), (0,), ())

    def test_mixed_length_split_rejected(self):
        # Refused when the parts are added, before any part's dimension.
        split = (Weight((1,)), Weight((1, 0)))
        with pytest.raises(BadShape, match="different node sets"):
            reduce_pair_dim_multi(RANK1, TWO, (0,), (0,), split)
        with pytest.raises(BadShape, match="different node sets"):
            reduce_block_dim(RANK1, TWO, RootElement((1,)), split)


    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([w for w in dominant_weights(3, 3) if w.level >= 2]),
        st.lists(st.integers(0, 2), max_size=4),
    )
    def test_identity_random(self, seed, lam, nu):
        # Every mu with the content of nu, so that letters repeat on both
        # sides and most subword pairs stand for several split pairs.
        c = random_cartan(random.Random(seed))
        nu = tuple(nu)
        beta = tuple_content(c, nu)
        direct_block = block_dim(c, lam, beta)
        cache = {}
        for split in (s for k in (2, 3) for s in dominant_splits(lam, k)):
            assert reduce_block_dim(c, lam, beta, split, cache=cache) == direct_block
            for mu in tuples_with_content(beta):
                direct = dim(c, lam, nu, mu)
                assert reduce_pair_dim_multi(c, lam, nu, mu, split, cache=cache) == direct
                assert eval_one(reduce_pair_graded(c, lam, nu, mu, split)) == direct


class TestCacheReuse:
    """The part dimensions in a cache are keyed without the Cartan data, so
    a cache filled on A2 must not serve G2: for (0,1) it would answer 2
    where dim gives 4, and for (0,1,1) 4 where dim gives 24."""

    LAM = Weight((1, 1))
    SPLIT = (Weight((1, 0)), Weight((0, 1)))

    @pytest.mark.parametrize("word,g2_dim", [((0, 1), 4), ((0, 1, 1), 24)])
    def test_pair_cache_refuses_other_cartan_data(self, word, g2_dim):
        a2, g2 = builtin_cartan("A2"), builtin_cartan("G2")
        cache = {}
        filled = reduce_pair_dim_multi(a2, self.LAM, word, word, self.SPLIT, cache=cache)
        assert filled == dim(a2, self.LAM, word, word)
        with pytest.raises(PreconditionFail):
            reduce_pair_dim_multi(g2, self.LAM, word, word, self.SPLIT, cache=cache)
        assert reduce_pair_dim_multi(g2, self.LAM, word, word, self.SPLIT) == g2_dim
        assert dim(g2, self.LAM, word, word) == g2_dim

    def test_block_cache_refuses_other_cartan_data(self):
        a2, g2 = builtin_cartan("A2"), builtin_cartan("G2")
        beta = RootElement((1, 2))
        cache = {}
        assert reduce_block_dim(a2, self.LAM, beta, self.SPLIT, cache=cache) == block_dim(
            a2, self.LAM, beta
        )
        with pytest.raises(PreconditionFail):
            reduce_block_dim(g2, self.LAM, beta, self.SPLIT, cache=cache)
        assert reduce_block_dim(g2, self.LAM, beta, self.SPLIT) == block_dim(g2, self.LAM, beta)


class TestWholeSums:
    """A cache keeps each whole sum on its arithmetic, its nonzero parts in
    order and its words or block, so a split that differs only by zero
    parts is answered from it, and a split with the same parts in another
    order is not: the identity makes both orders equal, and a memo that
    let one stand for the other would hide an order bug from the suite."""

    C, LAM = builtin_cartan("A2"), Weight((2, 1))
    NU, MU, BETA = (0, 1, 0), (1, 0, 0), RootElement((2, 1))
    FIRST = (Weight((1, 0)), Weight((1, 1)))
    PADDED = (Weight((1, 0)), Weight((0, 0)), Weight((1, 1)))
    SWAPPED = (Weight((1, 1)), Weight((1, 0)))

    def sums(self, split, cache):
        """The pair and block sums of the split, each with the checks it made."""
        pair, block = Recording(3600), Recording(3600)
        got = (
            reduce_pair_dim_multi(self.C, self.LAM, self.NU, self.MU, split, pair, cache),
            reduce_block_dim(self.C, self.LAM, self.BETA, split, block, cache),
        )
        return got, pair.seen, block.seen

    def test_equal_nonzero_parts_share_one_sum(self):
        # (1, 0) + (1, 1): the first part deals nu = 010 in 1 + 2 + 3
        # checks and mu = 100 in 1 + 1 + 2, and pairs the sides of contents
        # 00, 0 (twice on nu's side) and the empty one: 14.  The block peel
        # checks once per sub-block of (2, 1): 3 x 2 = 6.
        cache = {}
        expected = (dim(self.C, self.LAM, self.NU, self.MU), block_dim(self.C, self.LAM, self.BETA))
        assert expected == (8, 72)
        assert self.sums(self.FIRST, cache) == (
            expected, {"level reduction sum": 14, "dimension sum": 13},
            {"block level reduction": 6, "block sum": 24},
        )
        # The zero part leaves the same nonzero parts, and so does the list.
        assert self.sums(self.PADDED, cache) == (expected, {}, {})
        assert self.sums(list(self.FIRST), cache) == (expected, {}, {})
        # The other order is its own sum.  (1, 1) deals 010 in 1 + 2 + 3
        # and 100 in 1 + 1 + 2, and pairs the contents 001, 01 (twice on
        # nu's side) and 1: 14 again.  Of the part dimensions it takes only
        # the single strand 1 at (1, 1) is new; the first order took the
        # others.
        assert self.sums(self.SWAPPED, cache) == (
            expected, {"level reduction sum": 14, "dimension sum": 1},
            {"block level reduction": 6, "block sum": 3},
        )

    def test_other_weights_are_other_sums(self):
        # One cache for two weights: each answers its own dimension.
        cache = {}
        for lam, split in ((self.LAM, self.FIRST), (Weight((1, 1)), (Weight((1, 0)), Weight((0, 1))))):
            for _ in range(2):
                got = reduce_pair_dim_multi(self.C, lam, self.NU, self.MU, split, cache=cache)
                assert got == dim(self.C, lam, self.NU, self.MU)
                got = reduce_block_dim(self.C, lam, self.BETA, split, cache=cache)
                assert got == block_dim(self.C, lam, self.BETA)
        assert dim(self.C, Weight((1, 1)), self.NU, self.MU) == 2

    @pytest.mark.parametrize("split,nu,error,message", [
        ((), (0,), PreconditionFail, "at least one"),
        ([Weight((1, 0)), Weight((1, 0))], (0,), PreconditionFail, "sum to the target"),
        ((Weight((2, 2)), Weight((0, 0)), Weight((0, -1))), (0,), PreconditionFail, "dominant"),
        ((Weight((2,)), Weight((0, 1))), (0,), BadShape, "different node sets"),
        ((Weight((1, 0)), Weight((0, 0)), Weight((1, 1))), (2,), OutOfRange, "nodes 0..1"),
    ], ids=["no-part", "wrong-sum", "not-dominant", "node-sets", "bad-letter"])
    def test_bad_input_raises_on_a_warm_cache(self, split, nu, error, message):
        warm = {}
        self.sums(self.FIRST, warm)
        self.sums(self.PADDED, warm)
        for cache in ({}, warm):
            with pytest.raises(error, match=message):
                reduce_pair_dim_multi(self.C, self.LAM, nu, nu, split, cache=cache)
            if error is not OutOfRange:
                with pytest.raises(error, match=message):
                    reduce_block_dim(self.C, self.LAM, self.BETA, split, cache=cache)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(list(dominant_weights(3, 3))),
        st.lists(st.integers(0, 2), max_size=3),
        st.data(),
    )
    def test_zero_parts_change_nothing(self, seed, lam, nu, data):
        # Zero parts put anywhere leave each sum and the checks it makes on
        # a fresh cache as they are without them.
        c = random_cartan(random.Random(seed))
        split = data.draw(st.sampled_from([s for k in (1, 2, 3) for s in dominant_splits(lam, k)]))
        bare = [part for part in split if any(part.coeffs)] or [split[-1]]
        padded = list(bare)
        for at in data.draw(st.lists(st.integers(0, len(bare)), min_size=1, max_size=3)):
            padded.insert(at, Weight((0, 0, 0)))
        nu = tuple(nu)
        beta = tuple_content(c, nu)
        runs = []
        for parts in (bare, padded):
            seen = []
            for mu in tuples_with_content(beta):
                deadline = Recording(3600)
                got = reduce_pair_dim_multi(c, lam, nu, mu, parts, deadline=deadline)
                seen.append((got, deadline.seen))
            deadline = Recording(3600)
            seen.append((reduce_block_dim(c, lam, beta, parts, deadline=deadline), deadline.seen))
            runs.append(seen)
        assert runs[0] == runs[1]


class TestMatchedSubwords:
    @staticmethod
    def brute_force(c, nu, mu, split, dims):
        """The reduction sum over every pair of shuffle splits whose parts
        have equal content, one product of part dimensions per pair;
        ``dims`` memoizes the part dimensions."""

        def subwords(word):
            return [
                tuple(tuple(word[p - 1] for p in part) for part in s)
                for s in shuffle_splits(len(word), len(split))
            ]

        total = 0
        for sub_nu in subwords(nu):
            for sub_mu in subwords(mu):
                term = 1
                for key in zip(split, sub_nu, sub_mu):
                    if sorted(key[1]) != sorted(key[2]):
                        term = 0
                        break
                    if key not in dims:
                        dims[key] = dim(c, *key)
                    term *= dims[key]
                total += term
        return total

    def test_reduction_matches_brute_force(self):
        # One cache for every split: the 3-part splits share heads and
        # remainder words but not tails, so a remainder memo that forgot
        # its tail weights would hand one tail's sum to another.
        c, lam = builtin_cartan("A2"), Weight((2, 1))
        splits = [s for parts in (2, 3) for s in dominant_splits(lam, parts)]
        cache, dims = {}, {}
        for n in range(4):
            for nu in product(range(2), repeat=n):
                for mu in sorted(set(permutations(nu))):
                    for split in splits:
                        got = reduce_pair_dim_multi(c, lam, nu, mu, split, cache=cache)
                        assert got == self.brute_force(c, nu, mu, split, dims), (nu, mu, split)

    def test_empty_on_content_mismatch(self):
        c, lam = builtin_cartan("A2"), Weight((1, 1))
        split = (Weight((1, 0)), Weight((0, 1)))
        assert reduce_pair_dim_multi(c, lam, (0, 0), (0, 1), split) == 0
        assert reduce_pair_graded(c, lam, (0, 0), (0, 1), split).is_zero()

    def test_deadline_leaves_no_partial_map(self):
        class After(Deadline):
            def check(self, where="enumeration"):
                self.calls += 1
                if self.calls > self.limit:
                    raise TimeBudgetExceeded(where)

        c, lam = builtin_cartan("A2"), Weight((2, 1))
        split = (Weight((1, 0)), Weight((1, 0)), Weight((0, 1)))
        nu, mu = (0, 1, 0, 1), (1, 0, 0, 1)
        unlimited = After(3600)
        unlimited.calls, unlimited.limit = 0, float("inf")
        expected = reduce_pair_dim_multi(c, lam, nu, mu, split, deadline=unlimited)
        assert expected == dim(c, lam, nu, mu)
        total = unlimited.calls
        for limit in range(0, total, max(1, total // 40)):
            deadline = After(3600)
            deadline.calls, deadline.limit = 0, limit
            cache = {}
            with pytest.raises(TimeBudgetExceeded):
                reduce_pair_dim_multi(c, lam, nu, mu, split, deadline=deadline, cache=cache)
            for key, value in cache.items():
                if key[0] == "kept":
                    head, tail_sum, word = key[1:]
                    assert value == _kept(word, Weight(head), tail_sum, "test", None, {})
            assert reduce_pair_dim_multi(c, lam, nu, mu, split, cache=cache) == expected

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            reduce_pair_dim_multi(RANK1, TWO, (0,), (0, 0), (TWO,))
        with pytest.raises(LengthMismatch):
            reduce_pair_dim_multi(RANK1, TWO, (0,), (0, 0), HALVES)
        with pytest.raises(LengthMismatch):
            reduce_pair_graded(RANK1, TWO, (0,), (0, 0), HALVES)


class TestPruning:
    """The pair sum pairs only the dealt pieces that can be nonzero: a first
    subword that is empty or starts with a letter where the head weight is
    positive, and a rest that is empty or starts with a letter where the
    tail weights' sum is positive."""

    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_shared_cache_across_sizes_and_splits(self, name):
        # One cache, three-part splits first: their remainder peels (head
        # Lambda^2, tail Lambda^3) fill the kept lists of words that a
        # two-part split with the same head but a larger tail sum asks for
        # next.  A memo that forgot its tail sum would hand that split the
        # shorter list.
        c, lam = builtin_cartan(name), Weight((2, 1))
        splits = [s for parts in (3, 2) for s in dominant_splits(lam, parts)]
        cache = {}
        for n in range(4, 0, -1):
            for beta in blocks_of_size(c, n):
                tuples = list(tuples_with_content(beta))
                for nu in tuples:
                    for mu in tuples:
                        direct = dim(c, lam, nu, mu)
                        for split in splits:
                            got = reduce_pair_dim_multi(c, lam, nu, mu, split, cache=cache)
                            assert got == direct, (nu, mu, split)

    def test_pruned_deal_equals_dealing_then_filtering(self):
        # Every word of up to six letters over three, against every pattern
        # of positive head and tail-sum coefficients: 1093 words x 64.
        patterns = list(product((0, 1), repeat=3))
        for n in range(7):
            for word in product(range(3), repeat=n):
                dealt = every_dealing(word)
                for head, tail_sum in product(patterns, repeat=2):
                    got = _kept(word, Weight(head), tail_sum, "test", None, {})
                    assert got == kept_dealings(dealt, head, tail_sum), (word, head, tail_sum)

    @pytest.mark.parametrize("split", [
        (Weight((2, 1)), Weight((0, 0))),
        (Weight((0, 0)), Weight((2, 1))),
    ], ids=["zero-tail", "zero-head"])
    def test_zero_part_pairs_only_whole_words(self, split):
        # A2 at Lambda = (2, 1) with one zero part.  A zero part takes no
        # peel: its only piece of nonzero dimension is the empty word, so
        # no word is dealt, no pair is checked, and the sum is the other
        # part's dimension of the whole pair.  That dimension at (2, 1)
        # walks 1 + 2 + 2 states (nu's first 0 takes either 0 of mu, its 1
        # takes mu's 1, its last 0 the slot left).  Dealing each word of
        # three letters in the zero part's peel would check once per kept
        # dealing of each of its proper prefixes, 1 + 1 + 1, and then check
        # the one pair: 3 + 3 + 1 level reduction checks more.
        c, lam = builtin_cartan("A2"), Weight((2, 1))
        deadline = Recording(3600)
        got = reduce_pair_dim_multi(c, lam, (0, 1, 0), (1, 0, 0), split, deadline=deadline)
        assert got == dim(c, lam, (0, 1, 0), (1, 0, 0))
        assert deadline.seen == {"dimension sum": 5}

    @pytest.mark.parametrize(
        "nu,mu", [((1, 0), (1, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1))], ids=["both", "mu", "nu"],
    )
    def test_last_part_prunes_a_zero_first_letter(self, nu, mu):
        # A2 at Lambda = (1, 0) in one part: a word starting with 1, on
        # either side, has first slot factor <Lambda, h_1> = 0, so the sum
        # adds 0 without taking the dimension, and nothing is checked.
        c, lam = builtin_cartan("A2"), Weight((1, 0))
        deadline = Recording(3600)
        assert reduce_pair_dim_multi(c, lam, nu, mu, (lam,), deadline=deadline) == 0
        assert dim(c, lam, nu, mu) == 0
        assert deadline.seen == {}

    def test_zero_weight_in_zero_parts(self):
        # Lambda = 0: every part is zero, and the last one is kept.  Only
        # the empty word and the empty block survive.
        c, zero = builtin_cartan("A2"), Weight((0, 0))
        for split in ((zero,), (zero, zero), [zero, zero, zero]):
            cache = {}
            for word in ((), (0,), (1, 0)):
                got = reduce_pair_dim_multi(c, zero, word, word, split, cache=cache)
                assert got == dim(c, zero, word, word) == (0 if word else 1)
            for beta in ((0, 0), (1, 0), (1, 1)):
                got = reduce_block_dim(c, zero, RootElement(beta), split, cache=cache)
                assert got == block_dim(c, zero, RootElement(beta)) == (0 if any(beta) else 1)

    def test_pair_peel_checks_once_per_dealing_and_pair(self):
        # A2 at Lambda = (2, 1) over (1, 0) + (1, 0) + (0, 1), with a fresh
        # cache.  Dealing a word checks once per kept dealing of each of its
        # proper prefixes.  The first part, with the later parts summing to
        # (1, 1), deals nu = 010 in 1 + 2 + 3 checks and mu = 100 in
        # 1 + 1 + 2, and pairs the sides of equal content 0 0, 0 (twice on
        # nu's side) and the empty ones: 4 checks, 14 in all.  The 00 pair
        # is zero at level one, so three remainder pairs are left: (10, 10),
        # (01, 10) and (010, 100).  The second part, before (0, 1), deals
        # each of their four words once, in 2 + 2 + 4 + 4 checks, and checks
        # 2 + 1 + 2 pairs: 17.  The last part's sums are its own dimensions,
        # which need no check: 14 + 17 = 31.
        c, lam = builtin_cartan("A2"), Weight((2, 1))
        split = (Weight((1, 0)), Weight((1, 0)), Weight((0, 1)))
        deadline = Recording(3600)
        got = reduce_pair_dim_multi(c, lam, (0, 1, 0), (1, 0, 0), split, deadline=deadline)
        assert got == dim(c, lam, (0, 1, 0), (1, 0, 0)) == 8
        assert deadline.seen["level reduction sum"] == 31


class TestBlockReduction:
    def test_peel_checks_once_per_sub_block(self):
        # A1 at Lambda = 3 over three unit parts, beta = 2 letters.  The
        # first part takes 0, 1 or 2 of the two letters: three checks.  At
        # level one a block of two letters has dimension 0, so that leaves
        # 2 or 1 letters for the other parts.  The second part takes 0, 1
        # or 2 of the two and 0 or 1 of the one: five checks.  The last
        # part's sums are its own block dimensions, which need no check:
        # 3 + 5 = 8.  One check per decomposition of 2 into three parts
        # would make 6.
        deadline = Recording(3600)
        split = (Weight((1,)),) * 3
        got = reduce_block_dim(RANK1, Weight((3,)), RootElement((2,)), split, deadline=deadline)
        assert got == block_dim(RANK1, Weight((3,)), RootElement((2,)))
        assert deadline.seen["block level reduction"] == 8

    def test_many_unit_parts(self):
        # Each peel is a step of a loop over the parts, and no list of the
        # 1200 * 1201 / 2 decompositions of 2 into 1200 parts is made.
        split = (Weight((1,)),) * 1200
        with shallow_stack():
            got = reduce_block_dim(RANK1, Weight((1200,)), RootElement((2,)), split)
        assert got == block_dim(RANK1, Weight((1200,)), RootElement((2,))) == 2 * 1200 * 1199

    def test_two_strand_terms(self):
        # decompositions (2,0), (1,1), (0,2): only the middle survives
        assert block_dim(RANK1, Weight((1,)), RootElement((2,))) == 0
        assert reduce_block_dim(RANK1, TWO, RootElement((2,)), HALVES) == 4
        assert block_dim(RANK1, TWO, RootElement((2,))) == 4

    def test_one_part_split_is_identity(self):
        c = builtin_cartan("A2")
        lam = Weight((2, 1))
        for n in range(4):
            for beta in blocks_of_size(c, n):
                assert reduce_block_dim(c, lam, beta, (lam,)) == block_dim(c, lam, beta)

    def test_affine_three_part_totals(self):
        c = builtin_cartan("A1~")
        lam = Weight((1, 2))
        split = (Weight((1, 0)), Weight((0, 1)), Weight((0, 1)))
        total = sum(
            reduce_block_dim(c, lam, beta, split) for beta in blocks_of_size(c, 2)
        )
        # coefficient sum of the graded size-2 answer: 2+5+6+4+1
        assert total == 18

    def test_identity_on_small_battery(self):
        for c, lam in small_battery():
            splits = [s for k in (2, 3) for s in dominant_splits(lam, k)]
            cache = {}
            for n in range(3):
                for beta in blocks_of_size(c, n):
                    direct = block_dim(c, lam, beta)
                    for split in splits:
                        assert (
                            reduce_block_dim(c, lam, beta, split, cache=cache)
                            == direct
                        )


class TestGradedAnalogueFails:
    def test_single_strand_counterexample(self):
        graded_sum = reduce_pair_graded(RANK1, TWO, (0,), (0,), HALVES)
        true_graded = graded_dim(RANK1, TWO, (0,), (0,))
        assert graded_sum == from_pairs([(0, 2)])
        assert true_graded == from_pairs([(0, 1), (2, 1)])
        assert graded_sum != true_graded

    def test_graded_sum_at_one_is_dim(self):
        # repeated letters: each subword pair stands for several splits
        for nu in ((0, 0), (0, 0, 0)):
            graded_sum = reduce_pair_graded(RANK1, TWO, nu, nu, HALVES)
            assert eval_one(graded_sum) == dim(RANK1, TWO, nu, nu)


class TestSplitEnumerations:
    def test_dominant_splits_count(self):
        lam = Weight((1, 2))
        got = list(dominant_splits(lam, 2))
        assert len(got) == 2 * 3
        for parts in got:
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            assert total == lam
            assert all(p.is_dominant for p in parts)

    def test_dominant_splits_order(self):
        got = [tuple(p.coeffs for p in parts) for parts in dominant_splits(Weight((1, 2)), 2)]
        assert got == [
            ((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0)),
            ((1, 0), (0, 2)), ((1, 1), (0, 1)), ((1, 2), (0, 0)),
        ]

    def test_splits_need_no_deep_stack(self):
        # One unit split into 1200 parts: one split per part that takes it,
        # the last part first.  No recursion grows with the parts, so this
        # runs with the recursion limit only 150 frames above this test.
        with shallow_stack():
            splits = dominant_splits(Weight((1,)), 1200)
            first = next(splits)
            count = 1 + sum(1 for _ in splits)
        assert tuple(part.coeffs for part in first) == ((0,),) * 1199 + ((1,),)
        assert count == 1200

    @pytest.mark.parametrize("parts", [0, -1])
    def test_dominant_splits_need_a_part(self, parts):
        with pytest.raises(PreconditionFail):
            list(dominant_splits(Weight((1, 2)), parts))

    @pytest.mark.parametrize("lam", [(-1,), (1, -1)])
    def test_dominant_splits_need_a_dominant_weight(self, lam):
        with pytest.raises(PreconditionFail, match="dominant"):
            next(dominant_splits(Weight(lam), 2))
