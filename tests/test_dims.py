"""The dimension engine: factors, closed formula, recursion, closed forms."""

import os
import random
import resource
import subprocess
import sys
import time
from itertools import permutations, product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import battery_types, random_cartan, small_battery
from klrdim.basis import block_levels, exponent_bounds, graded_dim_blockwise
from klrdim.budget import Deadline
from klrdim.cartan import RootElement, Weight, builtin_cartan, grading_shift, validate_cartan
from klrdim.dims import (
    _ARITHMETIC,
    _compositions,
    _run_factor,
    algebra_dim,
    algebra_graded_dim,
    block_dim,
    block_graded_dim,
    blocks_of_size,
    crossing_degree,
    dim,
    dim_divided,
    graded_dim,
    graded_dim_recursive,
    nilhecke_dim,
    nilhecke_graded_dim,
    transport_column,
    tuples_with_content,
)
from klrdim.errors import (
    BadShape, LengthMismatch, OutOfRange, PreconditionFail, TimeBudgetExceeded, TooManyTerms,
)
from klrdim.idempotents import nonzero_blockwise, nonzero_by_shuffle, nonzero_direct
from klrdim.levelred import reduce_pair_dim_multi, reduce_pair_graded
from klrdim.perms import as_block_form, transport_perms
from klrdim.qpoly import LaurentPoly, eval_one, quantum_int
from oracles import (
    Recording, bar, dim_divided_by_reps, dim_factor, dim_factor_id, dim_factor_target, from_pairs,
    shallow_stack,
)

RANK1 = validate_cartan([[2]])
A2 = builtin_cartan("A2")
S2_S1 = (2, 1)


def P(*pairs):
    return from_pairs(pairs)


class TestDimFactor:
    def test_single_letter_level_five(self):
        lam = Weight((5,))
        nu = (0, 0)
        one = (1, 2)
        assert dim_factor(RANK1, lam, one, nu, 1) == 5
        assert dim_factor(RANK1, lam, one, nu, 2) == 3
        assert dim_factor(RANK1, lam, S2_S1, nu, 1) == 5
        assert dim_factor(RANK1, lam, S2_S1, nu, 2) == 5

    def test_slot_one_is_plain_pairing(self):
        for c, lam in small_battery():
            for x in range(c.n):
                for w in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]:
                    assert dim_factor(c, lam, w, (x, x, x), 1) == lam.coeffs[x]

    def test_aba_pattern(self):
        # nu = (x, y, x): identity factors (l1, l2 - a_yx, l1 - a_xy - 2),
        # swapped-ends factors (l1, l2, l1)
        for l1, l2 in [(3, 2), (1, 1), (2, 0)]:
            lam = Weight((l1, l2))
            nu = (0, 1, 0)
            ident = (1, 2, 3)
            swap = (3, 2, 1)
            a01 = A2.a(0, 1)
            assert dim_factor(A2, lam, ident, nu, 1) == l1
            assert dim_factor(A2, lam, ident, nu, 2) == l2 - A2.a(1, 0)
            assert dim_factor(A2, lam, ident, nu, 3) == l1 - a01 - 2
            assert [dim_factor(A2, lam, swap, nu, t) for t in (1, 2, 3)] == [l1, l2, l1]

    def test_identity_shortcut(self):
        for c, lam in small_battery():
            for nu in product(range(c.n), repeat=3):
                for t in (1, 2, 3):
                    assert dim_factor_id(c, lam, nu, t) == dim_factor(
                        c, lam, (1, 2, 3), nu, t
                    )


class TestDimFactorTarget:
    def test_single_letter(self):
        lam = Weight((5,))
        nu = (0, 0)
        for w in transport_perms(nu, nu):
            for t in (1, 2):
                assert dim_factor_target(RANK1, lam, w, nu, nu, t) == dim_factor(
                    RANK1, lam, w, nu, t
                )

    def test_slot_one(self):
        lam = Weight((2, 3))
        assert dim_factor_target(A2, lam, (2, 1), (0, 1), (1, 0), 1) == 2

    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_agrees_exhaustively(self, name):
        c = builtin_cartan(name)
        lam = Weight((1, 2))
        for n in range(5):
            for beta in blocks_of_size(c, n):
                tuples = list(tuples_with_content(beta))
                for nu in tuples:
                    for nuprime in tuples:
                        for w in transport_perms(nu, nuprime):
                            for t in range(1, n + 1):
                                assert dim_factor_target(
                                    c, lam, w, nu, nuprime, t
                                ) == dim_factor(c, lam, w, nu, t)


class TestGradedDim:
    def test_empty_tuple(self):
        assert graded_dim(A2, Weight((1, 1)), (), ()) == LaurentPoly.one()

    def test_affine_rank_one_values(self):
        c = builtin_cartan("A1~")
        lam = Weight((1, 2))
        assert graded_dim(c, lam, (1,), (1,)) == P((0, 1), (2, 1))
        assert graded_dim(c, lam, (1, 0), (1, 0)) == P((0, 1), (2, 2), (4, 2), (6, 1))
        assert graded_dim(c, lam, (0, 1), (1, 0)) == P((2, 1), (4, 1))
        assert graded_dim(c, lam, (0, 0), (0, 0)).is_zero()

    def test_no_transport_is_zero(self):
        assert graded_dim(A2, Weight((1, 1)), (0, 0), (0, 1)).is_zero()

    def test_coefficients_nonnegative(self):
        for c, lam in small_battery():
            for n in range(4):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    for nu in tuples:
                        for nuprime in tuples:
                            g = graded_dim(c, lam, nu, nuprime)
                            assert all(coeff > 0 for _, coeff in g.items())


def brute_force(c, lam, nu, nuprime):
    """dim and graded_dim as the closed formula reads: every transport
    permutation, every slot's :func:`dim_factor`, no pruning."""
    slots = range(1, len(nu) + 1)
    plain, graded = 0, LaurentPoly.zero()
    for w in transport_perms(nu, nuprime):
        factors = [dim_factor(c, lam, w, nu, t) for t in slots]
        plain += prod(factors)
        term = LaurentPoly.one()
        for t, f in zip(slots, factors):
            term = term * quantum_int(f, c.d(nu[t - 1]))
        graded = graded + term
    shift = sum(c.d(nu[t - 1]) * (dim_factor_id(c, lam, nu, t) - 1) for t in slots)
    return plain, graded.shift(shift)


class TestPrunedWalk:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.lists(st.integers(0, 2), max_size=5).flatmap(
            lambda nu: st.tuples(st.just(tuple(nu)), st.permutations(nu))
        ),
    )
    # A zero coefficient at the first letter: every w is cut at slot 1.
    @example(seed=0, lam=(0, 1, 1), pair=((0, 1, 2), (2, 1, 0)))
    # Level one, three equal letters: negative factors from slot 2 on.
    @example(seed=0, lam=(1, 0, 0), pair=((0, 0, 0), (0, 0, 0)))
    # Seven equal letters at level 7: 5040 permutations, 128 sets of slots.
    @example(seed=0, lam=(7, 0, 0), pair=((0,) * 7, (0,) * 7))
    # A run of six with one other letter, moved: paths merge within the run.
    @example(seed=2, lam=(6, 0, 0), pair=((0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)))
    # Level one on six letters with d = 2 (the long node of a C2 inside):
    # every state of two taken slots cancels to 0.
    @example(seed=8, lam=(0, 1, 0), pair=((1,) * 6, (1,) * 6))
    # Products of both signs: the negative ones cancel part of the sum, 48.
    @example(seed=0, lam=(0, 0, 1), pair=((2, 0, 2, 0, 2), (2, 0, 2, 2, 0)))
    def test_matches_brute_force(self, seed, lam, pair):
        c = random_cartan(random.Random(seed))
        lam = Weight(lam)
        nu, nuprime = pair
        plain, graded = brute_force(c, lam, nu, tuple(nuprime))
        assert dim(c, lam, nu, nuprime) == plain
        assert graded_dim(c, lam, nu, nuprime) == graded

    def test_walk_checks_every_node(self):
        # Level 3 on three equal letters: no factor is zero and no state
        # cancels, so the walk extends every set of taken slots of size 0,
        # 1 and 2: 1 + 3 + 3 states.  dim walks them once, and graded_dim
        # walks them once in integers first (the pair is nonzero, 3! * 3 *
        # 2 * 1 = 36) and then once in Laurent polynomials, where it also
        # checks once per multiplication, one per free slot of each state:
        # 3 + 3*2 + 3*1.
        deadline = Recording(3600)
        dim(RANK1, Weight((3,)), (0, 0, 0), (0, 0, 0), deadline=deadline)
        graded_dim(RANK1, Weight((3,)), (0, 0, 0), (0, 0, 0), deadline=deadline)
        assert deadline.seen == {"dimension sum": 7 + 7, "graded dimension sum": 7 + 12}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 3)] * 3),
        st.lists(st.integers(0, 2), max_size=6).flatmap(
            lambda nu: st.tuples(st.just(tuple(nu)), st.permutations(nu))
        ),
    )
    # Nodes 0 and 1 of seed 22 are A1~: Lambda = (3, 0) on a run of three,
    # one 1 and a run of three is zero, and the graded walk, which builds
    # its polynomials until they cancel, took 4-13 times the integer walk.
    @example(seed=22, lam=(3, 0, 0), pair=((0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)))
    # The same letters, moved: zero as well.
    @example(seed=22, lam=(3, 0, 0), pair=((0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)))
    # Level 3 on three equal letters: nonzero, so the graded walk runs.
    @example(seed=0, lam=(3, 0, 0), pair=((0, 0, 0), (0, 0, 0)))
    def test_zero_pairs_build_no_polynomial(self, seed, lam, pair):
        # graded_dim is zero exactly when dim is, and then only the integer
        # walk runs: no "graded dimension sum" check is made.
        c = random_cartan(random.Random(seed))
        lam = Weight(lam)
        nu, nuprime = pair[0], tuple(pair[1])
        deadline = Recording(3600)
        graded = graded_dim(c, lam, nu, nuprime, deadline=deadline)
        assert graded == graded_dim_recursive(c, lam, nu, nuprime)
        assert graded.is_zero() == (dim(c, lam, nu, nuprime) == 0)
        if graded.is_zero():
            assert deadline.seen["graded dimension sum"] == 0 < deadline.seen["dimension sum"]

    def test_long_pairs_need_no_deep_stack(self):
        # A300 at Lambda = (1, ..., 1) on nu = nu' = (0, 1, ..., 299): the one
        # transport permutation has the factor [1] at slot 1 and [2] at every
        # later slot, whose left neighbour is taken below it, and the shift
        # is 299, so graded_dim is (q^2 + 1)^299.  The walk loops over the
        # slots, so it runs with the recursion limit 150 frames above this test.
        c, lam, nu = builtin_cartan("A300"), Weight((1,) * 300), tuple(range(300))
        with shallow_stack():
            assert dim(c, lam, nu, nu) == 2**299
            assert graded_dim(c, lam, nu, nu) == from_pairs(
                (2 * k, comb(299, k)) for k in range(300)
            )

    def test_huge_weights_answer_in_integers_only(self):
        # [10^2200] is past the quantum integers' term cap; the integer walk
        # builds none, and the pair's one factor is the weight itself.
        lam = Weight((10**2200, 0))
        assert dim(A2, lam, (0,), (0,)) == 10**2200
        with pytest.raises(TooManyTerms):
            graded_dim(A2, lam, (0,), (0,))

    @pytest.mark.parametrize("fn, label", [
        (dim, "dimension sum"), (graded_dim, "dimension sum"),
    ])
    def test_pair_cut_at_slot_one_is_checked(self, fn, label):
        # <Lambda, h_0> = 0 and nu starts with 0: the walk stops at the root.
        # graded_dim walks in integers first, and stops there.
        lam, nu, nuprime = Weight((0, 1)), (0, 1), (1, 0)
        deadline = Recording(3600)
        assert fn(A2, lam, nu, nuprime, deadline=deadline) == 0
        assert deadline.seen[label] >= 1
        with pytest.raises(TimeBudgetExceeded):
            fn(A2, lam, nu, nuprime, deadline=Deadline(1e-9))


class TestTransportColumn:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 3)] * 3),
        st.lists(st.integers(0, 2), max_size=5),
    )
    # Five equal letters at level 3, more strands than the level: the
    # column is empty.
    @example(seed=0, lam=(3, 0, 0), nuprime=[0] * 5)
    # A run of four letters around one other: four of five sources are nonzero.
    @example(seed=2, lam=(3, 2, 0), nuprime=[0, 0, 0, 1, 0])
    # Two runs and a third letter: all 30 sources are nonzero.
    @example(seed=5, lam=(1, 2, 3), nuprime=[1, 1, 2, 2, 0])
    # A zero weight at letter 0: 18 of the 30 sources are nonzero.
    @example(seed=1, lam=(0, 2, 1), nuprime=[1, 0, 1, 2, 2])
    def test_column_matches_every_pair(self, seed, lam, nuprime):
        # One walk with the source free gives every source's dimension into
        # nu', graded and plain; a source missing from it has dimension 0.
        c = random_cartan(random.Random(seed))
        lam, nuprime = Weight(lam), tuple(nuprime)
        graded = transport_column(c, lam, nuprime, True)
        plain = transport_column(c, lam, nuprime, False)
        sources = set(permutations(nuprime))
        assert set(graded) <= sources and set(plain) <= sources
        for nu in sources:
            want_plain, want_graded = brute_force(c, lam, nu, nuprime)
            assert plain.get(nu, 0) == dim(c, lam, nu, nuprime) == want_plain
            assert graded.get(nu, LaurentPoly.zero()) == graded_dim(c, lam, nu, nuprime)
            assert graded_dim(c, lam, nu, nuprime) == want_graded
        for nu in sources - set(plain) - set(graded):
            assert dim(c, lam, nu, nuprime) == 0
            assert graded_dim(c, lam, nu, nuprime).is_zero()


class TestOracle:
    def test_empty(self):
        assert graded_dim_recursive(A2, Weight((2, 0)), (), ()) == LaurentPoly.one()

    def test_matches_closed_formula_small(self):
        for c, lam in small_battery():
            memo = {}
            for n in range(4):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    for nu in tuples:
                        for nuprime in tuples:
                            assert graded_dim_recursive(
                                c, lam, nu, nuprime, memo=memo
                            ) == graded_dim(c, lam, nu, nuprime)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.lists(st.integers(0, 2), min_size=3, max_size=5).flatmap(
            lambda nu: st.tuples(st.just(tuple(nu)), st.permutations(nu))
        ),
    )
    def test_matches_closed_formula_random(self, seed, lam, pair):
        # Up to five letters from three nodes, so letters repeat and many
        # transport permutations share one multiset of (factor, d).
        c = random_cartan(random.Random(seed))
        lam = Weight(lam)
        nu, nuprime = pair
        closed = graded_dim(c, lam, nu, nuprime)
        assert closed == graded_dim_recursive(c, lam, nu, nuprime)
        assert eval_one(closed) == dim(c, lam, nu, nuprime)

    def test_shared_memo_consistent(self):
        c = builtin_cartan("A1~")
        lam = Weight((2, 1))
        memo = {}
        first = graded_dim_recursive(c, lam, (0, 1, 0), (0, 0, 1), memo=memo)
        second = graded_dim_recursive(c, lam, (0, 1, 0), (0, 0, 1), memo=memo)
        assert first == second == graded_dim(c, lam, (0, 1, 0), (0, 0, 1))

    def test_memo_refuses_other_data(self):
        # The memo is keyed on (prefix, remaining target) alone: reused for
        # Lambda = (2,0) after (1,0) it would answer 1, not q^2 + 1.
        memo = {}
        assert graded_dim_recursive(A2, Weight((1, 0)), (0,), (0,), memo=memo) == P((0, 1))
        for c, lam in ((A2, Weight((2, 0))), (builtin_cartan("G2"), Weight((1, 0)))):
            with pytest.raises(PreconditionFail):
                graded_dim_recursive(c, lam, (0,), (0,), memo=memo)
        assert graded_dim_recursive(A2, Weight((2, 0)), (0,), (0,)) == P((0, 1), (2, 1))


class TestDim:
    def test_a2_level_one_pairs(self):
        lam = Weight((1, 1))
        vals = [dim(A2, lam, a, b) for a in [(0, 1), (1, 0)] for b in [(0, 1), (1, 0)]]
        assert vals == [2, 1, 1, 2]
        assert sum(vals) == 6

    def test_a2_bigger_weight_pairs(self):
        lam = Weight((3, 2))
        vals = [dim(A2, lam, a, b) for a in [(0, 1), (1, 0)] for b in [(0, 1), (1, 0)]]
        assert vals == [9, 6, 6, 8]
        assert sum(vals) == 29

    def test_empty_transport(self):
        assert dim(A2, Weight((1, 1)), (0, 0), (0, 1)) == 0

    def test_matches_graded_at_one(self):
        for c, lam in small_battery():
            for n in range(4):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    for nu in tuples:
                        for nuprime in tuples:
                            assert eval_one(graded_dim(c, lam, nu, nuprime)) == dim(
                                c, lam, nu, nuprime
                            )

    def test_pair_swap_symmetry(self):
        for c, lam in small_battery():
            for n in range(4):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    for nu in tuples:
                        for nuprime in tuples:
                            assert dim(c, lam, nu, nuprime) == dim(c, lam, nuprime, nu)

    def test_zero_level_weight(self):
        lam = Weight((0, 0))
        assert dim(A2, lam, (), ()) == 1
        for n in range(1, 4):
            for beta in blocks_of_size(A2, n):
                for nu in tuples_with_content(beta):
                    assert dim(A2, lam, nu, nu) == 0


class TestDivided:
    def test_single_letter(self):
        assert dim_divided(RANK1, Weight((5,)), (0, 0)) == 40

    def test_distinct_letters_reduces_to_plain(self):
        lam = Weight((2, 1))
        assert dim_divided(A2, lam, (0, 1)) == dim(A2, lam, (0, 1), (0, 1))

    def test_matches_dim_exhaustively(self):
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for nu in tuples_with_content(beta):
                        assert dim_divided(c, lam, nu) == dim(c, lam, nu, nu)

    def test_touches_few_representatives(self):
        # nine equal letters: one representative instead of 9! stabilizer
        # elements, checked against the closed product
        assert dim_divided(RANK1, Weight((12,)), (0,) * 9) == nilhecke_dim(12, 9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 3)] * 3),
        st.lists(st.integers(0, 2), max_size=7),
    )
    # One run of seven at level 7: one representative, 7! * 7!.
    @example(seed=0, lam=(7, 0, 0), nu=[0] * 7)
    # Five equal letters at level 2: zero, through negative factors.
    @example(seed=0, lam=(2, 0, 0), nu=[0] * 5)
    # Two runs of one letter apart: the slot bound is dropped between them
    # (144).
    @example(seed=1, lam=(2, 1, 0), nu=[0, 0, 1, 0, 0, 0])
    # Four runs of two letters, each letter in two runs (128).
    @example(seed=0, lam=(2, 2, 0), nu=[0, 0, 1, 1, 0, 0, 1])
    # Runs of three, three and one (2566080).
    @example(seed=0, lam=(0, 3, 0), nu=[1, 1, 1, 2, 2, 2, 0])
    def test_walk_matches_the_representative_sum(self, seed, lam, nu):
        c = random_cartan(random.Random(seed))
        lam, nu = Weight(lam), tuple(nu)
        assert dim_divided(c, lam, nu) == dim_divided_by_reps(c, lam, nu) == dim(c, lam, nu, nu)

    def test_a_run_walks_one_state_per_position(self):
        # Each position of a run leaves a slot above its own for every later
        # one, so nine equal letters take slots 0, 1, ..., 8 in turn.
        deadline = Recording(3600)
        assert dim_divided(RANK1, Weight((12,)), (0,) * 9, deadline=deadline) == nilhecke_dim(12, 9)
        assert deadline.seen == {"divided-power sum": 9}

    def test_representative_count(self):
        from math import comb

        from oracles import min_coset_reps

        # two blocks of the same letter split its slots binomially
        nu = (0, 0, 1, 0, 0, 0)
        reps = list(min_coset_reps(nu))
        assert len(reps) == comb(5, 2)
        lam = Weight((3, 1))
        assert dim_divided(A2, lam, nu) == dim(A2, lam, nu, nu)


class TestNilHecke:
    def test_ungraded_examples(self):
        assert nilhecke_dim(5, 2) == 40
        assert nilhecke_dim(1, 2) == 0
        assert nilhecke_dim(0, 0) == 1

    def test_graded_small(self):
        assert nilhecke_graded_dim(2, 1) == P((0, 1), (2, 1))
        assert nilhecke_graded_dim(0, 0) == LaurentPoly.one()
        assert nilhecke_graded_dim(1, 2).is_zero()

    def test_huge_level_is_refused_under_a_memory_limit(self):
        # One term per dot exponent would take 10^8 dict entries, far more
        # than the 1 GiB of address space this child gets; the quantum
        # integers' term cap refuses the product first.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        script = (
            "from klrdim.dims import nilhecke_graded_dim\n"
            "try:\n    nilhecke_graded_dim(10**8, 1)\n"
            "except Exception as exc:\n    print(type(exc).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            preexec_fn=limit_memory,
        )
        assert (proc.stdout, proc.stderr) == ("TooManyTerms\n", "")

    @pytest.mark.parametrize("fn", [nilhecke_graded_dim, nilhecke_dim])
    @pytest.mark.parametrize("level, size", [(-1, 0), (0, -1)])
    def test_negative_level_or_size_is_refused(self, fn, level, size):
        with pytest.raises(ValueError, match=">= 0"):
            fn(level, size)

    def test_many_strands_are_refused(self):
        # The product would have 2000 * 2999 + 1 terms, over the cap.
        with pytest.raises(TooManyTerms):
            nilhecke_graded_dim(3000, 2000)

    def test_graded_matches_engine(self):
        for l in range(7):
            for n in range(l + 1):
                lam = Weight((l,))
                nu = (0,) * n
                assert graded_dim(RANK1, lam, nu, nu) == nilhecke_graded_dim(l, n)
                assert eval_one(nilhecke_graded_dim(l, n)) == nilhecke_dim(l, n)

    def test_scaled_variable_specialization(self):
        # single-letter tuples at a node with d != 1 follow the nilHecke
        # closed form in the variable q^d
        for name, node in [("C2", 1), ("G2", 0)]:
            c = builtin_cartan(name)
            dnode = c.d(node)
            assert dnode > 1
            for level in range(6):
                lam = Weight(tuple(level if i == node else 0 for i in range(c.n)))
                for n in range(5):
                    nu = (node,) * n
                    assert graded_dim(c, lam, nu, nu) == nilhecke_graded_dim(
                        level, n, dnode
                    )


class TestCrossingDegree:
    def test_identity(self):
        assert crossing_degree(A2, (1, 2, 3), (0, 1, 0)) == 0

    def test_adjacent_distinct(self):
        assert crossing_degree(A2, (2, 1), (0, 1)) == 1

    def test_equal_letters(self):
        assert crossing_degree(RANK1, (2, 1), (0, 0)) == -2

    def test_shift_identity(self):
        # prod_t q^{d(F_id - 1)} == q^{crossing degree} prod_t q^{d(F_w - 1)}
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    for nu in tuples:
                        for nuprime in tuples:
                            lhs = sum(
                                c.d(nu[t - 1]) * (dim_factor_id(c, lam, nu, t) - 1)
                                for t in range(1, n + 1)
                            )
                            for w in transport_perms(nu, nuprime):
                                rhs = crossing_degree(c, w, nu) + sum(
                                    c.d(nu[t - 1])
                                    * (dim_factor(c, lam, w, nu, t) - 1)
                                    for t in range(1, n + 1)
                                )
                                assert lhs == rhs


class TestBlocks:
    def test_blocks_of_size_counts(self):
        from math import comb

        for c in battery_types()[:3]:
            for n in range(5):
                got = [b.coeffs for b in blocks_of_size(c, n)]
                assert len(got) == comb(n + c.n - 1, c.n - 1)
                assert len(set(got)) == len(got)
                assert got == sorted(got)

    def test_blocks_of_negative_size_are_refused(self):
        with pytest.raises(ValueError, match=">= 0"):
            next(blocks_of_size(A2, -1))

    def test_compositions_need_no_deep_stack(self):
        # 1200 parts, as for the blocks of size 1 of a rank-1200 type.  The
        # bars are enumerated in a loop, so this runs with the recursion
        # limit only 150 frames above this test.
        with shallow_stack():
            got = list(_compositions(1, 1200))
        assert len(got) == 1200
        assert got[0] == (0,) * 1199 + (1,) and got[-1] == (1,) + (0,) * 1199

    def test_tuples_with_content_count(self):
        beta = RootElement((2, 1, 1))
        got = list(tuples_with_content(beta))
        assert len(got) == factorial(4) // 2
        assert got == sorted(got)

    def test_tuples_with_content_are_the_sorted_rearrangements(self):
        for coeffs in product(range(3), repeat=3):
            word = tuple(x for x, m in enumerate(coeffs) for _ in range(m))
            expected = sorted(set(permutations(word)))
            assert tuples_with_content(RootElement(coeffs)) == expected, coeffs

    def test_block_values_affine(self):
        c = builtin_cartan("A1~")
        lam = Weight((1, 2))
        assert block_graded_dim(c, lam, RootElement((2, 0))).is_zero()
        assert block_graded_dim(c, lam, RootElement((0, 2))) == P(
            (-2, 1), (0, 2), (2, 1)
        )
        assert algebra_graded_dim(c, lam, 2) == P(
            (-2, 1), (0, 4), (2, 6), (4, 5), (6, 2)
        )

    def test_block_values_a3(self):
        c = builtin_cartan("A3")
        lam = Weight((3, 2, 2))
        assert algebra_dim(c, lam, 1) == 7
        betas = [
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        ]
        vals = [block_dim(c, lam, RootElement(b)) for b in betas]
        assert vals == [12, 4, 4, 29, 24, 20]
        assert algebra_dim(c, lam, 2) == 93

    def test_zero_block(self):
        assert block_dim(A2, Weight((1, 1)), RootElement((0, 0))) == 1
        assert block_graded_dim(A2, Weight((1, 1)), RootElement((0, 0))) == LaurentPoly.one()

    def test_block_sums_match_per_pair_routes(self):
        for c, lam in small_battery():
            for n in range(4):
                for beta in blocks_of_size(c, n):
                    assert_block_sums_match(c, lam, beta)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.tuples(*[st.integers(0, 3)] * 3).filter(lambda b: sum(b) <= 3),
    )
    def test_block_sums_match_per_pair_routes_random(self, seed, lam, beta):
        c = random_cartan(random.Random(seed))
        assert_block_sums_match(c, Weight(lam), RootElement(beta))

    def test_block_sum_visits_each_word_once(self):
        # One check per extension, within (4, 4), of a nonzero word: of the
        # 250 nonempty words of content <= (4, 4), the 8 whose prefix has a
        # zero column are never reached.
        deadline = Recording(3600)
        block_graded_dim(A2, Weight((3, 3)), RootElement((4, 4)), deadline=deadline)
        assert deadline.seen == {"block sum": 242}

    def test_zero_words_are_not_extended(self):
        # At Lambda = (1, 0) the word (1,) has a zero column, so the walk
        # evaluates it and stops.
        deadline = Recording(3600)
        assert block_dim(A2, Weight((1, 0)), RootElement((0, 3)), deadline=deadline) == 0
        assert deadline.seen == {"block sum": 1}

    def test_algebra_walk_checks(self):
        # Every word of length <= 3 is nonzero at (3, 3), and each is
        # extended by both letters: 2 + 4 + 8 + 16 words are evaluated.
        deadline = Recording(3600)
        algebra_graded_dim(A2, Weight((3, 3)), 4, deadline=deadline)
        assert deadline.seen == {"block sum": 30}

    def test_algebra_sums_add_the_block_sums(self):
        for c, lam in small_battery():
            for n in range(5):
                assert_algebra_is_sum_of_blocks(c, lam, n)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.integers(0, 4),
    )
    def test_algebra_sums_add_the_block_sums_random(self, seed, lam, n):
        c = random_cartan(random.Random(seed))
        assert_algebra_is_sum_of_blocks(c, Weight(lam), n)

    def test_negative_size_is_rejected(self):
        for fn in (algebra_graded_dim, algebra_dim):
            with pytest.raises(ValueError):
                fn(A2, Weight((1, 1)), -1)

    def test_wrong_length_is_rejected(self):
        for fn in (block_graded_dim, block_dim):
            for beta in ((1,), (1, 1, 1)):
                with pytest.raises(BadShape):
                    fn(A2, Weight((1, 1)), RootElement(beta))
            with pytest.raises(BadShape):
                fn(A2, Weight((1, 1, 1)), RootElement((1, 1)))
        for fn in (algebra_graded_dim, algebra_dim):
            with pytest.raises(BadShape):
                fn(A2, Weight((1,)), 2)

    def test_single_letter_blocks_are_nilhecke(self):
        # In type A1 the block R^Lambda(beta) is the cyclotomic nilHecke
        # algebra, whose closed products share no code with the column walk;
        # both are zero for s > L.  The graded walk runs on a grid whose
        # heaviest corner is (31, 31).
        c = builtin_cartan("A1")
        for level, size in product(range(41), repeat=2):
            assert block_dim(c, Weight((level,)), RootElement((size,))) == nilhecke_dim(level, size)
        grid = (0, 1, 2, 3, 7, 15, 31, 40)
        for level, size in product(grid, repeat=2):
            if min(level, size) < 31 or level == size == 31:
                graded = block_graded_dim(c, Weight((level,)), RootElement((size,)))
                assert graded == nilhecke_graded_dim(level, size)

    def test_run_factor_sums_the_run(self):
        # Along a run of r equal letters the factor drops by a_xx = 2 at each
        # slot: sum_{j<r} [p - 2j] = [r] [p - r + 1] in q^d, r (p - r + 1) at 1.
        for p, r, d in product(range(-6, 13), range(1, 7), range(1, 4)):
            run = sum((quantum_int(p - 2 * j, d) for j in range(r)), LaurentPoly.zero())
            assert _run_factor(r, p, d) == run
            assert _ARITHMETIC[False][2](r, p, d) == eval_one(run)

    def test_a_long_run_is_one_lookup_per_word(self):
        # One word of one run per length: looking up every deletion of each
        # word took seconds here, one lookup per run takes milliseconds.
        c, lam, beta = builtin_cartan("A1"), Weight((1000,)), RootElement((1000,))
        start = time.monotonic()
        with shallow_stack():
            assert block_dim(c, lam, beta) == factorial(1000) ** 2
        assert time.monotonic() - start < 1

    def test_long_words_need_no_deep_stack(self):
        # The nilHecke block of 300 strands at level 300 has dimension
        # (300!)^2.  The walk loops over word lengths, so it runs with the
        # recursion limit only 150 frames above this test.
        c, lam, expected = builtin_cartan("A1"), Weight((300,)), factorial(300) ** 2
        with shallow_stack():
            assert block_dim(c, lam, RootElement((300,))) == expected
            assert algebra_dim(c, lam, 300) == expected


def assert_algebra_is_sum_of_blocks(c, lam, n):
    """The algebra walk, bounded by n in every letter, against the sum of
    the block walks over the blocks of size n, graded and ungraded."""
    blocks = list(blocks_of_size(c, n))
    graded = sum((block_graded_dim(c, lam, beta) for beta in blocks), LaurentPoly.zero())
    assert algebra_graded_dim(c, lam, n) == graded
    assert algebra_dim(c, lam, n) == sum(block_dim(c, lam, beta) for beta in blocks)


def assert_block_sums_match(c, lam, beta):
    """The block sums (the column walk) against the per-pair closed formula
    and the per-pair integer products, and the graded block at q = 1 against
    the integer block."""
    tuples = list(tuples_with_content(beta))
    closed = LaurentPoly.zero()
    for nu, nuprime in product(tuples, repeat=2):
        closed = closed + graded_dim(c, lam, nu, nuprime)
    graded, plain = block_graded_dim(c, lam, beta), block_dim(c, lam, beta)
    assert graded == closed
    assert plain == sum(dim(c, lam, a, b) for a, b in product(tuples, repeat=2))
    assert eval_one(graded) == plain


class TestPrefixCut:
    """The theorem that lets the block walk drop zero words, through the
    per-pair walk only: e(nu[:-1]) = 0 in R^Lambda(n-1) forces e(nu) = 0 in
    R^Lambda(n), because the embedding maps e(nu[:-1]) to e(nu)."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 2)] * 3),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
    )
    # Zero at the first letter: <Lambda, h_0> = 0.
    @example(seed=0, lam=(0, 1, 1), nu=[0, 1])
    # Two equal letters at level one: the nilHecke piece on two strands.
    @example(seed=0, lam=(1, 0, 0), nu=[0, 0, 1])
    def test_zero_prefix_forces_zero_word(self, seed, lam, nu):
        c = random_cartan(random.Random(seed))
        lam, nu = Weight(lam), tuple(nu)
        if dim(c, lam, nu[:-1], nu[:-1]) == 0:
            assert dim(c, lam, nu, nu) == 0


class TestDeadline:
    @pytest.mark.parametrize("seconds", [0, -1])
    def test_budget_must_be_positive(self, seconds):
        with pytest.raises(ValueError, match="positive"):
            Deadline(seconds)

    def test_expired_budget_aborts(self):
        lam = Weight((3,))
        nu = (0,) * 9
        deadline = Deadline(1e-9)
        with pytest.raises(TimeBudgetExceeded):
            dim(RANK1, lam, nu, nu, deadline=deadline)

    @pytest.mark.parametrize(
        "fn, size",
        [
            pytest.param(block_graded_dim, RootElement((2, 2)), id="block_graded_dim"),
            pytest.param(block_dim, RootElement((2, 2)), id="block_dim"),
            pytest.param(algebra_graded_dim, 4, id="algebra_graded_dim"),
            pytest.param(algebra_dim, 4, id="algebra_dim"),
        ],
    )
    def test_expired_budget_aborts_block_sums(self, fn, size):
        with pytest.raises(TimeBudgetExceeded):
            fn(A2, Weight((3, 3)), size, deadline=Deadline(1e-9))

    def test_graded_products_are_checked(self):
        # Only 36 transport permutations, but each product multiplies
        # quantum integers of degree about 400: seconds without a check.
        nu, nuprime = (0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)
        with pytest.raises(TimeBudgetExceeded):
            graded_dim(A2, Weight((200, 200)), nu, nuprime, deadline=Deadline(0.05))

    def test_nilhecke_products_are_checked(self):
        # 160 multiplications, the later ones of polynomials of thousands of
        # terms: about 15 s without a check.
        start = time.monotonic()
        with pytest.raises(TimeBudgetExceeded):
            nilhecke_graded_dim(120, 80, deadline=Deadline(0.05))
        assert time.monotonic() - start < 1

    def test_word_listing_is_checked(self):
        # C(24, 12) = 2,704,156 words, over 10 s to list in full.
        start = time.monotonic()
        with pytest.raises(TimeBudgetExceeded):
            tuples_with_content(RootElement((12, 12)), deadline=Deadline(0.05))
        assert time.monotonic() - start < 1
        deadline = Recording(3600)
        assert len(tuples_with_content(RootElement((2, 1)), deadline=deadline)) == 3
        # One check per word extended: (), then 0 and 1, then 00, 01 and 10.
        assert deadline.seen == {"word listing": 1 + 2 + 3}


class TestLengthMismatch:
    def test_all_entry_points(self):
        from klrdim.errors import LengthMismatch

        lam = Weight((1, 1))
        for fn in (graded_dim, dim, graded_dim_recursive):
            with pytest.raises(LengthMismatch):
                fn(A2, lam, (0,), (0, 0))


# Each entry point as (weight, nu, nu'); the one-word ones read nu alone.
ENTRY_POINTS = {
    "graded_dim": lambda lam, nu, nuprime: graded_dim(A2, lam, nu, nuprime),
    "dim": lambda lam, nu, nuprime: dim(A2, lam, nu, nuprime),
    "graded_dim_recursive": lambda lam, nu, nuprime: graded_dim_recursive(A2, lam, nu, nuprime),
    "reduce_pair_dim_multi": lambda lam, nu, nuprime: reduce_pair_dim_multi(
        A2, lam, nu, nuprime, (lam,)),
    "reduce_pair_graded": lambda lam, nu, nuprime: reduce_pair_graded(
        A2, lam, nu, nuprime, (lam,)),
    "dim_divided": lambda lam, nu, nuprime: dim_divided(A2, lam, nu),
    "transport_column": lambda lam, nu, nuprime: transport_column(A2, lam, nu, True),
    "nonzero_direct": lambda lam, nu, nuprime: nonzero_direct(A2, lam, nu),
    "exponent_bounds": lambda lam, nu, nuprime: exponent_bounds(A2, lam, nu),
    "block_levels": lambda lam, nu, nuprime: block_levels(A2, lam, as_block_form(nu)),
    "graded_dim_blockwise": lambda lam, nu, nuprime: graded_dim_blockwise(
        A2, lam, as_block_form(nu)),
    "nonzero_blockwise": lambda lam, nu, nuprime: nonzero_blockwise(A2, lam, nu),
    "nonzero_by_shuffle": lambda lam, nu, nuprime: nonzero_by_shuffle(
        A2, nu, [i for i, k in enumerate(lam.coeffs) for _ in range(k)]),
}
# One word has no length to mismatch.
ONE_WORD = {
    "dim_divided", "transport_column", "nonzero_direct", "exponent_bounds",
    "block_levels", "graded_dim_blockwise", "nonzero_blockwise", "nonzero_by_shuffle",
}
# A list of fundamental weights has no weight to be short.
NO_WEIGHT = {"nonzero_by_shuffle"}
# On A2 at Lambda = (1, 2): (bad weight, nu, nu', error, message).
BAD_INPUTS = {
    "short weight": (Weight((1,)), (0, 1), (1, 0), BadShape,
                     "the weight and the block need one entry per node, 2 in all"),
    "negative letter": (Weight((1, 2)), (-1,), (-1,), OutOfRange, "letters must be nodes 0..1"),
    "letter past the last node": (Weight((1, 2)), (0, 2), (2, 0), OutOfRange,
                                  "letters must be nodes 0..1"),
    "unequal lengths": (Weight((1, 2)), (0,), (0, 0), LengthMismatch,
                        "tuples must have the same length"),
}


class TestInputCheck:
    @pytest.mark.parametrize("entry, bad", [
        (entry, bad) for entry in ENTRY_POINTS for bad in BAD_INPUTS
        if not (entry in ONE_WORD and bad == "unequal lengths")
        and not (entry in NO_WEIGHT and bad == "short weight")
    ])
    def test_bad_input_is_refused(self, entry, bad):
        # A negative letter once wrapped round to the last node: graded_dim
        # on (-1,) gave node 1's answer q^2 + 1.
        lam, nu, nuprime, error, message = BAD_INPUTS[bad]
        with pytest.raises(error) as caught:
            ENTRY_POINTS[entry](lam, nu, nuprime)
        assert str(caught.value) == message

    @pytest.mark.parametrize("nu, fundamentals, message", [
        ((-1,), [0], "letters must be nodes 0..1"),
        ((5,), [0], "letters must be nodes 0..1"),
        ((0,), [5], "fundamental weights must be nodes 0..1"),
        ((0,), [-1], "fundamental weights must be nodes 0..1"),
        ((0,), [0, 2], "fundamental weights must be nodes 0..1"),
    ])
    def test_shuffle_search_input_is_refused(self, nu, fundamentals, message):
        # With the one fundamental weight of node 0, no piece may open on a
        # letter -1 read as node 1, so the search once answered "zero"
        # without reaching a checked dimension, and a letter 5 was an
        # IndexError.  Weight.fundamental(2, 5) is the zero weight, so a bad
        # index also answered "zero".
        with pytest.raises(OutOfRange) as caught:
            nonzero_by_shuffle(A2, nu, fundamentals)
        assert str(caught.value) == message


class TestGradingShift:
    """The closed formula's one shift s(beta) = (Lambda|beta) - (beta|beta)/2
    per block, against its per-slot definition and against the recursion,
    which grades every step on its own."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(-1, 3)] * 3),
        st.lists(st.integers(0, 2), max_size=5),
    )
    # d = (1, 2, 1) and a_01 = -4, with both letters of that edge twice.
    @example(seed=4, lam=(1, 0, 2), letters=[1, 0, 1, 0])
    def test_shift_adds_up_the_slot_shifts(self, seed, lam, letters):
        # sum_t d_x (F(1, nu, t) - 1) over the slots of nu, in every order.
        c, lam = random_cartan(random.Random(seed)), Weight(lam)
        d, counts = c.symmetrizer, tuple(letters.count(x) for x in range(c.n))
        shift = grading_shift(c, lam, counts)
        for nu in set(permutations(letters)):
            assert shift == sum(d[x] * (dim_factor_id(c, lam, nu, t) - 1) for t, x in enumerate(nu, 1))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 3)] * 3),
        st.lists(st.integers(0, 2), max_size=4),
    )
    @example(seed=4, lam=(1, 0, 2), letters=[1, 0, 1, 0])
    def test_recursion_is_symmetric_and_palindromic(self, seed, lam, letters):
        # dim_q e(nu) R e(nu') = dim_q e(nu') R e(nu), and each is q^{s(beta)}
        # times a bar-invariant polynomial; so is the block sum.
        c, lam = random_cartan(random.Random(seed)), Weight(lam)
        beta = RootElement(tuple(letters.count(x) for x in range(c.n)))
        shift, memo = grading_shift(c, lam, beta.coeffs), {}
        tuples = tuples_with_content(beta)
        for nu, nuprime in product(tuples, repeat=2):
            value = graded_dim_recursive(c, lam, nu, nuprime, memo)
            assert graded_dim_recursive(c, lam, nuprime, nu, memo) == value
            assert bar(value.shift(-shift)) == value.shift(-shift)
        block = block_graded_dim(c, lam, beta).shift(-shift)
        assert bar(block) == block


def test_quantum_expansion_shortcuts():
    # positive factors expand over even powers, negative over negative ones
    for f in range(1, 5):
        assert quantum_int(f, 1).shift(f - 1) == P(*((2 * a, 1) for a in range(f)))
        assert quantum_int(-f, 1).shift(-f - 1) == P(
            *((-2 * a, -1) for a in range(1, f + 1))
        )
