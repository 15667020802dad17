"""Monomial-basis index sets, exponent bounds and their transforms."""

import random
import time
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dominant_weights, random_cartan, small_battery
from klrdim.basis import (
    basis_counts_121,
    block_levels,
    exponent_bounds,
    graded_dim_blockwise,
    monomial_basis,
)
from klrdim.budget import Deadline
from klrdim.cartan import Weight, builtin_cartan, validate_cartan
from klrdim.dims import (
    blocks_of_size,
    dim,
    graded_dim,
    nilhecke_dim,
    tuples_with_content,
)
from klrdim.errors import IncompatibleContent, PreconditionFail, TimeBudgetExceeded, ZeroEdge
from klrdim.perms import as_block_form, block_form_of, sorting_perm
from oracles import (
    act_on_tuple, act_right, block_of_slot, check_bounds_under_swap, compose, dim_factor,
    dim_factor_id, perm_length, run_bounds, simple_transposition, smaller_before,
)

RANK1 = validate_cartan([[2]])
A2 = builtin_cartan("A2")


def young_elements(bounds):
    """All elements of the Young subgroup of the blocks with cumulative
    boundaries ``bounds`` = (0, c_1, ..., n)."""
    n = bounds[-1]
    blocks = [list(range(bounds[i] + 1, bounds[i + 1] + 1)) for i in range(len(bounds) - 1)]
    from itertools import permutations

    pools = [list(permutations(b)) for b in blocks]
    for choice in product(*pools):
        w = [0] * n
        for block, img in zip(blocks, choice):
            for pos, val in zip(block, img):
                w[pos - 1] = val
        yield tuple(w)


class TestExponentBounds:
    def test_grouped_tuple_bounds(self):
        # at the grouped tuple itself the bounds step down within each block
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for mu in tuples_with_content(beta):
                        form = block_form_of(mu)
                        if mu != form.tuple:
                            continue
                        levels = block_levels(c, lam, form)
                        bounds = exponent_bounds(c, lam, mu, form)
                        cumulative = form.cumulative
                        for i in range(form.count):
                            for k in range(cumulative[i] + 1, cumulative[i + 1] + 1):
                                assert bounds[k - 1] == levels[i] - (
                                    k - cumulative[i] - 1
                                )

    def test_worked_example_vectors(self):
        # grouped (x, x, y) against mu = (y, x, x) and mu = (x, y, x)
        for name in ("A2", "C2", "G2"):
            c = builtin_cartan(name)
            for lam in (Weight((3, 2)), Weight((1, 1)), Weight((2, 0))):
                l1, l2 = lam.coeffs
                form = block_form_of((0, 0, 1))
                a_from_x_at_y = c.a(1, 0)  # <alpha_x, h_y>
                assert exponent_bounds(c, lam, (1, 0, 0), form) == (l2, l1, l1 - 1)
                assert exponent_bounds(c, lam, (0, 1, 0), form) == (
                    l1,
                    l2 - a_from_x_at_y,
                    l1 - 1,
                )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(0, 3)] * 3),
        st.lists(st.integers(0, 2), max_size=7),
        st.permutations(range(3)),
    )
    # Seed 0 joins every two nodes, so each block's bounds read the letters
    # of every earlier block; node 1 has a block of three with a run of two.
    @example(seed=0, lam=(1, 3, 2), mu=[2, 1, 1, 2, 0, 1], order=[0, 1, 2])
    # The same letters with the blocks in the other order.
    @example(seed=0, lam=(1, 3, 2), mu=[2, 1, 1, 2, 0, 1], order=[2, 1, 0])
    def test_one_pass_matches_the_factor_definitions(self, seed, lam, mu, order):
        # bound_k = F(d, mu, k) + #{j < k: mu_j = mu_k} for the sorting
        # permutation d, with the letters grouped in a drawn order, and each
        # block's head is F(1, grouped tuple, the block's first slot).
        c = random_cartan(random.Random(seed))
        lam, mu = Weight(lam), tuple(mu)
        form = block_form_of(mu, [x for x in order if x in mu])
        d = sorting_perm(mu, form)
        assert exponent_bounds(c, lam, mu, form) == tuple(
            dim_factor(c, lam, d, mu, k) + mu[: k - 1].count(mu[k - 1])
            for k in range(1, len(mu) + 1)
        )
        assert block_levels(c, lam, form) == tuple(
            dim_factor_id(c, lam, form.tuple, start + 1) for start in form.cumulative[:-1]
        )

    def test_content_must_match_the_grouped_form(self):
        with pytest.raises(IncompatibleContent, match="^tuple content differs from the grouped form$"):
            exponent_bounds(A2, Weight((1, 1)), (0, 0), block_form_of((0, 1)))


class TestMonomialBasis:
    def test_two_strand_level_five(self):
        lam = Weight((5,))
        mb = monomial_basis(RANK1, lam, (0, 0))
        assert mb is not None
        assert mb.bounds == (5, 4)
        assert mb.cardinality == 40
        assert mb.cardinality == dim(RANK1, lam, (0, 0), (0, 0))

    def test_grouped_diagonal_alias(self):
        lam = Weight((5,))
        form = as_block_form((0, 0))
        mb = monomial_basis(RANK1, lam, form.tuple, form)
        assert mb is not None and mb.bounds == (5, 4) and mb.mu == (0, 0)
        # bounds at the grouped tuple step down inside each block, so the
        # element stream matches the per-block description directly
        levels = block_levels(RANK1, lam, form)
        for w, r in mb.elements():
            for k, rk in enumerate(r, start=1):
                i = block_of_slot(form, k)
                assert 0 <= rk <= levels[i] - (k - form.cumulative[i])

    def test_elements_stream(self):
        lam = Weight((2,))
        mb = monomial_basis(RANK1, lam, (0, 0))
        elements = list(mb.elements())
        assert len(elements) == mb.cardinality == len(set(elements))
        for w, r in elements:
            assert act_on_tuple(w, mb.mu) == mb.form.tuple
            assert all(0 <= r[k] < mb.bounds[k] for k in range(len(r)))

    def test_empty_iff_vanishing(self):
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for mu in tuples_with_content(beta):
                        form = block_form_of(mu)
                        mb = monomial_basis(c, lam, mu, form)
                        d = dim(c, lam, form.tuple, mu)
                        if mb is None:
                            assert d == 0
                        else:
                            assert d != 0
                            assert mb.cardinality == d

    def test_cardinality_identity_both_directions(self):
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for mu in tuples_with_content(beta):
                        form = block_form_of(mu)
                        bounds = exponent_bounds(c, lam, mu, form)
                        card = prod(factorial(b) for b in form.sizes) * prod(bounds)
                        assert card == dim(c, lam, form.tuple, mu)
                        assert card == dim(c, lam, mu, form.tuple)


class TestDiagonalFactorization:
    def test_single_block_is_nilhecke(self):
        lam = Weight((4,))
        form = as_block_form((0, 0, 0))
        from klrdim.dims import nilhecke_graded_dim

        assert graded_dim_blockwise(RANK1, lam, form) == nilhecke_graded_dim(4, 3)

    def test_deadline_reaches_the_nilhecke_product(self):
        start = time.monotonic()
        with pytest.raises(TimeBudgetExceeded):
            graded_dim_blockwise(
                RANK1, Weight((120,)), as_block_form((0,) * 80), deadline=Deadline(0.05)
            )
        assert time.monotonic() - start < 1

    def test_matches_engine(self):
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for mu in tuples_with_content(beta):
                        form = block_form_of(mu)
                        if mu != form.tuple:
                            continue
                        assert graded_dim_blockwise(c, lam, form) == graded_dim(
                            c, lam, mu, mu
                        )

    def test_ungraded_nilhecke_product(self):
        for c, lam in small_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for mu in tuples_with_content(beta):
                        form = block_form_of(mu)
                        if mu != form.tuple:
                            continue
                        levels = block_levels(c, lam, form)
                        expected = prod(
                            nilhecke_dim(levels[i], form.sizes[i])
                            for i in range(form.count)
                        )
                        assert dim(c, lam, mu, mu) == expected


class TestFactorTransport:
    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_young_shift_rule(self, name):
        # factors at w*d differ from factors at d by twice (slot rank in its
        # letter fiber minus the count of smaller-ranked crossings)
        c = builtin_cartan(name)
        lam = Weight((2, 1))
        for n in range(1, 5):
            for mu in product(range(c.n), repeat=n):
                form = block_form_of(mu)
                d = sorting_perm(mu, form)
                cumulative = form.cumulative
                for w in young_elements(form.cumulative):
                    wd = compose(w, d)
                    for i in range(form.count):
                        fiber = [
                            t for t in range(1, n + 1) if mu[t - 1] == form.letters[i]
                        ]
                        for j, t in enumerate(fiber, start=1):
                            inside = {
                                a
                                for a in smaller_before(w, d[t - 1])
                                if cumulative[i] < a <= cumulative[i + 1]
                            }
                            expect = (
                                dim_factor(c, lam, d, mu, t)
                                + 2 * (j - 1)
                                - 2 * len(inside)
                            )
                            assert dim_factor(c, lam, wd, mu, t) == expect

    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_run_block_shift_rule(self, name):
        # full form with nontrivial block-ascending representatives d:
        # F(d*w, nu, k) = F(d, nu, w_i(k)) - 2|{a in block, a<k, w_i(a)<w_i(k)}|
        #                 + 2 (w_i(k) - block start offset)
        from oracles import min_coset_reps

        c = builtin_cartan(name)
        lam = Weight((2, 1))
        for n in range(1, 5):
            for nu in product(range(c.n), repeat=n):
                cumulative = run_bounds(nu)
                for d in min_coset_reps(nu):
                    for w in young_elements(cumulative):
                        dw = compose(d, w)
                        for i in range(len(cumulative) - 1):
                            lo, hi = cumulative[i], cumulative[i + 1]
                            for k in range(lo + 1, hi + 1):
                                inside = sum(
                                    1
                                    for a in range(lo + 1, k)
                                    if w[a - 1] < w[k - 1]
                                )
                                expect = (
                                    dim_factor(c, lam, d, nu, w[k - 1])
                                    - 2 * inside
                                    + 2 * (w[k - 1] - lo - 1)
                                )
                                assert dim_factor(c, lam, dw, nu, k) == expect

    @pytest.mark.parametrize("name", ["A2", "A1~"])
    def test_factor_depends_only_on_own_block(self, name):
        # with d a block-ascending stabilizer rep and w in the Young
        # subgroup, the factor at a slot of block i ignores the other blocks
        c = builtin_cartan(name)
        lam = Weight((1, 2))
        for n in range(1, 5):
            for nu in product(range(c.n), repeat=n):
                form = block_form_of(nu)
                if nu != form.tuple:
                    continue
                cumulative = form.cumulative
                by_block: dict[tuple, dict[int, int]] = {}
                for w in young_elements(form.cumulative):
                    for i in range(form.count):
                        lo, hi = cumulative[i], cumulative[i + 1]
                        key_w = tuple(w[lo:hi])
                        store = by_block.setdefault((i, key_w), {})
                        for k in range(lo + 1, hi + 1):
                            val = dim_factor(c, lam, w, nu, k)
                            if k in store:
                                assert store[k] == val
                            else:
                                store[k] = val


class TestBoundsUnderSwap:
    def test_worked_example(self):
        lam = Weight((3, 2))
        form = block_form_of((0, 0, 1))
        assert check_bounds_under_swap(A2, lam, (1, 0, 0), form, 1)

    def test_requires_descent(self):
        form = block_form_of((0, 0, 1))
        with pytest.raises(PreconditionFail):
            check_bounds_under_swap(A2, Weight((1, 1)), (0, 0, 1), form, 1)
        with pytest.raises(PreconditionFail):
            check_bounds_under_swap(A2, Weight((1, 1)), (1, 0, 0), form, 5)

    def test_exhaustive(self):
        for c, lam in small_battery():
            for n in range(2, 5):
                for mu in product(range(c.n), repeat=n):
                    form = block_form_of(mu)
                    d = sorting_perm(mu, form)
                    for a in range(1, n):
                        if d[a - 1] > d[a]:
                            assert check_bounds_under_swap(c, lam, mu, form, a)

    def test_swap_consistency_with_recurrence(self):
        # swapping a descent shortens the sorting permutation by exactly one
        for mu in product(range(3), repeat=4):
            form = block_form_of(mu)
            d = sorting_perm(mu, form)
            for a in range(1, 4):
                if d[a - 1] > d[a]:
                    swapped = act_right(mu, simple_transposition(4, a))
                    d2 = sorting_perm(swapped, form)
                    assert d2 == compose(d, simple_transposition(4, a))
                    assert perm_length(d2) == perm_length(d) - 1


class TestThreeStrandCounts:
    def test_a2_example(self):
        crossing, poly, total = basis_counts_121(3, 2, -1, -1)
        assert (crossing, poly, total) == (18, 18, 36)
        lam = Weight((3, 2))
        assert total == dim(A2, lam, (0, 1, 0), (0, 1, 0))

    def test_zero_weight(self):
        assert basis_counts_121(0, 4, -2, -1) == (0, 0, 0)

    def test_matches_factor_products(self):
        for c in (A2, builtin_cartan("C2"), builtin_cartan("G2")):
            a12, a21 = c.a(0, 1), c.a(1, 0)
            for l1 in range(4):
                for l2 in range(4):
                    lam = Weight((l1, l2))
                    _, _, total = basis_counts_121(l1, l2, a12, a21)
                    assert total == dim(c, lam, (0, 1, 0), (0, 1, 0))

    def test_disconnected_rejected(self):
        with pytest.raises(ZeroEdge):
            basis_counts_121(1, 1, 0, 0)
        with pytest.raises(PreconditionFail):
            basis_counts_121(1, 1, 1, -1)
        with pytest.raises(PreconditionFail):
            basis_counts_121(-1, 1, -1, -1)


class TestSortingPermAcrossWeights:
    def test_bounds_positive_iff_dim_positive_battery(self):
        for name in ("A2", "C2"):
            c = builtin_cartan(name)
            for lam in dominant_weights(c.n, 2):
                for n in range(4):
                    for mu in product(range(c.n), repeat=n):
                        form = block_form_of(mu)
                        bounds = exponent_bounds(c, lam, mu, form)
                        positive = all(b > 0 for b in bounds)
                        assert positive == (dim(c, lam, form.tuple, mu) != 0)
