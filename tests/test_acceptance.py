"""Acceptance criteria: exact identities, each printed as one PASS/FAIL line.

Everything here is exact integer / Laurent-polynomial equality; the only
tolerances are wall-clock budgets on the bigger sweeps.  Run with
``pytest tests/test_acceptance.py -v`` (the PASS lines print to the real
stdout so they are visible even under capture).
"""

import sys
import time
from contextlib import contextmanager
from itertools import product
from math import factorial, prod

from conftest import battery_types, dominant_weights
from klrdim.basis import exponent_bounds
from klrdim.cartan import RootElement, Weight, builtin_cartan, validate_cartan
from klrdim.dims import (
    algebra_dim,
    algebra_graded_dim,
    block_dim,
    block_graded_dim,
    blocks_of_size,
    dim,
    dim_divided,
    graded_dim,
    graded_dim_recursive,
    nilhecke_dim,
    nilhecke_graded_dim,
    tuples_with_content,
)
from klrdim.levelred import (
    dominant_splits,
    reduce_block_dim,
    reduce_pair_dim_multi,
    reduce_pair_graded,
)
from klrdim.perms import block_form_of, transport_perms
from klrdim.qpoly import LaurentPoly, eval_one
from oracles import compose, from_pairs, min_coset_reps, run_bounds


def P(*pairs):
    return from_pairs(pairs)


@contextmanager
def criterion(nr: int, label: str, budget: float | None = None):
    from conftest import ACCEPTANCE_LINES

    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {nr} took {elapsed:.2f}s, budget {budget:g}s"
            )
    except BaseException:
        line = f"FAIL criterion {nr:2d}: {label}"
        ACCEPTANCE_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    note = f" [{elapsed:.2f}s" + (f" < {budget:g}s]" if budget else "]")
    line = f"PASS criterion {nr:2d}: {label}{note}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def all_perms(n):
    from itertools import permutations

    return [tuple(p) for p in permutations(range(1, n + 1))]


def full_battery():
    for c in battery_types():
        for lam in dominant_weights(c.n, 3):
            yield c, lam


def test_criterion_01_affine_rank_one_graded_totals():
    with criterion(1, "affine rank-one graded block totals", budget=1.0):
        c = builtin_cartan("A1~")
        lam = Weight((1, 2))
        assert algebra_graded_dim(c, lam, 1) == P((0, 2), (2, 1))
        summands = {
            "2a1": block_graded_dim(c, lam, RootElement((2, 0))),
            "2a2": block_graded_dim(c, lam, RootElement((0, 2))),
            "12-12": graded_dim(c, lam, (0, 1), (0, 1)),
            "12-21": graded_dim(c, lam, (0, 1), (1, 0)),
            "21-12": graded_dim(c, lam, (1, 0), (0, 1)),
            "21-21": graded_dim(c, lam, (1, 0), (1, 0)),
        }
        assert summands["2a1"].is_zero()
        assert summands["2a2"] == P((-2, 1), (0, 2), (2, 1))
        assert summands["12-12"] == P((0, 1), (2, 1), (4, 1), (6, 1))
        assert summands["12-21"] == P((2, 1), (4, 1))
        assert summands["21-12"] == P((2, 1), (4, 1))
        assert summands["21-21"] == P((0, 1), (2, 2), (4, 2), (6, 1))
        total = LaurentPoly.zero()
        for v in summands.values():
            total = total + v
        assert total == P((-2, 1), (0, 4), (2, 6), (4, 5), (6, 2))
        assert algebra_graded_dim(c, lam, 2) == total


def test_criterion_02_a2_level_one_ungraded():
    with criterion(2, "A2 level-one ungraded dimensions and column sums", budget=1.0):
        c = builtin_cartan("A2")
        lam = Weight((1, 1))
        pair_vals = [
            dim(c, lam, a, b) for a in ((0, 1), (1, 0)) for b in ((0, 1), (1, 0))
        ]
        assert pair_vals == [2, 1, 1, 2]
        assert block_dim(c, lam, RootElement((1, 1))) == 6
        # column sums of the one-letter extension, in source order
        # (y,x,x), (x,y,x), (x,x,y) against columns (x,y)*x and (y,x)*x
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        cols = [(0, 1, 0), (1, 0, 0)]
        vals = [dim(c, lam, r, col) for col in cols for r in rows]
        assert vals == [2, 1, 0, 4, 2, 0]
        assert sum(vals) == 9


def test_criterion_03_a3_totals():
    with criterion(3, "A3 one- and two-letter algebra totals", budget=1.0):
        c = builtin_cartan("A3")
        lam = Weight((3, 2, 2))
        assert algebra_dim(c, lam, 1) == 7
        blocks = [
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        ]
        vals = [block_dim(c, lam, RootElement(b)) for b in blocks]
        assert vals == [12, 4, 4, 29, 24, 20]
        assert algebra_dim(c, lam, 2) == 93


def test_criterion_04_a2_higher_weight():
    with criterion(4, "A2 higher-weight block and extension totals", budget=5.0):
        c = builtin_cartan("A2")
        lam = Weight((3, 2))
        pair_vals = [
            dim(c, lam, a, b) for a in ((0, 1), (1, 0)) for b in ((0, 1), (1, 0))
        ]
        assert pair_vals == [9, 6, 6, 8]
        assert block_dim(c, lam, RootElement((1, 1))) == 29
        first = [(0, 1, 0), (1, 0, 0)]
        second = [(0, 1, 1), (1, 0, 1)]
        vals = [dim(c, lam, a, b) for a in first for b in first]
        vals += [dim(c, lam, a, b) for a in second for b in second]
        assert vals == [36, 36, 36, 48, 36, 24, 24, 20]
        assert sum(vals) == 260


def test_criterion_05_nilhecke_closed_forms():
    with criterion(5, "nilHecke closed graded and ungraded forms", budget=5.0):
        rank1 = validate_cartan([[2]])
        for level in range(7):
            for n in range(level + 1):
                lam = Weight((level,))
                nu = (0,) * n
                closed = nilhecke_graded_dim(level, n)
                assert graded_dim(rank1, lam, nu, nu) == closed
                expected = factorial(n) * prod(level - j for j in range(n))
                assert eval_one(closed) == expected
                assert nilhecke_dim(level, n) == expected


def test_criterion_06_oracle_battery():
    with criterion(6, "oracle battery: closed formula == recursion, n <= 4",
                   budget=120.0):
        checked = 0
        for c, lam in full_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    memo = {}
                    for nu in tuples:
                        for nuprime in tuples:
                            closed = graded_dim(c, lam, nu, nuprime)
                            recursive = graded_dim_recursive(
                                c, lam, nu, nuprime, memo=memo
                            )
                            assert closed == recursive, (c.matrix, lam, nu, nuprime)
                            assert eval_one(closed) == dim(c, lam, nu, nuprime)
                            checked += 1
        assert checked > 90000


def test_criterion_07_divided_power_equivalence():
    with criterion(7, "divided-power diagonal equivalence, n <= 4"):
        for c, lam in full_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for nu in tuples_with_content(beta):
                        assert dim_divided(c, lam, nu) == dim(c, lam, nu, nu), (
                            c.matrix, lam, nu,
                        )


def test_criterion_08_level_reduction():
    with criterion(8, "level reduction identities and graded failure, n <= 3",
                   budget=12.0):
        for c, lam in full_battery():
            splits = [s for k in (2, 3) for s in dominant_splits(lam, k)]
            cache: dict = {}
            for n in range(4):
                for beta in blocks_of_size(c, n):
                    tuples = list(tuples_with_content(beta))
                    direct_block = block_dim(c, lam, beta)
                    for split in splits:
                        assert (
                            reduce_block_dim(c, lam, beta, split, cache=cache)
                            == direct_block
                        ), (c.matrix, lam, beta, split)
                    for nu in tuples:
                        for mu in tuples:
                            direct = dim(c, lam, nu, mu)
                            for split in splits:
                                assert (
                                    reduce_pair_dim_multi(
                                        c, lam, nu, mu, split, cache=cache
                                    )
                                    == direct
                                ), (c.matrix, lam, nu, mu, split)
        # the graded analogue must fail on one strand at level two
        rank1 = validate_cartan([[2]])
        two = Weight((2,))
        halves = (Weight((1,)), Weight((1,)))
        graded_sum = reduce_pair_graded(rank1, two, (0,), (0,), halves)
        assert graded_sum == P((0, 2))
        assert graded_dim(rank1, two, (0,), (0,)) == P((0, 1), (2, 1))
        assert graded_sum != graded_dim(rank1, two, (0,), (0,))


def test_criterion_09_basis_machinery():
    with criterion(9, "exponent-bound cardinalities and positivity, n <= 4"):
        for c, lam in full_battery():
            for n in range(5):
                for beta in blocks_of_size(c, n):
                    for mu in tuples_with_content(beta):
                        form = block_form_of(mu)
                        bounds = exponent_bounds(c, lam, mu, form)
                        card = prod(factorial(b) for b in form.sizes) * prod(bounds)
                        d_to = dim(c, lam, form.tuple, mu)
                        d_from = dim(c, lam, mu, form.tuple)
                        assert card == d_to == d_from, (c.matrix, lam, mu)
                        assert (all(b > 0 for b in bounds)) == (d_to != 0)
        # the worked three-slot example, at three concrete weights
        for name in ("A2", "C2", "G2"):
            c = builtin_cartan(name)
            form = block_form_of((0, 0, 1))
            for lam in (Weight((3, 2)), Weight((2, 1)), Weight((1, 1))):
                l1, l2 = lam.coeffs
                assert exponent_bounds(c, lam, (1, 0, 0), form) == (l2, l1, l1 - 1)
                assert exponent_bounds(c, lam, (0, 1, 0), form) == (
                    l1, l2 - c.a(1, 0), l1 - 1,
                )


def test_criterion_10_combinatorial_substrate():
    with criterion(10, "coset factorizations", budget=30.0):
        # stabilizer == reps * Young subgroup of the runs of nu, uniquely,
        # n <= 5
        for letters, maxn in ((2, 5), (3, 4)):
            for n in range(maxn + 1):
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
                    stabilizer = set(transport_perms(nu, nu))
                    produced = set()
                    for d in min_coset_reps(nu):
                        for u in young:
                            w = compose(d, u)
                            assert w not in produced
                            produced.add(w)
                    assert produced == stabilizer
