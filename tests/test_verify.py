"""The self-verification battery and its report plumbing."""

import doctest
import json

import pytest

import klrdim.dims
import klrdim.perms
import klrdim.qpoly
import klrdim.verify
from klrdim import cli
from klrdim.budget import Deadline
from klrdim.cartan import RootElement, Weight, builtin_cartan
from klrdim.dims import graded_dim
from klrdim.errors import PreconditionFail, TimeBudgetExceeded
from klrdim.qpoly import LaurentPoly
from klrdim.verify import (
    SCOPES, VerifyReport, verify_basis, verify_divided, verify_levelred, verify_oracle,
    verify_suite,
)
from oracles import Recording


class TestReport:
    def test_clean_summary(self):
        r = VerifyReport("oracle", blocks=4, checked=12)
        assert r.ok
        assert r.summary() == "OK: 4/4 β-blocks, 0 mismatches (12 checks)"

    def test_recording_failures(self):
        r = VerifyReport("oracle")
        r.record(kind="graded mismatch", nu=[0], nuprime=[0])
        assert not r.ok
        assert r.summary().startswith("FAIL")
        assert r.failures[0]["kind"] == "graded mismatch"

    def test_failure_list_is_capped(self):
        r = VerifyReport("divided")
        for i in range(25):
            r.record(kind="x", i=i)
        assert len(r.failures) == 10

    def test_json_shape(self):
        r = VerifyReport("basis", blocks=1, checked=2)
        doc = r.to_json()
        assert doc == {
            "suite": "basis", "ok": True, "blocks": 1, "blocks_ok": 1,
            "checked": 2, "mismatches": 0, "failures": [],
        }

    def test_counters_are_not_capped(self):
        r = VerifyReport("oracle")
        # A1 up to size 2 has three blocks; mismatches go to the first and last.
        for beta, _ in r.walk_blocks(builtin_cartan("A1"), 2):
            for i in range({0: 6, 1: 0, 2: 7}[beta.size]):
                r.record(kind="x", i=i)
        assert len(r.failures) == 10
        assert (r.blocks, r.blocks_ok, r.mismatches) == (3, 1, 13)
        assert r.summary() == "FAIL: 1/3 β-blocks, 13 mismatches (0 checks)"
        doc = r.to_json()
        assert (doc["blocks_ok"], doc["mismatches"]) == (1, 13)


class TestSuites:
    def test_all_pass_on_c2(self):
        c = builtin_cartan("C2")
        reports = verify_suite("all", c, Weight((1, 1)), max_n=3)
        assert [r.suite for r in reports] == [
            "oracle", "divided", "levelred", "basis",
        ]
        assert all(r.ok for r in reports)
        assert all(r.checked > 0 for r in reports)

    def test_single_scope(self):
        c = builtin_cartan("A2")
        (report,) = verify_suite("oracle", c, Weight((2, 0)), max_n=2)
        assert report.suite == "oracle" and report.ok

    @pytest.mark.parametrize("scope", SCOPES)
    def test_negative_max_n_is_rejected(self, scope):
        # A negative cap walks no block, so every suite would pass vacuously.
        c, lam = builtin_cartan("A2"), Weight((1, 1))
        with pytest.raises(PreconditionFail, match="max_n"):
            verify_suite(scope, c, lam, max_n=-1)
        reports = verify_suite(scope, c, lam, max_n=0)
        assert all(r.ok and r.blocks == 1 for r in reports)

    def test_scopes_constant(self):
        assert SCOPES == ("oracle", "divided", "levelred", "basis", "all")

    def test_unknown_scope(self):
        c = builtin_cartan("A2")
        with pytest.raises(ValueError):
            verify_suite("everything", c, Weight((1, 1)))

    @pytest.mark.parametrize("suite, labels", [
        ("oracle", {"graded dimension sum", "recursive graded dimension", "dimension sum"}),
        ("divided", {"divided-power sum", "dimension sum"}),
        ("levelred", {"block sum", "dimension sum", "graded dimension sum",
                      "graded level reduction sum"}),
        ("basis", {"graded dimension sum", "dimension sum", "nilHecke product"}),
    ])
    def test_deadline_reaches_inner_calls(self, suite, labels):
        class Recording(Deadline):
            def check(self, where="enumeration"):
                seen.add(where)
                super().check(where)

        seen = set()
        (report,) = verify_suite(suite, builtin_cartan("A2"), Weight((2, 1)),
                                 max_n=2, deadline=Recording(3600))
        assert report.ok
        assert labels <= seen

    @pytest.mark.parametrize("suite", ["oracle", "divided", "levelred", "basis"])
    def test_deadline_reaches_the_word_listing(self, suite):
        # A1 up to size 2: listing the words of (1) checks once and those
        # of (2) twice, once per word extended.
        deadline = Recording(3600)
        verify_suite(suite, builtin_cartan("A1"), Weight((2,)), max_n=2, deadline=deadline)
        assert deadline.seen["word listing"] == 1 + 2

    def test_deadline_aborts(self):
        c = builtin_cartan("A3")
        with pytest.raises(TimeBudgetExceeded):
            verify_suite("oracle", c, Weight((3, 3, 3)), max_n=4,
                         deadline=Deadline(1e-9))


def test_oracle_walks_each_target_word_once_per_arithmetic(monkeypatch):
    # A2 at Lambda = (2, 1), block beta = (2, 1): its three words give nine
    # checks from two column walks per target word, one graded and one in
    # integers, and no per-pair walk.
    beta = RootElement((2, 1))
    monkeypatch.setattr(
        klrdim.verify, "blocks_of_size", lambda c, n: iter([beta] if n == beta.size else [])
    )
    walks, pair_calls = [], []
    walk = klrdim.dims._transport_sum

    def counted_walk(c, lam, nu, nuprime, graded, deadline):
        walks.append((nu, nuprime, graded))
        return walk(c, lam, nu, nuprime, graded, deadline)

    def counted_pair(name, fn):
        def call(*args, **kwargs):
            pair_calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(klrdim.dims, "_transport_sum", counted_walk)
    for module in (klrdim.dims, klrdim.verify):
        for name in ("graded_dim", "dim"):
            monkeypatch.setattr(module, name, counted_pair(name, getattr(module, name)))
    report = verify_oracle(builtin_cartan("A2"), Weight((2, 1)), max_n=beta.size)
    assert report.ok and report.blocks == 1 and report.checked == 3 * 3
    assert pair_calls == []
    assert sorted(walks) == sorted(
        (None, w, graded) for w in ((0, 0, 1), (0, 1, 0), (1, 0, 0)) for graded in (True, False)
    )


def test_oracle_walks_no_graded_column_into_a_zero_word(monkeypatch):
    # A1 at Lambda = (1,), block beta = (2): its one word (0, 0) has
    # e(0, 0) = 0, so its integer column is empty and the suite walks no
    # graded column into it; the recursion still checks the pair.
    beta = RootElement((2,))
    monkeypatch.setattr(
        klrdim.verify, "blocks_of_size", lambda c, n: iter([beta] if n == beta.size else [])
    )
    walks = []
    walk = klrdim.dims._transport_sum

    def counted_walk(c, lam, nu, nuprime, graded, deadline):
        walks.append((nu, nuprime, graded))
        return walk(c, lam, nu, nuprime, graded, deadline)

    monkeypatch.setattr(klrdim.dims, "_transport_sum", counted_walk)
    report = verify_oracle(builtin_cartan("A1"), Weight((1,)), max_n=beta.size)
    assert report.ok and report.blocks == 1 and report.checked == 1
    assert walks == [(None, (0, 0), False)]


def test_oracle_check_counts():
    # A2 at Lambda = (2, 1) up to size 3: 10 blocks of 15 words and 29 pairs.
    # Recursion: one check per memo miss.  The suite shares one memo and
    # every sub-pair is a pair of a smaller block, so each of the 28
    # nonempty pairs misses once; the empty pair returns 1 unchecked.
    # Graded walks: one check per state and one per product, on the 11
    # words with a nonempty integer column (the empty word makes none):
    #   (1) 2, (0) 2, (0,1) 7, (1,0) 7, (0,0) 6, (0,1,1) 19, (1,0,1) 19,
    #   (0,0,1) 20, (0,1,0) 22, (1,0,0) 22: 126 in all.
    # The four zero words (1,1), (1,1,1), (1,1,0) and (0,0,0) would cost
    # 7 + 13 + 21 + 15 = 56 more, the 182 of a graded walk into every word.
    deadline = Recording(3600)
    report = verify_oracle(builtin_cartan("A2"), Weight((2, 1)), max_n=3, deadline=deadline)
    assert report.ok and report.blocks == 10 and report.checked == 29
    assert deadline.seen["recursive graded dimension"] == 28
    assert deadline.seen["graded dimension sum"] == 126


def test_recursion_makes_no_sub_call_for_a_zero_factor():
    # A2 at Lambda = (1, 0): peeling the last letter 1 of (0, 1) against the
    # only 1 of (1, 0) gives [<Lambda, h_1>] = [0] = 0, so the entry is zero
    # after one check and the sub-pair ((0,), (0,)) is never asked for.  In
    # the oracle suite every such sub-pair is a pair of the suite anyway, so
    # only a fresh memo shows the call.
    deadline = Recording(3600)
    value = klrdim.dims.graded_dim_recursive(
        builtin_cartan("A2"), Weight((1, 0)), (0, 1), (1, 0), deadline=deadline
    )
    assert value.is_zero()
    assert deadline.seen["recursive graded dimension"] == 1


# Each route that the suites compare, broken by a wrapper around the name
# that ``klrdim.verify`` imports.  Together they reach every mismatch kind.


def _plus(step):
    """A route that answers ``step`` more than it should."""
    def make(route):
        def broken(*args, **kwargs):
            return route(*args, **kwargs) + step
        return broken
    return make


def _column(graded, change):
    """``transport_column`` with ``change`` applied to each entry of its
    columns in one arithmetic, and right in the other."""
    def make(route):
        def broken(c, lam, w, arithmetic, deadline):
            column = route(c, lam, w, arithmetic, deadline)
            if arithmetic != graded:
                return column
            return {nu: change(value) for nu, value in column.items()}
        return broken
    return make


def _emptied_integer_column(route):
    """``transport_column`` whose integer columns are all empty."""
    def broken(c, lam, w, graded, deadline):
        return route(c, lam, w, graded, deadline) if graded else {}
    return broken


def _true_graded(route):
    """A graded level reduction that holds: the true graded dimension."""
    def broken(c, lam, nu, mu, split, deadline=None):
        return graded_dim(c, lam, nu, mu, deadline=deadline)
    return broken


def _bounds_plus_one(route):
    def broken(*args):
        return tuple(b + 1 for b in route(*args))
    return broken


ONE = LaurentPoly.one()
# (case, suite, type, weight, max_n, broken name, breaker, kinds,
# mismatches, failed blocks)
BROKEN_ROUTES = [
    ("recursion", verify_oracle, "A1", (2,), 2, "graded_dim_recursive", _plus(ONE),
     {"graded mismatch"}, 3, 3),
    ("graded column", verify_oracle, "A2", (1, 1), 2, "transport_column",
     _column(True, lambda v: -v), {"graded mismatch", "q=1 mismatch", "negative coefficient"},
     21, 4),
    ("integer column", verify_oracle, "A1", (2,), 2, "transport_column",
     _column(False, lambda v: v + 1), {"q=1 mismatch"}, 3, 3),
    # No graded column is walked, so only the recursion sees the fault.
    ("emptied integer column", verify_oracle, "A1", (2,), 2, "transport_column",
     _emptied_integer_column, {"graded mismatch"}, 3, 3),
    ("divided", verify_divided, "B2", (1, 1), 2, "dim_divided", _plus(1),
     {"divided mismatch"}, 7, 6),
    ("block reduction", verify_levelred, "A2", (1, 0), 0, "reduce_block_dim", _plus(1),
     {"block reduction mismatch"}, 5, 1),
    ("pair reduction", verify_levelred, "A1", (1,), 1, "reduce_pair_dim_multi", _plus(1),
     {"pair reduction mismatch"}, 10, 2),
    # Recorded while the first block is open, so that block fails.
    ("graded reduction", verify_levelred, "A1", (1,), 0, "reduce_pair_graded", _true_graded,
     {"graded reduction unexpectedly held"}, 1, 1),
    ("exponent bounds", verify_basis, "A1", (1,), 2, "exponent_bounds", _bounds_plus_one,
     {"cardinality mismatch", "positivity mismatch"}, 3, 2),
    ("blockwise product", verify_basis, "A1", (2,), 2, "graded_dim_blockwise", _plus(ONE),
     {"diagonal factorization mismatch"}, 3, 3),
]

# Each report as JSON, sorted by key: tuples show as lists, weights and
# blocks as their coefficients, and polynomials in their display form.
MISMATCH_JSON = {
    'recursion': (
        '{"blocks": 3, "blocks_ok": 0, "checked": 3, "failures": [{"closed": "1",'
        ' "kind": "graded mismatch", "nu": [], "nuprime": [], "recursive": "2"},'
        ' {"closed": "q^2+1", "kind": "graded mismatch", "nu": [0], "nuprime": [0],'
        ' "recursive": "q^2+2"}, {"closed": "q^2+2+q^-2", "kind": "graded mismatch",'
        ' "nu": [0, 0], "nuprime": [0, 0], "recursive": "q^2+3+q^-2"}],'
        ' "mismatches": 3, "ok": false, "suite": "oracle"}'
    ),
    'graded column': (
        '{"blocks": 6, "blocks_ok": 2, "checked": 9, "failures": [{"closed": "-1",'
        ' "kind": "graded mismatch", "nu": [], "nuprime": [], "recursive": "1"},'
        ' {"direct": 1, "graded_at_one": -1, "kind": "q=1 mismatch", "nu": [],'
        ' "nuprime": []}, {"kind": "negative coefficient", "nu": [], "nuprime": [],'
        ' "value": "-1"}, {"closed": "-1", "kind": "graded mismatch", "nu": [1],'
        ' "nuprime": [1], "recursive": "1"}, {"direct": 1, "graded_at_one": -1,'
        ' "kind": "q=1 mismatch", "nu": [1], "nuprime": [1]},'
        ' {"kind": "negative coefficient", "nu": [1], "nuprime": [1], "value": "-1"},'
        ' {"closed": "-1", "kind": "graded mismatch", "nu": [0], "nuprime": [0],'
        ' "recursive": "1"}, {"direct": 1, "graded_at_one": -1, "kind": "q=1 mismatch",'
        ' "nu": [0], "nuprime": [0]}, {"kind": "negative coefficient", "nu": [0],'
        ' "nuprime": [0], "value": "-1"}, {"closed": "-q^2-1",'
        ' "kind": "graded mismatch", "nu": [0, 1], "nuprime": [0, 1],'
        ' "recursive": "q^2+1"}], "mismatches": 21, "ok": false, "suite": "oracle"}'
    ),
    'integer column': (
        '{"blocks": 3, "blocks_ok": 0, "checked": 3, "failures": [{"direct": 2,'
        ' "graded_at_one": 1, "kind": "q=1 mismatch", "nu": [], "nuprime": []},'
        ' {"direct": 3, "graded_at_one": 2, "kind": "q=1 mismatch", "nu": [0],'
        ' "nuprime": [0]}, {"direct": 5, "graded_at_one": 4, "kind": "q=1 mismatch",'
        ' "nu": [0, 0], "nuprime": [0, 0]}], "mismatches": 3, "ok": false,'
        ' "suite": "oracle"}'
    ),
    'emptied integer column': (
        '{"blocks": 3, "blocks_ok": 0, "checked": 3, "failures": [{"closed": "0",'
        ' "kind": "graded mismatch", "nu": [], "nuprime": [], "recursive": "1"},'
        ' {"closed": "0", "kind": "graded mismatch", "nu": [0], "nuprime": [0],'
        ' "recursive": "q^2+1"}, {"closed": "0", "kind": "graded mismatch",'
        ' "nu": [0, 0], "nuprime": [0, 0], "recursive": "q^2+2+q^-2"}],'
        ' "mismatches": 3, "ok": false, "suite": "oracle"}'
    ),
    'divided': (
        '{"blocks": 6, "blocks_ok": 0, "checked": 7, "failures": [{"direct": 1,'
        ' "divided": 2, "kind": "divided mismatch", "nu": []}, {"direct": 1,'
        ' "divided": 2, "kind": "divided mismatch", "nu": [1]}, {"direct": 1,'
        ' "divided": 2, "kind": "divided mismatch", "nu": [0]}, {"direct": 0,'
        ' "divided": 1, "kind": "divided mismatch", "nu": [1, 1]}, {"direct": 3,'
        ' "divided": 4, "kind": "divided mismatch", "nu": [0, 1]}, {"direct": 2,'
        ' "divided": 3, "kind": "divided mismatch", "nu": [1, 0]}, {"direct": 0,'
        ' "divided": 1, "kind": "divided mismatch", "nu": [0, 0]}], "mismatches": 7,'
        ' "ok": false, "suite": "divided"}'
    ),
    'block reduction': (
        '{"blocks": 1, "blocks_ok": 0, "checked": 11, "failures": [{"beta": [0, 0],'
        ' "direct": 1, "kind": "block reduction mismatch", "reduced": 2, "split": [[0,'
        ' 0], [1, 0]]}, {"beta": [0, 0], "direct": 1,'
        ' "kind": "block reduction mismatch", "reduced": 2, "split": [[1, 0], [0, 0]]},'
        ' {"beta": [0, 0], "direct": 1, "kind": "block reduction mismatch",'
        ' "reduced": 2, "split": [[0, 0], [0, 0], [1, 0]]}, {"beta": [0, 0],'
        ' "direct": 1, "kind": "block reduction mismatch", "reduced": 2, "split": [[0,'
        ' 0], [1, 0], [0, 0]]}, {"beta": [0, 0], "direct": 1,'
        ' "kind": "block reduction mismatch", "reduced": 2, "split": [[1, 0], [0, 0],'
        ' [0, 0]]}], "mismatches": 5, "ok": false, "suite": "levelred"}'
    ),
    'pair reduction': (
        '{"blocks": 2, "blocks_ok": 0, "checked": 21, "failures": [{"direct": 1,'
        ' "kind": "pair reduction mismatch", "mu": [], "nu": [], "reduced": 2,'
        ' "split": [[0], [1]]}, {"direct": 1, "kind": "pair reduction mismatch",'
        ' "mu": [], "nu": [], "reduced": 2, "split": [[1], [0]]}, {"direct": 1,'
        ' "kind": "pair reduction mismatch", "mu": [], "nu": [], "reduced": 2,'
        ' "split": [[0], [0], [1]]}, {"direct": 1, "kind": "pair reduction mismatch",'
        ' "mu": [], "nu": [], "reduced": 2, "split": [[0], [1], [0]]}, {"direct": 1,'
        ' "kind": "pair reduction mismatch", "mu": [], "nu": [], "reduced": 2,'
        ' "split": [[1], [0], [0]]}, {"direct": 1, "kind": "pair reduction mismatch",'
        ' "mu": [0], "nu": [0], "reduced": 2, "split": [[0], [1]]}, {"direct": 1,'
        ' "kind": "pair reduction mismatch", "mu": [0], "nu": [0], "reduced": 2,'
        ' "split": [[1], [0]]}, {"direct": 1, "kind": "pair reduction mismatch",'
        ' "mu": [0], "nu": [0], "reduced": 2, "split": [[0], [0], [1]]}, {"direct": 1,'
        ' "kind": "pair reduction mismatch", "mu": [0], "nu": [0], "reduced": 2,'
        ' "split": [[0], [1], [0]]}, {"direct": 1, "kind": "pair reduction mismatch",'
        ' "mu": [0], "nu": [0], "reduced": 2, "split": [[1], [0], [0]]}],'
        ' "mismatches": 10, "ok": false, "suite": "levelred"}'
    ),
    'graded reduction': (
        '{"blocks": 1, "blocks_ok": 0, "checked": 11, "failures": [{"direct": "q^2+1",'
        ' "kind": "graded reduction unexpectedly held", "reduced": "q^2+1"}],'
        ' "mismatches": 1, "ok": false, "suite": "levelred"}'
    ),
    'exponent bounds': (
        '{"blocks": 3, "blocks_ok": 1, "checked": 6, "failures": [{"bounds": [2],'
        ' "cardinality": 2, "dim_from": 1, "dim_to": 1, "grouped": [0],'
        ' "kind": "cardinality mismatch", "mu": [0]}, {"bounds": [2, 1],'
        ' "cardinality": 4, "dim_from": 0, "dim_to": 0, "grouped": [0, 0],'
        ' "kind": "cardinality mismatch", "mu": [0, 0]}, {"bounds": [2, 1], "dim": 0,'
        ' "kind": "positivity mismatch", "mu": [0, 0]}], "mismatches": 3, "ok": false,'
        ' "suite": "basis"}'
    ),
    'blockwise product': (
        '{"blocks": 3, "blocks_ok": 0, "checked": 6, "failures": [{"closed": "1",'
        ' "kind": "diagonal factorization mismatch", "mu": [], "product": "2"},'
        ' {"closed": "q^2+1", "kind": "diagonal factorization mismatch", "mu": [0],'
        ' "product": "q^2+2"}, {"closed": "q^2+2+q^-2",'
        ' "kind": "diagonal factorization mismatch", "mu": [0, 0],'
        ' "product": "q^2+3+q^-2"}], "mismatches": 3, "ok": false, "suite": "basis"}'
    ),
}


def test_the_broken_routes_reach_every_kind():
    kinds = set().union(*(case[7] for case in BROKEN_ROUTES))
    assert len(kinds) == 10


@pytest.mark.parametrize(
    "case, suite, cartan, weight, max_n, name, breaker, kinds, mismatches, failed",
    BROKEN_ROUTES, ids=[case[0] for case in BROKEN_ROUTES],
)
def test_a_broken_route_is_reported(
    monkeypatch, case, suite, cartan, weight, max_n, name, breaker, kinds, mismatches, failed,
):
    monkeypatch.setattr(klrdim.verify, name, breaker(getattr(klrdim.verify, name)))
    report = suite(builtin_cartan(cartan), Weight(weight), max_n=max_n)
    assert not report.ok
    assert (report.mismatches, report.failed_blocks) == (mismatches, failed)
    assert len(report.failures) == min(mismatches, 10)
    assert {f["kind"] for f in report.failures} == kinds
    assert json.dumps(report.to_json(), sort_keys=True) == MISMATCH_JSON[case]


def test_a_failing_suite_still_exits_zero(monkeypatch, capsys):
    # Mismatches are data: the command prints FAIL and succeeds.
    recursion = klrdim.verify.graded_dim_recursive
    monkeypatch.setattr(klrdim.verify, "graded_dim_recursive", _plus(ONE)(recursion))
    code = cli.run(["verify", "--cartan", "A1", "--weight", "2", "--suite", "oracle",
                    "--max-n", "2"])
    assert code == 0
    assert capsys.readouterr().out == "[oracle] FAIL: 0/3 β-blocks, 3 mismatches (3 checks)\n"


def test_module_doctests():
    for module in (klrdim.qpoly, klrdim.perms):
        result = doctest.testmod(module)
        assert result.failed == 0
        assert result.attempted > 0
