"""The self-verification battery and its report plumbing."""

import doctest

import pytest

import klrdim.dims
import klrdim.perms
import klrdim.qpoly
import klrdim.verify
from klrdim.budget import Deadline
from klrdim.cartan import RootElement, Weight, builtin_cartan
from klrdim.errors import PreconditionFail, TimeBudgetExceeded
from klrdim.verify import SCOPES, VerifyReport, verify_oracle, verify_suite
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


def test_module_doctests():
    for module in (klrdim.qpoly, klrdim.perms):
        result = doctest.testmod(module)
        assert result.failed == 0
        assert result.attempted > 0
