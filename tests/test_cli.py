"""Command line front end: output values, JSON schema, exit codes."""

import argparse
import ast
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import klrdim.basis
from conftest import small_battery
from klrdim import builtin_cartan, cli
from klrdim.cli import run
from klrdim.qpoly import LaurentPoly, eval_one
from oracles import Recording, algebra_by_blocks, shallow_stack


# The nilHecke pair on 18 strands at level 18: the pair walk extends every
# one of the 2^18 - 1 proper sets of taken slots, which takes about 2 s on a
# 2-CPU machine, far past a budget of a few ms.
EIGHTEEN_ONES = ",".join(["1"] * 18)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestGdim:
    def test_affine_example(self, capsys):
        code, out, _ = invoke(
            capsys, "gdim", "--cartan", "A1~", "--weight", "1,2",
            "--nu", "2,1", "--nuprime", "2,1",
        )
        assert code == 0
        assert out.strip() == "q^6+2q^4+2q^2+1"

    def test_nuprime_defaults_to_nu(self, capsys):
        code, out, _ = invoke(
            capsys, "gdim", "--cartan", "A1~", "--weight", "1,2", "--nu", "2",
        )
        assert code == 0
        assert out.strip() == "q^2+1"

    def test_json_document(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "gdim", "--cartan", "A1~", "--weight", "1,2",
            "--nu", "2,1", "--nuprime", "2,1",
        )
        assert code == 0
        assert doc["schema"] == "klr/1"
        assert doc["value"]["display"] == "q^6+2q^4+2q^2+1"
        assert doc["value"]["pairs"] == [[0, 1], [2, 2], [4, 2], [6, 1]]


class TestDim:
    def test_all_pairs_table(self, capsys):
        code, out, _ = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "1,1",
            "--beta", "1,1", "--all-pairs",
        )
        assert code == 0
        lines = out.strip().splitlines()
        values = [int(line.rsplit(" ", 1)[1]) for line in lines[:-1]]
        assert values == [2, 1, 1, 2]
        assert lines[-1].endswith("6")

    def test_pair(self, capsys):
        code, out, _ = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "3,2",
            "--nu", "1,2", "--nuprime", "2,1",
        )
        assert code == 0 and out.strip() == "6"

    def test_block_total(self, capsys):
        code, out, _ = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "3,2", "--beta", "1,1",
        )
        assert code == 0 and out.strip() == "29"

    def test_json_roundtrip(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "dim", "--cartan", "A2", "--weight", "1,1",
            "--beta", "1,1", "--all-pairs",
        )
        assert code == 0
        assert doc["total"] == 6
        assert [p["value"] for p in doc["pairs"]] == [2, 1, 1, 2]

    def test_missing_selector(self, capsys):
        code, _, err = invoke(capsys, "dim", "--cartan", "A2", "--weight", "1,1")
        assert code == 1
        assert "PreconditionFail" in err

    @pytest.mark.parametrize("selectors", [
        ("--nu", "1", "--beta", "1,0"),
        ("--nuprime", "1", "--beta", "1,0"),
        ("--nu", "1", "--nuprime", "1", "--beta", "1,0"),
        ("--nu", "1", "--nuprime", "1", "--all-pairs"),
        ("--nu", "1", "--beta", "1,0", "--all-pairs"),
    ])
    def test_pair_and_block_selectors_conflict(self, capsys, selectors):
        code, out, err = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "1,1", *selectors,
        )
        assert (code, out) == (1, "")
        assert "PreconditionFail" in err and "not both" in err


class TestBlockAlgebra:
    def test_block(self, capsys):
        code, out, _ = invoke(
            capsys, "block", "--cartan", "A1~", "--weight", "1,2", "--beta", "0,2",
        )
        assert code == 0
        assert "q^2+2+q^-2" in out
        assert "ungraded 4" in out

    def test_algebra(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "algebra", "--cartan", "A1~", "--weight", "1,2", "--n", "2",
        )
        assert code == 0
        assert doc["total"]["graded"]["display"] == "2q^6+5q^4+6q^2+4+q^-2"
        assert doc["total"]["ungraded"] == 18

    def test_algebra_lists_the_blocks_of_the_per_block_route(self, capsys):
        # One walk grouped by content against one column walk per block.
        name_of = {builtin_cartan(x): x for x in ("A2", "A3", "C2", "G2", "A1~")}
        for c, lam in small_battery():
            weight = ",".join(map(str, lam.coeffs))
            for n in range(5):
                text, doc = per_block_algebra(c, lam, n)
                argv = ["algebra", "--cartan", name_of[c], "--weight", weight, "--n", str(n)]
                assert invoke(capsys, *argv) == (0, text, ""), argv
                assert invoke(capsys, *argv, "--format", "json") == (0, doc, ""), argv

    def test_algebra_makes_one_walk(self, capsys, monkeypatch):
        # 210 words evaluated by one walk over the words of length 5, then
        # one check per block: C(7, 2) = 21.
        deadline = Recording(3600)
        monkeypatch.setattr(cli, "Deadline", lambda seconds: deadline)
        code, _, _ = invoke(
            capsys, "algebra", "--cartan", "A2~", "--weight", "1,1,1", "--n", "5",
            "--time-budget", "3600",
        )
        assert code == 0
        assert deadline.seen == {"block sum": 231}

    def test_algebra_block_loop_ends_in_the_budget(self):
        # A20 at level one has no nonzero word of length 30, so the walk
        # ends at once, but there are C(49, 19) blocks to list.  Without a
        # check in the block loop the request runs until the child is killed.
        weight = ",".join(["1"] + ["0"] * 19)
        argv = ["algebra", "--cartan", "A20", "--weight", weight, "--n", "30",
                "--time-budget", "0.5"]
        start = time.monotonic()
        code, out, err = fresh_interpreter(
            argv, {**os.environ, "PYTHONPATH": str(SRC)}, timeout=10
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: TimeBudgetExceeded: ")
        assert time.monotonic() - start < 2


def per_block_algebra(c, lam, n):
    """The ``algebra`` output, text and JSON, from one column walk per block."""
    blocks = [(beta, g, eval_one(g)) for beta, g in algebra_by_blocks(c, lam, n)]
    total_g = sum((g for _, g, _ in blocks), LaurentPoly.zero())
    total_u = sum(u for _, _, u in blocks)
    lines = [
        f"beta={','.join(map(str, beta.coeffs))}  graded {g}  ungraded {u}"
        for beta, g, u in blocks
    ]
    lines.append(f"total  graded {total_g}  ungraded {total_u}")
    doc = {
        "schema": "klr/1",
        "command": "algebra",
        "n": n,
        "blocks": [
            {"beta": list(beta.coeffs), "graded": poly_json(g), "ungraded": u}
            for beta, g, u in blocks
        ],
        "total": {"graded": poly_json(total_g), "ungraded": total_u},
    }
    return "\n".join(lines) + "\n", json.dumps(doc, sort_keys=True) + "\n"


def poly_json(p):
    return {"pairs": p.to_pairs(), "display": str(p)}


class TestNonzero:
    def test_direct(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "nonzero", "--cartan", "A2", "--weight", "1,1", "--nu", "1,2",
        )
        assert code == 0
        assert doc["nonzero"] is True and doc["witness"] == 2

    def test_blockwise(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "nonzero", "--cartan", "A2", "--weight", "1,0",
            "--nu", "1,1", "--method", "blockwise",
        )
        assert code == 0
        assert doc["nonzero"] is False and doc["witness"] == [[1, 2]]

    def test_shuffle_witness_uses_labels(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "nonzero", "--cartan", "A2", "--weight", "1,1",
            "--nu", "1,2", "--method", "shuffle",
        )
        assert code == 0
        assert doc["nonzero"] is True
        assert sorted(map(tuple, doc["witness"])) in ([(), (1, 2)], [((1, 2)), ()])

    @pytest.mark.parametrize("nu, verdict", [("1", "zero"), ("", "nonzero")])
    def test_shuffle_at_zero_weight(self, capsys, nu, verdict):
        # Lambda = 0 is the sum of no fundamental weights: only the empty
        # tuple survives, as on the other routes.
        for method in ("direct", "shuffle"):
            code, out, err = invoke(
                capsys, "nonzero", "--cartan", "A2", "--weight", "0,0",
                "--nu", nu, "--method", method,
            )
            assert (code, err) == (0, "")
            assert out.split()[0] == verdict


class TestBasisTilde:
    def test_basis_bounds(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "basis", "--cartan", "A1", "--weight", "5", "--mu", "1,1",
        )
        assert code == 0
        assert doc["bounds"] == [5, 4]
        assert doc["cardinality"] == 40
        assert doc["empty"] is False

    def test_basis_list(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "basis", "--cartan", "A1", "--weight", "2",
            "--mu", "1,1", "--list",
        )
        assert code == 0
        assert len(doc["elements"]) == doc["cardinality"] == 4
        assert doc["elements"][0] == {"w": [1, 2], "r": [0, 0]}

    def test_basis_computes_its_bounds_once(self, capsys, monkeypatch):
        # The basis, its emptiness and its cardinality are all read from
        # one set of bounds.
        calls = []
        exponent_bounds = klrdim.basis.exponent_bounds

        def counted(c, lam, mu, form=None):
            calls.append(mu)
            return exponent_bounds(c, lam, mu, form)

        monkeypatch.setattr(klrdim.basis, "exponent_bounds", counted)
        code, doc, _ = invoke_json(
            capsys, "basis", "--cartan", "A2", "--weight", "2,1",
            "--mu", "2,1,1", "--list",
        )
        assert code == 0 and doc["cardinality"] == len(doc["elements"]) > 0
        assert calls == [(1, 0, 0)]

    def test_tilde(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "tilde", "--cartan", "A2", "--mu", "2,1,1", "--letters", "1,2",
        )
        assert code == 0
        assert doc["grouped"] == [1, 1, 2]
        assert doc["sorting_perm"] == [3, 1, 2]

    def test_tilde_with_weight_bounds(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "tilde", "--cartan", "A2", "--weight", "3,2",
            "--mu", "2,1,1", "--letters", "1,2",
        )
        assert code == 0
        assert doc["bounds"] == [2, 3, 2]


class TestReduce:
    def test_pair(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "reduce", "--cartan", "A1", "--weight", "2",
            "--split", "1;1", "--nu", "1,1", "--mu", "1,1",
        )
        assert code == 0
        assert doc["reduced"] == doc["direct"] == 4 and doc["match"] is True

    def test_block(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "reduce", "--cartan", "A1~", "--weight", "1,2",
            "--split", "1,0;0,1;0,1", "--beta", "1,1",
        )
        assert code == 0
        assert doc["match"] is True

    def test_pair_over_many_unit_parts(self, capsys):
        # 1200 unit parts: the peel is a loop over the parts, so the sum
        # runs with the recursion limit only 150 frames above this test.
        split = ";".join(["1"] * 1200)
        with shallow_stack():
            code, doc, _ = invoke_json(
                capsys, "reduce", "--cartan", "A1", "--weight", "1200",
                "--split", split, "--nu", "1", "--mu", "1",
            )
        assert code == 0
        assert doc["reduced"] == doc["direct"] == 1200 and doc["match"] is True

    def test_block_over_many_unit_parts(self, capsys):
        # 14 unit parts and 9 letters: each part takes at most one letter,
        # and the peel lists no decomposition, so this ends well inside
        # its budget.
        split = ";".join(["1"] * 14)
        code, doc, _ = invoke_json(
            capsys, "reduce", "--cartan", "A1", "--weight", "14",
            "--split", split, "--beta", "9", "--time-budget", "5",
        )
        assert code == 0
        assert doc["reduced"] == doc["direct"] and doc["match"] is True

    @pytest.mark.parametrize("selectors", [
        ("--nu", "1", "--mu", "1", "--beta", "1,0"),
        ("--nu", "1", "--beta", "1,0"),
        ("--mu", "1", "--beta", "1,0"),
    ])
    def test_pair_and_block_selectors_conflict(self, capsys, selectors):
        code, out, err = invoke(
            capsys, "reduce", "--cartan", "A2", "--weight", "1,1",
            "--split", "1,0;0,1", *selectors,
        )
        assert (code, out) == (1, "")
        assert "PreconditionFail" in err and "not both" in err

    def test_short_split_part(self, capsys):
        code, _, err = invoke(
            capsys, "reduce", "--cartan", "A2", "--weight", "1,1",
            "--split", "1,0;1", "--beta", "1,1",
        )
        assert code == 1 and "PreconditionFail" in err


class TestVerify:
    def test_oracle_suite(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--cartan", "A2", "--weight", "1,1",
            "--suite", "oracle", "--max-n", "3",
        )
        assert code == 0
        assert "OK" in out and "0 mismatches" in out

    def test_negative_max_n_is_rejected(self, capsys):
        # A negative cap walks no block, so the suites would pass vacuously.
        code, out, err = invoke(
            capsys, "verify", "--cartan", "A2", "--weight", "1,1", "--max-n", "-3",
        )
        assert code == 1 and out == ""
        assert "PreconditionFail" in err and "--max-n" in err

    def test_all_suites_json(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "verify", "--cartan", "A2", "--weight", "1,1",
            "--suite", "all", "--max-n", "2",
        )
        assert code == 0
        assert doc["ok"] is True
        assert {r["suite"] for r in doc["reports"]} == {
            "oracle", "divided", "levelred", "basis",
        }


class TestJsonSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gdim", "--cartan", "A2", "--weight", "1,1", "--nu", "1,2"),
            ("dim", "--cartan", "A2", "--weight", "1,1", "--beta", "1,1"),
            ("dim", "--cartan", "A2", "--weight", "1,1", "--beta", "1,1",
             "--all-pairs"),
            ("block", "--cartan", "A2", "--weight", "1,1", "--beta", "1,1"),
            ("algebra", "--cartan", "A2", "--weight", "1,1", "--n", "1"),
            ("nonzero", "--cartan", "A2", "--weight", "1,1", "--nu", "1,2"),
            ("basis", "--cartan", "A2", "--weight", "1,1", "--mu", "1,2",
             "--list"),
            ("reduce", "--cartan", "A2", "--weight", "1,1",
             "--split", "1,0;0,1", "--beta", "1,1"),
            ("tilde", "--cartan", "A2", "--mu", "1,2,1"),
            ("verify", "--cartan", "A2", "--weight", "1,1", "--suite",
             "divided", "--max-n", "2"),
        ],
    )
    def test_every_command_emits_versioned_json(self, capsys, argv):
        code, doc, err = invoke_json(capsys, *argv)
        assert code == 0 and err == ""
        assert doc["schema"] == "klr/1"
        assert doc["command"] == argv[0]


class TestPipeline:
    def test_only_run_prints(self):
        # Commands return their documents; run() alone renders them, so a
        # new output channel (a stats footer, say) has one place to go.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        printers = {
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        }
        assert printers == {"run"}


class TestErrorsAndDeterminism:
    def test_unknown_label(self, capsys):
        code, _, err = invoke(
            capsys, "gdim", "--cartan", "A2", "--weight", "1,1", "--nu", "7,1",
        )
        assert code == 1 and "OutOfRange" in err

    def test_unknown_type_json(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "block", "--cartan", "Z9", "--weight", "1", "--beta", "1",
        )
        assert code == 1
        assert doc["error"]["type"] == "UnknownType"

    def test_non_dominant_weight(self, capsys):
        code, _, err = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "1,-1", "--beta", "1,1",
        )
        assert code == 1 and "PreconditionFail" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gdim", "--cartan", "A2"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf", "soon"])
    def test_bad_time_budget_exits_two(self, capsys, seconds):
        with pytest.raises(SystemExit) as exc:
            run(["gdim", "--cartan", "A2", "--weight", "1,1", "--nu", "1",
                 "--time-budget", seconds])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--time-budget" in err and "Traceback" not in err

    def test_time_budget_aborts(self, capsys):
        code, _, err = invoke(
            capsys, "dim", "--cartan", "A1", "--weight", "18",
            "--nu", EIGHTEEN_ONES, "--nuprime", EIGHTEEN_ONES, "--time-budget", "0.005",
        )
        assert code == 1 and "TimeBudgetExceeded" in err

    def test_long_pair_ends_in_the_budget(self, capsys):
        # 1200 equal letters: a walk that recursed once per slot would
        # overflow the stack before the budget ran out.
        ones = ",".join(["1"] * 1200)
        code, _, err = invoke(
            capsys, "dim", "--cartan", "A1", "--weight", "5000",
            "--nu", ones, "--nuprime", ones, "--time-budget", "0.5",
        )
        assert code == 1
        assert "TimeBudgetExceeded" in err and "Traceback" not in err

    def test_block_pairs_end_in_the_budget(self, capsys):
        # The A2 block (12, 12) has C(24, 12) = 2,704,156 words: listing
        # them all takes about 13 s, before the first pair is summed.
        start = time.monotonic()
        code, _, err = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "1,1",
            "--beta", "12,12", "--all-pairs", "--time-budget", "0.05",
        )
        assert code == 1
        assert "TimeBudgetExceeded" in err and "Traceback" not in err
        assert time.monotonic() - start < 1

    def test_time_budget_aborts_block(self, capsys):
        # The whole block takes about 2 s on a 2-CPU machine.
        code, _, err = invoke(
            capsys, "block", "--cartan", "A3", "--weight", "3,3,3",
            "--beta", "3,3,3", "--time-budget", "0.05",
        )
        assert code == 1
        assert "TimeBudgetExceeded" in err and "Traceback" not in err

    def test_time_budget_aborts_graded_products(self, capsys):
        code, _, err = invoke(
            capsys, "gdim", "--cartan", "A2", "--weight", "200,200",
            "--nu", "1,2,1,2,1,2", "--nuprime", "2,1,2,1,2,1", "--time-budget", "0.05",
        )
        assert code == 1
        assert "TimeBudgetExceeded" in err and "Traceback" not in err

    def test_byte_identical_reruns(self, capsys):
        args = [
            "algebra", "--cartan", "A1~", "--weight", "1,2", "--n", "2",
            "--format", "json",
        ]
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second

    def test_cartan_json_file(self, capsys, tmp_path):
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]], "labels": [0, 1]}))
        code, out, _ = invoke(
            capsys, "gdim", "--cartan", str(path), "--weight", "1,2",
            "--nu", "1,0", "--nuprime", "1,0",
        )
        assert code == 0
        assert out.strip() == "q^6+2q^4+2q^2+1"

    def test_cartan_file_is_read_on_every_request(self, capsys, tmp_path):
        # Registry sources are cached per process; a file source never is,
        # so a request sees the file as it is now.
        path = tmp_path / "cartan.json"
        args = ("gdim", "--cartan", str(path), "--weight", "1,2", "--nu", "1,0")
        path.write_text(json.dumps({"matrix": [[2, -2], [-2, 2]], "labels": [0, 1]}))
        first = invoke(capsys, *args)
        path.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]], "labels": [0, 1]}))
        second = invoke(capsys, *args)
        a2 = invoke(capsys, "gdim", "--cartan", "A2", "--weight", "1,2", "--nu", "2,1")
        assert first == (0, "q^6+2q^4+2q^2+1\n", "")
        assert second == a2 and second[0] == 0 and second != first

    def test_invalid_cartan_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[2, -1], [0, 2]]}))
        code, _, err = invoke(capsys, "block", "--cartan", str(path),
                              "--weight", "1,1", "--beta", "1,0")
        assert code == 1 and "BadSign" in err

    @pytest.mark.parametrize("doc", [
        {"matrix": [[2.5]]},
        {"matrix": [[-1.7]]},
        {"matrix": [["a"]]},
        {"matrix": [[True]]},
        {"matrix": 5},
        {"matrix": [2]},
        {"matrix": [[2]], "labels": ["x"]},
        {"matrix": [[2]], "labels": [1.5]},
        {"matrix": [[2]], "labels": 1},
    ])
    def test_non_integer_cartan_file(self, capsys, tmp_path, doc):
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(
            capsys, "gdim", "--cartan", str(path), "--weight", "1", "--nu", "1",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "BadShape"
        assert "Traceback" not in err

    def test_missing_cartan_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "block", "--cartan",
                              str(tmp_path / "nope.json"),
                              "--weight", "1,1", "--beta", "1,0")
        assert code == 1 and "BadShape" in err

    def test_garbled_int_list(self, capsys):
        code, _, err = invoke(
            capsys, "dim", "--cartan", "A2", "--weight", "one,two",
            "--beta", "1,1",
        )
        assert code == 1 and "PreconditionFail" in err


SRC = Path(__file__).resolve().parent.parent / "src"

# A sequence of requests that would expose state carried over by the
# shared parser: each differs from the one before in which options it sets.
REUSE_SEQUENCE = [
    ["gdim", "--cartan", "A2", "--weight", "1,1", "--nu", "1,2", "--nuprime", "2,1"],
    ["gdim", "--cartan", "A2"],
    ["gdim", "--cartan", "A2", "--weight", "1,1", "--nu", "7,1"],
    ["dim", "--cartan", "A2", "--weight", "1,1", "--nu", "1,2", "--nuprime", "2,1"],
    ["dim", "--cartan", "A2", "--weight", "1,1", "--beta", "1,1"],
    ["tilde", "--cartan", "A2", "--mu", "1,2,1"],
    ["dim", "--cartan", "A1", "--weight", "18", "--nu", EIGHTEEN_ONES,
     "--nuprime", EIGHTEEN_ONES, "--time-budget", "0.005"],
    # Forms that only argparse reads, and a repeated option, whose last
    # value counts on both paths.
    ["gdim", "--car", "A2", "--weight", "1,1", "--nu", "1,2"],
    ["gdim", "--cartan", "A2", "--weight", "1,1", "--nu=1,2"],
    ["dim", "--cartan", "A2", "--weight", "-1,0", "--beta", "1,1"],
    ["dim", "--cartan", "A2", "--weight", "1,1", "--beta", "1,1", "--beta", "2,1"],
]


def fresh_interpreter(argv, env, timeout=120, preexec_fn=None):
    proc = subprocess.run(
        [sys.executable, "-m", "klrdim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_requests_match_fresh_interpreters(self, capsys, monkeypatch):
        # Usage messages wrap at the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
        codes = []
        for argv in REUSE_SEQUENCE:
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            codes.append(code)
            assert (code, captured.out, captured.err) == fresh_interpreter(argv, env), argv
        assert codes == [0, 2, 1, 0, 0, 0, 1, 0, 0, 2, 0]


# A valid value for each option that takes one.
VALID = {
    "--cartan": "A2", "--weight": "1,1", "--format": "json", "--time-budget": "2.5",
    "--nu": "1,2", "--nuprime": "2,1", "--beta": "1,1", "--n": "2", "--method": "shuffle",
    "--mu": "1,2", "--letters": "2,1", "--split": "1,0;0,1", "--suite": "oracle",
    "--max-n": "2",
}
# Values put in place of a valid one: some start with '-', some fail a type
# or a choice, the rest are accepted.
REPLACEMENTS = ("-1,0", "-3", "--", "xml", "nan", "0", "", "1 2", "text")


def subcommands():
    (action,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def corpus():
    """(request, plain) for every command with every subset of its options,
    each given a valid value, in the parser's order and shuffled."""
    rng = random.Random(13)
    for name, sub in subcommands().items():
        actions = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        for size in range(len(actions) + 1):
            for subset in combinations(actions, size):
                plain = all(a in subset for a in actions if a.required)
                groups = [
                    [a.option_strings[0]] + ([] if a.nargs == 0 else [VALID[a.option_strings[0]]])
                    for a in subset
                ]
                yield [name, *(t for g in groups for t in g)], plain
                rng.shuffle(groups)
                yield [name, *(t for g in groups for t in g)], plain


def mutations(argv):
    """Requests one edit away from ``argv``."""
    yield ["frobnicate", *argv[1:]]
    yield ["-h", *argv]
    yield argv + ["-h"]
    yield argv + ["--"]
    yield argv + ["stray"]
    yield argv[:-1]
    for i in range(1, len(argv)):
        token, rest = argv[i], argv[i + 1:]
        if token.startswith("--"):
            yield argv[:i] + [token[:-1]] + rest
            yield argv[:i] + rest
            yield argv + [token]
            if rest and not rest[0].startswith("--"):
                yield argv[:i] + [f"{token}={rest[0]}"] + rest[1:]
                yield argv + [token, rest[0]]
        else:
            for value in REPLACEMENTS:
                yield argv[:i] + [value] + rest


def argparse_vars(argv):
    """What argparse makes of ``argv``: its namespace, or its exit code."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit as exc:
        return f"exit {exc.code}"


class TestPlainParse:
    def test_matches_argparse_on_a_corpus(self):
        accepted = refused = 0
        for request, plain in corpus():
            ns = cli._parse_plain(request)
            assert (ns is not None) == plain, request
            for argv in [request, *mutations(request)]:
                ns = cli._parse_plain(argv)
                if ns is None:
                    refused += 1
                else:
                    accepted += 1
                    assert vars(ns) == argparse_vars(argv), argv
        assert accepted > 5_000 and refused > 50_000

    @pytest.mark.parametrize("argv", [
        ["dim", "--cartan", "A2", "--weight", "-1,0", "--beta", "1,1"],
        ["gdim", "--cartan", "A2"],
        ["gdim", "--cartan", "A2", "--weight", "1,1", "--nu", "1", "--format", "xml"],
        ["algebra", "--cartan", "A2", "--weight", "1,1", "--n", "two"],
        ["gdim", "--cartan", "A2", "--weight", "1,1", "--nu"],
        [],
    ])
    def test_usage_errors_are_left_to_argparse(self, argv):
        assert cli._parse_plain(argv) is None
        assert argparse_vars(argv) == "exit 2"

    def test_negative_numbers_are_left_to_argparse(self):
        # argparse reads '-3' as a value, since no option looks like a number.
        argv = ["verify", "--cartan", "A2", "--weight", "1,1", "--max-n", "-3"]
        assert cli._parse_plain(argv) is None
        assert argparse_vars(argv)["max_n"] == -3

    def test_plain_requests_share_no_state(self):
        argv = ["dim", "--cartan", "A2", "--weight", "1,1", "--beta", "1,1", "--all-pairs"]
        first = cli._parse_plain(argv)
        second = cli._parse_plain(argv[:-1])
        assert (first.all_pairs, second.all_pairs) == (True, False)
        assert vars(second) == argparse_vars(argv[:-1])


THREE_HUNDRED_ONES = ",".join(["1"] * 300)
NILHECKE_300 = ("--cartan", "A1", "--weight", "300")


class TestLongWords:
    @pytest.mark.parametrize("argv", [
        ("gdim", *NILHECKE_300, "--nu", THREE_HUNDRED_ONES),
        ("dim", *NILHECKE_300, "--nu", THREE_HUNDRED_ONES, "--nuprime", THREE_HUNDRED_ONES),
        ("dim", *NILHECKE_300, "--beta", "300", "--all-pairs"),
        *(
            ("nonzero", *NILHECKE_300, "--nu", THREE_HUNDRED_ONES, "--method", method)
            for method in ("direct", "divided", "blockwise", "shuffle")
        ),
        ("basis", *NILHECKE_300, "--mu", THREE_HUNDRED_ONES, "--list"),
        ("reduce", *NILHECKE_300, "--split", "150;150",
         "--nu", THREE_HUNDRED_ONES, "--mu", THREE_HUNDRED_ONES),
        ("tilde", "--cartan", "A1", "--mu", THREE_HUNDRED_ONES),
    ], ids=[
        "gdim", "dim-pair", "dim-all-pairs", "nonzero-direct", "nonzero-divided",
        "nonzero-blockwise", "nonzero-shuffle", "basis-list", "reduce", "tilde",
    ])
    def test_no_traceback_on_300_letters(self, capsys, argv):
        # 300 equal letters at level 300: every loop that walks the letters
        # runs with the recursion limit only 150 frames above this test, so
        # each request either answers or ends in a structured error.
        with shallow_stack():
            code = run([*argv, "--time-budget", "0.2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "klr/1"
        if code == 1:
            assert doc["error"]["type"] == "TimeBudgetExceeded"
        else:
            assert code == 0 and "error" not in doc


class TestLongIntegers:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prints_past_the_default_digit_cap(self, fmt):
        # The A1 block of size 2 at level L has dimension 2L(L-1).  At
        # L = 10^2200 that is 2 * 10^4400 - 2 * 10^2200, 4401 digits: past
        # the interpreter's default cap of 4300, which this test process
        # keeps, so the digits are spelled out rather than converted.
        argv = ["dim", "--cartan", "A1", "--weight", "1" + "0" * 2200, "--beta", "2",
                "--format", fmt]
        code, out, err = fresh_interpreter(argv, {**os.environ, "PYTHONPATH": str(SRC)})
        assert (code, err) == (0, "")
        digits = "1" + "9" * 2199 + "8" + "0" * 2200
        if fmt == "text":
            assert out.strip() == digits
        else:
            assert f'"value": {digits}' in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_run_lifts_the_digit_cap_and_gives_it_back(self, capsys, fmt):
        # The A1 block of size L at level L is a matrix algebra of size L!,
        # so at L = 1000 its dimension is (1000!)^2, 5,136 digits.  The caller
        # keeps the default cap of 4300, and has it again afterwards.
        caller = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        digits = str(math.factorial(1000) ** 2)
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = invoke(capsys, "dim", "--cartan", "A1", "--weight", "1000",
                                    "--beta", "1000", "--format", fmt)
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(caller)
        assert (code, err, after, len(digits)) == (0, "", 4300, 5136)
        if fmt == "text":
            assert out == digits + "\n"
        else:
            assert f'"value": {digits}' in out

    def test_huge_graded_weight_is_refused_under_a_memory_limit(self):
        # [10^8] would take one dict entry per term, far more than the 1 GiB
        # of address space this child gets; the term cap refuses it first.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        argv = ["gdim", "--cartan", "A2", "--weight", "100000000,100000000",
                "--nu", "1", "--nuprime", "1", "--time-budget", "0.05"]
        code, out, err = fresh_interpreter(
            argv, {**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit_memory
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: TooManyTerms: ") and "Traceback" not in err


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self):
        # About 660 KB of output, far more than a pipe buffer holds, so the
        # writer is still printing when the reader goes away.
        argv = ["basis", "--cartan", "A1", "--weight", "5", "--mu", "1,1,1,1,1",
                "--list", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "klrdim.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) != 0
        assert err == "", err  # in particular, no Traceback


class TestMain:
    """The console entry point, in-process: it reads ``sys.argv`` and exits
    with the request's code."""

    @pytest.fixture(autouse=True)
    def digit_caps(self, monkeypatch):
        # run lifts the interpreter's digit cap for the request and then
        # restores it; the calls are recorded, and this process keeps its own.
        caps = []
        monkeypatch.setattr(sys, "set_int_max_str_digits", caps.append)
        return caps

    @pytest.mark.parametrize("weight, code, out", [("2", 0, "q^2+2+q^-2\n"), ("0,1", 1, "")])
    def test_exits_with_the_request_s_code(self, monkeypatch, capsys, digit_caps, weight, code,
                                           out):
        argv = ["klrdim", "gdim", "--cartan", "A1", "--weight", weight, "--nu", "1,1"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert (stop.value.code, capsys.readouterr().out) == (code, out)
        assert digit_caps == [0, sys.get_int_max_str_digits()]

    def test_a_reader_that_went_away_gives_exit_1(self, monkeypatch, tmp_path):
        def reader_gone():
            raise BrokenPipeError

        monkeypatch.setattr(cli, "run", reader_gone)
        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            with pytest.raises(SystemExit) as stop:
                cli.main()
        assert stop.value.code == 1
