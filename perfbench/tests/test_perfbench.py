"""Tests of the benchmark itself: seeded inputs, pins, exact traced counters
and the agreement of BENCHMARK.json with the code.

    python3 -m pytest perfbench/tests -q

The traced tests run real worker processes on one seed, about two minutes in
all.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import read_spans  # noqa: E402

SEED = 3
PINS = json.loads((HERE / "pins.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def _shape(workload: str, inputs: list[tuple]) -> list:
    """What must not depend on the seed: types, sizes and slot structure."""
    if workload == "block_algebra":
        return [(name, n) for name, _, n in inputs]
    if workload == "pair_queries":
        return [len(inputs)]
    return sorted((workloads.cartan_key(c), tuple(sorted(lam))) for c, lam in inputs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a = workloads.make_inputs(workload, SEED)
    assert a == workloads.make_inputs(workload, SEED)
    b = workloads.make_inputs(workload, SEED + 1)
    assert a != b
    assert _shape(workload, a) == _shape(workload, b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_input_is_pinned(workload):
    keys = [c.key for c in workloads.prepare(workload, workloads.universe(workload))]
    assert sorted(keys) == sorted(PINS[workload])
    for seed in range(20):
        for call in workloads.prepare(workload, workloads.make_inputs(workload, seed)):
            assert call.key in PINS[workload]


def test_pair_queries_only_emit_requests_that_exit_zero():
    pool = workloads.query_pool()
    for argv in pool:
        if "blockwise" in argv:
            assert workloads.is_block_form(argv[argv.index("--nu") + 1].split(","))
    from klrdim import cli

    for argv in pool[::64]:
        with redirect_stdout(io.StringIO()):
            assert cli.run(list(argv)) == 0, argv


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def passes(request):
    """Two traced passes and one untraced pass of one workload and seed,
    each in its own worker process, as in a benchmark run."""
    run.OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + 170
    traced = [run.spawn(request.param, SEED, 1, deadline) for _ in range(2)]
    spans = run.OUT / f"spans-{request.param}.bin.gz"
    return request.param, traced, run.spawn(request.param, SEED, 0, deadline), spans


def test_traced_counters_are_exact(passes):
    _, (first, second), _, _ = passes
    assert worker.EXACT
    for name in worker.EXACT:
        assert first["layer"][name] == second["layer"][name], name


def test_tracing_changes_no_answer(passes):
    workload, traced, untraced, _ = passes
    answers = [[c[:2] for c in r["calls"]] for r in (*traced, untraced)]
    assert answers[0] == answers[1] == answers[2]
    assert run.check([*traced, untraced], PINS[workload])["correct"]


def test_predicted_load(passes):
    workload, (first, _), _, _ = passes
    layer = first["layer"]
    for name in SPEC["zero_on"][workload]:
        assert layer[name] == 0, name
    shares = {k[: -len(".self_s")]: v for k, v in layer.items() if k.endswith(".self_s")}
    total = sum(shares.values())
    if workload == "block_algebra":
        assert shares["qpoly"] + shares["perms"] + shares["dims"] > total / 2
    elif workload == "pair_queries":
        assert shares["cli"] == max(shares.values())
    else:
        assert set(sorted(shares, key=shares.get)[-2:]) == {"perms", "levelred"}
        for suite in workloads.VERIFY_SUITES:
            assert layer[f"verify.{suite}_s"] > 0, suite


def test_spans_are_written(passes):
    _, (first, _), _, spans = passes
    names, fields = read_spans(spans)
    assert len(fields["start"]) == first["spans"]
    assert all(e >= s for s, e in zip(fields["start"], fields["end"]))
    assert all(p < i for i, p in enumerate(fields["parent"]))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in worker.PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(SPEC["workloads"]) == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_leaves_out_the_wrapper_cost():
    from tracer import GENERATOR, PLAIN, Tracer

    t = Tracer()
    outer, child = t._name_id("a.outer", PLAIN), t._name_id("b.child", GENERATOR)
    t.inner_cost = [1.0, 0.0, 0.0, 2.0]
    t.outer_cost = [3.0, 0.0, 0.0, 4.0]
    for name, parent, start, end in ((outer, -1, 0.0, 100.0), (child, 0, 10.0, 30.0), (child, 0, 40.0, 50.0)):
        t.span_name.append(name)
        t.span_parent.append(parent)
        t.span_op.append(0)
        t.span_start.append(start)
        t.span_end.append(end)
    # outer: 100 long, 30 in children, 1 its own wrapper, 2 x 4 its children's
    # wrappers outside their spans; child: 30 long, 2 x 2 its own wrapper.
    assert t.self_times() == {"a.outer": 61.0, "b.child": 26.0}
    assert t.inclusive_time("a.outer") == 87.0
    assert t.inclusive_time("b.child") == 26.0
