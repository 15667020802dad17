"""One workload process: set up, time one pass over the seeded inputs, and
print one JSON line with the timings, the answer hashes and, when traced,
the per-layer metrics.

Started by ``run.py``, once per repetition, so that every repetition
begins with cold caches and its peak memory is its own:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at MONOTONIC [--spans PATH] [--setup-only]

With ``--setup-only`` it stops after set-up and prints only ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Budget labels the library passes to budget.check; any other label is
# counted under "other".
BUDGET_LABELS = (
    "graded dimension sum", "dimension sum", "recursive graded dimension",
    "divided-power sum", "block sum", "shuffle search", "oracle suite",
    "divided suite", "basis suite", "level reduction suite",
    "level reduction sum", "graded level reduction sum", "block level reduction",
)


def label_metric(label: str) -> str:
    return "budget.checks." + label.replace(" ", "_").replace("-", "_")


# Per-layer metrics of a traced pass: (name, unit, better).
PER_LAYER = [
    ("qpoly.mul_calls", "count", "lower"),
    ("qpoly.add_calls", "count", "lower"),
    ("qpoly.quantum_int_hit_ratio", "ratio", "higher"),
    ("qpoly.self_s", "s", "lower"),
    ("perms.transport_perms_yielded", "count", "lower"),
    ("perms.coset_reps_yielded", "count", "lower"),
    ("perms.matched_splits_yielded", "count", "lower"),
    ("perms.self_s", "s", "lower"),
    ("dims.graded_dim_calls", "count", "lower"),
    ("dims.dim_calls", "count", "lower"),
    ("dims.recursive_calls", "count", "lower"),
    ("dims.nonzero_ratio", "ratio", "higher"),
    ("dims.self_s", "s", "lower"),
    ("levelred.pair_calls", "count", "lower"),
    ("levelred.block_calls", "count", "lower"),
    ("levelred.inner_dim_calls", "count", "lower"),
    ("levelred.self_s", "s", "lower"),
    ("idempotents.calls", "count", "lower"),
    ("idempotents.self_s", "s", "lower"),
    ("basis.calls", "count", "lower"),
    ("basis.self_s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("verify.checked", "count", "higher"),
    ("verify.oracle_s", "s", "lower"),
    ("verify.divided_s", "s", "lower"),
    ("verify.basis_s", "s", "lower"),
    ("verify.levelred_s", "s", "lower"),
    ("budget.checks", "count", "lower"),
    *((label_metric(label), "count", "lower") for label in BUDGET_LABELS),
    ("budget.checks.other", "count", "lower"),
    ("budget.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Metrics that count work: a traced pass must reproduce them exactly.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, results, cache_before, cache_after) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all except the overhead ratio,
    which needs the untraced pass too)."""
    self_s: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name.partition(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + seconds
    dims_calls = sum(tracer.count(f) for f in ("dims.graded_dim", "dims.dim", "dims.graded_dim_recursive"))
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    checks = dict(tracer.checks)
    m = {
        "qpoly.mul_calls": tracer.count("qpoly.mul"),
        "qpoly.add_calls": tracer.count("qpoly.add"),
        "qpoly.quantum_int_hit_ratio": _ratio(hits, hits + misses),
        "perms.transport_perms_yielded": tracer.yielded["perms.transport_perms"],
        "perms.coset_reps_yielded": tracer.yielded["perms.min_coset_reps"],
        "perms.matched_splits_yielded": tracer.yielded["perms.matched_shuffle_splits"],
        "dims.graded_dim_calls": tracer.count("dims.graded_dim"),
        "dims.dim_calls": tracer.count("dims.dim"),
        "dims.recursive_calls": tracer.count("dims.graded_dim_recursive"),
        "dims.nonzero_ratio": _ratio(sum(tracer.nonzero.values()), dims_calls),
        # Every levelred.reduce_pair_* call, including the nested one that
        # reduce_pair_dim makes to reduce_pair_dim_multi.
        "levelred.pair_calls": sum(
            n for (f, _), n in tracer.calls.items() if f.startswith("levelred.reduce_pair")
        ),
        "levelred.block_calls": tracer.count("levelred.reduce_block_dim"),
        "levelred.inner_dim_calls": tracer.layer_calls("dims", via="levelred"),
        "idempotents.calls": tracer.layer_calls("idempotents"),
        "basis.calls": tracer.layer_calls("basis"),
        "cli.requests": tracer.count("cli.run"),
        "cli.output_bytes": sum(
            len(r.answer.encode()) for r in results if isinstance(r.answer, str)
        ),
        "verify.checked": sum(r.ops for r in results if isinstance(r.answer, dict)),
        "budget.checks": sum(checks.values()),
        "budget.checks.other": sum(n for label, n in checks.items() if label not in BUDGET_LABELS),
    }
    for label in BUDGET_LABELS:
        m[label_metric(label)] = checks.get(label, 0)
    for suite in ("oracle", "divided", "basis", "levelred"):
        m[f"verify.{suite}_s"] = tracer.inclusive_time(f"verify.verify_{suite}")
    for layer in ("qpoly", "perms", "dims", "levelred", "idempotents", "basis", "cli", "budget"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import klrdim
    import workloads

    source = Path(klrdim.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        print(f"klrdim imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    calls = workloads.prepare(args.workload, workloads.make_inputs(args.workload, args.seed))
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0

    tracer = None
    if args.trace:
        from tracer import KIND_NAMES, Tracer

        quantum_int = klrdim.qpoly.quantum_int
        cache_before = quantum_int.cache_info()
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at
    results, timed_s = workloads.run_pass(calls, tracer)
    if tracer is not None:
        tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": [
            [r.key, None if r.error else workloads.answer_hash(r.answer), r.latency_ms, r.error]
            for r in results
        ],
    }
    if tracer is not None:
        out["layer"] = layer_metrics(tracer, results, cache_before, quantum_int.cache_info())
        out["spans"] = len(tracer.span_start)
        out["span_cost_ns"] = {
            kind: {"inner": inner * 1e9, "outer": outer * 1e9}
            for kind, inner, outer in zip(KIND_NAMES, tracer.inner_cost, tracer.outer_cost)
        }
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
