"""The klrdim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh worker
process (``worker.py``), started one at a time: set-up, then one timed,
single-threaded, closed-loop pass over the seeded inputs.  Repetitions
continue until ``--seconds`` have passed (at least three, or one traced
and one untraced pair with ``--trace 1``).  In an untraced run, each
repetition is followed by SETUPS_PER_REP workers that only set up.  Every
answer is checked against ``pins.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the full report, which is also
written to ``perfbench/out/``.  The exit code is 1 when any answer is
wrong and 2 when the checkout holds no klrdim source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402
from worker import EXACT, PER_LAYER  # noqa: E402

MIN_REPS = 3
# A set-up takes a few tenths of a second, so one burst of machine noise
# moves it far more than a pass; its median needs more samples than the
# passes give.  They are spread over the run, as the machine's speed
# changes within it.
SETUPS_PER_REP = 2
# Start no repetition after RUN_LIMIT_S and kill a worker at RUN_DEADLINE_S,
# so that a run ends within 180 s.
RUN_LIMIT_S = 150
RUN_DEADLINE_S = 175

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms", "peak_rss_mb": "MB",
}


def percentile(samples: list[tuple[float, int]], q: float) -> tuple[float, int]:
    """Nearest-rank percentile over operations, from (latency per operation,
    operations) samples; also the number of operations beyond it."""
    total = sum(n for _, n in samples)
    rank = max(1, ceil(q / 100 * total))
    seen = 0
    for value, n in sorted(samples):
        seen += n
        if seen >= rank:
            return value, total - seen
    raise ValueError("no samples")


def spawn(workload: str, seed: int, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}.bin.gz")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["trace"] = trace
    return result


def check(reps: list[dict], pins: dict[str, str]) -> dict:
    """Compare every answer with its pin and count operations from the pins.

    A pin reads ``hash:ops``.  Each repetition's digest is the sha256 over
    its ``key:hash`` lines; the run is correct when every repetition's
    digest equals the one the pins give for the same inputs.
    """
    attempted = 0
    mismatches = []
    digests = set()
    pinned = hashlib.sha256()
    for key, *_ in reps[0]["calls"]:
        pinned.update(f"{key}:{pins.get(key, 'unpinned').partition(':')[0]}\n".encode())
    for rep in reps:
        digest = hashlib.sha256()
        rep["call_ops"] = []
        for key, got, _, error in rep["calls"]:
            pin_hash, _, pin_ops = pins.get(key, "unpinned:0").partition(":")
            rep["call_ops"].append(int(pin_ops))
            digest.update(f"{key}:{got}\n".encode())
            if got != pin_hash and len(mismatches) < 5:
                mismatches.append({"key": key, "pin": pin_hash, "got": got, "error": error})
        rep["ops"] = sum(rep["call_ops"])
        attempted += rep["ops"]
        digests.add(digest.hexdigest())
    correct = digests == {pinned.hexdigest()}
    return {
        "correct": correct,
        "attempted": attempted,
        # A run whose digest differs from the pinned one fails as a whole.
        "failed": 0 if correct else attempted,
        "digests": sorted(digests),
        "pinned_digest": pinned.hexdigest(),
        "mismatches": mismatches,
    }


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over the repetitions of an untraced run and its
    set-up times.

    An operation's latency is the time of the call that did it divided by
    the operations of that call (a pair_queries call is one operation);
    the percentiles are over the operations of every repetition.
    """
    samples = [
        (latency / ops, ops)
        for rep in reps
        for (_, _, latency, _), ops in zip(rep["calls"], rep["call_ops"])
        if ops
    ]
    p50, beyond50 = percentile(samples, 50)
    p95, beyond95 = percentile(samples, 95)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(r["ops"] / r["timed_s"] for r in reps),
        "op_p50_ms": p50,
        "op_p95_ms": p95,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    ops = sum(n for _, n in samples)
    counts = {
        "op_p50_ms": {"operations": ops, "calls": len(samples), "beyond": beyond50},
        "op_p95_ms": {"operations": ops, "calls": len(samples), "beyond": beyond95},
        "setup_s": {"samples": len(setups)},
        "ops_per_s": {"repetitions": len(reps)},
        "peak_rss_mb": {"repetitions": len(reps)},
    }
    return metrics, counts


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in reps if r["trace"]]
    untraced = [r for r in reps if not r["trace"]]
    first = traced[0]["layer"]
    problems = [
        f"{name} differs between traced passes"
        for name in EXACT
        for r in traced[1:]
        if r["layer"][name] != first[name]
    ]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = statistics.median(r["timed_s"] for r in traced) / statistics.median(
                r["timed_s"] for r in untraced
            )
        elif unit == "s":
            metrics[name] = statistics.median(r["layer"][name] for r in traced)
        else:
            metrics[name] = first[name]
    return metrics, problems


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "processes": 1,
        "threads": 1,
        "clients": 1,
        "loop": "closed",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one klrdim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "klrdim" / "__init__.py").is_file():
        print(f"no klrdim source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    reps: list[dict] = []
    setups: list[float] = []
    modes = (0, 1) if args.trace else (0,)
    min_reps = 2 if args.trace else MIN_REPS
    while True:
        for mode in modes:
            reps.append(spawn(args.workload, args.seed, mode, deadline))
        if not args.trace:
            setups.append(reps[-1]["setup_s"])
            for _ in range(SETUPS_PER_REP):
                setups.append(spawn(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"])
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and (elapsed >= args.seconds or elapsed > RUN_LIMIT_S):
            break

    verdict = check(reps, pins)
    samples = {}
    if args.trace:
        metrics, problems = per_layer(reps)
        units = {name: unit for name, unit, _ in PER_LAYER}
        if problems:
            verdict.update(correct=False, failed=verdict["attempted"])
            verdict["mismatches"] += problems
    else:
        metrics, samples = end_to_end(reps, setups)
        units = END_TO_END_UNITS

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "repetitions": [
            {k: r[k] for k in ("trace", "setup_s", "timed_s", "ops", "rss_mb", "spans", "span_cost_ns")
             if k in r}
            for r in reps
        ],
        "setup_samples": setups,
        "samples": samples,
        "fail_ratio": verdict["failed"] / verdict["attempted"] if verdict["attempted"] else 1.0,
        **verdict,
        "metrics": metrics,
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": max(1, verdict["attempted"]),
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
