"""Regenerate pins.json: the answer hash and operation count of every input
any seed can draw.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the root of a checkout whose answers are known to be right (the
library's own test suite passes).  Re-pinning is only needed when the
benchmark's input universe changes; a change to the library must keep
every pinned answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or workloads.WORKLOADS:
        calls = workloads.prepare(workload, workloads.universe(workload))
        results, seconds = workloads.run_pass(calls)
        errors = [r for r in results if r.error]
        if errors:
            print(f"{workload}: {len(errors)} calls failed, first: {errors[0].key}: {errors[0].error}")
            return 1
        pins[workload] = {r.key: f"{workloads.answer_hash(r.answer)}:{r.ops}" for r in results}
        print(f"{workload}: pinned {len(results)} answers in {seconds:.1f} s", flush=True)
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
