"""Seeded inputs for the three benchmark workloads, and one pass over them.

Inputs are plain data (type names, weight coefficients, tuples, CLI argv
lists) made from the seed alone; :func:`prepare` turns them into calls on
the library and :func:`run_pass` times each call.  Every input is drawn
from a finite universe (:func:`universe`), so that ``pin.py`` can pin the
answer of each one in ``pins.json``; a run checks every answer it produces
against that table.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, lcm, prod
from time import perf_counter
from typing import Any, Callable

WORKLOADS = ("block_algebra", "pair_queries", "verify_sweep")

RANKS = {
    "A2": 2, "B2": 2, "C2": 2, "G2": 2, "A1~": 2, "A2^2": 2,
    "A3": 3, "C3": 3, "A2~": 3, "C2~": 3,
}

# block_algebra: every block of size n for each type, at weights of a fixed
# level.  The seed draws which weights; rank-2 types draw 3 of their 4
# level-3 weights and rank-3 types 7 of their 10, without repeats.
BLOCK_LEVEL = 3
BLOCK_SIZES = {
    "A2": 5, "B2": 5, "C2": 5, "G2": 5, "A1~": 5, "A2^2": 5,
    "A3": 4, "C3": 4, "A2~": 4, "C2~": 4,
}
BLOCK_DRAWS = {2: 3, 3: 7}

# pair_queries: a fixed pool of CLI requests; the seed samples QUERY_COUNT
# distinct ones in a random order.
QUERY_TYPES = ("A2", "B2", "C2", "G2", "A1~", "A3", "C3", "A2~")
QUERY_POOL_SIZE = 8192
QUERY_COUNT = 2000
QUERY_KINDS = ("gdim", "dim", "nonzero", "basis", "tilde")
QUERY_KIND_WEIGHTS = (3, 2, 3, 1, 1)

# verify_sweep: seven (Cartan, weight) slots, three builtin and four from a
# fixed, seeded pool of random symmetrizable 3x3 matrices.  Each slot fixes
# the weight's multiset of coefficients (so its level, 2 or 3); the seed
# draws how they sit on the nodes, and the order of the slots.
VERIFY_SLOTS = (
    ("A2", (2, 1)), ("A1~", (2, 1)), ("G2", (1, 1)),
    (0, (1, 1)), (1, (1, 1)), (2, (1, 1)), (3, (1, 1, 1)),
)
VERIFY_POOL_SIZE = 4
VERIFY_SUITES = ("oracle", "divided", "basis", "levelred")


def suite_cap(suite: str, rank: int) -> int:
    """Largest tuple size a suite sweeps: oracle to 5 (4 on rank 3),
    divided and basis to 4, level reduction to 3."""
    if suite == "oracle":
        return 5 if rank <= 2 else 4
    return 3 if suite == "levelred" else 4


def _rng(workload: str, seed: int | str) -> random.Random:
    return random.Random(f"klrdim-bench/{workload}/{seed}")


def dominant_weights(rank: int, level: int) -> list[tuple[int, ...]]:
    """All dominant weights of the given level, in lexicographic order."""
    return [w for w in product(range(level + 1), repeat=rank) if sum(w) == level]


def random_matrix(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A random symmetrizable 3x3 generalized Cartan matrix with an edge.

    The off-diagonal pairing on edge (i, j) is a multiple of
    lcm(d_i, d_j) for a random symmetrizer d, so the entries are integers
    and d symmetrizes the matrix by construction.
    """
    while True:
        d = [rng.choice([1, 2, 3]) for _ in range(3)]
        mat = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        for i in range(3):
            for j in range(i + 1, 3):
                k = rng.choice([0, 1, 1, 2])
                s = -k * lcm(d[i], d[j])
                mat[i][j] = s // d[i]
                mat[j][i] = s // d[j]
        if any(mat[i][j] for i in range(3) for j in range(3) if i != j):
            return tuple(tuple(row) for row in mat)


def verify_slots() -> list[tuple[str | tuple, list[tuple[int, ...]]]]:
    """Each verify slot's Cartan data and the weights the seed can give it:
    every arrangement of the slot's coefficients over the nodes."""
    rng = _rng("verify_sweep", "pool")
    pool = [random_matrix(rng) for _ in range(VERIFY_POOL_SIZE)]
    out = []
    for source, coeffs in VERIFY_SLOTS:
        cartan = source if isinstance(source, str) else pool[source]
        rank = RANKS[source] if isinstance(source, str) else 3
        padded = coeffs + (0,) * (rank - len(coeffs))
        out.append((cartan, sorted(set(permutations(padded)))))
    return out


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def is_block_form(nu) -> bool:
    """True when no letter of nu recurs after a run of other letters."""
    runs = [x for i, x in enumerate(nu) if i == 0 or nu[i - 1] != x]
    return len(runs) == len(set(runs))


def make_request(rng: random.Random) -> list[str]:
    """One CLI request whose expected exit code is 0."""
    name = rng.choice(QUERY_TYPES)
    rank = RANKS[name]
    lam = rng.choice(dominant_weights(rank, rng.randint(1, 3)))
    nu = [rng.randrange(rank) + 1 for _ in range(rng.randint(3, 7))]
    nuprime = rng.sample(nu, len(nu))
    kind = rng.choices(QUERY_KINDS, QUERY_KIND_WEIGHTS)[0]
    argv = [kind, "--cartan", name, "--weight", _csv(lam), "--format", "json"]
    if kind in ("gdim", "dim"):
        argv += ["--nu", _csv(nu), "--nuprime", _csv(nuprime)]
    elif kind == "nonzero":
        # 'blockwise' raises NotBlockForm (exit 1) unless nu is grouped.
        methods = ["direct", "divided", "shuffle"]
        if is_block_form(nu):
            methods.append("blockwise")
        argv += ["--nu", _csv(nu), "--method", rng.choice(methods)]
    else:
        argv += ["--mu", _csv(nu)]
    return argv


def query_pool() -> list[list[str]]:
    rng = _rng("pair_queries", "pool")
    return [make_request(rng) for _ in range(QUERY_POOL_SIZE)]


def make_inputs(workload: str, seed: int) -> list[tuple]:
    """The seeded inputs of one workload, as plain data."""
    rng = _rng(workload, seed)
    if workload == "block_algebra":
        out = []
        for name, n in BLOCK_SIZES.items():
            weights = dominant_weights(RANKS[name], BLOCK_LEVEL)
            for lam in rng.sample(weights, BLOCK_DRAWS[RANKS[name]]):
                out.append((name, lam, n))
        return out
    if workload == "pair_queries":
        pool = query_pool()
        return [(i, tuple(pool[i])) for i in rng.sample(range(QUERY_POOL_SIZE), QUERY_COUNT)]
    if workload == "verify_sweep":
        slots = verify_slots()
        return [(cartan, rng.choice(weights)) for cartan, weights in rng.sample(slots, len(slots))]
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str) -> list[tuple]:
    """Every input of a workload that some seed can draw."""
    if workload == "block_algebra":
        return [
            (name, lam, n)
            for name, n in BLOCK_SIZES.items()
            for lam in dominant_weights(RANKS[name], BLOCK_LEVEL)
        ]
    if workload == "pair_queries":
        return [(i, tuple(argv)) for i, argv in enumerate(query_pool())]
    if workload == "verify_sweep":
        return [(cartan, lam) for cartan, weights in verify_slots() for lam in weights]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Calls on the library
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One timed call into the library.

    ``key`` names the input in ``pins.json``; ``fn()`` returns the
    answer as JSON-ready data and the number of operations it did.
    """

    key: str
    fn: Callable[[], tuple[Any, int]]


def cartan_key(cartan) -> str:
    if isinstance(cartan, str):
        return cartan
    return "/".join(_csv(row) for row in cartan)


def _build_cartan(klrdim, cartan):
    if isinstance(cartan, str):
        return klrdim.builtin_cartan(cartan)
    return klrdim.validate_cartan(cartan)


def _block_call(dims, c, lam, beta) -> Callable[[], tuple[Any, int]]:
    pairs = (factorial(beta.size) // prod(factorial(k) for k in beta.coeffs)) ** 2

    def fn():
        graded = dims.block_graded_dim(c, lam, beta)
        ungraded = dims.block_dim(c, lam, beta)
        return [graded.to_pairs(), ungraded], pairs

    return fn


def _query_call(cli, argv) -> Callable[[], tuple[Any, int]]:
    argv = list(argv)

    def fn():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {buf.getvalue().strip()}")
        return buf.getvalue(), 1

    return fn


def _verify_call(verify, suite, c, lam, max_n) -> Callable[[], tuple[Any, int]]:
    def fn():
        # Looked up at call time, so that a tracer installed after set-up
        # sees the call.
        report = getattr(verify, f"verify_{suite}")(c, lam, max_n=max_n)
        if not report.ok:
            raise RuntimeError(f"verify report not ok: {report.failures[:1]}")
        # Not report.to_json(): a report may gain fields without any
        # answer changing.
        answer = {"suite": report.suite, "ok": report.ok,
                  "blocks": report.blocks, "checked": report.checked}
        return answer, report.checked

    return fn


def prepare(workload: str, inputs: list[tuple]) -> list[Call]:
    """Build the Cartan data and the list of calls for a pass.

    Imports the library, so it belongs to set-up; the calls it returns
    only run when :func:`run_pass` invokes them.
    """
    import klrdim
    from klrdim import cli, dims, verify

    calls = []
    if workload == "block_algebra":
        for name, lam_coeffs, n in inputs:
            c = klrdim.builtin_cartan(name)
            lam = klrdim.Weight(tuple(lam_coeffs))
            for beta in dims.blocks_of_size(c, n):
                key = f"{name}|{_csv(lam_coeffs)}|{_csv(beta.coeffs)}"
                calls.append(Call(key, _block_call(dims, c, lam, beta)))
    elif workload == "pair_queries":
        for index, argv in inputs:
            calls.append(Call(str(index), _query_call(cli, argv)))
    elif workload == "verify_sweep":
        for cartan, lam_coeffs in inputs:
            c = _build_cartan(klrdim, cartan)
            lam = klrdim.Weight(tuple(lam_coeffs))
            for suite in VERIFY_SUITES:
                max_n = suite_cap(suite, c.n)
                key = f"{cartan_key(cartan)}|{_csv(lam_coeffs)}|{suite}|{max_n}"
                calls.append(Call(key, _verify_call(verify, suite, c, lam, max_n)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def answer_hash(answer: Any) -> str:
    """First 16 hex digits of the sha256 of the answer's canonical JSON."""
    text = answer if isinstance(answer, str) else json.dumps(
        answer, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class CallResult:
    key: str
    answer: Any
    ops: int
    latency_ms: float
    error: str | None


def run_pass(calls: list[Call], tracer=None) -> tuple[list[CallResult], float]:
    """Run every call once, in order; returns the results and the wall time.

    A call that raises is recorded with its error and does not stop the
    pass.  With a tracer, each call's spans carry the call's index, and the
    tracer's calibration between calls is left out of the wall time.
    """
    results = []
    calibrating = 0.0
    start = perf_counter()
    for index, call in enumerate(calls):
        if tracer is not None:
            calibrating += tracer.next_op(index)
        t0 = perf_counter()
        try:
            answer, ops = call.fn()
        except Exception as exc:  # a failed operation is data, not a crash
            results.append(CallResult(call.key, None, 0, (perf_counter() - t0) * 1e3,
                                      f"{type(exc).__name__}: {exc}"))
            continue
        results.append(CallResult(call.key, answer, ops, (perf_counter() - t0) * 1e3, None))
    return results, perf_counter() - start - calibrating
