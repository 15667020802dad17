"""Reference helpers that check the library from outside.

None of these runs on a production path.  Each restates a quantity the
library computes some other way -- the left action, Coxeter length, the
dimension factors F(w, nu, t) and F(1, nu, t) by their definitions (the
library reads its exponent bounds, block heads and walk shifts off running
pairings instead), the target-side dimension factor, the bar involution,
the blocks of an algebra summed one walk each, the divided-power sum over
listed coset representatives -- so that the tests can compare the two, or builds
what a test compares against: products of permutations, the right action
and adjacent swaps, run boundaries, the run-ascending coset
representatives, shuffle splits, the level-reduction
dealings dealt in full and then filtered, the first shuffle witness in
assignment order, quantum binomials by exact division, and Laurent
polynomials from (exponent, coefficient) pairs.
:func:`check_bounds_under_swap` checks a lemma on the exponent bounds.
Conventions are those of :mod:`klrdim.perms`: one-line tuples, 1-based
positions, ``(w*nu)_k = nu_{w^-1(k)}``.  :func:`shallow_stack` lowers the
recursion limit for tests of deep inputs, and :class:`Recording` counts a
computation's deadline checks per label.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate, groupby, product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from klrdim.basis import exponent_bounds
from klrdim.budget import Deadline
from klrdim.cartan import CartanData, RootElement, Weight
from klrdim.dims import block_graded_dim, blocks_of_size, dim
from klrdim.errors import LengthMismatch, OutOfRange, PreconditionFail
from klrdim.perms import BlockForm, IndexTuple, Perm, _slot_walk, sorting_perm
from klrdim.qpoly import LaurentPoly, divide_exact, quantum_factorial


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(w: Perm, u: Perm) -> Perm:
    """Function composition (w o u)(k) = w(u(k))."""
    return tuple(w[u[k] - 1] for k in range(len(u)))


def perm_length(w: Perm) -> int:
    """Coxeter length = number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def act_on_tuple(w: Perm, nu: Sequence[int]) -> IndexTuple:
    """Left places action: entry nu_j moves to slot w(j)."""
    out = [0] * len(nu)
    for j, target in enumerate(w):
        out[target - 1] = nu[j]
    return tuple(out)


def act_right(nu: Sequence[int], w: Perm) -> IndexTuple:
    """Right action (nu * w)_k = nu_{w(k)}; inverse of the left action."""
    return tuple(nu[w[k] - 1] for k in range(len(w)))


def simple_transposition(n: int, a: int) -> Perm:
    """The adjacent swap of a and a+1 inside the symmetric group on n."""
    w = list(range(1, n + 1))
    w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def smaller_before(w: Perm, t: int) -> frozenset[int]:
    """Positions j < t whose value lies below w(t): {j < t | w(j) < w(t)}."""
    wt = w[t - 1]
    return frozenset(j for j in range(1, t) if w[j - 1] < wt)


def transport_count(nu: Sequence[int], nuprime: Sequence[int]) -> int:
    """|{w : w*nu = nuprime}| = product of multiplicity factorials, or 0."""
    if len(nu) != len(nuprime):
        raise LengthMismatch("tuples must have the same length")
    cnt = Counter(nu)
    if cnt != Counter(nuprime):
        return 0
    out = 1
    for m in cnt.values():
        out *= factorial(m)
    return out


def run_bounds(nu: Sequence[int]) -> tuple[int, ...]:
    """Boundaries (0, c_1, ..., n) of the maximal runs of equal adjacent
    letters of nu; a letter may recur in a later run."""
    return tuple(accumulate((len(list(run)) for _, run in groupby(nu)), initial=0))


def min_coset_reps(nu: Sequence[int]) -> Iterator[Perm]:
    """Stabilizer elements that ascend on each run block of nu, lazily, in
    lexicographic one-line order.

    These are the minimal-length representatives of the left cosets of the
    run-block Young subgroup that meet the stabilizer {w : w*nu = nu}; the
    stabilizer factors uniquely as (these) * (Young subgroup).  The slot
    walk of :func:`~klrdim.perms.transport_perms`, with nu as its own
    target and one more rule: slot k takes a free slot of its letter above
    the one slot k-1 took when both lie in the same run block, and low
    enough to leave a free slot above it for every later slot of its block.
    So every branch ends in a representative, and only the product of
    per-letter multinomials is ever touched (a single representative for a
    constant tuple), never the stabilizer.
    """
    nu = tuple(nu)
    n = len(nu)

    def choices(k: int, w: list[int], taken: list[bool]) -> list[int]:
        x = nu[k]
        lo = w[k - 1] if k and nu[k - 1] == x else 0
        free = [p for p in range(lo, n) if nu[p] == x and not taken[p]]
        # Without this cut, a run block of m equal letters enters 2^m dead branches.
        later = next((j for j in range(k + 1, n) if nu[j] != x), n) - k - 1
        return free[: len(free) - later]

    yield from _slot_walk(n, choices)


def dim_divided_by_reps(c: CartanData, lam: Weight, nu: Sequence[int]) -> int:
    """:func:`klrdim.dims.dim_divided` as a sum over the listed
    representatives of :func:`min_coset_reps`: each one's product of
    :func:`dim_factor` raised by the position's offset inside
    its run, times the product of the run factorials."""
    nu = tuple(nu)
    sizes = [len(list(run)) for _, run in groupby(nu)]
    offsets = [k for b in sizes for k in range(b)]
    total = 0
    for w in min_coset_reps(nu):
        term = 1
        for t in range(1, len(nu) + 1):
            term *= dim_factor(c, lam, w, nu, t) + offsets[t - 1]
        total += term
    return prod(factorial(b) for b in sizes) * total


def shuffle_splits(n: int, parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ordered ways to split positions 1..n into ``parts`` ascending
    (possibly empty) subsequences; there are parts**n of them."""
    if parts < 1:
        raise ValueError("need at least one part")
    for assignment in product(range(parts), repeat=n):
        split: list[list[int]] = [[] for _ in range(parts)]
        for pos, part in enumerate(assignment, start=1):
            split[part].append(pos)
        yield tuple(tuple(p) for p in split)


def every_dealing(word: Sequence[int]) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Every way to deal ``word`` into a first subword and the rest, as
    {(first, rest): number of assignments giving them}, in order of first
    appearance over the assignments in ``product((0, 1), repeat=n)``
    order (0 sends a letter to the first subword)."""
    counts: dict = {}
    for assignment in product((0, 1), repeat=len(word)):
        first = tuple(x for x, side in zip(word, assignment) if side == 0)
        rest = tuple(x for x, side in zip(word, assignment) if side == 1)
        counts[first, rest] = counts.get((first, rest), 0) + 1
    return counts


def kept_dealings(
    dealings: dict, head: Sequence[int], tail_sum: Sequence[int]
) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...], int]]]:
    """The level-reduction dealings that can be nonzero, filtered from
    :func:`every_dealing`'s: a first subword that is empty or starts where
    ``head`` is positive, and a rest that is empty or starts where
    ``tail_sum`` is.  Grouped as {sorted first subword: [(first, rest,
    count)]}, each group in the order of ``dealings``."""
    kept: dict = {}
    for (first, rest), k in dealings.items():
        if (not first or head[first[0]] > 0) and (not rest or tail_sum[rest[0]] > 0):
            kept.setdefault(tuple(sorted(first)), []).append((first, rest, k))
    return kept


def first_shuffle_witness(
    c: CartanData, nu: Sequence[int], fundamentals: Sequence[int]
) -> tuple[tuple[int, ...], ...] | None:
    """The shuffle witness of ``nu`` by brute force: the pieces of the first
    assignment of positions to fundamental weights, in
    ``product(range(l), repeat=n)`` order, whose every piece has a nonzero
    diagonal dimension at its level-one weight; None when none does."""
    nu = tuple(nu)
    alive: dict = {}
    for assignment in product(range(len(fundamentals)), repeat=len(nu)):
        pieces = tuple(
            tuple(x for x, i in zip(nu, assignment) if i == part)
            for part in range(len(fundamentals))
        )
        for key in zip(fundamentals, pieces):
            if key not in alive:
                t, piece = key
                alive[key] = dim(c, Weight.fundamental(c.n, t), piece, piece) != 0
        if all(alive[key] for key in zip(fundamentals, pieces)):
            return pieces
    return None


def block_of_slot(form: BlockForm, k: int) -> int:
    """0-based block index of ``form`` containing 1-based slot k."""
    c = form.cumulative
    for i in range(form.count):
        if c[i] < k <= c[i + 1]:
            return i
    raise OutOfRange(f"slot {k} outside 1..{c[-1]}")


def check_bounds_under_swap(
    c: CartanData,
    lam: Weight,
    mu: Sequence[int],
    form: BlockForm,
    a: int,
) -> bool:
    """Verify how exponent bounds transform under one adjacent swap.

    Requires the sorting permutation to descend at a (slots a, a+1 of mu
    out of block order); then swapping them leaves all other bounds fixed,
    shifts slot a's bound onto slot a+1, and slot a picks up the coroot
    pairing of the swapped letters.  Returns True when all three hold.
    """
    mu = tuple(mu)
    n = len(mu)
    if not 1 <= a < n:
        raise PreconditionFail(f"swap position {a} outside 1..{n - 1}")
    d = sorting_perm(mu, form)
    if d[a - 1] < d[a]:
        raise PreconditionFail("sorting permutation must descend at the swap")
    swapped = act_right(mu, simple_transposition(n, a))
    before = exponent_bounds(c, lam, mu, form)
    after = exponent_bounds(c, lam, swapped, form)
    pairing = c.matrix[mu[a - 1]][mu[a]]  # <alpha_{mu_{a+1}}, h_{mu_a}>
    for k in range(1, n + 1):
        if k == a:
            expect = after[a] + pairing
        elif k == a + 1:
            expect = after[a - 1]
        else:
            expect = after[k - 1]
        if before[k - 1] != expect:
            return False
    return True


def dim_factor(c: CartanData, lam: Weight, w: Perm, nu: Sequence[int], t: int) -> int:
    """F(w, nu, t), the integer factor at slot t of the dimension product
    for w, by its definition.

    Pairs Lambda minus the simple roots of the letters at positions j < t
    with w(j) < w(t) against the coroot of the letter at slot t.  May be
    zero or negative for individual w; only the full sum is a dimension.
    """
    i = nu[t - 1]
    row = c.matrix[i]
    val = lam.coeffs[i]
    wt = w[t - 1]
    for j in range(t - 1):
        if w[j] < wt:
            val -= row[nu[j]]
    return val


def dim_factor_id(c: CartanData, lam: Weight, nu: Sequence[int], t: int) -> int:
    """F(1, nu, t), :func:`dim_factor` at the identity: every position
    before t counts."""
    i = nu[t - 1]
    row = c.matrix[i]
    return lam.coeffs[i] - sum(row[nu[j]] for j in range(t - 1))


def dim_factor_target(
    c: CartanData,
    lam: Weight,
    w: Perm,
    nu: Sequence[int],
    nuprime: Sequence[int],
    t: int,
) -> int:
    """:func:`dim_factor` read off the target tuple instead of
    the source.

    Sums the letters of nu' at positions below w(t) that are hit by the
    first t-1 values of w; agrees with ``dim_factor`` whenever w*nu = nu'.
    """
    i = nu[t - 1]
    row = c.matrix[i]
    val = lam.coeffs[i]
    wt = w[t - 1]
    hit = set(w[:t - 1])
    for j in range(1, wt):
        if j in hit:
            val -= row[nuprime[j - 1]]
    return val


def bar(p: LaurentPoly) -> LaurentPoly:
    """The bar involution q -> q^-1 (negates every exponent)."""
    return LaurentPoly({-e: c for e, c in p.items()})


def quantum_binomial(m: int, n: int, d: int = 1) -> LaurentPoly:
    """The quantum binomial [m choose n] = [m]! / ([m-n]! [n]!).

    Computed by exact division of the factorial polynomials; a nonzero
    remainder would mean the arithmetic itself is broken.
    """
    if not 0 <= n <= m:
        raise ValueError("quantum binomial needs 0 <= n <= m")
    num = quantum_factorial(m, d)
    num = divide_exact(num, quantum_factorial(n, d))
    return divide_exact(num, quantum_factorial(m - n, d))


def algebra_by_blocks(
    c: CartanData, lam: Weight, n: int
) -> list[tuple[RootElement, LaurentPoly]]:
    """The blocks of R^Lambda(n) in :func:`~klrdim.dims.blocks_of_size`
    order, each with its graded dimension from a column walk of its own."""
    return [(beta, block_graded_dim(c, lam, beta)) for beta in blocks_of_size(c, n)]


def from_pairs(pairs: Iterable[tuple[int, int]]) -> LaurentPoly:
    """The Laurent polynomial of (exponent, coefficient) pairs, summing
    repeats."""
    t: dict[int, int] = {}
    for e, c in pairs:
        t[e] = t.get(e, 0) + c
    return LaurentPoly(t)


class Recording(Deadline):
    """A deadline that counts its checks per label in ``seen``."""

    def __init__(self, seconds):
        super().__init__(seconds)
        self.seen = Counter()

    def check(self, where="enumeration"):
        self.seen[where] += 1
        super().check(where)


@contextmanager
def shallow_stack(headroom=150):
    """Set the recursion limit ``headroom`` frames above the calling test."""
    depth, frame = 0, sys._getframe(2)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)
