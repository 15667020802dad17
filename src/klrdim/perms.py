"""Symmetric-group combinatorics on one-line tuples.

A permutation w of {1..n} is a tuple ``(w(1), ..., w(n))`` of the values
1..n; positions are 1-based throughout to match the usual conventions for
inversion statistics.  The left action on index tuples permutes places:
``(w*nu)_k = nu_{w^-1(k)}``.

Everything here is a pure function over immutable tuples.  Enumerations are
lazy generators in lexicographic one-line order, and transport sets are
built as products of per-letter matchings -- their size is the product of
letter-multiplicity factorials, never n!.  The dimension sums in
:mod:`klrdim.dims` enumerate no permutations: they walk the sets of target
slots taken, which the matchings sharing a prefix's slots merge into;
:func:`transport_perms` enumerates the matchings whole, for the basis
machinery and the cross-checks.  The minimal coset
representatives of :func:`min_coset_reps` are the same slot-by-slot walk,
held ascending inside each run block.

>>> list(transport_perms((0, 0), (0, 0)))
[(1, 2), (2, 1)]
>>> coinversion_code((2, 1, 3))
(0, 0, 2)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import IncompatibleContent, LengthMismatch, NotBlockForm, OutOfRange

Perm = tuple[int, ...]
IndexTuple = tuple[int, ...]


def compose(w: Perm, u: Perm) -> Perm:
    """Function composition (w o u)(k) = w(u(k))."""
    return tuple(w[u[k] - 1] for k in range(len(u)))


def act_right(nu: Sequence[int], w: Perm) -> IndexTuple:
    """Right action (nu * w)_k = nu_{w(k)}; inverse of the left action."""
    return tuple(nu[w[k] - 1] for k in range(len(w)))


def simple_transposition(n: int, a: int) -> Perm:
    """The adjacent swap of a and a+1 inside the symmetric group on n."""
    w = list(range(1, n + 1))
    w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


# ---------------------------------------------------------------------------
# Inversion statistics and the coinversion code
# ---------------------------------------------------------------------------


def coinversion_code(w: Perm) -> tuple[int, ...]:
    """Per-position counts of earlier smaller values; entry t lies in 0..t-1."""
    out = []
    for t in range(1, len(w) + 1):
        wt = w[t - 1]
        out.append(sum(1 for j in range(t - 1) if w[j] < wt))
    return tuple(out)


def from_coinversion_code(code: Sequence[int]) -> Perm:
    """Invert :func:`coinversion_code` by right-to-left decoding.

    Entry t of the code is the rank (minus one) of w(t) among the first t
    values, so peeling positions from the right picks the (code_t+1)-th
    smallest unused value each time.
    """
    n = len(code)
    for t, k in enumerate(code, start=1):
        if not 0 <= k < t:
            raise OutOfRange(f"code entry {k} at position {t} not in 0..{t - 1}")
    remaining = list(range(1, n + 1))
    out = [0] * n
    for t in range(n, 0, -1):
        out[t - 1] = remaining.pop(code[t - 1])
    return tuple(out)


# ---------------------------------------------------------------------------
# Transport sets
# ---------------------------------------------------------------------------


def transport_perms(nu: Sequence[int], nuprime: Sequence[int]) -> Iterator[Perm]:
    """All w with w*nu = nuprime, lazily, in lexicographic one-line order.

    w must carry each slot of nu holding letter x onto a slot of nuprime
    holding x, so the stream is the product of per-letter matchings; it is
    empty exactly when the two letter multisets differ.
    """
    nu = tuple(nu)
    nuprime = tuple(nuprime)
    if len(nu) != len(nuprime):
        raise LengthMismatch("tuples must have the same length")
    if Counter(nu) != Counter(nuprime):
        return
    positions: dict[int, list[int]] = {}
    for pos, x in enumerate(nuprime, start=1):
        positions.setdefault(x, []).append(pos)
    used = {x: [False] * len(ps) for x, ps in positions.items()}
    n = len(nu)
    w = [0] * n

    def rec(k: int) -> Iterator[Perm]:
        if k == n:
            yield tuple(w)
            return
        x = nu[k]
        ps = positions[x]
        flags = used[x]
        for idx, q in enumerate(ps):
            if flags[idx]:
                continue
            flags[idx] = True
            w[k] = q
            yield from rec(k + 1)
            flags[idx] = False

    yield from rec(0)


# ---------------------------------------------------------------------------
# Blocks of repeated letters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockStructure:
    """Sizes of a tuple's maximal runs plus their cumulative boundaries
    ``(c_0=0, c_1, ..., c_p=n)``; run letters may repeat non-adjacently."""

    sizes: tuple[int, ...]
    letters: tuple[int, ...]

    @property
    def cumulative(self) -> tuple[int, ...]:
        out = [0]
        for b in self.sizes:
            out.append(out[-1] + b)
        return tuple(out)

    @property
    def count(self) -> int:
        return len(self.sizes)


def run_blocks(nu: Sequence[int]) -> BlockStructure:
    """Group a tuple into maximal runs of equal adjacent letters."""
    sizes: list[int] = []
    letters: list[int] = []
    for x in nu:
        if letters and letters[-1] == x:
            sizes[-1] += 1
        else:
            letters.append(x)
            sizes.append(1)
    return BlockStructure(tuple(sizes), tuple(letters))


@dataclass(frozen=True)
class BlockForm:
    """A tuple grouped into blocks of repeated letters that are pairwise
    distinct across *all* blocks (the stricter grouping the basis machinery
    needs, as opposed to :func:`run_blocks` which only separates adjacent
    runs)."""

    tuple: IndexTuple
    letters: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def cumulative(self) -> tuple[int, ...]:
        out = [0]
        for b in self.sizes:
            out.append(out[-1] + b)
        return tuple(out)

    @property
    def count(self) -> int:
        return len(self.sizes)


def block_form_of(mu: Sequence[int], letters: Sequence[int] | None = None) -> BlockForm:
    """The grouped form of mu: each distinct letter repeated by multiplicity.

    Letters appear in first-occurrence order unless an explicit order is
    given (it must list exactly the distinct letters of mu).
    """
    mu = tuple(mu)
    cnt = Counter(mu)
    if letters is None:
        order = list(dict.fromkeys(mu))
    else:
        order = [int(x) for x in letters]
        if Counter(order) != Counter(cnt.keys()):
            raise IncompatibleContent(
                "letter order must list each distinct letter exactly once"
            )
    sizes = tuple(cnt[x] for x in order)
    grouped = tuple(x for x in order for _ in range(cnt[x]))
    return BlockForm(grouped, tuple(order), sizes)


def as_block_form(nu: Sequence[int]) -> BlockForm:
    """View an already-grouped tuple as a :class:`BlockForm`.

    Raises :class:`NotBlockForm` when some letter recurs in a later run.
    """
    nu = tuple(nu)
    form = block_form_of(nu)
    if form.tuple != nu:
        raise NotBlockForm(f"letters repeat across blocks in {nu}")
    return form


def min_coset_reps(nu: Sequence[int]) -> Iterator[Perm]:
    """Stabilizer elements that ascend on each run block of nu, lazily, in
    lexicographic one-line order.

    These are the minimal-length representatives of the left cosets of the
    run-block Young subgroup that meet the stabilizer {w : w*nu = nu}; the
    stabilizer factors uniquely as (these) * (Young subgroup).  Walks the
    slots of nu in turn, like the transport walk: slot k takes a free slot
    of its letter, above the one slot k-1 took when both lie in the same
    run block, and low enough to leave a free slot above it for every
    later slot of its block.  So every branch ends in a representative,
    and only the product of per-letter multinomials is ever touched (a
    single representative for a constant tuple), never the stabilizer.
    """
    nu = tuple(nu)
    n = len(nu)
    taken = [False] * n
    w = [0] * n

    def walk(k: int) -> Iterator[Perm]:
        if k == n:
            yield tuple(w)
            return
        x = nu[k]
        lo = w[k - 1] if k and nu[k - 1] == x else 0
        free = [p for p in range(lo, n) if nu[p] == x and not taken[p]]
        # Without this cut, a run block of m equal letters enters 2^m dead branches.
        later = next((j for j in range(k + 1, n) if nu[j] != x), n) - k - 1
        for p in free[: len(free) - later]:
            taken[p] = True
            w[k] = p + 1
            yield from walk(k + 1)
            taken[p] = False

    yield from walk(0)


def sorting_perm(mu: Sequence[int], form: BlockForm) -> Perm:
    """The minimal-length w with w*mu equal to the grouped tuple.

    Maps the ascending slots of each letter in mu onto the ascending slots
    of that letter's block, which is exactly the minimal-length right coset
    representative of the block Young subgroup carrying mu to the grouped
    form.
    """
    mu = tuple(mu)
    if Counter(mu) != Counter(form.tuple):
        raise IncompatibleContent("tuple content differs from the grouped form")
    c = form.cumulative
    next_slot = {x: c[i] + 1 for i, x in enumerate(form.letters)}
    w = [0] * len(mu)
    for pos, x in enumerate(mu):
        w[pos] = next_slot[x]
        next_slot[x] += 1
    return tuple(w)


# ---------------------------------------------------------------------------
# Shuffle splits
# ---------------------------------------------------------------------------

ShuffleSplit = tuple[tuple[int, ...], ...]


def shuffle_splits(n: int, parts: int) -> Iterator[ShuffleSplit]:
    """All ordered ways to split positions 1..n into ``parts`` ascending
    (possibly empty) subsequences; there are parts**n of them."""
    if parts < 1:
        raise ValueError("need at least one part")
    for assignment in product(range(parts), repeat=n):
        split: list[list[int]] = [[] for _ in range(parts)]
        for pos, part in enumerate(assignment, start=1):
            split[part].append(pos)
        yield tuple(tuple(p) for p in split)


def split_perm(w: Perm, split: ShuffleSplit) -> tuple[Perm, Perm, ShuffleSplit]:
    """Cut w along a two-part split of its domain.

    Returns the two rank permutations induced on the parts together with
    the image split (the sorted images of the parts); :func:`merge_perm`
    reassembles w from them.
    """
    s1, s2 = split
    out_perms = []
    images = []
    for part in (s1, s2):
        vals = [w[p - 1] for p in part]
        ranks = sorted(vals)
        pos_of = {v: r + 1 for r, v in enumerate(ranks)}
        out_perms.append(tuple(pos_of[v] for v in vals))
        images.append(tuple(ranks))
    return out_perms[0], out_perms[1], (images[0], images[1])


def merge_perm(w1: Perm, w2: Perm, split: ShuffleSplit, images: ShuffleSplit) -> Perm:
    """Reassemble the permutation cut by :func:`split_perm`:
    position split_i[m] maps to images_i[w_i(m)]."""
    n = sum(len(p) for p in split)
    w = [0] * n
    for wi, si, ti in ((w1, split[0], images[0]), (w2, split[1], images[1])):
        if len(si) != len(wi) or len(ti) != len(wi):
            raise LengthMismatch("split parts and permutations disagree")
        for m, pos in enumerate(si):
            w[pos - 1] = ti[wi[m] - 1]
    return tuple(w)
