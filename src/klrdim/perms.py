"""Symmetric-group combinatorics on one-line tuples.

A permutation w of {1..n} is a tuple ``(w(1), ..., w(n))`` of the values
1..n; positions are 1-based throughout to match the usual conventions for
inversion statistics.  The left action on index tuples permutes places:
``(w*nu)_k = nu_{w^-1(k)}``.

Everything here is a pure function over immutable tuples, and each one has
a library caller.  Enumerations are lazy generators in lexicographic
one-line order, and transport sets are built as products of per-letter
matchings -- their size is the product of letter-multiplicity factorials,
never n!.  The dimension sums in :mod:`klrdim.dims` enumerate no
permutations: they walk the sets of target slots taken, which the matchings
sharing a prefix's slots merge into; the divided-power sum walks such sets
too, with the slots held ascending inside each run of equal letters.
:func:`transport_perms` enumerates the matchings whole, for the basis
machinery, by a slot walk that fills the slots in turn from the choices
it is offered, in a loop over an explicit stack, so no recursion grows
with the length of a tuple.  :class:`BlockForm` groups a tuple by letter
for the monomial bases, and :func:`sorting_perm` is the shortest
permutation that groups it, which ``klrdim tilde`` prints.

>>> list(transport_perms((0, 0), (0, 0)))
[(1, 2), (2, 1)]
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import IncompatibleContent, LengthMismatch, NotBlockForm

Perm = tuple[int, ...]
IndexTuple = tuple[int, ...]


# ---------------------------------------------------------------------------
# The slot walk and transport sets
# ---------------------------------------------------------------------------


def _slot_walk(n: int, choices: Callable) -> Iterator[Perm]:
    """Every w whose slot k + 1 takes, for k = 0..n-1 in turn, one of the
    0-based target slots listed by ``choices(k, w, taken)``, lazily, in the
    order of those lists.

    ``w`` is the list of the values chosen so far (0 from index k on) and
    ``taken`` the list of flags of the target slots they hold; ``choices``
    is asked once per prefix.  The walk is a loop over an explicit stack of
    choice lists, so no recursion grows with n.
    """
    if n == 0:
        yield ()
        return
    taken, w = [False] * n, [0] * n
    stack = [iter(choices(0, w, taken))]
    while stack:
        k = len(stack) - 1
        if w[k]:
            taken[w[k] - 1] = False
        p = next(stack[-1], None)
        if p is None:
            w[k] = 0
            stack.pop()
        else:
            taken[p], w[k] = True, p + 1
            if k + 1 < n:
                stack.append(iter(choices(k + 1, w, taken)))
            else:
                yield tuple(w)


def transport_perms(nu: Sequence[int], nuprime: Sequence[int]) -> Iterator[Perm]:
    """All w with w*nu = nuprime, lazily, in lexicographic one-line order.

    w must carry each slot of nu holding letter x onto a slot of nuprime
    holding x, so the stream is the product of per-letter matchings; it is
    empty exactly when the two letter multisets differ.  The slot walk
    offers slot k every free slot of nuprime holding nu_k.
    """
    nu = tuple(nu)
    nuprime = tuple(nuprime)
    if len(nu) != len(nuprime):
        raise LengthMismatch("tuples must have the same length")
    if sorted(nu) != sorted(nuprime):
        return
    slots: dict[int, list[int]] = {}
    for p, x in enumerate(nuprime):
        slots.setdefault(x, []).append(p)
    yield from _slot_walk(len(nu), lambda k, w, taken: [p for p in slots[nu[k]] if not taken[p]])


# ---------------------------------------------------------------------------
# Blocks of repeated letters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockForm:
    """A tuple grouped into blocks of repeated letters that are pairwise
    distinct across *all* blocks (stricter than runs of equal adjacent
    letters, which may repeat a letter non-adjacently); the grouping the
    basis machinery needs."""

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
    counts = Counter(mu)
    if letters is None:
        order = tuple(counts)
    else:
        order = tuple(map(int, letters))
        if sorted(order) != sorted(counts):
            raise IncompatibleContent(
                "letter order must list each distinct letter exactly once"
            )
    sizes = tuple(map(counts.__getitem__, order))
    grouped = tuple(x for x, size in zip(order, sizes) for _ in range(size))
    return BlockForm(grouped, order, sizes)


def as_block_form(nu: Sequence[int]) -> BlockForm:
    """View an already-grouped tuple as a :class:`BlockForm`.

    Raises :class:`NotBlockForm` when some letter recurs in a later run.
    """
    nu = tuple(nu)
    form = block_form_of(nu)
    if form.tuple != nu:
        raise NotBlockForm(f"letters repeat across blocks in {nu}")
    return form


def sorting_perm(mu: Sequence[int], form: BlockForm) -> Perm:
    """The minimal-length w with w*mu equal to the grouped tuple.

    Maps the ascending slots of each letter in mu onto the ascending slots
    of that letter's block, which is exactly the minimal-length right coset
    representative of the block Young subgroup carrying mu to the grouped
    form.  Raises :class:`IncompatibleContent` when mu and the grouped form
    differ in content, which their sorted letters show.
    """
    mu = tuple(mu)
    if sorted(mu) != sorted(form.tuple):
        raise IncompatibleContent("tuple content differs from the grouped form")
    c = form.cumulative
    next_slot = {x: c[i] + 1 for i, x in enumerate(form.letters)}
    w = [0] * len(mu)
    for pos, x in enumerate(mu):
        w[pos] = next_slot[x]
        next_slot[x] += 1
    return tuple(w)
