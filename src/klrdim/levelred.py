"""Level reduction: higher-level dimensions from lower-level ones.

Splitting the weight as Lambda = Lambda^1 + ... + Lambda^l turns each
ungraded dimension into a shuffle-indexed sum of products of dimensions at
the parts: pairwise over content-matched shuffle splits, blockwise with a
multinomial-squared weight over decompositions of the block.  The graded
analogue genuinely fails (see the tests), which is why everything here is
integer-valued.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import factorial
from typing import Iterator, Sequence

from . import budget
from .budget import Deadline
from .cartan import CartanData, RootElement, Weight
from .dims import block_dim, dim, graded_dim
from .errors import BadShape, LengthMismatch, PreconditionFail
from .qpoly import LaurentPoly


def _subwords(
    word: tuple[int, ...], l: int, where: str, deadline: Deadline | None, cache: dict
) -> dict:
    """Deal the letters of ``word``, in order, into ``l`` subwords in every
    way: {per-part content: [(subwords, number of position splits giving
    them)]}.  Kept in ``cache``, which is left untouched if the deadline
    fires partway through."""
    key = ("subwords", word, l)
    hit = cache.get(key)
    if hit is not None:
        return hit
    counts = {((),) * l: 1}
    for x in word:
        grown: dict = {}
        for parts, k in counts.items():
            budget.check(deadline, where)
            for i in range(l):
                dealt = parts[:i] + (parts[i] + (x,),) + parts[i + 1:]
                grown[dealt] = grown.get(dealt, 0) + k
        counts = grown
    by_content: dict = {}
    for parts, k in counts.items():
        by_content.setdefault(tuple(tuple(sorted(p)) for p in parts), []).append((parts, k))
    cache[key] = by_content
    return by_content


def _matched_subwords(
    nu: tuple[int, ...], mu: tuple[int, ...], l: int, where: str,
    deadline: Deadline | None, cache: dict,
) -> Iterator[tuple]:
    """(nu|s, mu|t, count) over the l-part shuffle splits (s, t) whose parts
    have equal content, grouped by subwords: ``count`` is how many split
    pairs give them.  Empty when the full contents already differ."""
    if len(nu) != len(mu):
        raise LengthMismatch("tuples must have the same length")
    if sorted(nu) != sorted(mu):
        return
    mu_side = _subwords(mu, l, where, deadline, cache)
    for content, nu_entries in _subwords(nu, l, where, deadline, cache).items():
        for sub_nu, k_nu in nu_entries:
            for sub_mu, k_mu in mu_side.get(content, ()):
                budget.check(deadline, where)
                yield sub_nu, sub_mu, k_nu * k_mu


def _check_split(lam: Weight, split: Sequence[Weight]) -> None:
    if not split:
        raise PreconditionFail("need at least one weight part")
    if len({len(part.coeffs) for part in split}) > 1:
        raise BadShape("weights live over different node sets")
    if tuple(map(sum, zip(*(part.coeffs for part in split)))) != lam.coeffs:
        raise PreconditionFail("weight parts must sum to the target weight")
    if any(not part.is_dominant for part in split):
        raise PreconditionFail("every weight part must be dominant")


def reduce_pair_dim_multi(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    mu: Sequence[int],
    split: Sequence[Weight],
    deadline: Deadline | None = None,
    cache: dict | None = None,
) -> int:
    """dim e(nu) R^Lambda e(mu) as a sum over l-part matched shuffle splits
    of products of the part dimensions.

    Each summand depends only on the subwords the split cuts out, so the
    sum runs over distinct subword pairs weighted by their split counts.
    Inner dimensions repeat massively across pairs, so they are memoized
    on (part weight, sub-source, sub-target), and the subword counts on
    (tuple, l); pass an external ``cache`` dict to share both across calls
    with the same Cartan data.
    """
    _check_split(lam, split)
    nu = tuple(nu)
    mu = tuple(mu)
    l = len(split)
    if cache is None:
        cache = {}

    def inner(i: int, sub_nu: tuple[int, ...], sub_mu: tuple[int, ...]) -> int:
        key = (split[i].coeffs, sub_nu, sub_mu)
        hit = cache.get(key)
        if hit is None:
            hit = dim(c, split[i], sub_nu, sub_mu, deadline=deadline)
            cache[key] = hit
        return hit

    total = 0
    for sub_nu, sub_mu, k in _matched_subwords(
        nu, mu, l, "level reduction sum", deadline, cache
    ):
        term = k
        for i in range(l):
            term *= inner(i, sub_nu[i], sub_mu[i])
            if term == 0:
                break
        total += term
    return total


def reduce_pair_dim(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    mu: Sequence[int],
    split: Sequence[Weight],
    deadline: Deadline | None = None,
) -> int:
    """Two-part level reduction of a pair dimension (the base case the
    multi-part version iterates)."""
    if len(split) != 2:
        raise PreconditionFail("pairwise reduction needs exactly two weight parts")
    return reduce_pair_dim_multi(c, lam, nu, mu, split, deadline=deadline)


def reduce_pair_graded(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    mu: Sequence[int],
    split: Sequence[Weight],
    deadline: Deadline | None = None,
) -> LaurentPoly:
    """The would-be graded analogue of :func:`reduce_pair_dim_multi`.

    This does NOT equal the graded dimension in general -- already one
    nilHecke strand at level two breaks it -- but computing it is how the
    failure is demonstrated.
    """
    _check_split(lam, split)
    nu = tuple(nu)
    mu = tuple(mu)
    l = len(split)
    total = LaurentPoly.zero()
    for sub_nu, sub_mu, k in _matched_subwords(
        nu, mu, l, "graded level reduction sum", deadline, {}
    ):
        term = LaurentPoly.one()
        for i in range(l):
            term = term * graded_dim(c, split[i], sub_nu[i], sub_mu[i], deadline=deadline)
            if term.is_zero():
                break
        total = total + term.scale(k)
    return total


def _splits(coeffs: Sequence[int], parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every way to write each entry of coeffs as an ordered sum of ``parts``
    non-negative integers, as one coefficient tuple per part.  The first
    entry's composition varies slowest; each composition is lexicographic."""

    def comps(m: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (m,)
            return
        for k in range(m + 1):
            for rest in comps(m - k, slots - 1):
                yield (k,) + rest

    for choice in iproduct(*(list(comps(m, parts)) for m in coeffs)):
        yield tuple(tuple(col[slot] for col in choice) for slot in range(parts))


def content_splits(
    beta: RootElement, parts: int
) -> Iterator[tuple[RootElement, ...]]:
    """All ordered decompositions beta = beta_1 + ... + beta_parts, as
    independent per-node compositions."""
    for split in _splits(beta.coeffs, parts):
        yield tuple(RootElement(col) for col in split)


def reduce_block_dim(
    c: CartanData,
    lam: Weight,
    beta: RootElement,
    split: Sequence[Weight],
    deadline: Deadline | None = None,
    cache: dict | None = None,
) -> int:
    """dim R^Lambda(beta) as the multinomial-squared weighted sum of
    products of block dimensions at the weight parts, over all ordered
    decompositions of beta.  ``cache`` as in :func:`reduce_pair_dim_multi`."""
    _check_split(lam, split)
    l = len(split)
    if cache is None:
        cache = {}

    def inner(i: int, part: RootElement) -> int:
        key = ("block", split[i].coeffs, part.coeffs)
        hit = cache.get(key)
        if hit is None:
            hit = block_dim(c, split[i], part, deadline=deadline)
            cache[key] = hit
        return hit

    total = 0
    for decomposition in content_splits(beta, l):
        budget.check(deadline, "block level reduction")
        weight = factorial(beta.size)
        term = 1
        for i in range(l):
            weight //= factorial(decomposition[i].size)
            term *= inner(i, decomposition[i])
            if term == 0:
                break
        if term:
            total += weight * weight * term
    return total


def reduce_algebra_dim(
    c: CartanData,
    lam: Weight,
    n: int,
    split: Sequence[Weight],
    deadline: Deadline | None = None,
    cache: dict | None = None,
) -> int:
    """dim R^Lambda(n) by level-reducing every block of size n and summing;
    equals :func:`klrdim.dims.algebra_dim`."""
    from .dims import blocks_of_size

    if cache is None:
        cache = {}
    return sum(
        reduce_block_dim(c, lam, beta, split, deadline=deadline, cache=cache)
        for beta in blocks_of_size(c, n)
    )


def dominant_splits(lam: Weight, parts: int) -> Iterator[tuple[Weight, ...]]:
    """All ordered ways to write lam as a sum of ``parts`` dominant weights."""
    if not lam.is_dominant:
        raise PreconditionFail("can only split a dominant weight")
    for split in _splits(lam.coeffs, parts):
        yield tuple(Weight(col) for col in split)
