"""Level reduction: higher-level dimensions from lower-level ones.

Splitting the weight as Lambda = Lambda^1 + ... + Lambda^l turns each
ungraded dimension into a shuffle-indexed sum of products of dimensions at
the parts: pairwise over content-matched shuffle splits, blockwise with a
multinomial-squared weight over decompositions of the block.  An l-part
shuffle split is a two-part split followed by an (l-1)-part split of the
remainder, so the pair sum peels off one weight part at a time and reduces
the remainders over the rest, never evaluating a dimension at a sum of
parts.  Each word is dealt once per (part, sum of the later parts), in
one forward pass over its letters that deals only pieces that can be
nonzero: in the closed formula the first slot factor of a piece a at a
part Lambda^i is <Lambda^i, h_{a_1}> for every permutation, so a piece
whose first letter pairs to zero with its part has dimension 0, and
dealing stops there.  This rests on the formula,
not on the reduction identity the sums are checked against.  The graded
analogue genuinely fails (see the tests), which is why everything here is
integer-valued.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import factorial
from typing import Callable, Iterator, Sequence

from . import budget
from .budget import Deadline
from .cartan import CartanData, RootElement, Weight
from .dims import _compositions, block_dim, dim, graded_dim
from .errors import BadShape, LengthMismatch, PreconditionFail
from .qpoly import LaurentPoly


def _kept(
    word: tuple[int, ...], head: Weight, tail_sum: tuple[int, ...], where: str,
    deadline: Deadline | None, cache: dict,
) -> dict:
    """Deal the letters of ``word``, in order, into a first subword and the
    rest in every way that can add to the sum: {content of the first
    subword: [(first, rest, number of position splits giving them)]}.

    A letter may open the first subword only where ``head`` is positive,
    and open the rest only where ``tail_sum``, the sum of the later weight
    parts, is positive.  A dealing that fails at the letter opening one of
    its sides has no kept extension, so the pruned deal equals dealing in
    every way and then filtering.  Kept in ``cache`` on the head weight,
    the tail sum and the word, and written there only once complete.
    """
    key = ("kept", head.coeffs, tail_sum, word)
    hit = cache.get(key)
    if hit is not None:
        return hit
    counts = {((), ()): 1}
    for x in word:
        grown: dict = {}
        opens_first, opens_rest = head.coeffs[x] > 0, tail_sum[x] > 0
        for (first, rest), k in counts.items():
            budget.check(deadline, where)
            if first or opens_first:
                dealt = (first + (x,), rest)
                grown[dealt] = grown.get(dealt, 0) + k
            if rest or opens_rest:
                dealt = (first, rest + (x,))
                grown[dealt] = grown.get(dealt, 0) + k
        counts = grown
    kept: dict = {}
    for (first, rest), k in counts.items():
        kept.setdefault(tuple(sorted(first)), []).append((first, rest, k))
    cache[key] = kept
    return kept


def _peel(
    parts: Sequence[Weight],
    nu: tuple[int, ...],
    mu: tuple[int, ...],
    part_dim: Callable,
    zero: int | LaurentPoly,
    where: str,
    deadline: Deadline | None,
    cache: dict,
) -> int | LaurentPoly:
    """The level-reduction sum of (nu, mu) over the weight parts.

    An l-part shuffle split is a two-part split followed by an (l-1)-part
    split of the remainder.  So part 1's subwords are dealt off both words,
    the sides of equal content are paired, and each pair's ``part_dim`` at
    parts[0] multiplies the same sum for the remainders over parts[1:],
    weighted by how many split pairs give the subwords.  That remainder sum
    is memoized in ``cache`` on the tail weights and the two remainders:
    it depends on each later part, not only on their sum.

    Each word is dealt once, by :func:`_kept`, which prunes while it deals
    and memoizes on (parts[0], the tail sum, word).  A first subword
    starting with a letter where parts[0] is zero has first slot factor 0
    for every permutation, so its dimension is 0.  The parts are dominant,
    so a letter where parts[1:] sum to zero is zero in each of them, and
    whichever later piece the remainder's first letter starts has
    dimension 0.  Both hold for every ``part_dim`` here: a graded dimension
    is zero when its ungraded one is.
    """
    if len(parts) == 1:
        return part_dim(parts[0], nu, mu)
    head, tail = parts[0], parts[1:]
    tail_key = tuple(part.coeffs for part in tail)

    def rest_sum(rest_nu: tuple[int, ...], rest_mu: tuple[int, ...]):
        if len(tail) == 1:
            return part_dim(tail[0], rest_nu, rest_mu)
        key = ("peel", tail_key, rest_nu, rest_mu)
        hit = cache.get(key)
        if hit is None:
            hit = _peel(tail, rest_nu, rest_mu, part_dim, zero, where, deadline, cache)
            cache[key] = hit
        return hit

    total = zero
    if sorted(nu) != sorted(mu):
        return total
    tail_sum = tuple(map(sum, zip(*tail_key)))
    mu_side = _kept(mu, head, tail_sum, where, deadline, cache)
    for content, nu_entries in _kept(nu, head, tail_sum, where, deadline, cache).items():
        for first_mu, rest_mu, k_mu in mu_side.get(content, ()):
            for first_nu, rest_nu, k_nu in nu_entries:
                budget.check(deadline, where)
                term = part_dim(head, first_nu, first_mu)
                if term != 0:
                    total = total + (k_nu * k_mu) * term * rest_sum(rest_nu, rest_mu)
    return total


def _check_split(c: CartanData, lam: Weight, split: Sequence[Weight], cache: dict) -> None:
    """Validate the split once per ``cache``: a passing verdict is kept.

    The part dimensions in ``cache`` are keyed without the Cartan data, so
    the cache records the Cartan data it was first filled for and refuses
    any other.
    """
    filled_for = cache.setdefault("filled for", c)
    if filled_for is not c and filled_for != c:
        raise PreconditionFail("this cache was filled for other Cartan data")
    key = ("split", lam.coeffs, tuple(part.coeffs for part in split))
    if key in cache:
        return
    if not split:
        raise PreconditionFail("need at least one weight part")
    if len({len(part.coeffs) for part in split}) > 1:
        raise BadShape("weights live over different node sets")
    if tuple(map(sum, zip(*(part.coeffs for part in split)))) != lam.coeffs:
        raise PreconditionFail("weight parts must sum to the target weight")
    if any(not part.is_dominant for part in split):
        raise PreconditionFail("every weight part must be dominant")
    cache[key] = True


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
    of products of the part dimensions, for any number l >= 1 of parts.

    The sum peels off one weight part at a time: each pair of part-1
    subwords multiplies the same sum for the remainders over the other
    parts.  Each summand depends only on the subwords, so the sum runs over
    distinct subword pairs weighted by their split counts.  It deals only
    subwords whose first letter is positive in their part and remainders
    whose first letter is positive in the sum of the later parts: every
    other pair has a zero dimension factor.  Inner dimensions repeat
    massively across pairs, so they are memoized on (part weight,
    sub-source, sub-target), the remainder sums on (tail weights,
    remainders), and the dealt subwords in one memo on (part weight, tail
    sum, word); pass an external ``cache`` dict to share them across calls
    with the same Cartan data.  A cache passed with other Cartan data than
    it was filled for raises :class:`PreconditionFail`.
    """
    if cache is None:
        cache = {}
    _check_split(c, lam, split, cache)
    nu = tuple(nu)
    mu = tuple(mu)
    if len(nu) != len(mu):
        raise LengthMismatch("tuples must have the same length")

    def part_dim(part: Weight, sub_nu: tuple[int, ...], sub_mu: tuple[int, ...]) -> int:
        key = (part.coeffs, sub_nu, sub_mu)
        hit = cache.get(key)
        if hit is None:
            hit = dim(c, part, sub_nu, sub_mu, deadline=deadline)
            cache[key] = hit
        return hit

    return _peel(split, nu, mu, part_dim, 0, "level reduction sum", deadline, cache)


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
    cache: dict = {}
    _check_split(c, lam, split, cache)
    nu = tuple(nu)
    mu = tuple(mu)
    if len(nu) != len(mu):
        raise LengthMismatch("tuples must have the same length")

    def part_dim(part: Weight, sub_nu: tuple[int, ...], sub_mu: tuple[int, ...]) -> LaurentPoly:
        return graded_dim(c, part, sub_nu, sub_mu, deadline=deadline)

    return _peel(
        split, nu, mu, part_dim, LaurentPoly.zero(), "graded level reduction sum",
        deadline, cache,
    )


def _splits(coeffs: Sequence[int], parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every way to write each entry of coeffs as an ordered sum of ``parts``
    non-negative integers, as one coefficient tuple per part.  The first
    entry's composition varies slowest; each composition is lexicographic."""
    for choice in iproduct(*(list(_compositions(m, parts)) for m in coeffs)):
        yield tuple(tuple(col[slot] for col in choice) for slot in range(parts))


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
    decompositions of beta.  ``cache`` as in :func:`reduce_pair_dim_multi`;
    it also keeps each (beta, l)'s decompositions, as coefficient tuples
    with their weights."""
    if cache is None:
        cache = {}
    _check_split(c, lam, split, cache)
    l = len(split)

    def inner(i: int, part: tuple[int, ...]) -> int:
        key = ("block", split[i].coeffs, part)
        hit = cache.get(key)
        if hit is None:
            hit = block_dim(c, split[i], RootElement(part), deadline=deadline)
            cache[key] = hit
        return hit

    key = ("decompositions", beta.coeffs, l)
    decompositions = cache.get(key)
    if decompositions is None:
        decompositions = []
        for parts in _splits(beta.coeffs, l):
            weight = factorial(beta.size)
            for part in parts:
                weight //= factorial(sum(part))
            decompositions.append((parts, weight * weight))
        cache[key] = decompositions
    total = 0
    for parts, weight in decompositions:
        budget.check(deadline, "block level reduction")
        term = weight
        for i in range(l):
            term *= inner(i, parts[i])
            if term == 0:
                break
        total += term
    return total


def dominant_splits(lam: Weight, parts: int) -> Iterator[tuple[Weight, ...]]:
    """All ordered ways to write lam as a sum of ``parts`` dominant weights."""
    if not lam.is_dominant:
        raise PreconditionFail("can only split a dominant weight")
    for split in _splits(lam.coeffs, parts):
        yield tuple(Weight(col) for col in split)
