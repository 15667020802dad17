"""Level reduction: higher-level dimensions from lower-level ones.

Splitting the weight as Lambda = Lambda^1 + ... + Lambda^l turns each
ungraded dimension into a sum of products of dimensions at the parts:
pairwise over content-matched shuffle splits, blockwise with a
multinomial-squared weight over decompositions of the block.  Both sums
peel off the first part: the sum over Lambda^i, ..., Lambda^l is a sum,
over what Lambda^i takes, of its dimension at Lambda^i times the sum of
what is left over Lambda^{i+1}, ..., Lambda^l.  A pair peel deals a
subword off each word; a block peel takes a sub-block beta_1 <= beta with
weight C(|beta|, |beta_1|)^2, and these weights multiply out to the
multinomial squared.  Each sum is one forward pass over the parts and no
recursion, on states {remainder: coefficient}: each part but the last
adds each state's coefficient, times the weight and the dimension of
every nonzero piece it takes, into the state of the remainder that piece
leaves, and the last part's own dimension of each remainder closes the
sum.  So a dimension is never evaluated at a sum of parts.  A zero part
takes no peel: its only piece of nonzero dimension is the empty one, of
dimension 1, so it changes no sum.  The caller's cache keeps the split
verdicts, the dealings, the part dimensions (each part's on its own
weights) and every whole sum (on its nonzero parts in order).  Splits that
differ only by zero parts are one reduction, computed once; the same
parts in another order are another, since a key that forgot the order
would let one order's value hide a fault in the other's.

A pair peel deals each word once per (part, sum of the later parts), in
one forward pass over its letters that deals only pieces that can be
nonzero: in the closed formula the first slot factor of a piece a at a
part Lambda^i is <Lambda^i, h_{a_1}> for every permutation, so a piece
whose first letter pairs to zero with its part has dimension 0, and
dealing stops there.  This rests on the formula, not on the reduction
identity the sums are checked against.  The graded analogue of the pair
sum genuinely fails (see the tests); it is computed only to show that.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import comb
from operator import add, sub
from typing import Iterator, Sequence

from . import budget
from .budget import Deadline
from .cartan import CartanData, RootElement, Weight
from .dims import _checked, _compositions, block_dim, dim, graded_dim
from .errors import PreconditionFail
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


def _check_split(c: CartanData, lam: Weight, split: Sequence[Weight], cache: dict) -> tuple:
    """Validate the split once per ``cache`` and return (the coefficients of
    its nonzero parts in order, its peels): for each nonzero part, (the
    part, the sum of the later parts' weights).  The verdict is kept in
    ``cache`` on the weight and the parts, so a split passed as a list
    works as well as a tuple.

    A zero part leaves no peel.  Its only piece of nonzero dimension is
    the empty one, of dimension 1, so it changes no sum; and it adds
    nothing to a tail sum.  When every part is zero (Lambda = 0) the last
    one is kept, so that a sum always has a last part.

    The parts are added by :meth:`Weight.__add__`, which raises
    :class:`BadShape` for parts over different node sets.  The dimensions
    in ``cache`` are keyed without the Cartan data, so the
    cache records the Cartan data it was first filled for and refuses any
    other.
    """
    filled_for = cache.setdefault("filled for", c)
    if filled_for is not c and filled_for != c:
        raise PreconditionFail("this cache was filled for other Cartan data")
    key = ("split", lam, tuple(split))
    verdict = cache.get(key)
    if verdict is not None:
        return verdict
    if not split:
        raise PreconditionFail("need at least one weight part")
    if sum(split[1:], split[0]) != lam:
        raise PreconditionFail("weight parts must sum to the target weight")
    if any(not part.is_dominant for part in split):
        raise PreconditionFail("every weight part must be dominant")
    kept = [part for part in split if any(part.coeffs)] or [split[-1]]
    peels, tail_sum = [], (0,) * len(lam.coeffs)
    for part in reversed(kept):
        peels.append((part, tail_sum))
        tail_sum = tuple(map(add, part.coeffs, tail_sum))
    verdict = cache[key] = (tuple(part.coeffs for part in kept), tuple(reversed(peels)))
    return verdict


def _pair_sum(
    c: CartanData, lam: Weight, nu: Sequence[int], mu: Sequence[int], split: Sequence[Weight],
    graded: bool, deadline: Deadline | None, cache: dict,
) -> int | LaurentPoly:
    """The level-reduction sum of (nu, mu) over the weight parts; ``graded``
    picks the arithmetic, as in :func:`dims._transport_sum`.

    One forward pass over the parts, on states {remainder pair:
    coefficient} that start at {(nu, mu): 1}.  Each part but the last
    deals its subwords off both words of every state's pair, by
    :func:`_kept`, and pairs the sides of equal content.  Each pair whose
    dimension at the part is nonzero adds the coefficient times the two
    split counts times that dimension to the state of the remainders.  The
    sum is then each coefficient times the last part's dimension of its
    remainders.  By distributivity this is the sum of the products of part
    dimensions, in either arithmetic.

    A first subword starting with a letter where its part is zero has
    first slot factor 0 for every permutation, so its dimension is 0.  The
    parts are dominant, so a letter where the later parts sum to zero is
    zero in each of them, and whichever later piece the remainder's first
    letter starts has dimension 0.  For the same reason a remainder whose
    first letter, on either side, is zero in the last part adds 0, and its
    dimension is not taken.  The earlier peels deal no such remainder, so
    this prunes only a sum with one nonzero part, whose one remainder is
    (nu, mu).  All of this holds in either arithmetic: a graded dimension
    is zero when its ungraded one is.

    Zero parts take no peel (see :func:`_check_split`).  The sum is kept
    in ``cache`` on (the arithmetic, the nonzero parts' coefficients in
    order, nu, mu), looked up once the input is checked, so bad input
    raises on a warm cache as on a fresh one.
    """
    nu, mu = _checked(c, lam, nu, mu)
    parts, peels = _check_split(c, lam, split, cache)
    memo = ("pair sum", graded, parts, nu, mu)
    total = cache.get(memo)
    if total is not None:
        return total
    zero, dimension, where = 0, dim, "level reduction sum"
    if graded:
        zero, dimension, where = LaurentPoly.zero(), graded_dim, "graded level reduction sum"
    if sorted(nu) != sorted(mu):
        return zero
    states = {(nu, mu): 1}
    for head, tail_sum in peels[:-1]:
        grown: dict = {}
        for (nu_left, mu_left), coef in states.items():
            mu_side = _kept(mu_left, head, tail_sum, where, deadline, cache)
            for content, nu_entries in _kept(nu_left, head, tail_sum, where, deadline, cache).items():
                for first_mu, rest_mu, k_mu in mu_side.get(content, ()):
                    for first_nu, rest_nu, k_nu in nu_entries:
                        budget.check(deadline, where)
                        key = ("pair", head.coeffs, (first_nu, first_mu))
                        term = cache.get(key)
                        if term is None:
                            term = cache[key] = dimension(c, head, first_nu, first_mu, deadline)
                        if term != 0:
                            rest = (rest_nu, rest_mu)
                            grown[rest] = grown.get(rest, zero) + coef * (k_nu * k_mu) * term
        states = grown
    last = peels[-1][0]
    total = zero
    for rest, coef in states.items():
        rest_nu, rest_mu = rest
        if rest_nu and not (last.coeffs[rest_nu[0]] and last.coeffs[rest_mu[0]]):
            continue
        key = ("pair", last.coeffs, rest)
        term = cache.get(key)
        if term is None:
            term = cache[key] = dimension(c, last, *rest, deadline)
        total = total + coef * term
    cache[memo] = total
    return total


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
    other pair has a zero dimension factor.  A zero part adds nothing and
    takes no peel.  ``cache`` keeps the split verdicts, the dealt subwords
    on (part weight, tail sum, word), the part dimensions on (part weight,
    subword pair) and each whole sum on (nonzero parts in order, nu, mu);
    pass an external ``cache`` dict to share them across calls with the
    same Cartan data.  So a split that differs from an earlier one only by
    zero parts is answered from the cache, while the same parts in
    another order are summed afresh: the key keeps the order, so each
    order is still checked on its own, and a fault in one order's sum
    cannot hide behind another's value.  A cache passed with
    other Cartan data than it was filled for raises
    :class:`PreconditionFail`.
    """
    if cache is None:
        cache = {}
    return _pair_sum(c, lam, nu, mu, split, False, deadline, cache)


def reduce_pair_graded(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    mu: Sequence[int],
    split: Sequence[Weight],
    deadline: Deadline | None = None,
) -> LaurentPoly:
    """The would-be graded analogue of :func:`reduce_pair_dim_multi`: the
    same peel in Laurent polynomials, with a cache of its own.

    This does NOT equal the graded dimension in general -- already one
    nilHecke strand at level two breaks it -- but computing it is how the
    failure is demonstrated.
    """
    return _pair_sum(c, lam, nu, mu, split, True, deadline, {})


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
    decompositions of beta.

    It lists no decomposition: it peels off one part at a time, as
    :func:`reduce_pair_dim_multi` does, on states {remainder block:
    coefficient} that start at {beta: 1}.  Each part but the last takes
    every sub-block beta_1 of each state's block, and each beta_1 of
    nonzero dimension there adds the coefficient times
    C(|beta|, |beta_1|)^2 times that dimension to the state of
    beta - beta_1.  The sum is then each coefficient times the last part's
    dimension of its block.  The binomials along a decomposition multiply
    out to its multinomial.  The time budget is checked once per sub-block
    taken.  A zero part takes no peel, so it takes no sub-block.
    ``cache`` as in :func:`reduce_pair_dim_multi`: it keeps the split
    verdicts, the block dimensions at the parts, on (part weight, block),
    and each whole sum on (nonzero parts in order, beta), looked up once
    the split is checked.
    """
    if cache is None:
        cache = {}
    parts, peels = _check_split(c, lam, split, cache)
    memo = ("block sum", parts, beta.coeffs)
    total = cache.get(memo)
    if total is not None:
        return total
    states = {beta.coeffs: 1}
    for head, _ in peels[:-1]:
        grown: dict = {}
        for block, coef in states.items():
            size = sum(block)
            for first in iproduct(*[range(m + 1) for m in block]):
                budget.check(deadline, "block level reduction")
                key = ("block", head.coeffs, first)
                term = cache.get(key)
                if term is None:
                    term = cache[key] = block_dim(c, head, RootElement(first), deadline)
                if term:
                    rest = tuple(map(sub, block, first))
                    grown[rest] = grown.get(rest, 0) + coef * comb(size, sum(first)) ** 2 * term
        states = grown
    last = peels[-1][0]
    total = 0
    for rest, coef in states.items():
        key = ("block", last.coeffs, rest)
        term = cache.get(key)
        if term is None:
            term = cache[key] = block_dim(c, last, RootElement(rest), deadline)
        total += coef * term
    cache[memo] = total
    return total


def dominant_splits(lam: Weight, parts: int) -> Iterator[tuple[Weight, ...]]:
    """All ordered ways to write lam as a sum of ``parts`` dominant weights:
    each coefficient of lam is written as an ordered sum of ``parts``
    non-negative integers.  The first coefficient's composition varies
    slowest; each composition is lexicographic."""
    if not lam.is_dominant:
        raise PreconditionFail("can only split a dominant weight")
    for choice in iproduct(*(list(_compositions(m, parts)) for m in lam.coeffs)):
        yield tuple(Weight(tuple(col[slot] for col in choice)) for slot in range(parts))
