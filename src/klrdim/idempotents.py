"""Deciding when the idempotent e(nu) is nonzero in R^Lambda.

Four independent routes, which always agree:

* ``direct``  -- the diagonal dimension sum is nonzero;
* ``divided`` -- the run-block divided-power sum is nonzero;
* ``blockwise`` -- for grouped tuples with globally distinct letters, each
  block's head pairing is at least the block size;
* ``shuffle`` -- writing Lambda as a sum of fundamental weights, nu splits
  as a shuffle of pieces that survive at level one.  The search tries one
  order only for pieces of equal fundamental weights, which keeps its
  first passing assignment.

Every verdict carries a machine-checkable witness (the nonzero sum, the
per-block inequalities, or an explicit shuffle decomposition) so callers
can print certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from . import budget
from .basis import block_levels
from .budget import Deadline
from .cartan import CartanData, Weight
from .dims import _checked, dim, dim_divided
from .perms import as_block_form


@dataclass(frozen=True)
class NonzeroVerdict:
    """Outcome of a vanishing test: the boolean verdict, which route decided
    it, and a witness for certification."""

    nonzero: bool
    method: str
    witness: Any

    def __bool__(self) -> bool:
        return self.nonzero


def nonzero_direct(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    deadline: Deadline | None = None,
) -> NonzeroVerdict:
    """e(nu) is nonzero exactly when dim e(nu) R e(nu) is; witness = the sum."""
    value = dim(c, lam, nu, nu, deadline=deadline)
    return NonzeroVerdict(value != 0, "direct", value)


def nonzero_divided(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    deadline: Deadline | None = None,
) -> NonzeroVerdict:
    """Same verdict via the divided-power sum over block representatives."""
    value = dim_divided(c, lam, nu, deadline=deadline)
    return NonzeroVerdict(value != 0, "divided", value)


def nonzero_blockwise(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
) -> NonzeroVerdict:
    """For a grouped tuple with globally distinct letters: nonzero iff every
    block's head pairing meets the block size.

    Witness: the list of (head pairing, block size) pairs; the verdict is
    their conjunction.  Raises :class:`NotBlockForm` on tuples whose
    letters recur across blocks.
    """
    form = as_block_form(nu)
    pairs = tuple(zip(block_levels(c, lam, form), form.sizes))
    ok = all(head >= size for head, size in pairs)
    return NonzeroVerdict(ok, "blockwise", pairs)


def nonzero_by_shuffle(
    c: CartanData,
    nu: Sequence[int],
    fundamentals: Sequence[int],
    deadline: Deadline | None = None,
) -> NonzeroVerdict:
    """Nonzero at Lambda = sum of the given fundamental weights iff nu is a
    shuffle of pieces each nonzero at its own level-one weight.

    Searches position assignments depth-first, in lexicographic order; a
    branch dies as soon as a piece opens with a letter whose pairing
    against its fundamental weight vanishes (that alone forces the
    level-one dimension to zero).  Pieces of equal fundamental weights
    open in order: an empty piece may not open while the nearest earlier
    piece of its fundamental weight is still empty.  Swapping the contents
    of two such pieces gives an assignment that passes as well and comes
    first, so the cut never removes the first passing assignment.  The
    witness of a positive verdict is that assignment's tuple of pieces,
    one per fundamental weight, in order.  With no fundamental weights
    (Lambda = 0) only the empty nu survives, with the empty witness.

    Raises :class:`OutOfRange` for a letter of nu or a fundamental weight
    index that is not a node 0..n-1.
    """
    parts = list(fundamentals)
    level_one = [Weight.fundamental(c.n, t) for t in parts]
    nu, _ = _checked(c, Weight((0,) * c.n), nu)
    n = len(nu)
    l = len(parts)
    lam_head = [w.coeffs for w in level_one]
    piece: list[list[int]] = [[] for _ in range(l)]
    # The nearest earlier piece of the same fundamental weight, or None.
    twin = [next((j for j in range(i - 1, -1, -1) if parts[j] == parts[i]), None) for i in range(l)]
    seen: dict[tuple[int, tuple[int, ...]], bool] = {}

    def piece_ok(i: int) -> bool:
        key = (parts[i], tuple(piece[i]))
        hit = seen.get(key)
        if hit is None:
            hit = dim(c, level_one[i], piece[i], piece[i], deadline=deadline) != 0
            seen[key] = hit
        return hit

    # Depth first, in a loop over an explicit stack: picks[pos] is the piece
    # that position pos went to, and i the first piece left to try for the
    # next position, 0 when that position is reached afresh.
    picks: list[int] = []
    i = 0
    while True:
        pos = len(picks)
        if i == 0:
            budget.check(deadline, "shuffle search")
            if pos == n and all(piece_ok(j) for j in range(l)):
                return NonzeroVerdict(True, "shuffle", tuple(tuple(p) for p in piece))
        if pos < n:
            x = nu[pos]
            while i < l and not piece[i] and (
                not lam_head[i][x] or (twin[i] is not None and not piece[twin[i]])
            ):
                i += 1
        else:
            i = l
        if i < l:
            piece[i].append(x)
            picks.append(i)
            i = 0
        elif picks:
            piece[picks[-1]].pop()
            i = picks.pop() + 1
        else:
            return NonzeroVerdict(False, "shuffle", None)
