"""Monomial-basis index machinery.

Fix a grouped tuple with pairwise-distinct letters (the canonical target
produced by :func:`klrdim.perms.block_form_of`).  For an arbitrary tuple mu
of the same content, the subspace cut out between the grouped tuple and mu
has an explicit monomial basis indexed by

    (w, r_1..r_n)   with   w in the transport set from mu to the grouped
                           tuple and 0 <= r_k < bound_k,

where the exponent bound at slot k, holding letter x, pairs the weight with
the coroot of x after the letters of mu before slot k are taken away: those
of earlier blocks by their Cartan entries a_{xy}, and those equal to x once
each.  That is the dimension factor of the sorting permutation at slot k
plus the same-letter count, read off running letter counts in one pass, with
no permutation built.  The basis exists exactly when every bound is
positive, and its cardinality (block factorials times the bound product) is
the ungraded dimension of the subspace.  Each block's head pairing, the
level of its nilHecke algebra, is the bound of the grouped tuple at the
block's first slot.

On the diagonal (mu equal to the grouped tuple) everything collapses to a
product of nilHecke algebras, one per block, which also yields the graded
dimension as a closed product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import factorial, prod
from typing import Iterator, Sequence

from . import budget
from .budget import Deadline
from .cartan import CartanData, Weight
from .dims import _checked, nilhecke_graded_dim
from .errors import IncompatibleContent, PreconditionFail, ZeroEdge
from .perms import BlockForm, IndexTuple, Perm, block_form_of, transport_perms
from .qpoly import LaurentPoly


def block_levels(c: CartanData, lam: Weight, form: BlockForm) -> tuple[int, ...]:
    """Head pairing of each block: the nilHecke level its block carries, the
    exponent bound of the grouped tuple at the block's first slot."""
    bounds = exponent_bounds(c, lam, form.tuple, form)
    return tuple(bounds[start] for start in form.cumulative[:-1])


def exponent_bounds(
    c: CartanData,
    lam: Weight,
    mu: Sequence[int],
    form: BlockForm | None = None,
) -> tuple[int, ...]:
    """All exponent bounds of mu at once, in one pass over mu.

    The bound at slot k holding letter x is

        <Lambda, h_x> - #{j < k: mu_j = x} - sum_y a_{xy} #{j < k: mu_j = y}

    over the letters y of the blocks before x's.  Each letter keeps its
    running bound, and reading a letter y lowers its own by 1 and that of
    every letter of a later block x by a_{xy}.

    The input is checked first, by :func:`~klrdim.dims._checked`:
    :class:`BadShape` for a weight without one coefficient per node and
    :class:`OutOfRange` for a letter that is not a node.  Then
    :class:`IncompatibleContent` is raised when mu and the grouped form
    differ in content, which their sorted letters show.  Every basis
    function that reads a weight reaches this check.
    """
    mu, _ = _checked(c, lam, mu)
    if form is None:
        form = block_form_of(mu)
    elif sorted(mu) != sorted(form.tuple):
        raise IncompatibleContent("tuple content differs from the grouped form")
    letters = form.letters
    later = {y: letters[i + 1 :] for i, y in enumerate(letters)}
    running = {x: lam.coeffs[x] for x in letters}
    out = []
    for y in mu:
        out.append(running[y])
        running[y] -= 1
        for x in later[y]:
            running[x] -= c.matrix[x][y]
    return tuple(out)


@dataclass(frozen=True)
class MonomialBasis:
    """Index data of a monomial basis: the source tuple, the grouped target
    and the per-slot exponent bounds.  Elements are (permutation, exponent
    vector) pairs; the actual algebra elements are never constructed."""

    mu: IndexTuple
    form: BlockForm
    bounds: tuple[int, ...]

    @property
    def empty(self) -> bool:
        """Whether the subspace vanishes: some exponent bound is non-positive."""
        return any(b <= 0 for b in self.bounds)

    @property
    def cardinality(self) -> int:
        return prod(factorial(b) for b in self.form.sizes) * prod(self.bounds)

    def elements(self) -> Iterator[tuple[Perm, tuple[int, ...]]]:
        """All (w, r) index pairs, w lexicographic then r lexicographic."""
        for w in transport_perms(self.mu, self.form.tuple):
            for r in iproduct(*(range(b) for b in self.bounds)):
                yield w, r


def monomial_basis(
    c: CartanData,
    lam: Weight,
    mu: Sequence[int],
    form: BlockForm | None = None,
) -> MonomialBasis | None:
    """The monomial basis between the grouped form and mu, or ``None`` when
    the subspace vanishes (some exponent bound is non-positive).  The input
    checks are those of :func:`exponent_bounds`."""
    mu = tuple(mu)
    if form is None:
        form = block_form_of(mu)
    basis = MonomialBasis(mu, form, exponent_bounds(c, lam, mu, form))
    return None if basis.empty else basis


def graded_dim_blockwise(
    c: CartanData, lam: Weight, form: BlockForm, deadline: Deadline | None = None
) -> LaurentPoly:
    """Graded dimension of the diagonal subspace at a grouped tuple, as the
    product of one nilHecke graded dimension per block (level = the block's
    head pairing, strands = the block size, in the variable q^{d_letter}).
    The deadline is checked before each multiplication, here and in
    :func:`~klrdim.dims.nilhecke_graded_dim`."""
    levels = block_levels(c, lam, form)
    out = LaurentPoly.one()
    for i in range(form.count):
        block = nilhecke_graded_dim(
            levels[i], form.sizes[i], c.symmetrizer[form.letters[i]], deadline=deadline
        )
        budget.check(deadline, "nilHecke product")
        out = out * block
    return out


def basis_counts_121(l1: int, l2: int, a12: int, a21: int) -> tuple[int, int, int]:
    """Basis sizes for the diagonal subspace at the pattern (x, y, x) with
    content two-of-x plus one-of-y, for letters x, y joined by an edge.

    Returns (crossing-family count, polynomial-family count, total):

        l1 * l2 * l1   and   l1 * (l2 - a21) * (l1 - a12 - 2),

    where l1, l2 are the coroot pairings of the weight against x and y and
    a12, a21 the two Cartan entries between them.  The two-family pattern
    needs the letters adjacent; a12 = 0 is rejected.
    """
    if a12 == 0:
        raise ZeroEdge("the two letters must be joined by an edge (a12 != 0)")
    if a12 > 0 or a21 > 0:
        raise PreconditionFail("off-diagonal Cartan entries must be negative")
    if l1 < 0 or l2 < 0:
        raise PreconditionFail("weight pairings must be non-negative")
    crossing = l1 * l2 * l1
    poly = l1 * (l2 - a21) * (l1 - a12 - 2)
    return crossing, poly, crossing + poly
