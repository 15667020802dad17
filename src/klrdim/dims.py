"""The dimension engine for cyclotomic quiver Hecke algebras.

For a dominant weight Lambda and index tuples nu, nu' of equal content
beta, the graded dimension of the idempotent-truncated piece
e(nu) R^Lambda e(nu') is

    sum over transport permutations w (w*nu = nu') of
        prod_t  [F(w, nu, t)]_{q^{d_{nu_t}}}  *  q^{d_{nu_t} (F(1, nu, t) - 1)}

where the integer dimension factor F(w, nu, t) pairs the weight, reduced by
the letters at positions before t that w keeps below slot t, against the
coroot of the letter at t.  The definitions of F(w, nu, t) and F(1, nu, t)
live with the tests (``tests/oracles.py``), which hold every route here to
them.  The per-slot shifts telescope: since
sum_{j<t} (alpha_{nu_j}|alpha_{nu_t}) = (beta|beta)/2 - sum_t d_{nu_t},
they add up to s(beta) = (Lambda|beta) - (beta|beta)/2 for every pair of
the block, the one grading shift of :func:`~klrdim.cartan.grading_shift`.
So both production walks below are plain sums of products of quantum
integers, shifted once by q^{s(beta)}.  F(w, nu, t) depends only on which
slots of nu' the positions before t took, not on the order they took them
in, so by distributivity :func:`graded_dim` and :func:`dim` share one walk
over the positions of nu whose states are the sets of slots taken so far:
at most 2^n states in place of prod_x m_x! permutations.  A zero factor or
a state that sums to zero has only zero completions, so neither is carried
on.  The walk runs in Laurent polynomials for the graded dimension and in
plain integers for the ungraded one.  With the source left free, the same
walk lets each position take any free slot of nu' and also keys its states
on the source prefix read so far, so it gives the whole column
{nu: dim e(nu) R^Lambda e(nu')} into one target word
(:func:`transport_column`); the verify suites and ``dim --all-pairs`` read
every pair of a block from these columns.  A single pair is the walk with
the source fixed.  A graded dimension has non-negative coefficients and
equals the ungraded one at q = 1, so :func:`graded_dim` runs the integer
walk first and builds no polynomial for a zero pair.  Every entry point
checks its input once (:func:`_checked`).  The same dimension is computed
by an independent restriction recursion (:func:`graded_dim_recursive`),
which peels nu from the right with a shift at every step and shares no
code or memo with the walk, so the two routes, and the two ways of
grading, cross-check each other exactly.

The divided-power route sums over far fewer terms: only the minimal coset
representatives of the run-block Young subgroup, with each slot's factor
raised by the position's offset inside its run, times the product of the
run factorials.  It is a walk of its own over the positions, whose states
are the slots taken and, inside a run, the slot the run took last, so the
representatives are never listed.  The single-letter case collapses
entirely to closed nilHecke products.

A whole block is summed over its target words alone: the column
C(w) = dim_q R^Lambda(beta) e(w) is q^{s(|w|)} U(w), where U obeys the
peeling recurrence with the source summed out and no shift at all.  One
walk by word length builds the nonzero U of length m + 1 from those of
length m, in Laurent polynomials for :func:`block_graded_dim` and in plain
integers for :func:`block_dim`, and a block's sum is shifted once.  Each
word carries its pairing vector and its runs of equal letters, so an
extension costs O(rank) before its terms; all deletions in a run are one
word, so a run costs one lookup and one closed factor [r][f - r + 1]; and a
word's terms are summed in one dict.  The embedding R^Lambda(m) into
R^Lambda(n) maps e(w') to e(w' i), so a zero word has only zero
extensions: zero words are not stored, so they are never extended.
R^Lambda(n) is the direct sum of its blocks, so one walk over every word
of length n, added up by content, gives every block of size n at once
(:func:`blocks_graded_dims`); :func:`algebra_graded_dim` and the command
line's block list read it.  Both walks take their arithmetic, graded or at
q = 1, from one table, :data:`_ARITHMETIC`.  The per-pair closed formula
and integer products are what block sums are checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from math import factorial, prod
from operator import sub
from typing import Iterator, Sequence

from . import budget
from .budget import Deadline
from .cartan import CartanData, RootElement, Weight, grading_shift, root_pairing
from .errors import BadShape, LengthMismatch, OutOfRange, PreconditionFail, TooManyTerms
from .perms import IndexTuple, Perm
from .qpoly import MAX_TERMS, LaurentPoly, quantum_int, sum_of_products


def crossing_degree(c: CartanData, w: Perm, nu: Sequence[int]) -> int:
    """Degree of the strand diagram of w on nu: minus the sum of root
    pairings (alpha_{nu_i} | alpha_{nu_t}) over crossings i < t, w(i) > w(t).

    This is the degree of the corresponding product of braid generators on
    the idempotent and is independent of the chosen reduced expression.
    """
    n = len(w)
    total = 0
    for i in range(n):
        for t in range(i + 1, n):
            if w[i] > w[t]:
                total -= root_pairing(c, nu[i], nu[t])
    return total


# ---------------------------------------------------------------------------
# Graded and ungraded dimensions of e(nu) R e(nu')
# ---------------------------------------------------------------------------


def _checked(
    c: CartanData, lam: Weight, nu: Sequence[int], nuprime: Sequence[int] | None = None
) -> tuple[IndexTuple, IndexTuple]:
    """nu and nu' (nu again when nu' is not given) as tuples, once the input
    is checked: :class:`BadShape` for a weight without one coefficient per
    node, :class:`LengthMismatch` for words of unequal length, and
    :class:`OutOfRange` for a letter that is not a node 0..n-1.

    Every entry point calls it once, so it is kept to the cheapest exact
    tests: the letters of both words are bounded by one ``min`` and one
    ``max`` over their concatenation, built once and only when nu' is
    another tuple.  The basis functions call it through
    :func:`~klrdim.basis.exponent_bounds`."""
    n = len(c.matrix)
    if len(lam.coeffs) != n:
        raise BadShape(f"the weight and the block need one entry per node, {n} in all")
    nu = tuple(nu)
    nuprime = nu if nuprime is None else tuple(nuprime)
    if len(nu) != len(nuprime):
        raise LengthMismatch("tuples must have the same length")
    if nu:
        both = nu if nuprime is nu else nu + nuprime
        if min(both) < 0 or max(both) >= n:
            raise OutOfRange(f"letters must be nodes 0..{n - 1}")
    return nu, nuprime


def _transport_sum(
    c: CartanData,
    lam: Weight,
    nu: IndexTuple | None,
    nuprime: IndexTuple,
    graded: bool,
    deadline: Deadline | None,
) -> dict:
    """The column {nu: dim e(nu) R^Lambda e(nu')} of the closed formula:
    for each source nu, the sum over the transport permutations w
    (w*nu = nu') of the products of the slot factors
    [F(w, nu, t)]_{q^{d_{nu_t}}}, times q^{s(beta)} for the content beta
    of nu'.  Sources of dimension zero are left out.  With ``nu`` given,
    the column is that one source or empty; with ``nu`` None, it holds
    every source.

    F(w, nu, t) pairs Lambda, less the simple roots of the letters at the
    positions j < t with w(j) < w(t), with the coroot of nu_t.  It depends
    only on the set of slots of nu' that the positions before t took, so by
    distributivity the sum is a walk over the positions whose states map
    that set, an int bitmask, to the sum over every prefix that took it.
    Position t extends a state by each free slot of nu' whose letter x it
    may take and whose factor, <Lambda, h_x> less the pairings with the
    letters of the taken slots before it, is nonzero.  With ``nu`` given, position t may take
    only x = nu_t, and the key is the mask alone.  With ``nu`` None it may
    take any letter, and the key also carries the source prefix read so
    far, above the mask, as digits in base ``c.n`` with the letter at
    position t as digit t, so that different sources never merge.  A state
    whose value is zero has only zero completions, so it is dropped; a
    level is copied without its zero states only when it holds one.  The
    states that hold every slot are the column; no state reaches them when
    nu' does not rearrange nu.

    The walk is a plain sum of products of quantum integers.  The closed
    formula's per-slot shifts d_x (F(1, nu, t) - 1) add up to
    s(beta) = (Lambda|beta) - (beta|beta)/2 for every source, since
    sum_{j<t} (alpha_{nu_j}|alpha_{nu_t}) = (beta|beta)/2 - sum_t d_{nu_t},
    so a graded column shifts each entry by the one
    :func:`~klrdim.cartan.grading_shift` of nu''s content, computed only
    when the column is nonempty.  The deadline is checked once per state
    and, in Laurent arithmetic, once per multiplication, since a large
    factor makes one product slow; its label is ``"graded dimension sum"``
    or ``"dimension sum"``.  ``graded`` picks the arithmetic of
    :data:`_ARITHMETIC`.
    """
    one, factor, _, _ = _ARITHMETIC[graded]
    where = "graded dimension sum" if graded else "dimension sum"
    d, n, matrix, coeffs = c.symmetrizer, len(nuprime), c.matrix, lam.coeffs
    base = len(matrix)
    # Each position's choices: (letter, its row and weight coefficient, and
    # what taking it adds to the key: its digit at the position, or 0).
    if nu is None:
        letters = sorted(set(nuprime))
        steps = [[(x, matrix[x], coeffs[x], x * base**t << n) for x in letters] for t in range(n)]
    else:
        steps = [((x, matrix[x], coeffs[x], 0),) for x in nu]
    slots = [(1 << p, y) for p, y in enumerate(nuprime)]
    states: dict = {0: one}
    for choices in steps:
        stems, states = states, {}
        for key, value in stems.items():
            budget.check(deadline, where)
            for x, row, f, digit in choices:
                for bit, y in slots:
                    if key & bit:
                        f -= row[y]
                    elif y == x and f:
                        if graded:
                            budget.check(deadline, where)
                        grown, term = (key | bit) + digit, factor(f, d[x]) * value
                        prev = states.get(grown)
                        states[grown] = term if prev is None else prev + term
        if 0 in states.values():
            states = {key: value for key, value in states.items() if value != 0}
    if nu is not None:
        value = states.get((1 << n) - 1)
        column = {} if value is None else {nu: value}
    else:
        column = {}
        for key, value in states.items():
            code, word = key >> n, []
            for _ in range(n):
                code, x = divmod(code, base)
                word.append(x)
            column[tuple(word)] = value
    if graded and column:
        shift = grading_shift(c, lam, tuple(map(nuprime.count, range(base))))
        column = {source: value.shift(shift) for source, value in column.items()}
    return column


def transport_column(
    c: CartanData,
    lam: Weight,
    nuprime: Sequence[int],
    graded: bool,
    deadline: Deadline | None = None,
) -> dict:
    """Every nonzero dimension into nu', {nu: dim e(nu) R^Lambda e(nu')},
    from one walk of :func:`_transport_sum` with the source free: graded
    (exact Laurent polynomials) or in plain integers.  A source of nu''s
    content that is missing has dimension zero.  Each entry equals
    :func:`graded_dim` or :func:`dim` of its pair, which are the same walk
    with the source fixed."""
    nuprime, _ = _checked(c, lam, nuprime)
    return _transport_sum(c, lam, None, nuprime, graded, deadline)


def graded_dim(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    nuprime: Sequence[int],
    deadline: Deadline | None = None,
) -> LaurentPoly:
    """Graded dimension of e(nu) R^Lambda e(nu') as an exact Laurent polynomial.

    The walk of :func:`_transport_sum` with the source fixed to nu, over the
    sets of slots of nu' taken, in Laurent polynomials, times q^{s(beta)}:
    the per-slot q-shifts of the closed formula add up to one monomial
    that depends on the content beta alone.  Zero when no permutation
    transports nu to nu'; every coefficient of the result is
    non-negative even though individual summands need not be.  So the
    result is zero exactly when :func:`dim` is, and the same walk in plain
    integers runs first: a zero pair builds no polynomial, and its checks
    are the ``"dimension sum"`` ones.
    """
    nu, nuprime = _checked(c, lam, nu, nuprime)
    # A graded dimension has non-negative coefficients and is dim at q = 1,
    # so it is zero exactly when the integer walk is.
    if not _transport_sum(c, lam, nu, nuprime, False, deadline):
        return LaurentPoly.zero()
    return _transport_sum(c, lam, nu, nuprime, True, deadline).get(nu, LaurentPoly.zero())


def dim(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    nuprime: Sequence[int],
    deadline: Deadline | None = None,
) -> int:
    """Ungraded dimension of e(nu) R^Lambda e(nu'), by the walk of
    :func:`_transport_sum` with the source fixed to nu, in plain integers.

    Deliberately not computed as q -> 1 of :func:`graded_dim`: the same walk
    multiplies the integer factors themselves and builds no polynomial, so
    the two results check each other's arithmetic.
    """
    nu, nuprime = _checked(c, lam, nu, nuprime)
    return _transport_sum(c, lam, nu, nuprime, False, deadline).get(nu, 0)


def graded_dim_recursive(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    nuprime: Sequence[int],
    memo: dict | None = None,
    deadline: Deadline | None = None,
) -> LaurentPoly:
    """Graded dimension by peeling the last letter of nu (the oracle route).

    Strips nu from the right: removing letter x from slot n of nu and a
    matching occurrence at slot k of nu' contributes a quantum integer of
    the weight reduced by the letters of nu' before k, times an explicit
    power of q^{d_x}, times the dimension one size down.  A slot whose
    quantum integer is [0] = 0 makes no sub-call.  The explicit power is
    the same for every slot, so each memo entry adds its (quantum integer,
    sub-dimension) products in one dict
    (:func:`~klrdim.qpoly.sum_of_products`) and shifts the sum once; the
    closed-formula walk multiplies with ``LaurentPoly.__mul__``, so the two
    graded routes share no product kernel.  Memoized on the
    (prefix, remaining-target) pair, so a shared ``memo`` dict makes whole
    block sweeps cheap.  Those keys hold for one Cartan matrix and weight
    only: a ``memo`` records the pair it was first filled for, and raises
    :class:`PreconditionFail` when it is passed with another.
    """
    nu, nuprime = _checked(c, lam, nu, nuprime)
    if memo is None:
        memo = {}
    if memo.setdefault("filled for", (c, lam)) != (c, lam):
        raise PreconditionFail("this memo was filled for other Cartan data or another weight")

    def rec(prefix: IndexTuple, rest: IndexTuple) -> LaurentPoly:
        if not prefix:
            return LaurentPoly.one()
        key = (prefix, rest)
        hit = memo.get(key)
        if hit is not None:
            return hit
        budget.check(deadline, "recursive graded dimension")
        x = prefix[-1]
        row = c.matrix[x]
        # 1 + <Lambda - beta, h_x> over the content of the current prefix.
        e = 1 + lam.coeffs[x] - sum(row[y] for y in prefix)
        shift = c.symmetrizer[x] * e
        shorter = prefix[:-1]
        pairs = []
        reduced = lam.coeffs[x]
        for k, y in enumerate(rest):
            if y == x and reduced:
                sub = rec(shorter, rest[:k] + rest[k + 1 :])
                pairs.append((quantum_int(reduced, c.symmetrizer[x]), sub))
            reduced -= row[y]
        acc = sum_of_products(pairs).shift(shift)
        memo[key] = acc
        return acc

    return rec(nu, nuprime)


# ---------------------------------------------------------------------------
# Divided-power route for e(nu) R e(nu)
# ---------------------------------------------------------------------------


def dim_divided(
    c: CartanData,
    lam: Weight,
    nu: Sequence[int],
    deadline: Deadline | None = None,
) -> int:
    """Ungraded dimension of e(nu) R^Lambda e(nu) via the runs of equal
    adjacent letters of nu.

    Sums products of factors, each raised by its position's offset inside
    its run, over only the run-ascending stabilizer representatives (the
    w with w*nu = nu that take ascending slots inside each run), and
    multiplies by the factorials of the run sizes; agrees with
    ``dim(c, lam, nu, nu)`` while touching far fewer terms.

    A factor depends only on the set of slots taken before it, so the sum
    is a walk over the positions, as in :func:`_transport_sum`, whose
    states are (taken mask, slot the last position took).  That slot bounds
    the next position's slot from below only while the next position
    continues the run, so it is kept only then, and states merge at run
    boundaries.  A position also leaves a free slot of its letter above
    its own for each later position of its run, so every state can be
    completed (a constant nu has one state per position, not 2^n).  A
    zero factor is not taken, a state that sums to zero is dropped, and the
    deadline is checked once per state.
    """
    nu, _ = _checked(c, lam, nu)
    n = len(nu)
    sizes = [len(list(run)) for _, run in groupby(nu)]
    # Each position's offset inside its run, and how many follow it there.
    offsets = [k for b in sizes for k in range(b)]
    later = [b - 1 - k for b in sizes for k in range(b)]
    slots = [(1 << p, p, y) for p, y in enumerate(nu)]
    states = {(0, -1): 1}
    for t, x in enumerate(nu):
        row = c.matrix[x]
        stems, states = states, {}
        for (mask, last), value in stems.items():
            budget.check(deadline, "divided-power sum")
            top = n
            if later[t]:
                top = [p for bit, p, y in slots if y == x and not mask & bit][-later[t]]
            f = lam.coeffs[x] + offsets[t]
            for bit, p, y in slots[:top]:
                if mask & bit:
                    f -= row[y]
                elif y == x and p > last and f:
                    key = (mask | bit, p if later[t] else -1)
                    states[key] = states.get(key, 0) + f * value
        states = {key: value for key, value in states.items() if value}
    return prod(factorial(b) for b in sizes) * states.get(((1 << n) - 1, -1), 0)


# ---------------------------------------------------------------------------
# nilHecke closed forms
# ---------------------------------------------------------------------------


def nilhecke_graded_dim(
    level: int, size: int, d: int = 1, deadline: Deadline | None = None
) -> LaurentPoly:
    """Graded dimension of the cyclotomic nilHecke algebra on ``size``
    strands at the given level, in the variable q^d.

    The closed product q^{d s (L - s)} [s]! [L] [L-1] ... [L-s+1] in
    quantum integers of q^d, for level L and size s: the quantum factorial
    for the strand crossings and one quantum integer per strand for the dot
    exponents.  The shift d s (L - s) is the grading shift s(beta) of
    :func:`~klrdim.cartan.grading_shift` for beta = s alpha on one node
    with d_x = d and <Lambda, h_x> = L.  Zero when s > L.  The product has s (L - 1) + 1 terms and is
    refused with :class:`TooManyTerms` when that exceeds
    :data:`~klrdim.qpoly.MAX_TERMS`.  It is multiplied out one quantum
    integer at a time, with the deadline checked before each multiplication.
    """
    if level < 0 or size < 0:
        raise ValueError("level and size must be >= 0")
    if size > level:
        return LaurentPoly.zero()
    terms = size * (level - 1) + 1
    if terms > MAX_TERMS:
        raise TooManyTerms(
            f"the nilHecke product would have {terms} terms, over the cap of {MAX_TERMS}"
        )
    out = LaurentPoly.one().shift(d * size * (level - size))
    # [s]! and then [L - s + 1] ... [L], leaving out each [1] = 1.
    for m in (*range(2, size + 1), *range(max(level - size + 1, 2), level + 1)):
        budget.check(deadline, "nilHecke product")
        out = out * quantum_int(m, d)
    return out


def nilhecke_dim(level: int, size: int) -> int:
    """Ungraded nilHecke dimension: size! * level * (level-1) * ..."""
    if level < 0 or size < 0:
        raise ValueError("level and size must be >= 0")
    return factorial(size) * prod(level - j for j in range(size))


# ---------------------------------------------------------------------------
# Whole blocks and whole algebras
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every way to write total as an ordered sum of ``parts`` non-negative
    integers, in lexicographic order."""
    if parts < 1:
        raise PreconditionFail(f"need at least one part, got {parts}")
    # The parts are the gaps between parts - 1 ascending bars in 0..total.
    # Bars in lexicographic order give the parts in lexicographic order.
    for bars in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(b - a for a, b in zip((0, *bars), (*bars, total)))


def blocks_of_size(c: CartanData, n: int) -> Iterator[RootElement]:
    """All root elements of total size n supported on the nodes of c,
    in lexicographic multiplicity order."""
    if n < 0:
        raise ValueError("size must be >= 0")
    for coeffs in _compositions(n, c.n):
        yield RootElement(coeffs)


def tuples_with_content(beta: RootElement, deadline: Deadline | None = None) -> list[IndexTuple]:
    """All index tuples realizing beta, in lexicographic order.

    Built by word length, like the column walk: each word of length m, in
    order, is extended by every letter still under its multiplicity, in
    increasing order.  There are multinomially many words, so the deadline
    is checked once per word extended.
    """
    words: list[IndexTuple] = [()]
    for _ in range(beta.size):
        stems, words = words, []
        for stem in stems:
            budget.check(deadline, "word listing")
            for x, m in enumerate(beta.coeffs):
                if stem.count(x) < m:
                    words.append(stem + (x,))
    return words


def _columns(
    c: CartanData, lam: Weight, bound: Sequence[int], size: int, graded: bool,
    deadline: Deadline | None,
) -> dict:
    """The nonzero shift-free columns {w: U(w)} over the words w of length
    ``size`` whose content is at most ``bound`` in every letter.

    Summing :func:`graded_dim_recursive` over every source forces the
    peeled letter to be x = w_k, so the column C(w) = dim_q R^Lambda(beta) e(w)
    obeys, with C(()) = 1,

        C(w) = sum_k q^{d_x (1 + <Lambda - |w|, h_x>)}
               [<Lambda, h_x> - sum_{j<k} a_{x w_j}]_{q^{d_x}} C(w without slot k).

    Each term's exponent is s(|w|) - s(|w| - alpha_x), with s the grading
    shift (Lambda|beta) - (beta|beta)/2 of :func:`~klrdim.cartan.grading_shift`,
    so C(w) = q^{s(|w|)} U(w), where U(()) = 1 and

        U(w) = sum_k [<Lambda, h_x> - sum_{j<k} a_{x w_j}]_{q^{d_x}} U(w without slot k)

    carries no shift at all; a block sum shifts its total once.  U(w) is
    zero exactly when e(w) is.  The walk goes by word length: one dict
    holds the nonzero columns of length m, and each of its words is
    extended by every letter still under the bound; the deletions of a
    longer word are looked up in that dict.  Zero words are not stored, so
    they are never extended: the embedding R^Lambda(m) into R^Lambda(n)
    maps e(w') to e(w' i), so C(w') = 0 forces C(w' i) = 0, and a word
    missing from the dict is zero.

    Each stored word carries, beside its column, its pairing vector
    <Lambda - |w|, h_y> over the nodes y and its runs of equal letters,
    each as its first slot and the identity factor f there.  Extending by
    i then costs O(rank): the new pairing is the old one less column i of
    the Cartan matrix, and a new run starts at factor pairing[i] unless the
    word already ends in i.  Deleting any slot of a run of r letters x
    gives the same word, and the factor drops by a_xx = 2 from slot to
    slot, so the run takes one lookup and one (run factor, column) term,

        sum_{j<r} [f - 2j]_{q^{d_x}} = [r]_{q^{d_x}} [f - r + 1]_{q^{d_x}},

    which is r (f - r + 1) at q = 1.  ``graded`` picks the arithmetic of
    :data:`_ARITHMETIC`: Laurent polynomials, where a word's terms go into
    one dict through :func:`~klrdim.qpoly.sum_of_products`, or plain
    integers at q = 1.
    """
    if len(lam.coeffs) != c.n or len(bound) != c.n:
        raise BadShape(f"the weight and the block need one entry per node, {c.n} in all")
    if size < 0:
        raise ValueError("size must be >= 0")
    one, _, run_factor, total = _ARITHMETIC[graded]
    d, columns = c.symmetrizer, list(zip(*c.matrix))
    # Each stored word maps to (U(w), the pairing vector after w, its runs
    # as (first slot, identity factor there)).
    level: dict = {(): (one, lam.coeffs, ())}
    for _ in range(size):
        level, stems = {}, level
        for stem, (_, pairing, runs) in stems.items():
            for i in range(c.n):
                if stem.count(i) == bound[i]:
                    continue
                budget.check(deadline, "block sum")
                word = stem + (i,)
                runs_i = runs if stem and stem[-1] == i else (*runs, (len(stem), pairing[i]))
                terms, end = [], len(word)
                for start, f in reversed(runs_i):
                    # A run whose factor is zero, or whose deletion is a
                    # zero word, adds nothing.
                    r = end - start
                    if f != r - 1 and (rest := stems.get(word[:start] + word[start + 1 :])) is not None:
                        terms.append((run_factor(r, f, d[word[start]]), rest[0]))
                    end = start
                value = total(terms)
                if value != 0:
                    level[word] = (value, tuple(map(sub, pairing, columns[i])), runs_i)
    return {word: value for word, (value, _, _) in level.items()}


@lru_cache(maxsize=None)
def _run_factor(r: int, f: int, dx: int) -> LaurentPoly:
    """The sum over a run of r equal letters x whose first identity factor
    is f: sum_{j<r} [f - 2j]_{q^{d_x}} = [r]_{q^{d_x}} [f - r + 1]_{q^{d_x}}."""
    return quantum_int(r, dx) * quantum_int(f - r + 1, dx)


# Both walks' arithmetic, graded (True) and at q = 1 (False): the unit, the
# factor [f]_{q^{d_x}}, the run factor [r]_{q^{d_x}} [f - r + 1]_{q^{d_x}}
# and the sum of the products a * b of (a, b) pairs.
_ARITHMETIC = {
    True: (LaurentPoly.one(), quantum_int, _run_factor, sum_of_products),
    False: (1, lambda f, dx: f, lambda r, f, dx: r * (f - r + 1),
            lambda pairs: sum(a * b for a, b in pairs)),
}


def block_graded_dim(
    c: CartanData, lam: Weight, beta: RootElement, deadline: Deadline | None = None
) -> LaurentPoly:
    """Graded dimension of the whole block R^Lambda(beta): the sum of the
    shift-free columns that the walk of :func:`_columns` builds up to
    content beta in Laurent polynomials, with one lookup and one cached
    factor [r][f - r + 1] per run of equal letters and one term dict per
    word, times q^{s(beta)} once when the sum is nonzero."""
    columns = _columns(c, lam, beta.coeffs, beta.size, graded=True, deadline=deadline)
    value = sum(columns.values(), LaurentPoly.zero())
    return value if value.is_zero() else value.shift(grading_shift(c, lam, beta.coeffs))


def block_dim(
    c: CartanData, lam: Weight, beta: RootElement, deadline: Deadline | None = None
) -> int:
    """Ungraded dimension of the whole block R^Lambda(beta): the same column
    walk in plain integers, where a run's factor is the integer
    r (f - r + 1).  It builds no polynomial; :func:`block_graded_dim` at
    q = 1 is checked against it."""
    return sum(_columns(c, lam, beta.coeffs, beta.size, graded=False, deadline=deadline).values())


def blocks_graded_dims(
    c: CartanData, lam: Weight, n: int, deadline: Deadline | None = None
) -> dict:
    """{beta: dim_q R^Lambda(beta)} over the blocks of size n with a nonzero
    word: one column walk over all words of length n, in Laurent
    polynomials, whose shift-free columns are added up by content and
    shifted once per content by q^{s(beta)}.  A block that is missing is
    zero."""
    sums: dict = {}
    for word, value in _columns(c, lam, (n,) * c.n, n, graded=True, deadline=deadline).items():
        content = tuple(map(word.count, range(c.n)))
        sums[content] = sums[content] + value if content in sums else value
    return {RootElement(b): value.shift(grading_shift(c, lam, b)) for b, value in sums.items()}


def algebra_graded_dim(
    c: CartanData, lam: Weight, n: int, deadline: Deadline | None = None
) -> LaurentPoly:
    """Graded dimension of R^Lambda(n), the direct sum of its blocks of size
    n: the sum of :func:`blocks_graded_dims`."""
    return sum(blocks_graded_dims(c, lam, n, deadline).values(), LaurentPoly.zero())


def algebra_dim(
    c: CartanData, lam: Weight, n: int, deadline: Deadline | None = None
) -> int:
    """Ungraded dimension of R^Lambda(n): the same column walk over all
    words of length n, in plain integers."""
    return sum(_columns(c, lam, (n,) * c.n, n, graded=False, deadline=deadline).values())
