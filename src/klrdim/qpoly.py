"""Exact Laurent polynomials in one variable q over unbounded integers.

A polynomial is stored as a sparse map from exponent to coefficient with no
zero coefficients kept, so equality is plain term-wise equality.  Exponents
may be negative (graded dimensions genuinely use q^-2 and friends) and
coefficients are ordinary Python integers, hence never overflow.

Quantum integers are built directly as the explicit geometric sums

    [m]_d = q^{d(m-1)} + q^{d(m-3)} + ... + q^{d(1-m)}      (m > 0)

with [0] = 0 and [-m] = -[m]; this avoids any rational-function machinery.
A quantum integer or factorial of more than :data:`MAX_TERMS` terms is
refused with :class:`~klrdim.errors.TooManyTerms`: one dict entry per term
would exhaust memory inside a single call, before any time budget could
stop it.
:func:`sum_of_products` sums many products a b into one dict of terms, so
a sum of products builds no intermediate polynomial.
:func:`divide_exact` divides exactly and raises
:class:`~klrdim.errors.DivisionInexact` on any remainder.

>>> print(quantum_int(3, 2))
q^4+1+q^-4
>>> eval_one(quantum_factorial(3))
6
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import DivisionInexact, TooManyTerms

# The most terms a quantum integer may have: [m] has |m| of them.
MAX_TERMS = 1 << 20


class LaurentPoly:
    """An immutable sparse Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[int(e)] = int(c)
        self._terms = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def support(self) -> list[int]:
        return sorted(self._terms)

    def to_pairs(self) -> list[list[int]]:
        """Ascending [exponent, coefficient] pairs (the JSON form)."""
        return [[e, self._terms[e]] for e in sorted(self._terms)]

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self._terms)
        for e, c in other._terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def __neg__(self) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def __rmul__(self, other: int) -> LaurentPoly:
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: int) -> LaurentPoly:
        if k == 0:
            return LaurentPoly.zero()
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: k * c for e, c in self._terms.items()}
        return out

    def shift(self, e: int) -> LaurentPoly:
        """Multiply by q^e."""
        if e == 0:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {k + e: c for k, c in self._terms.items()}
        return out

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its integer (see __eq__), so it hashes as one.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(tuple(sorted(self._terms.items())))

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"

    def __str__(self) -> str:
        """Human form with descending exponents, e.g. ``2q^6+4+q^-2``."""
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of a * b over the (a, b) pairs.

    Every product term goes into one dict, and the zero coefficients are
    dropped once at the end, so no intermediate polynomial is built.
    """
    t: dict[int, int] = {}
    get = t.get
    for a, b in pairs:
        bt = b._terms.items()
        for e1, c1 in a._terms.items():
            for e2, c2 in bt:
                e = e1 + e2
                t[e] = get(e, 0) + c1 * c2
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = {e: c for e, c in t.items() if c}
    return out


def eval_one(p: LaurentPoly) -> int:
    """Evaluate at q = 1, i.e. sum the coefficients.

    Everything stored here is a genuine Laurent polynomial, so the q -> 1
    limit is literal substitution; no limiting argument is ever needed.
    """
    return sum(c for _, c in p.items())


@lru_cache(maxsize=None)
def quantum_int(m: int, d: int = 1) -> LaurentPoly:
    """The quantum integer [m] in the variable q^d.

    [m] = q_d^{m-1} + q_d^{m-3} + ... + q_d^{1-m} for m > 0, [0] = 0 and
    [-m] = -[m], where q_d = q^d.  Raises :class:`TooManyTerms` when |m|
    exceeds :data:`MAX_TERMS`.
    """
    if d <= 0:
        raise ValueError("d must be a positive integer")
    if abs(m) > MAX_TERMS:
        raise TooManyTerms(
            f"the quantum integer [{m}] would have {abs(m)} terms, over the cap of {MAX_TERMS}"
        )
    if m == 0:
        return LaurentPoly.zero()
    sign = 1 if m > 0 else -1
    m = abs(m)
    return LaurentPoly({d * (m - 1 - 2 * i): sign for i in range(m)})


@lru_cache(maxsize=None)
def quantum_factorial(m: int, d: int = 1) -> LaurentPoly:
    """The quantum factorial [m]! = [1][2]...[m], with [0]! = 1.

    [m]! has m(m-1)/2 + 1 terms; raises :class:`TooManyTerms` when that
    exceeds :data:`MAX_TERMS`.
    """
    if m < 0:
        raise ValueError("quantum factorial needs m >= 0")
    terms = m * (m - 1) // 2 + 1
    if terms > MAX_TERMS:
        raise TooManyTerms(
            f"the quantum factorial [{m}]! would have {terms} terms, over the cap of {MAX_TERMS}"
        )
    out = LaurentPoly.one()
    for k in range(1, m + 1):
        out = out * quantum_int(k, d)
    return out


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Divide exactly, raising :class:`DivisionInexact` on any remainder."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    # Shift both to ordinary polynomials and long-divide over the integers.
    ns = min(num.support())
    ds = min(den.support())
    rem = {e - ns: c for e, c in num.items()}
    dterms = {e - ds: c for e, c in den.items()}
    ddeg = max(dterms)
    dlead = dterms[ddeg]
    quot: dict[int, int] = {}
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise DivisionInexact("remainder of lower degree than divisor")
        c, r = divmod(rem[rdeg], dlead)
        if r:
            raise DivisionInexact("leading coefficient does not divide")
        shift = rdeg - ddeg
        quot[shift] = c
        for e, dc in dterms.items():
            k = e + shift
            s = rem.get(k, 0) - c * dc
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return LaurentPoly(quot).shift(ns - ds)
