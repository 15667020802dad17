"""Symmetrizable generalized Cartan matrices and the lattices over them.

A generalized Cartan matrix has 2 on the diagonal, non-positive entries off
it, and a symmetric zero pattern; it is symmetrizable when some positive
diagonal D makes D*A symmetric.  :func:`validate_cartan` checks all of this
and computes the minimal positive integer symmetrizer by propagating entry
ratios along a spanning tree of each connected component.

Node indices are 0-based contiguous integers throughout the library; the
command line front end maps user-facing labels onto them.  The coroot
pairing convention is  <alpha_j, h_i> = a_ij  (row index = coroot), and the
symmetric bilinear form satisfies (alpha_j | alpha_i) = d_i * a_ij.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import (
    BadDiagonal,
    BadRank,
    BadShape,
    BadSign,
    NotSymmetrizable,
    OutOfRange,
    UnknownType,
)


@dataclass(frozen=True)
class CartanData:
    """A validated symmetrizable generalized Cartan matrix with its minimal
    positive integer symmetrizer ``d``.  Instances are immutable; build them
    with :func:`validate_cartan` or :func:`builtin_cartan`."""

    matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.matrix)

    def a(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    def d(self, i: int) -> int:
        return self.symmetrizer[i]


@dataclass(frozen=True)
class Weight:
    """An integral weight, stored as coefficients over the fundamental
    weights in node order.  May be non-dominant in intermediate results."""

    coeffs: tuple[int, ...]

    @property
    def level(self) -> int:
        return sum(self.coeffs)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other: Weight) -> Weight:
        if len(self.coeffs) != len(other.coeffs):
            raise BadShape("weights live over different node sets")
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    @classmethod
    def fundamental(cls, n: int, i: int) -> Weight:
        """The fundamental weight of node ``i`` of ``n``; raises
        :class:`OutOfRange` unless ``i`` is a node 0..n-1."""
        if not 0 <= i < n:
            raise OutOfRange(f"fundamental weights must be nodes 0..{n - 1}")
        return cls(tuple(1 if j == i else 0 for j in range(n)))


@dataclass(frozen=True)
class RootElement:
    """A non-negative integer combination of simple roots, stored as
    multiplicities in node order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise BadShape("root element multiplicities must be >= 0")

    @property
    def size(self) -> int:
        return sum(self.coeffs)


def _is_int_list(x) -> bool:
    """A list or tuple of plain integers (bools excluded)."""
    return isinstance(x, (list, tuple)) and all(type(v) is int for v in x)


def validate_cartan(matrix) -> CartanData:
    """Validate a square integer matrix as a symmetrizable GCM.

    The symmetrizer is found by fixing d = 1 at an arbitrary root of each
    connected component and propagating the forced rational ratios
    d_j / d_i = a_ij / a_ji along edges; any inconsistency around a cycle
    means no positive symmetrizer exists.  Denominators are then cleared to
    the componentwise-minimal positive integers.
    """
    if not isinstance(matrix, (list, tuple)) or not all(map(_is_int_list, matrix)):
        raise BadShape("a Cartan matrix must be a list of lists of integers")
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise BadShape("a Cartan matrix must be a nonempty square integer matrix")
    for i in range(n):
        if rows[i][i] != 2:
            raise BadDiagonal(f"diagonal entry a[{i}][{i}] = {rows[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise BadSign(f"off-diagonal entry a[{i}][{j}] = {rows[i][j]} > 0")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise BadSign(f"zero pattern asymmetric at ({i},{j})")

    ratio: list[Fraction | None] = [None] * n
    for start in range(n):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        component = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or rows[i][j] == 0:
                    continue
                # d_i * a_ij = d_j * a_ji  forces  d_j = d_i * a_ij / a_ji.
                forced = ratio[i] * Fraction(rows[i][j], rows[j][i])
                if ratio[j] is None:
                    ratio[j] = forced
                    component.append(j)
                    stack.append(j)
                elif ratio[j] != forced:
                    raise NotSymmetrizable(
                        f"inconsistent symmetrizer ratio at edge ({i},{j})"
                    )
        scale = lcm(*(ratio[i].denominator for i in component))
        ints = [ratio[i] * scale for i in component]
        shrink = gcd(*(int(v) for v in ints))
        for i, v in zip(component, ints):
            ratio[i] = Fraction(int(v) // shrink)

    d = tuple(int(r) for r in ratio)
    c = CartanData(tuple(rows), d)
    # Belt and braces: the propagated d must actually symmetrize.
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != d[j] * rows[j][i]:
                raise NotSymmetrizable(f"d does not symmetrize at ({i},{j})")
    return c


# ---------------------------------------------------------------------------
# Builtin registry
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^([A-G])(\d+)(~|\^2)?$")


def builtin_cartan(name: str) -> CartanData:
    """Look up a standard Cartan matrix by registry name.

    Finite families: ``A1, A2, ...``, ``B2, B3, ...``, ``C2, ...``,
    ``D4, ...``, ``E6, E7, E8``, ``F4``, ``G2``.  Untwisted affine:
    ``A1~, A2~, ...`` and ``C2~, C3~, ...``.  Twisted affine:
    ``A2^2, A4^2, ...`` (even subscript) and ``D3^2, D4^2, ...``.
    Every lookup of one type returns the same instance.
    """
    m = _NAME_RE.match(name.strip().upper())
    if not m:
        raise UnknownType(f"unrecognized Cartan type name {name!r}")
    return _builtin(m.group(1), int(m.group(2)), m.group(3))


@lru_cache(maxsize=64)
def _builtin(family: str, rank: int, deco: str | None) -> CartanData:
    # One validated instance per type, shared by every caller: CartanData
    # is frozen and made of tuples.  A bad rank raises, and lru_cache never
    # stores an exception, so it raises again on the next call.
    if deco is None:
        mat = _finite_matrix(family, rank)
    elif deco == "~":
        mat = _affine_matrix(family, rank)
    else:
        mat = _twisted_matrix(family, rank)
    return validate_cartan(mat)


def builtin_names() -> str:
    """One-line summary of the registry naming scheme, for CLI help."""
    return (
        "A<n> (n>=1), B<n> (n>=2), C<n> (n>=2), D<n> (n>=4), E6-E8, F4, G2; "
        "affine A<l>~ (l>=1), C<l>~ (l>=2); twisted A<2l>^2 (l>=1), D<m>^2 (m>=3)"
    )


def _chain(n: int) -> list[list[int]]:
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        mat[i][i + 1] = mat[i + 1][i] = -1
    return mat


def _finite_matrix(family: str, rank: int) -> list[list[int]]:
    if family == "A":
        if rank < 1:
            raise BadRank("type A needs rank >= 1")
        return _chain(rank)
    if family == "B":
        if rank < 2:
            raise BadRank("type B needs rank >= 2")
        mat = _chain(rank)
        mat[rank - 1][rank - 2] = -2
        return mat
    if family == "C":
        if rank < 2:
            raise BadRank("type C needs rank >= 2")
        mat = _chain(rank)
        mat[rank - 2][rank - 1] = -2
        return mat
    if family == "D":
        if rank < 4:
            raise BadRank("type D needs rank >= 4")
        mat = _chain(rank - 1)
        for row in mat:
            row.append(0)
        mat.append([0] * rank)
        mat[rank - 1][rank - 1] = 2
        mat[rank - 3][rank - 1] = mat[rank - 1][rank - 3] = -1
        return mat
    if family == "E":
        if rank not in (6, 7, 8):
            raise BadRank("type E needs rank 6, 7 or 8")
        mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)]
        for i, j in edges:
            mat[i][j] = mat[j][i] = -1
        return mat
    if family == "F":
        if rank != 4:
            raise BadRank("type F needs rank 4")
        mat = _chain(4)
        mat[2][1] = -2
        return mat
    if family == "G":
        if rank != 2:
            raise BadRank("type G needs rank 2")
        return [[2, -1], [-3, 2]]
    raise UnknownType(f"unrecognized finite family {family!r}")


def _affine_matrix(family: str, sub: int) -> list[list[int]]:
    if family == "A":
        if sub < 1:
            raise BadRank("affine type A needs subscript >= 1")
        if sub == 1:
            return [[2, -2], [-2, 2]]
        n = sub + 1
        mat = _chain(n)
        mat[0][n - 1] = mat[n - 1][0] = -1
        return mat
    if family == "C":
        if sub < 2:
            raise BadRank("affine type C needs subscript >= 2")
        n = sub + 1
        mat = _chain(n)
        mat[1][0] = -2
        mat[n - 2][n - 1] = -2
        return mat
    raise UnknownType(f"no affine builtin for family {family!r}")


def _twisted_matrix(family: str, sub: int) -> list[list[int]]:
    if family == "A":
        if sub < 2 or sub % 2:
            raise BadRank("twisted type A needs an even subscript >= 2")
        if sub == 2:
            return [[2, -4], [-1, 2]]
        n = sub // 2 + 1
        mat = _chain(n)
        mat[0][1] = -2
        mat[n - 2][n - 1] = -2
        return mat
    if family == "D":
        if sub < 3:
            raise BadRank("twisted type D needs subscript >= 3")
        n = sub
        mat = _chain(n)
        mat[0][1] = -2
        mat[n - 1][n - 2] = -2
        return mat
    raise UnknownType(f"no twisted builtin for family {family!r}")


def cartan_from_json(doc: dict) -> tuple[CartanData, list[int]]:
    """Build Cartan data from ``{"matrix": [[...]], "labels": [...]}``.

    Labels default to 1..n in node order (matching the builtin registry)
    and are returned for the caller's input/output mapping.
    """
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise BadShape('expected a JSON object with a "matrix" field')
    c = validate_cartan(doc["matrix"])
    labels = doc.get("labels")
    if labels is None:
        labels = list(range(1, c.n + 1))
    if not _is_int_list(labels):
        raise BadShape("labels must be a list of integers")
    labels = list(labels)
    if len(labels) != c.n or len(set(labels)) != c.n:
        raise BadShape("labels must be distinct and match the matrix size")
    return c, labels


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------


def root_pairing(c: CartanData, i: int, j: int) -> int:
    """The symmetric form (alpha_i | alpha_j) = d_i * a_ij = d_j * a_ji."""
    return c.symmetrizer[i] * c.matrix[i][j]


def grading_shift(c: CartanData, lam: Weight, counts: tuple[int, ...]) -> int:
    """The degree s(beta) = (Lambda|beta) - (beta|beta)/2 of the content
    beta with multiplicities ``counts``, where (Lambda|alpha_i) =
    d_i <Lambda, h_i> and (alpha_i|alpha_j) = d_i a_ij.  (beta|beta) is
    even, since (alpha_i|alpha_i) = 2 d_i, so s(beta) is an integer.

    Every graded dimension of e(nu) R^Lambda(beta) e(nu') is q^{s(beta)}
    times a Laurent polynomial fixed by q -> q^-1: 2 s(beta) is the degree
    d_{Lambda,beta} of the symmetrizing trace of R^Lambda(beta) (Shan,
    Varagnolo and Vasserot, Duke Math. J. 166, 2017).
    """
    d, coeffs = c.symmetrizer, lam.coeffs
    lam_beta = beta_beta = 0
    for i, m in enumerate(counts):
        if m:
            lam_beta += d[i] * coeffs[i] * m
            beta_beta += d[i] * m * sum(map(mul, c.matrix[i], counts))
    return lam_beta - beta_beta // 2


def tuple_content(c: CartanData, nu: tuple[int, ...]) -> RootElement:
    """The letter multiset of a tuple as a root element (one alpha per slot)."""
    counts = [0] * c.n
    for x in nu:
        counts[x] += 1
    return RootElement(tuple(counts))
