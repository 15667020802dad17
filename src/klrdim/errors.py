"""Domain errors raised by the library.

Everything derives from :class:`KlrError` so callers (in particular the
command line front end) can distinguish domain failures from genuine bugs.
"""


class KlrError(Exception):
    """Base class for all domain errors."""


class BadShape(KlrError):
    """Input of the wrong shape: a Cartan matrix that is not a square
    integer matrix (or a Cartan file or label list that cannot give one),
    a weight or block without one entry per node, weights or weight split
    parts over different node sets, or a negative block multiplicity."""


class BadDiagonal(KlrError):
    """A diagonal entry of a Cartan matrix differs from 2."""


class BadSign(KlrError):
    """A positive off-diagonal entry, or an asymmetric zero pattern."""


class NotSymmetrizable(KlrError):
    """No positive integer diagonal symmetrizes the matrix."""


class UnknownType(KlrError):
    """Unrecognized Cartan type tag."""


class BadRank(KlrError):
    """Rank outside the valid range for the requested Cartan type."""


class LengthMismatch(KlrError):
    """Two index tuples that must have equal length do not."""


class OutOfRange(KlrError):
    """A node label that the Cartan data does not define."""


class IncompatibleContent(KlrError):
    """Two index tuples that must share their letter multiset do not."""


class DivisionInexact(KlrError):
    """An exact polynomial division left a remainder (internal bug)."""


class NotBlockForm(KlrError):
    """A tuple expected in grouped form with pairwise distinct letters is not."""


class PreconditionFail(KlrError):
    """A stated precondition on the arguments does not hold."""


class ZeroEdge(KlrError):
    """The two letters of a three-strand pattern are not connected."""


class TimeBudgetExceeded(KlrError):
    """An enumeration ran past its wall-clock budget."""


class TooManyTerms(KlrError):
    """A quantum integer would have more terms than the library builds."""
