"""Self-verification battery: every closed formula against its independent
recomputation, over all blocks and tuple pairs up to a size cap.

Failures are reported as data (with the first counterexample), never raised;
a clean report is the library's strongest correctness statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import budget
from .budget import Deadline
from .cartan import CartanData, RootElement, Weight, validate_cartan
from .errors import PreconditionFail
from .dims import (
    blocks_of_size,
    block_dim,
    dim,
    dim_divided,
    graded_dim,
    graded_dim_recursive,
    transport_column,
    tuples_with_content,
)
from .levelred import (
    dominant_splits,
    reduce_block_dim,
    reduce_pair_dim_multi,
    reduce_pair_graded,
)
from .basis import MonomialBasis, exponent_bounds, graded_dim_blockwise
from .perms import block_form_of
from .qpoly import LaurentPoly, eval_one


@dataclass
class VerifyReport:
    """Outcome of one suite: pass flag, work counters, first failures.

    ``mismatches`` counts every recorded mismatch and ``failed_blocks``
    every block with one; only the first ten counterexamples are kept in
    ``failures``, each as its kind and values in JSON form (see
    :meth:`record`).  ``ok`` is read off ``mismatches``.
    """

    suite: str
    blocks: int = 0
    checked: int = 0
    failures: list[dict] = field(default_factory=list)
    mismatches: int = 0
    failed_blocks: int = 0

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    @property
    def blocks_ok(self) -> int:
        return self.blocks - self.failed_blocks

    def record(self, kind: str, **values) -> None:
        """Count one mismatch, and keep the first ten as counterexamples:
        ``kind`` and the values in JSON form (see :func:`_plain`)."""
        self.mismatches += 1
        if len(self.failures) < 10:
            self.failures.append({"kind": kind, **{k: _plain(v) for k, v in values.items()}})

    def walk_blocks(
        self, c: CartanData, max_n: int, deadline: Deadline | None = None
    ) -> Iterator[tuple]:
        """Every block of size <= max_n with its tuples, listed under the
        deadline.  Counts each block, and counts it as failed if a mismatch
        is recorded while it is open.  A negative ``max_n`` would walk no
        block and pass vacuously, so it raises :class:`PreconditionFail`
        instead."""
        if max_n < 0:
            raise PreconditionFail(f"max_n must be >= 0, got {max_n}")
        for n in range(max_n + 1):
            for beta in blocks_of_size(c, n):
                self.blocks += 1
                before = self.mismatches
                yield beta, tuples_with_content(beta, deadline=deadline)
                self.failed_blocks += self.mismatches > before

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"{status}: {self.blocks_ok}/{self.blocks} β-blocks, "
            f"{self.mismatches} mismatches ({self.checked} checks)"
        )

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "blocks": self.blocks,
            "blocks_ok": self.blocks_ok,
            "checked": self.checked,
            "mismatches": self.mismatches,
            "failures": self.failures,
        }


def _plain(value):
    """A counterexample value in JSON form: a word as a list, a weight or
    block as its coefficients, a split as the list of its parts'
    coefficients and a polynomial as its display string.  Integers pass
    as they are."""
    if isinstance(value, (Weight, RootElement)):
        value = value.coeffs
    if isinstance(value, tuple):
        return [list(v.coeffs) if isinstance(v, Weight) else v for v in value]
    return str(value) if isinstance(value, LaurentPoly) else value


def verify_oracle(
    c: CartanData, lam: Weight, max_n: int = 3, deadline: Deadline | None = None
) -> VerifyReport:
    """Closed graded formula == restriction recursion (exact Laurent
    equality) and q=1 == direct integer products, on every pair.

    The closed formula is walked once per target word w of a block in
    integers (:func:`~klrdim.dims.transport_column`), and in Laurent
    polynomials only when that integer column is nonempty: an empty one
    means e(w) = 0, and a graded dimension has non-negative coefficients
    and is the ungraded one at q = 1, so every graded entry into w is 0.
    Each pair reads its graded and integer dimensions from those columns.
    The recursion, which shares no code or product kernel with the walk,
    is run on every pair, so an integer walk that wrongly empties a column
    shows up as a graded mismatch.  It keeps one memo for the whole
    suite: the pairs of a smaller block are its sub-pairs in the larger
    ones."""
    report = VerifyReport("oracle")
    zero = LaurentPoly.zero()
    memo: dict = {}
    for beta, tuples in report.walk_blocks(c, max_n, deadline):
        plain_columns = {w: transport_column(c, lam, w, False, deadline) for w in tuples}
        graded_columns = {
            w: transport_column(c, lam, w, True, deadline) if plain_columns[w] else {}
            for w in tuples
        }
        for nu in tuples:
            for nuprime in tuples:
                budget.check(deadline, "oracle suite")
                closed = graded_columns[nuprime].get(nu, zero)
                recursive = graded_dim_recursive(
                    c, lam, nu, nuprime, memo=memo, deadline=deadline
                )
                plain = plain_columns[nuprime].get(nu, 0)
                report.checked += 1
                if closed != recursive:
                    report.record("graded mismatch", nu=nu, nuprime=nuprime,
                                  closed=closed, recursive=recursive)
                if eval_one(closed) != plain:
                    report.record("q=1 mismatch", nu=nu, nuprime=nuprime,
                                  graded_at_one=eval_one(closed), direct=plain)
                if any(coeff < 0 for _, coeff in closed.items()):
                    report.record("negative coefficient", nu=nu, nuprime=nuprime, value=closed)
    return report


def verify_divided(
    c: CartanData, lam: Weight, max_n: int = 3, deadline: Deadline | None = None
) -> VerifyReport:
    """Divided-power diagonal sums == direct diagonal dimensions."""
    report = VerifyReport("divided")
    for beta, tuples in report.walk_blocks(c, max_n, deadline):
        for nu in tuples:
            budget.check(deadline, "divided suite")
            lhs = dim_divided(c, lam, nu, deadline=deadline)
            rhs = dim(c, lam, nu, nu, deadline=deadline)
            report.checked += 1
            if lhs != rhs:
                report.record("divided mismatch", nu=nu, divided=lhs, direct=rhs)
    return report


def verify_levelred(
    c: CartanData, lam: Weight, max_n: int = 2, deadline: Deadline | None = None
) -> VerifyReport:
    """Pairwise and blockwise level reduction identities for all 2- and
    3-part dominant splits, plus the graded-analogue failure witness."""
    report = VerifyReport("levelred")
    splits = [s for parts in (2, 3) for s in dominant_splits(lam, parts)]
    cache: dict = {}
    for beta, tuples in report.walk_blocks(c, max_n, deadline):
        if not beta.size:
            # Checked while the first block is open, so a witness that
            # fails counts that block as failed.
            _check_graded_witness(report, deadline)
        direct_block = block_dim(c, lam, beta, deadline=deadline)
        direct = {mu: transport_column(c, lam, mu, False, deadline) for mu in tuples}
        for split in splits:
            reduced_block = reduce_block_dim(
                c, lam, beta, split, deadline=deadline, cache=cache
            )
            report.checked += 1
            if direct_block != reduced_block:
                report.record("block reduction mismatch", beta=beta, split=split,
                              direct=direct_block, reduced=reduced_block)
            for nu in tuples:
                for mu in tuples:
                    budget.check(deadline, "level reduction suite")
                    reduced = reduce_pair_dim_multi(
                        c, lam, nu, mu, split, deadline=deadline, cache=cache
                    )
                    report.checked += 1
                    if direct[mu].get(nu, 0) != reduced:
                        report.record("pair reduction mismatch", nu=nu, mu=mu, split=split,
                                      direct=direct[mu].get(nu, 0), reduced=reduced)
    return report


def _check_graded_witness(report: VerifyReport, deadline: Deadline | None) -> None:
    """The graded analogue of level reduction must FAIL on one nilHecke
    strand at level two: the reduction sum gives 1+1 while the true graded
    dimension is 1+q^2."""
    rank1 = validate_cartan([[2]])
    two = Weight((2,))
    halves = (Weight((1,)), Weight((1,)))
    graded_sum = reduce_pair_graded(rank1, two, (0,), (0,), halves, deadline=deadline)
    true_graded = graded_dim(rank1, two, (0,), (0,), deadline=deadline)
    report.checked += 1
    if graded_sum == true_graded:
        report.record("graded reduction unexpectedly held", reduced=graded_sum, direct=true_graded)


def verify_basis(
    c: CartanData, lam: Weight, max_n: int = 3, deadline: Deadline | None = None
) -> VerifyReport:
    """Exponent-bound cardinalities == dimensions, positivity ==
    nonvanishing, and the diagonal nilHecke factorization, for every tuple."""
    report = VerifyReport("basis")
    for beta, tuples in report.walk_blocks(c, max_n, deadline):
        for mu in tuples:
            budget.check(deadline, "basis suite")
            form = block_form_of(mu)
            basis = MonomialBasis(mu, form, exponent_bounds(c, lam, mu, form))
            d1 = dim(c, lam, form.tuple, mu, deadline=deadline)
            d2 = dim(c, lam, mu, form.tuple, deadline=deadline)
            report.checked += 1
            if not (basis.cardinality == d1 == d2):
                report.record("cardinality mismatch", mu=mu, grouped=form.tuple,
                              bounds=basis.bounds, cardinality=basis.cardinality,
                              dim_to=d1, dim_from=d2)
            if basis.empty != (d1 == 0):
                report.record("positivity mismatch", mu=mu, bounds=basis.bounds, dim=d1)
            if mu == form.tuple:
                closed = graded_dim(c, lam, mu, mu, deadline=deadline)
                product = graded_dim_blockwise(c, lam, form, deadline=deadline)
                report.checked += 1
                if closed != product:
                    report.record("diagonal factorization mismatch", mu=mu,
                                  closed=closed, product=product)
    return report


_SUITES = {
    "oracle": verify_oracle,
    "divided": verify_divided,
    "levelred": verify_levelred,
    "basis": verify_basis,
}
SCOPES = (*_SUITES, "all")


def verify_suite(
    scope: str,
    c: CartanData,
    lam: Weight,
    max_n: int = 3,
    deadline: Deadline | None = None,
) -> list[VerifyReport]:
    """Run one named suite, or all of them; returns one report per suite."""
    if scope not in SCOPES:
        raise ValueError(f"unknown suite {scope!r}; pick one of {SCOPES}")
    names = _SUITES if scope == "all" else (scope,)
    out = []
    for name in names:
        n_cap = min(max_n, 2) if name == "levelred" else max_n
        out.append(_SUITES[name](c, lam, max_n=n_cap, deadline=deadline))
    return out
