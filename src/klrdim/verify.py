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
from .cartan import CartanData, Weight, validate_cartan
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
    ``failures``.  ``ok`` is read off ``mismatches``.
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

    def record(self, **counterexample) -> None:
        self.mismatches += 1
        if len(self.failures) < 10:
            self.failures.append(counterexample)

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


def verify_oracle(
    c: CartanData, lam: Weight, max_n: int = 3, deadline: Deadline | None = None
) -> VerifyReport:
    """Closed graded formula == restriction recursion (exact Laurent
    equality) and q=1 == direct integer products, on every pair.

    The closed formula is walked once per target word of a block in each
    arithmetic (:func:`~klrdim.dims.transport_column`), and each pair reads
    its graded and integer dimensions from those columns; the recursion,
    which shares no code with the walk, is run on every pair, with one
    memo for the whole suite: the pairs of a smaller block are the
    recursion's sub-pairs in the larger ones."""
    report = VerifyReport("oracle")
    zero = LaurentPoly.zero()
    memo: dict = {}
    for beta, tuples in report.walk_blocks(c, max_n, deadline):
        graded_columns = {w: transport_column(c, lam, w, True, deadline) for w in tuples}
        plain_columns = {w: transport_column(c, lam, w, False, deadline) for w in tuples}
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
                    report.record(
                        kind="graded mismatch", nu=list(nu), nuprime=list(nuprime),
                        closed=str(closed), recursive=str(recursive),
                    )
                if eval_one(closed) != plain:
                    report.record(
                        kind="q=1 mismatch", nu=list(nu), nuprime=list(nuprime),
                        graded_at_one=eval_one(closed), direct=plain,
                    )
                if any(coeff < 0 for _, coeff in closed.items()):
                    report.record(
                        kind="negative coefficient", nu=list(nu),
                        nuprime=list(nuprime), value=str(closed),
                    )
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
                report.record(kind="divided mismatch", nu=list(nu), divided=lhs, direct=rhs)
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
        direct_block = block_dim(c, lam, beta, deadline=deadline)
        direct = {mu: transport_column(c, lam, mu, False, deadline) for mu in tuples}
        for split in splits:
            reduced_block = reduce_block_dim(
                c, lam, beta, split, deadline=deadline, cache=cache
            )
            report.checked += 1
            if direct_block != reduced_block:
                report.record(
                    kind="block reduction mismatch", beta=list(beta.coeffs),
                    split=[list(w.coeffs) for w in split],
                    direct=direct_block, reduced=reduced_block,
                )
            for nu in tuples:
                for mu in tuples:
                    budget.check(deadline, "level reduction suite")
                    reduced = reduce_pair_dim_multi(
                        c, lam, nu, mu, split, deadline=deadline, cache=cache
                    )
                    report.checked += 1
                    if direct[mu].get(nu, 0) != reduced:
                        report.record(
                            kind="pair reduction mismatch", nu=list(nu), mu=list(mu),
                            split=[list(w.coeffs) for w in split],
                            direct=direct[mu].get(nu, 0), reduced=reduced,
                        )
    # The graded analogue must FAIL on one nilHecke strand at level two:
    # the reduction sum gives 1+1 while the true graded dimension is 1+q^2.
    rank1 = validate_cartan([[2]])
    two = Weight((2,))
    halves = (Weight((1,)), Weight((1,)))
    graded_sum = reduce_pair_graded(rank1, two, (0,), (0,), halves, deadline=deadline)
    true_graded = graded_dim(rank1, two, (0,), (0,), deadline=deadline)
    report.checked += 1
    if graded_sum == true_graded:
        report.record(
            kind="graded reduction unexpectedly held",
            reduced=str(graded_sum), direct=str(true_graded),
        )
    return report


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
                report.record(
                    kind="cardinality mismatch", mu=list(mu),
                    grouped=list(form.tuple), bounds=list(basis.bounds),
                    cardinality=basis.cardinality, dim_to=d1, dim_from=d2,
                )
            if basis.empty != (d1 == 0):
                report.record(
                    kind="positivity mismatch", mu=list(mu),
                    bounds=list(basis.bounds), dim=d1,
                )
            if mu == form.tuple:
                closed = graded_dim(c, lam, mu, mu, deadline=deadline)
                product = graded_dim_blockwise(c, lam, form, deadline=deadline)
                report.checked += 1
                if closed != product:
                    report.record(
                        kind="diagonal factorization mismatch", mu=list(mu),
                        closed=str(closed), product=str(product),
                    )
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
