"""Exact dimension combinatorics for cyclotomic quiver Hecke algebras.

The library computes, for arbitrary symmetrizable Cartan data, a dominant
weight and index tuples over the nodes:

* graded and ungraded dimensions of the idempotent-truncated pieces,
  whole blocks and whole algebras (:mod:`klrdim.dims`), with an
  independent recursion cross-checking every closed formula;
* whether an idempotent vanishes, by four agreeing criteria
  (:mod:`klrdim.idempotents`);
* level reduction of dimensions into lower-level products
  (:mod:`klrdim.levelred`);
* explicit monomial-basis index sets with exponent bounds
  (:mod:`klrdim.basis`).

All arithmetic is exact: unbounded integers and sparse Laurent polynomials
(:mod:`klrdim.qpoly`).  See :mod:`klrdim.verify` for the self-verification
battery and :mod:`klrdim.cli` for the command line front end.
"""

from .basis import (
    MonomialBasis,
    basis_counts_121,
    block_levels,
    exponent_bounds,
    graded_dim_blockwise,
    monomial_basis,
)
from .budget import Deadline
from .cartan import (
    CartanData,
    RootElement,
    Weight,
    builtin_cartan,
    cartan_from_json,
    root_pairing,
    tuple_content,
    validate_cartan,
)
from .dims import (
    algebra_dim,
    algebra_graded_dim,
    block_dim,
    block_graded_dim,
    blocks_of_size,
    crossing_degree,
    dim,
    dim_divided,
    graded_dim,
    graded_dim_recursive,
    nilhecke_dim,
    nilhecke_graded_dim,
    tuples_with_content,
)
from .idempotents import (
    NonzeroVerdict,
    nonzero_blockwise,
    nonzero_by_shuffle,
    nonzero_direct,
    nonzero_divided,
)
from .levelred import (
    dominant_splits,
    reduce_block_dim,
    reduce_pair_dim_multi,
    reduce_pair_graded,
)
from .perms import (
    BlockForm,
    as_block_form,
    block_form_of,
    sorting_perm,
    transport_perms,
)
from .qpoly import (
    LaurentPoly,
    eval_one,
    quantum_factorial,
    quantum_int,
)
from .verify import VerifyReport, verify_suite

__all__ = [
    "MonomialBasis", "basis_counts_121", "block_levels", "exponent_bounds",
    "graded_dim_blockwise", "monomial_basis",
    "Deadline",
    "CartanData", "RootElement", "Weight", "builtin_cartan",
    "cartan_from_json", "root_pairing", "tuple_content", "validate_cartan",
    "algebra_dim", "algebra_graded_dim", "block_dim", "block_graded_dim",
    "blocks_of_size", "crossing_degree", "dim", "dim_divided",
    "graded_dim", "graded_dim_recursive", "nilhecke_dim",
    "nilhecke_graded_dim", "tuples_with_content",
    "NonzeroVerdict", "nonzero_blockwise", "nonzero_by_shuffle",
    "nonzero_direct", "nonzero_divided",
    "dominant_splits", "reduce_block_dim", "reduce_pair_dim_multi",
    "reduce_pair_graded",
    "BlockForm", "as_block_form", "block_form_of", "sorting_perm",
    "transport_perms",
    "LaurentPoly", "eval_one", "quantum_factorial", "quantum_int",
    "VerifyReport", "verify_suite",
]

__version__ = "0.1.0"
