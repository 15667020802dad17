"""The committed digests of the corpora in ``tests/corpus.py``."""

import corpus


def test_cli_answers_match_the_committed_digest():
    count, sha = corpus.digest()
    assert {"requests": count, "sha256": sha} == corpus.committed()


def test_pair_dimensions_match_the_committed_digest():
    count, sha = corpus.pairs_digest()
    assert {"pairs": count, "sha256": sha} == corpus.committed("pairs")


def test_level_reductions_match_the_committed_digest():
    count, sha = corpus.levelred_digest()
    assert {"answers": count, "sha256": sha} == corpus.committed("levelred")


def test_block_sums_match_the_committed_digest():
    count, sha = corpus.blocks_digest()
    assert {"sums": count, "sha256": sha} == corpus.committed("blocks")


def test_vanishing_tests_match_the_committed_digest():
    count, sha = corpus.nonzero_digest()
    assert {"words": count, "sha256": sha} == corpus.committed("nonzero")


def test_nilhecke_closed_forms_match_the_committed_digest():
    count, sha = corpus.nilhecke_digest()
    assert {"answers": count, "sha256": sha} == corpus.committed("nilhecke")


def test_groupings_and_bounds_match_the_committed_digest():
    count, sha = corpus.basis_digest()
    assert {"words": count, "sha256": sha} == corpus.committed("basis")


def test_enumeration_orders_match_the_committed_digest():
    count, sha = corpus.splits_digest()
    assert {"orders": count, "sha256": sha} == corpus.committed("splits")


def test_long_inputs_match_the_committed_digest():
    count, sha = corpus.long_digest()
    assert {"inputs": count, "sha256": sha} == corpus.committed("long")


def test_registry_lookups_match_the_committed_digest():
    count, sha = corpus.cartan_digest()
    assert {"names": count, "sha256": sha} == corpus.committed("cartan")


def test_parser_matches_the_committed_digest():
    count, sha = corpus.parser_digest()
    assert {"actions": count, "sha256": sha} == corpus.committed("parser")
