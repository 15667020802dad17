"""The committed digest of the command line corpus (``tests/corpus.py``)."""

import corpus


def test_cli_answers_match_the_committed_digest():
    count, sha = corpus.digest()
    assert {"requests": count, "sha256": sha} == corpus.committed()
