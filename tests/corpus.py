"""Seeded corpora of answers, and the digest of each.

The ``cli`` family is a corpus of command line requests.  It holds every
``klrdim`` command in text and in JSON, with and without a time budget, on
builtin types and on a Cartan matrix read from a JSON file, and with
domain errors (exit 1) among the answers.  It leaves out argparse usage
errors, whose text changes between Python versions and with ``COLUMNS``,
and time-budget stops, which depend on timing.

Its digest is one SHA-256 over ``repr((argv, exit code, stdout, stderr))``
of each request in turn, each run in-process through ``cli.run``.

The ``pairs`` family is ``graded_dim`` and ``dim`` on every ordered pair
of a seeded, fixed set of blocks: builtin types of rank 1 to 3 and random
symmetrizable 3x3 matrices, weights of level 1 to 3, and blocks of at most
four letters.  Its digest is one SHA-256 over ``repr`` of each pair's
Cartan matrix, weight, words, graded dimension (as ascending exponent and
coefficient pairs) and dimension, in turn.

The ``levelred`` family is the three level reductions on a seeded, fixed
set of blocks: builtin types of rank 1 to 3 and random symmetrizable 3x3
matrices, weights of level 1 to 3, blocks of at most three letters, and
two splits of the weight into 1 to 3 dominant parts each, zero parts
included, that share one cache.  For each split it holds
``reduce_block_dim`` of the block and ``reduce_pair_dim_multi`` of every
ordered pair of the block, and ``reduce_pair_graded`` of every pair of
blocks of at most two letters.  Its digest is one SHA-256 over ``repr`` of
each block's Cartan matrix, weight, splits and answers, in turn.

The ``blocks`` family is ``block_graded_dim`` and ``block_dim`` of a
seeded, fixed set of blocks (builtin types of rank 1 to 3 and random
symmetrizable 3x3 matrices, weights of level 1 to 3, blocks of at most five
letters), with ``algebra_graded_dim`` and ``algebra_dim`` of each drawn
Cartan matrix and weight at a drawn size of at most four.  It then holds
the block sums of long single-letter runs in type A1, at weights and
blocks up to 40, and of blocks in types A2, B2 and C2 whose words carry
runs of two and three equal letters.  Its digest is one SHA-256 over
``repr`` of each sum's Cartan matrix, weight, block or size, graded
dimension (as ascending exponent and coefficient pairs) and dimension, in
turn.

The ``nonzero`` family is the four vanishing tests on a seeded, fixed set
of words: builtin types of rank 1 to 3 and random symmetrizable 3x3
matrices, weights of level 1 to 3, and words of at most six letters, each
either shuffled or grouped by letter.  For each word it holds
``dim_divided``, the verdicts and witnesses of ``nonzero_direct``,
``nonzero_divided`` and ``nonzero_blockwise`` (or the name of the error a
word that is not grouped raises), and those of ``nonzero_by_shuffle`` with
the weight's fundamental weights in a drawn order, so that equal ones may
stand apart, as in (0, 1, 0).  It then holds words with long runs and
weights of level 3 to 5 on types A1, A2, B2 and A1~.  Its digest is one
SHA-256 over ``repr`` of each word's Cartan matrix, weight, word,
fundamental weights and answers, in turn.

The ``nilhecke`` family is the cyclotomic nilHecke closed forms: a seeded,
fixed set of (level, size, d) triples with levels up to 12, sizes up to 9
and d from 1 to 3, each with ``nilhecke_graded_dim`` and ``nilhecke_dim``;
then ``graded_dim_blockwise`` of a seeded, fixed set of grouped tuples
(builtin types of rank 1 to 3 and random symmetrizable 3x3 matrices, whose
symmetrizer entries reach 4, weights of level 1 to 3, and words of at most
six letters grouped by letter in a drawn order).  Its digest is one SHA-256
over ``repr`` of each answer in turn.

The ``basis`` family is the grouping and exponent-bound machinery on a
seeded, fixed set of words: builtin types of rank 1 to 3 and random
symmetrizable 3x3 matrices, weights of level 1 to 3, and words of at most
six letters, some with an explicit letter order.  For each word it holds
``block_form_of``, ``sorting_perm``, ``exponent_bounds`` (with the grouped
form and without it), whether ``MonomialBasis`` is empty and its
cardinality; then the name of the error that ``exponent_bounds``,
``sorting_perm`` and ``monomial_basis`` raise against a grouped form of
other content, and that ``block_form_of`` raises for a letter order that
leaves a letter out, repeats one or adds one.  Every letter is a node.  Its
digest is one SHA-256 over ``repr`` of each word's Cartan matrix, weight,
word, letter order and answers, in turn.

The ``splits`` family is the enumeration orders that the level reductions
and the verify suites walk: ``blocks_of_size`` of a seeded, fixed set of
(rank, size) pairs, ranks 1 to 5 (type A) and sizes up to 6, and
``dominant_splits`` of a seeded, fixed set of (weight, parts) pairs,
weights of rank 1 to 3 with coefficients up to 3 and 1 to 3 parts.  Its
digest is one SHA-256 over ``repr`` of each input and the list it
enumerates, in order, in turn.

The ``long`` family is the pair and block sums on long inputs, which no
other family reaches: seeded words that hold one run of 6 to 12 equal
letters (alone, or with one other letter placed at random) at a run-node
weight of 6 to 24, on types A1, A2, B2, C2 and G2, with ``dim`` and
``dim_divided`` of each and, for runs of 6, ``graded_dim`` and
``nilhecke_graded_dim``; seeded two- and three-letter words at weights of
100 to 300 on types A1, A2 and B2, with ``graded_dim`` and ``dim``;
seeded pairs of words of 8 to 10 letters made of runs of 2 to 4, at
levels of at most 3 on types A2, B2 and A1~, each drawn until its
idempotent is nonzero (up to 20 times), with ``graded_dim``, ``dim`` and
``dim_divided``;
and ``block_graded_dim`` and ``block_dim`` of the A1 blocks at Lambda =
beta = 0 to 20.  Its digest is one SHA-256 over ``repr`` of each input and
its answers, in turn.

The ``cartan`` family is the builtin registry: every name made of a
family letter A to G, a rank 0 to 12 and no suffix, ``~`` or ``^2``, and
six names that are odd in case, spacing, digits, suffix or family.  For
each it holds the matrix and symmetrizer that ``builtin_cartan`` returns,
or the name and message of the error it raises.  Its digest is one
SHA-256 over ``repr`` of each name and its answer, in turn.

The ``parser`` family is the command line parser itself, which the other
families reach only through the requests they make.  For the top-level
parser and then each subcommand's parser, in order, it holds the prog,
description and epilog; each action's class name, option strings, dest,
default, type (by name), choices, required flag, help, metavar, nargs and
const; and the parser's defaults, with the command function by name.  It
then holds each subcommand's help string, and the tables that
``cli._plain_tables`` reads from the parser, with each action by its class
name and dest.  It leaves out rendered help text, which changes between
Python versions and with ``COLUMNS``.  Its digest is one SHA-256 over
``repr`` of each of these in turn, and its count is the number of actions.

``corpus.json`` beside this file holds the committed count and digest of
each family, and a test checks them, so any change to an answer shows as a
diff there.  Run

    PYTHONPATH=src python tests/corpus.py

to print the counts and the digests of the current tree.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import groupby
from pathlib import Path

DIGESTS = Path(__file__).with_name("corpus.json")

SEED = 1717
DRAWS = 1200

PAIRS_SEED = 1818
PAIR_BLOCKS = 400

LEVELRED_SEED = 1919
LEVELRED_BLOCKS = 600

BLOCKS_SEED = 2020
BLOCK_DRAWS = 300

# A1 (level, block size) pairs of one long run, graded and at q = 1, and
# then (type, weight, block) triples whose words carry short runs.
RUNS_GRADED = ((40, 10), (25, 25), (18, 17), (10, 40))
RUNS_UNGRADED = ((40, 40), (40, 25), (39, 40), (25, 40))
MIXED_RUNS = (
    ("A2", (3, 2), (3, 3)), ("A2", (2, 3), (2, 3)), ("A2", (3, 3), (3, 2)),
    ("B2", (3, 2), (3, 2)), ("B2", (2, 3), (3, 3)), ("C2", (3, 1), (3, 2)),
)

NONZERO_SEED = 2121
NONZERO_DRAWS = 500

NILHECKE_SEED = 2222
NILHECKE_DRAWS = 200
NILHECKE_WORDS = 300

BASIS_SEED = 2525
BASIS_WORDS = 500

SPLITS_SEED = 2626
SPLITS_DRAWS = 200

LONG_SEED = 2727
# (type, node) of the single-letter runs, and the types of the heavy
# weights and of the run-words.
RUN_NODES = (("A1", 0), ("A2", 1), ("B2", 0), ("C2", 1), ("G2", 0))
RUN_DRAWS = 30
HEAVY_TYPES = ("A1", "A2", "B2")
HEAVY_DRAWS = 8
RUN_WORD_TYPES = ("A2", "B2", "A1~")
RUN_WORD_DRAWS = 30
BLOCK_LEVELS = 20

# (type, weight, fundamental weights in order, word): long runs, and equal
# fundamental weights that stand apart.
LONG_WORDS = (
    ("A1~", (0, 3), (1, 1, 1), (1, 1, 1, 1, 0, 1, 1)),
    ("A1~", (2, 2), (0, 1, 0, 1), (0, 0, 1, 1, 0, 1, 0, 0)),
    ("A1~", (2, 1), (0, 1, 0), (0, 1, 0, 0, 1, 1, 0)),
    ("A1", (5,), (0,) * 5, (0,) * 5),
    ("A1", (4,), (0,) * 4, (0,) * 5),
    ("A2", (2, 1), (0, 1, 0), (0, 0, 1, 0, 0)),
    ("A2", (3, 1), (1, 0, 0, 0), (0, 0, 0, 1, 1, 0)),
    ("B2", (2, 2), (1, 0, 1, 0), (1, 1, 0, 1, 1, 0, 0)),
)

# The registry names: each family, rank and suffix, then the odd names.
CARTAN_NAMES = tuple(
    f"{family}{rank}{suffix}"
    for suffix in ("", "~", "^2") for family in "ABCDEFG" for rank in range(13)
) + ("a2", " b3 ", "A02", "A2~~", "H3", "Z9")

# Builtin types of rank 1 to 3 that the pairs family draws from; the rest of
# its draws are random symmetrizable 3x3 matrices.
PAIR_TYPES = ("A1", "A2", "B2", "C2", "G2", "A1~", "A2^2", "A3", "B3", "C3", "A2~", "C2~")

# (name, rank) of the builtin types the drawn requests use.
TYPES = (
    ("A1", 1), ("A2", 2), ("B2", 2), ("C2", 2), ("G2", 2),
    ("A1~", 2), ("A3", 3), ("A2~", 3), ("A2^2", 2),
)

# A custom Cartan matrix with its own node labels, and a file that is not
# JSON; both are written to a scratch directory that the run works in.
FILES = {
    "custom.json": json.dumps({"matrix": [[2, -2], [-1, 2]], "labels": [5, 7]}),
    "broken.json": "{",
}

FIXED = (
    # Every command once on the custom file, labels 5 and 7.
    ["gdim", "--cartan", "custom.json", "--weight", "1,1", "--nu", "5,7,5"],
    ["dim", "--cartan", "custom.json", "--weight", "1,1", "--beta", "1,1", "--all-pairs"],
    ["block", "--cartan", "custom.json", "--weight", "2,1", "--beta", "2,1"],
    ["algebra", "--cartan", "custom.json", "--weight", "1,1", "--n", "3"],
    ["nonzero", "--cartan", "custom.json", "--weight", "1,0", "--nu", "5,7,7",
     "--method", "shuffle"],
    ["basis", "--cartan", "custom.json", "--weight", "2,1", "--mu", "7,5,5",
     "--letters", "5,7", "--list"],
    ["reduce", "--cartan", "custom.json", "--weight", "1,1", "--split", "1,0;0,1",
     "--nu", "5,7", "--mu", "7,5"],
    ["tilde", "--cartan", "custom.json", "--mu", "7,5,7", "--weight", "1,2"],
    ["verify", "--cartan", "custom.json", "--weight", "1,1", "--max-n", "2"],
    # Domain errors.
    ["gdim", "--cartan", "missing.json", "--weight", "1", "--nu", "1"],
    ["gdim", "--cartan", "broken.json", "--weight", "1", "--nu", "1"],
    ["gdim", "--cartan", "Z9", "--weight", "1", "--nu", "1"],
    ["gdim", "--cartan", "A2", "--weight", "1", "--nu", "1"],
    ["gdim", "--cartan", "A2", "--weight", "1,-1", "--nu", "1"],
    ["gdim", "--cartan", "A2", "--weight", "1,x", "--nu", "1"],
    ["gdim", "--cartan", "A2", "--weight", "1,0", "--nu", "1,3"],
    ["gdim", "--cartan", "custom.json", "--weight", "1,0", "--nu", "1"],
    ["dim", "--cartan", "A2", "--weight", "1,0", "--nu", "1", "--nuprime", "1", "--beta", "1,0"],
    ["dim", "--cartan", "A2", "--weight", "1,0", "--nu", "1"],
    ["dim", "--cartan", "A2", "--weight", "1,0", "--beta", "1,0,1"],
    ["algebra", "--cartan", "A2", "--weight", "1,0", "--n", "-1"],
    ["basis", "--cartan", "A2", "--weight", "1,0", "--mu", "1,2", "--letters", "1"],
    ["basis", "--cartan", "A2", "--weight", "1,0", "--mu", "1,2", "--letters", "2,1,1"],
    ["reduce", "--cartan", "A2", "--weight", "1,1", "--split", "1,0;0,1",
     "--nu", "1", "--mu", "1", "--beta", "1,0"],
    ["reduce", "--cartan", "A2", "--weight", "1,1", "--split", "1,0;0,1", "--nu", "1"],
    ["reduce", "--cartan", "A2", "--weight", "1,1", "--split", "1,0;1,1", "--beta", "1,0"],
    ["reduce", "--cartan", "A2", "--weight", "1,1", "--split", "1,0;0", "--beta", "1,0"],
    ["tilde", "--cartan", "A2", "--mu", "1,4"],
    ["tilde", "--cartan", "A2", "--mu", "9", "--weight", "1"],
    ["tilde", "--cartan", "A2", "--mu", "1,2", "--weight", "1,-1"],
    ["verify", "--cartan", "A2", "--weight", "1,0", "--max-n", "-1"],
)


def _word(rng: random.Random, rank: int, low: int, high: int) -> list[int]:
    return [rng.randint(1, rank) for _ in range(rng.randint(low, high))]


def _shuffled(rng: random.Random, word: list[int]) -> list[int]:
    return rng.sample(word, len(word))


def _csv(values) -> str:
    return ",".join(map(str, values))


def _block(rng: random.Random, rank: int, size: int) -> list[int]:
    beta = [0] * rank
    for _ in range(size):
        beta[rng.randrange(rank)] += 1
    return beta


def _split(rng: random.Random, weight: list[int]) -> list[list[int]]:
    """The weight dealt into 1-3 parts, each a non-negative weight."""
    parts = [[0] * len(weight) for _ in range(rng.randint(1, 3))]
    for node, k in enumerate(weight):
        for _ in range(k):
            parts[rng.randrange(len(parts))][node] += 1
    return parts


def _request(rng: random.Random) -> list[str]:
    name, rank = rng.choice(TYPES)
    weight = [rng.randint(0, 2) for _ in range(rank)]
    head = ["--cartan", name, "--weight", _csv(weight)]
    command = rng.choice(
        ("gdim", "dim", "block", "algebra", "nonzero", "basis", "reduce", "tilde", "verify")
    )
    if command == "gdim":
        nu = _word(rng, rank, 0, 4)
        argv = ["gdim", *head, "--nu", _csv(nu)]
        if rng.random() < 0.7:
            argv += ["--nuprime", _csv(_shuffled(rng, nu))]
    elif command == "dim":
        shape = rng.choice(("pair", "block", "all-pairs"))
        if shape == "pair":
            nu = _word(rng, rank, 0, 4)
            argv = ["dim", *head, "--nu", _csv(nu), "--nuprime", _csv(_shuffled(rng, nu))]
        else:
            argv = ["dim", *head, "--beta", _csv(_block(rng, rank, rng.randint(0, 3)))]
            if shape == "all-pairs":
                argv.append("--all-pairs")
    elif command == "block":
        argv = ["block", *head, "--beta", _csv(_block(rng, rank, rng.randint(0, 4)))]
    elif command == "algebra":
        argv = ["algebra", *head, "--n", str(rng.randint(0, 4 if rank < 3 else 3))]
    elif command == "nonzero":
        method = rng.choice(("direct", "divided", "blockwise", "shuffle"))
        argv = ["nonzero", *head, "--nu", _csv(_word(rng, rank, 0, 5)), "--method", method]
    elif command == "basis":
        mu = _word(rng, rank, 1, 4)
        argv = ["basis", *head, "--mu", _csv(mu)]
        if rng.random() < 0.4:
            argv += ["--letters", _csv(_shuffled(rng, sorted(set(mu))))]
        if rng.random() < 0.5:
            argv.append("--list")
    elif command == "reduce":
        argv = ["reduce", *head, "--split", ";".join(_csv(p) for p in _split(rng, weight))]
        if rng.random() < 0.6:
            nu = _word(rng, rank, 0, 3)
            argv += ["--nu", _csv(nu), "--mu", _csv(_shuffled(rng, nu))]
        else:
            argv += ["--beta", _csv(_block(rng, rank, rng.randint(0, 3)))]
    elif command == "tilde":
        mu = _word(rng, rank, 1, 5)
        argv = ["tilde", "--cartan", name, "--mu", _csv(mu)]
        if rng.random() < 0.4:
            argv += ["--letters", _csv(_shuffled(rng, sorted(set(mu))))]
        if rng.random() < 0.5:
            argv += ["--weight", _csv(weight)]
    else:
        suite = rng.choice(("oracle", "divided", "levelred", "basis", "all"))
        argv = ["verify", *head, "--suite", suite, "--max-n", str(rng.randint(0, 2))]
    # Now and then a label no node has (a domain error), and a time budget
    # far above any request's time (so it never stops one).
    if rng.random() < 0.05:
        tuples = [i for i in range(1, len(argv)) if argv[i - 1] in ("--nu", "--mu")]
        if tuples:
            argv[tuples[0]] = _csv([*argv[tuples[0]].split(","), rank + 1]).lstrip(",")
    if rng.random() < 0.2:
        argv += ["--time-budget", "600"]
    return argv


def requests() -> list[list[str]]:
    """The corpus: the fixed requests, then the drawn ones, each in text
    and then in JSON."""
    rng = random.Random(SEED)
    plain = [list(argv) for argv in FIXED] + [_request(rng) for _ in range(DRAWS)]
    return [argv + fmt for argv in plain for fmt in ([], ["--format", "json"])]


def digest() -> tuple[int, str]:
    """The number of requests and the SHA-256 of their answers."""
    from klrdim import cli

    argvs = requests()
    h = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in FILES.items():
            Path(scratch, name).write_text(text, encoding="utf-8")
        os.chdir(scratch)
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(list(argv))
                h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        finally:
            os.chdir(home)
    return len(argvs), h.hexdigest()


def pair_blocks(rng: random.Random, draws: int, size: int) -> list[tuple]:
    """Seeded (Cartan data, weight, block) triples: builtin types of rank 1
    to 3 and random 3x3 matrices, weights of level 1 to 3, and blocks of at
    most ``size`` letters."""
    from conftest import random_cartan
    from klrdim import RootElement, Weight, builtin_cartan

    out = []
    for _ in range(draws):
        if rng.random() < 0.6:
            c = builtin_cartan(rng.choice(PAIR_TYPES))
        else:
            c = random_cartan(rng)
        weight = [0] * c.n
        for _ in range(rng.randint(1, 3)):
            weight[rng.randrange(c.n)] += 1
        out.append((c, Weight(tuple(weight)), RootElement(tuple(_block(rng, c.n, rng.randint(0, size))))))
    return out


def pairs_digest() -> tuple[int, str]:
    """The number of ordered pairs and the SHA-256 of their dimensions."""
    from klrdim import dim, graded_dim, tuples_with_content

    h = hashlib.sha256()
    count = 0
    for c, lam, beta in pair_blocks(random.Random(PAIRS_SEED), PAIR_BLOCKS, 4):
        tuples = tuples_with_content(beta)
        for nu in tuples:
            for nuprime in tuples:
                g = graded_dim(c, lam, nu, nuprime)
                answer = (c.matrix, lam.coeffs, nu, nuprime, g.to_pairs(), dim(c, lam, nu, nuprime))
                h.update(repr(answer).encode())
                count += 1
    return count, h.hexdigest()


def levelred_digest() -> tuple[int, str]:
    """The number of level-reduction answers and the SHA-256 of them."""
    from klrdim import (
        Weight, reduce_block_dim, reduce_pair_dim_multi, reduce_pair_graded,
        tuples_with_content,
    )

    rng = random.Random(LEVELRED_SEED)
    h = hashlib.sha256()
    count = 0
    for c, lam, beta in pair_blocks(rng, LEVELRED_BLOCKS, 3):
        tuples = tuples_with_content(beta)
        cache: dict = {}
        answers = []
        for split in (_split(rng, lam.coeffs) for _ in range(2)):
            parts = [Weight(tuple(p)) for p in split]
            answers.append((split, reduce_block_dim(c, lam, beta, parts, cache=cache)))
            for nu in tuples:
                for mu in tuples:
                    answers.append((nu, mu, reduce_pair_dim_multi(c, lam, nu, mu, parts, cache=cache)))
                    if beta.size <= 2:
                        answers.append(reduce_pair_graded(c, lam, nu, mu, parts).to_pairs())
        count += len(answers)
        h.update(repr((c.matrix, lam.coeffs, beta.coeffs, answers)).encode())
    return count, h.hexdigest()


def blocks_digest() -> tuple[int, str]:
    """The number of block and algebra sums and the SHA-256 of them."""
    from klrdim import (
        RootElement, Weight, algebra_dim, algebra_graded_dim, block_dim, block_graded_dim,
        builtin_cartan,
    )

    rng = random.Random(BLOCKS_SEED)
    sums = []
    for c, lam, beta in pair_blocks(rng, BLOCK_DRAWS, 5):
        n = rng.randint(0, 4 if c.n < 3 else 3)
        sums.append((c.matrix, lam.coeffs, beta.coeffs, block_graded_dim(c, lam, beta).to_pairs(),
                     block_dim(c, lam, beta)))
        sums.append((c.matrix, lam.coeffs, n, algebra_graded_dim(c, lam, n).to_pairs(),
                     algebra_dim(c, lam, n)))
    a1 = builtin_cartan("A1")
    for level, size in RUNS_GRADED:
        lam, beta = Weight((level,)), RootElement((size,))
        sums.append((a1.matrix, lam.coeffs, beta.coeffs, block_graded_dim(a1, lam, beta).to_pairs()))
    for level, size in RUNS_UNGRADED:
        lam, beta = Weight((level,)), RootElement((size,))
        sums.append((a1.matrix, lam.coeffs, beta.coeffs, block_dim(a1, lam, beta)))
    for name, weight, block in MIXED_RUNS:
        c, lam, beta = builtin_cartan(name), Weight(weight), RootElement(block)
        sums.append((c.matrix, lam.coeffs, beta.coeffs, block_graded_dim(c, lam, beta).to_pairs(),
                     block_dim(c, lam, beta)))
    h = hashlib.sha256()
    for answer in sums:
        h.update(repr(answer).encode())
    return len(sums), h.hexdigest()


def _vanishing_answers(c, lam, word, fundamentals) -> tuple:
    """``dim_divided`` and the verdict and witness of each vanishing test."""
    from klrdim import (
        dim_divided, nonzero_blockwise, nonzero_by_shuffle, nonzero_direct, nonzero_divided,
    )
    from klrdim.errors import NotBlockForm

    try:
        blockwise = nonzero_blockwise(c, lam, word)
        blockwise = (blockwise.nonzero, blockwise.witness)
    except NotBlockForm as exc:
        blockwise = type(exc).__name__
    verdicts = [
        nonzero_direct(c, lam, word), nonzero_divided(c, lam, word),
        nonzero_by_shuffle(c, word, fundamentals),
    ]
    return (dim_divided(c, lam, word), blockwise, [(v.nonzero, v.witness) for v in verdicts])


def nonzero_digest() -> tuple[int, str]:
    """The number of words and the SHA-256 of their vanishing tests."""
    from klrdim import Weight, builtin_cartan

    rng = random.Random(NONZERO_SEED)
    cases = []
    for c, lam, beta in pair_blocks(rng, NONZERO_DRAWS, 6):
        letters = [x for x, m in enumerate(beta.coeffs) for _ in range(m)]
        if rng.random() < 0.6:
            word = tuple(rng.sample(letters, len(letters)))
        else:
            order = rng.sample(range(c.n), c.n)
            word = tuple(x for x in order for _ in range(beta.coeffs[x]))
        units = [i for i, k in enumerate(lam.coeffs) for _ in range(k)]
        cases.append((c, lam, tuple(rng.sample(units, len(units))), word))
    for name, weight, fundamentals, word in LONG_WORDS:
        cases.append((builtin_cartan(name), Weight(weight), fundamentals, word))
    h = hashlib.sha256()
    for c, lam, fundamentals, word in cases:
        answers = _vanishing_answers(c, lam, word, fundamentals)
        h.update(repr((c.matrix, lam.coeffs, word, fundamentals, answers)).encode())
    return len(cases), h.hexdigest()


def nilhecke_digest() -> tuple[int, str]:
    """The number of nilHecke answers and the SHA-256 of them."""
    from klrdim import as_block_form, graded_dim_blockwise, nilhecke_dim, nilhecke_graded_dim

    rng = random.Random(NILHECKE_SEED)
    answers = []
    for _ in range(NILHECKE_DRAWS):
        level, size, d = rng.randint(0, 12), rng.randint(0, 9), rng.randint(1, 3)
        answers.append((level, size, d, nilhecke_graded_dim(level, size, d).to_pairs(),
                        nilhecke_dim(level, size)))
    for c, lam, beta in pair_blocks(rng, NILHECKE_WORDS, 6):
        order = rng.sample(range(c.n), c.n)
        word = tuple(x for x in order for _ in range(beta.coeffs[x]))
        graded = graded_dim_blockwise(c, lam, as_block_form(word))
        answers.append((c.matrix, lam.coeffs, word, graded.to_pairs()))
    h = hashlib.sha256()
    for answer in answers:
        h.update(repr(answer).encode())
    return len(answers), h.hexdigest()


def _outcome(fn):
    """What ``fn()`` returns, or the name of the library error it raises."""
    from klrdim.errors import KlrError

    try:
        return fn()
    except KlrError as exc:
        return type(exc).__name__


def basis_digest() -> tuple[int, str]:
    """The number of words and the SHA-256 of their groupings and bounds."""
    from klrdim import (
        MonomialBasis, block_form_of, exponent_bounds, monomial_basis, sorting_perm,
    )

    rng = random.Random(BASIS_SEED)
    h = hashlib.sha256()
    count = 0
    for c, lam, beta in pair_blocks(rng, BASIS_WORDS, 6):
        letters = [x for x, m in enumerate(beta.coeffs) for _ in range(m)]
        mu = tuple(rng.sample(letters, len(letters)))
        distinct = sorted(set(mu))
        order = rng.sample(distinct, len(distinct)) if rng.random() < 0.4 else None
        form = block_form_of(mu, order)
        basis = MonomialBasis(mu, form, exponent_bounds(c, lam, mu, form))
        answers = [
            (form.tuple, form.letters, form.sizes), sorting_perm(mu, form), basis.bounds,
            exponent_bounds(c, lam, mu), basis.empty, basis.cardinality,
        ]
        # Grouped forms of other content: one letter changed, or one dropped.
        others = [mu[:-1]] if mu else [(0,)]
        if mu and c.n > 1:
            others.append(mu[:-1] + ((mu[-1] + rng.randrange(1, c.n)) % c.n,))
        for other in others:
            wrong = block_form_of(other)
            answers.append((
                _outcome(lambda: exponent_bounds(c, lam, mu, wrong)),
                _outcome(lambda: sorting_perm(mu, wrong)),
                _outcome(lambda: monomial_basis(c, lam, mu, wrong).bounds),
            ))
        # Letter orders that leave a letter out, repeat one, or add a node
        # that mu does not hold.
        base = order if order is not None else distinct
        bad = [base[1:], base + base[:1]]
        bad += [base + [x] for x in range(c.n) if x not in base][:1]
        for wrong_order in bad:
            answers.append(_outcome(lambda: block_form_of(mu, wrong_order).tuple))
        h.update(repr((c.matrix, lam.coeffs, mu, order, answers)).encode())
        count += 1
    return count, h.hexdigest()


def splits_digest() -> tuple[int, str]:
    """The number of enumerations and the SHA-256 of their orders."""
    from klrdim import Weight, blocks_of_size, builtin_cartan, dominant_splits

    rng = random.Random(SPLITS_SEED)
    h = hashlib.sha256()
    for _ in range(SPLITS_DRAWS):
        rank, size = rng.randint(1, 5), rng.randint(0, 6)
        blocks = [beta.coeffs for beta in blocks_of_size(builtin_cartan(f"A{rank}"), size)]
        h.update(repr((rank, size, blocks)).encode())
        lam, parts = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))), rng.randint(1, 3)
        splits = [tuple(p.coeffs for p in split) for split in dominant_splits(Weight(lam), parts)]
        h.update(repr((lam, parts, splits)).encode())
    return 2 * SPLITS_DRAWS, h.hexdigest()


def _run_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A word of ``length`` letters of ``n`` >= 2 nodes, made of runs of 2
    to 4 equal letters (the last run may be shorter), each run's letter
    other than the one before."""
    word = [rng.randrange(n)] * rng.randint(2, 4)
    while len(word) < length:
        x = rng.choice([y for y in range(n) if y != word[-1]])
        word += [x] * min(rng.randint(2, 4), length - len(word))
    return tuple(word[:length])


def _nonzero_run_words(rng: random.Random, c, lam, length: int) -> tuple:
    """Two words of ``length`` letters and the same content, made of runs:
    the first of up to 20 drawn words whose idempotent is nonzero (or the
    last drawn), and a shuffle of its runs, again the first nonzero of up
    to 20 (or the word itself).  Most drawn words vanish at low level."""
    from klrdim import dim

    for _ in range(20):
        nu = _run_word(rng, c.n, length)
        if dim(c, lam, nu, nu):
            break
    runs = [tuple(run) for _, run in groupby(nu)]
    for _ in range(20):
        nuprime = sum(rng.sample(runs, len(runs)), ())
        if dim(c, lam, nuprime, nuprime):
            return nu, nuprime
    return nu, nu


def long_digest() -> tuple[int, str]:
    """The number of long inputs and the SHA-256 of their answers."""
    from klrdim import (
        RootElement, Weight, block_dim, block_graded_dim, builtin_cartan, dim, dim_divided,
        graded_dim, nilhecke_graded_dim,
    )

    rng = random.Random(LONG_SEED)
    h = hashlib.sha256()
    count = 0

    def add(*answer):
        nonlocal count
        h.update(repr(answer).encode())
        count += 1

    for _ in range(RUN_DRAWS):
        name, x = rng.choice(RUN_NODES)
        c = builtin_cartan(name)
        lam = Weight(tuple(rng.randint(6, 24) if i == x else rng.randint(0, 2) for i in range(c.n)))
        size = rng.choice((6, 6, 8, 10, 12))
        nu = (x,) * size
        if c.n > 1 and rng.random() < 0.5:
            y = (x + 1) % c.n
            nu, nuprime = (nu[:(k := rng.randint(0, size))] + (y,) + nu[k:],
                           nu[:(j := rng.randint(0, size))] + (y,) + nu[j:])
        else:
            nuprime = nu
        answers = [dim(c, lam, nu, nuprime), dim_divided(c, lam, nu)]
        if size == 6:
            answers.append(graded_dim(c, lam, nu, nuprime).to_pairs())
            answers.append(nilhecke_graded_dim(lam.coeffs[x], size, c.d(x)).to_pairs())
        add(c.matrix, lam.coeffs, nu, nuprime, answers)
    for _ in range(HEAVY_DRAWS):
        c = builtin_cartan(rng.choice(HEAVY_TYPES))
        lam = Weight(tuple(rng.randint(100, 300) for _ in range(c.n)))
        nu = tuple(rng.randrange(c.n) for _ in range(rng.randint(2, 3)))
        nuprime = tuple(rng.sample(nu, len(nu)))
        add(c.matrix, lam.coeffs, nu, nuprime, graded_dim(c, lam, nu, nuprime).to_pairs(),
            dim(c, lam, nu, nuprime))
    for _ in range(RUN_WORD_DRAWS):
        c = builtin_cartan(rng.choice(RUN_WORD_TYPES))
        weight = [0] * c.n
        for _ in range(rng.randint(1, 3)):
            weight[rng.randrange(c.n)] += 1
        lam = Weight(tuple(weight))
        nu, nuprime = _nonzero_run_words(rng, c, lam, rng.randint(8, 10))
        add(c.matrix, lam.coeffs, nu, nuprime, graded_dim(c, lam, nu, nuprime).to_pairs(),
            dim(c, lam, nu, nuprime), dim_divided(c, lam, nu))
    a1 = builtin_cartan("A1")
    for k in range(BLOCK_LEVELS + 1):
        lam, beta = Weight((k,)), RootElement((k,))
        add(k, block_graded_dim(a1, lam, beta).to_pairs(), block_dim(a1, lam, beta))
    return count, h.hexdigest()


def cartan_digest() -> tuple[int, str]:
    """The number of registry names and the SHA-256 of their lookups."""
    from klrdim import builtin_cartan
    from klrdim.errors import KlrError

    h = hashlib.sha256()
    for name in CARTAN_NAMES:
        try:
            c = builtin_cartan(name)
            answer = (c.matrix, c.symmetrizer)
        except KlrError as exc:
            answer = (type(exc).__name__, str(exc))
        h.update(repr((name, answer)).encode())
    return len(CARTAN_NAMES), h.hexdigest()


def _named(value):
    return value.__name__ if callable(value) else value


def parser_digest() -> tuple[int, str]:
    """The number of parser actions and the SHA-256 of the parser's fields."""
    import argparse

    from klrdim import cli

    root = cli._build_parser()
    (commands,) = [a for a in root._actions if isinstance(a, argparse._SubParsersAction)]
    h = hashlib.sha256()
    count = 0
    for parser in (root, *commands.choices.values()):
        h.update(repr((parser.prog, parser.description, parser.epilog)).encode())
        for a in parser._actions:
            choices = list(a.choices) if isinstance(a.choices, dict) else a.choices
            h.update(repr((
                type(a).__name__, a.option_strings, a.dest, a.default, _named(a.type), choices,
                a.required, a.help, a.metavar, a.nargs, a.const,
            )).encode())
            count += 1
        h.update(repr({k: _named(v) for k, v in parser._defaults.items()}).encode())
    h.update(repr([(a.dest, a.help) for a in commands._choices_actions]).encode())
    for name, (options, start, required) in cli._plain_tables().items():
        h.update(repr((
            name,
            [(option, type(a).__name__, a.dest) for option, a in options.items()],
            {k: _named(v) for k, v in start.items()},
            sorted(required),
        )).encode())
    return count, h.hexdigest()


def committed(family: str = "cli") -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[family]


if __name__ == "__main__":
    count, sha = digest()
    pairs, pairs_sha = pairs_digest()
    answers, levelred_sha = levelred_digest()
    sums, blocks_sha = blocks_digest()
    words, nonzero_sha = nonzero_digest()
    nilhecke, nilhecke_sha = nilhecke_digest()
    words_basis, basis_sha = basis_digest()
    orders, splits_sha = splits_digest()
    inputs, long_sha = long_digest()
    names, cartan_sha = cartan_digest()
    actions, parser_sha = parser_digest()
    print(json.dumps({
        "cli": {"requests": count, "sha256": sha},
        "pairs": {"pairs": pairs, "sha256": pairs_sha},
        "levelred": {"answers": answers, "sha256": levelred_sha},
        "blocks": {"sums": sums, "sha256": blocks_sha},
        "nonzero": {"words": words, "sha256": nonzero_sha},
        "nilhecke": {"answers": nilhecke, "sha256": nilhecke_sha},
        "basis": {"words": words_basis, "sha256": basis_sha},
        "splits": {"orders": orders, "sha256": splits_sha},
        "long": {"inputs": inputs, "sha256": long_sha},
        "cartan": {"names": names, "sha256": cartan_sha},
        "parser": {"actions": actions, "sha256": parser_sha},
    }, indent=2))
