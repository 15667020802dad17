"""Mutation harness: does the test suite notice when the code is broken?

Each entry of ``MUTATIONS`` names a mutation, the file it edits, an exact
old text, the text that replaces it and the test files to run.  For each
one the script copies the tree to a temporary directory, replaces the old
text there, and runs ``python -m pytest -x -q`` on those test files with
``src`` of the copy first on the path.  A mutation is

* killed when a test fails (or the mutated code cannot be collected),
* survived when every test passes,
* stale when its old text does not occur exactly once in its file, so
  that the entry needs refreshing after the code moved.

Before the mutations, the unmutated tree runs every test file of the
table once; a failure there stops the script, since it would make every
mutation look killed.  Run

    python tests/mutate.py              # every mutation, then the score
    python tests/mutate.py NAME ...     # only the named mutations

The exit status is 0 when every mutation run was killed.  The file name
does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.egg-info",
)

CARTAN = "src/klrdim/cartan.py"
CLI = "src/klrdim/cli.py"
DIMS = "src/klrdim/dims.py"
LEVELRED = "src/klrdim/levelred.py"
DIMS_TESTS = ("tests/test_dims.py", "tests/test_corpus.py")
LEVELRED_TESTS = ("tests/test_levelred.py", "tests/test_corpus.py")
CARTAN_TESTS = ("tests/test_cartan.py", "tests/test_corpus.py")
CLI_TESTS = ("tests/test_cli.py", "tests/test_corpus.py")

# (name, file, old text, new text, test files)
MUTATIONS = (
    # The column walk of the block sums.
    ("run factor f - r", DIMS,
     "lambda r, f, dx: r * (f - r + 1)", "lambda r, f, dx: r * (f - r)", DIMS_TESTS),
    ("run factor read after the letter's pairing", DIMS,
     "(len(stem), pairing[i])", "(len(stem), pairing[i] - 2)", DIMS_TESTS),
    # The one grading shift per block.
    ("grading shift without halving (beta|beta)", CARTAN,
     "return lam_beta - beta_beta // 2", "return lam_beta - beta_beta", DIMS_TESTS),
    ("grading shift without d_i in (Lambda|beta)", CARTAN,
     "lam_beta += d[i] * coeffs[i] * m", "lam_beta += coeffs[i] * m", DIMS_TESTS),
    ("recursion shifts by e, not d_x e", DIMS,
     "shift = c.symmetrizer[x] * e", "shift = e", DIMS_TESTS),
    ("recursion sum not shifted", DIMS,
     "sum_of_products(pairs).shift(shift)", "sum_of_products(pairs)", DIMS_TESTS),
    ("recursion sub-call for a zero factor", DIMS,
     "if y == x and reduced:", "if y == x:", ("tests/test_verify.py",)),
    # The pair walk.
    ("zero test inverted", DIMS,
     "if not _transport_sum(c, lam, nu, nuprime, False, deadline):",
     "if _transport_sum(c, lam, nu, nuprime, False, deadline):", DIMS_TESTS),
    ("a_yx in place of a_xy", DIMS,
     "if key & bit:\n                        f -= row[y]",
     "if key & bit:\n                        f -= matrix[y][x]", DIMS_TESTS),
    ("taken slots not subtracted", DIMS,
     "if key & bit:\n                        f -= row[y]",
     "if key & bit:\n                        pass", DIMS_TESTS),
    ("every factor one higher", DIMS,
     "factor(f, d[x]) * value", "factor(f + 1, d[x]) * value", DIMS_TESTS),
    ("[f]_q in place of [f]_{q^d_x}", DIMS,
     "factor(f, d[x]) * value", "factor(f, 1) * value", DIMS_TESTS),
    # The divided-power walk.
    ("divided walk without the run offset", DIMS,
     "f = lam.coeffs[x] + offsets[t]", "f = lam.coeffs[x]", DIMS_TESTS),
    ("ascending rule kept across runs", DIMS,
     "key = (mask | bit, p if later[t] else -1)", "key = (mask | bit, p)", DIMS_TESTS),
    # Vanishing tests and bases.
    ("shuffle twin among the later pieces", "src/klrdim/idempotents.py",
     "for j in range(i - 1, -1, -1) if", "for j in range(i + 1, l) if",
     ("tests/test_idempotents.py", "tests/test_corpus.py")),
    ("shuffle search with nu unchecked", "src/klrdim/idempotents.py",
     "nu, _ = _checked(c, Weight((0,) * c.n), nu)", "nu = tuple(nu)", ("tests/test_dims.py",)),
    ("exponent bounds without the same-letter count", "src/klrdim/basis.py",
     "        running[y] -= 1\n", "", ("tests/test_basis.py", "tests/test_corpus.py")),
    ("running bound lowered before it is read", "src/klrdim/basis.py",
     "        out.append(running[y])\n        running[y] -= 1\n",
     "        running[y] -= 1\n        out.append(running[y])\n",
     ("tests/test_basis.py", "tests/test_corpus.py")),
    # The command line.
    ("JSON Cartan sources cached by path", CLI,
     "\ndef _load_cartan(spec: str)", "\n@lru_cache(maxsize=64)\ndef _load_cartan(spec: str)",
     ("tests/test_cli.py",)),
    # The table of subcommands.
    ("tilde's row requires --weight", CLI,
     '"canonical grouped form of a tuple", False,', '"canonical grouped form of a tuple", True,',
     CLI_TESTS),
    ("--time-budget added without type=_seconds", CLI, "type=_seconds, ", "", CLI_TESTS),
    ("--method defaults to divided", CLI, 'default="direct"', 'default="divided"', CLI_TESTS),
    ("--max-n defaults to 2", CLI, "dict(type=int, default=3)", "dict(type=int, default=2)",
     CLI_TESTS),
    # Level reduction.
    ("pair states overwritten, not added to", LEVELRED,
     "grown[rest] = grown.get(rest, zero) + coef", "grown[rest] = coef", LEVELRED_TESTS),
    ("block peel without C(|beta|, |beta_1|)^2", LEVELRED,
     "coef * comb(size, sum(first)) ** 2 * term", "coef * term", LEVELRED_TESTS),
    ("pair term times k_nu only", LEVELRED,
     "coef * (k_nu * k_mu) * term", "coef * k_nu * term", LEVELRED_TESTS),
    ("mu dealt with the head for the tail sum", LEVELRED,
     "_kept(mu_left, head, tail_sum,", "_kept(mu_left, head, head.coeffs,", LEVELRED_TESTS),
    ("zero parts kept in the peels", LEVELRED,
     "[part for part in split if any(part.coeffs)]", "[part for part in split]", LEVELRED_TESTS),
    ("whole-sum key without the parts", LEVELRED,
     'memo = ("pair sum", graded, parts, nu, mu)', 'memo = ("pair sum", graded, nu, mu)',
     LEVELRED_TESTS),
    ("whole-sum key on the sorted parts", LEVELRED,
     'memo = ("pair sum", graded, parts, nu, mu)',
     'memo = ("pair sum", graded, tuple(sorted(parts)), nu, mu)', LEVELRED_TESTS),
    ("last-part first-letter prune dropped", LEVELRED,
     "if rest_nu and not (last.coeffs[rest_nu[0]] and last.coeffs[rest_mu[0]]):", "if False:",
     LEVELRED_TESTS),
    # Enumeration orders.
    ("blocks_of_size in reversed order", DIMS,
     "yield RootElement(coeffs)", "yield RootElement(coeffs[::-1])", ("tests/test_corpus.py",)),
    # The builtin registry.
    ("D_n branch edge at node r - 4", CARTAN,
     "_chain(r - 1) + [(r - 3, r - 1, -1, -1)]", "_chain(r - 1) + [(r - 4, r - 1, -1, -1)]",
     CARTAN_TESTS),
    ("E_n edge (1, 3) moved to (1, 4)", CARTAN,
     "[(0, 2, -1, -1), (1, 3, -1, -1)]", "[(0, 2, -1, -1), (1, 4, -1, -1)]", CARTAN_TESTS),
    ("B_n -2 on the other side of its last edge", CARTAN,
     "_chain(r - 1) + [(r - 2, r - 1, -1, -2)]", "_chain(r - 1) + [(r - 2, r - 1, -2, -1)]",
     CARTAN_TESTS),
    ("twisted A without its evenness test", CARTAN,
     "r >= 2 and r % 2 == 0", "r >= 2", CARTAN_TESTS),
    # Input checks that the weights own.
    ("Weight.fundamental without its range test", CARTAN,
     "        if not 0 <= i < n:\n            raise OutOfRange(", "        if False:\n            raise OutOfRange(",
     ("tests/test_cartan.py", "tests/test_dims.py")),
    ("Weight.__add__ without its length test", CARTAN,
     "if len(self.coeffs) != len(other.coeffs):", "if False:",
     ("tests/test_cartan.py", "tests/test_levelred.py")),
    # The verify suites.
    ("oracle walks graded columns only into zero words", "src/klrdim/verify.py",
     "if plain_columns[w] else {}", "if not plain_columns[w] else {}",
     ("tests/test_verify.py",)),
    ("counterexample polynomial rendered by repr", "src/klrdim/verify.py",
     "return str(value) if isinstance(value, LaurentPoly)",
     "return repr(value) if isinstance(value, LaurentPoly)", ("tests/test_verify.py",)),
)


def pytest(tree: Path, tests) -> int:
    """The exit status of ``python -m pytest -x -q`` on ``tests`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def run(path: str, old: str, new: str, tests) -> str:
    """Apply one mutation to a copy of the tree and say what the tests did."""
    if (ROOT / path).read_text().count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        target = tree / path
        target.write_text(target.read_text().replace(old, new))
        code = pytest(tree, tests)
    if code == 0:
        return "survived"
    if code in (1, 2):
        return "killed"
    return f"error (pytest exit {code})"


def main(names: list[str]) -> int:
    table = [m for m in MUTATIONS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTATIONS}
    if unknown:
        raise SystemExit(f"no mutation named {sorted(unknown)}")
    files = sorted({t for m in table for t in m[4]})
    if pytest(ROOT, files):
        raise SystemExit(f"the unmutated tree fails {' '.join(files)}; fix that first")
    verdicts = []
    for name, path, old, new, tests in table:
        start = time.perf_counter()
        verdict = run(path, old, new, tests)
        verdicts.append(verdict)
        print(f"{verdict:9s} {time.perf_counter() - start:6.1f} s  {name}", flush=True)
    killed = verdicts.count("killed")
    print(f"score: {killed}/{len(verdicts)} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('stale')} stale")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
