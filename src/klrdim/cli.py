"""Command line front end.

Every request goes through one pipeline, :func:`run`: parse the request,
load the Cartan data, start the time budget, call the command, and print
its answer.  A command is a function ``(ctx, args) -> (doc, text)`` that
prints nothing: ``doc`` is its JSON document without ``schema`` and
``command``, and ``text`` its human-readable document.  ``run`` prints
either the text or the versioned JSON (``"schema": "klr/1"``, keys
sorted), so identical requests produce byte-identical output.

A Cartan source is a registry name or a JSON file.  Node labels resolve
through one index per source, a dict from label to node, built when the
source is loaded.  A registry source (its Cartan data, labels and index)
is cached per name for the life of the process, 64 names at most; a JSON
file is read afresh on every request, so an edit to it shows at once.

Exit codes: 0 on success, 1 on domain errors (bad Cartan data, incompatible
tuples, exceeded time budgets, ...), 2 on usage errors.  Verification
mismatches are data, not errors: ``verify`` exits 0 and reports them.

A plain request -- a command, then options spelled in full, each flag
alone and each other option with one value that does not start with
``-`` -- is read straight from the option tables of the argparse parser,
with each value's type and choices applied as argparse applies them.
Argparse parses every other form of request, so help and every usage
error come from it alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, lru_cache

from . import basis as basis_mod
from . import budget, dims, idempotents, levelred
from .budget import Deadline
from .cartan import (
    CartanData,
    RootElement,
    Weight,
    builtin_cartan,
    builtin_names,
    cartan_from_json,
)
from .errors import BadShape, KlrError, OutOfRange, PreconditionFail
from .perms import BlockForm, block_form_of, sorting_perm
from .qpoly import LaurentPoly, eval_one
from .verify import SCOPES, verify_suite

SCHEMA = "klr/1"
# json.dumps(doc, sort_keys=True) without building an encoder per request.
_JSON = json.JSONEncoder(sort_keys=True)


@dataclass
class Context:
    cartan: CartanData
    labels: list[int]
    index: dict[int, int]
    deadline: Deadline | None


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return list(map(int, text.split(",")))
    except ValueError:
        raise PreconditionFail(f"expected a comma list of integers, got {text!r}") from None


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def _source(c: CartanData, labels: list[int]) -> tuple[CartanData, list[int], dict[int, int]]:
    """Cartan data, its node labels, and the index of each label."""
    return c, labels, {label: i for i, label in enumerate(labels)}


@lru_cache(maxsize=64)
def _registry_source(name: str) -> tuple[CartanData, list[int], dict[int, int]]:
    # Shared by every request that names this type; nothing mutates it.  A
    # bad name raises, and lru_cache never stores an exception.
    c = builtin_cartan(name)
    return _source(c, list(range(1, c.n + 1)))


def _load_cartan(spec: str) -> tuple[CartanData, list[int], dict[int, int]]:
    if spec.endswith(".json") or "/" in spec:
        # A file is read afresh on every request, so an edit to it shows.
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise BadShape(f"cannot read Cartan file {spec}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise BadShape(f"invalid JSON in Cartan file {spec}: {exc}") from None
        return _source(*cartan_from_json(doc))
    return _registry_source(spec)


def _node_vector(ctx: Context, text: str, what: str) -> tuple[int, ...]:
    coeffs = _parse_int_list(text)
    if len(coeffs) != ctx.cartan.n:
        raise PreconditionFail(
            f"{what} needs {ctx.cartan.n} coefficients (node order), got {len(coeffs)}"
        )
    return tuple(coeffs)


def _weight(ctx: Context, args) -> Weight:
    coeffs = _node_vector(ctx, args.weight, "weight")
    if min(coeffs) < 0:
        raise PreconditionFail("weight coefficients must be non-negative")
    return Weight(coeffs)


def _tuple(ctx: Context, text: str) -> tuple[int, ...]:
    index = ctx.index
    try:
        return tuple([index[x] for x in _parse_int_list(text)])
    except KeyError as exc:
        raise OutOfRange(
            f"unknown node label {exc.args[0]}; known labels: {ctx.labels}"
        ) from None


def _beta(ctx: Context, text: str) -> RootElement:
    return RootElement(_node_vector(ctx, text, "block"))


def _grouped(ctx: Context, args) -> tuple[tuple[int, ...], BlockForm]:
    """--mu and its grouped form, in the --letters order when one is given."""
    mu = _tuple(ctx, args.mu)
    return mu, block_form_of(mu, _tuple(ctx, args.letters) if args.letters else None)


def _labels_of(ctx: Context, nu) -> list[int]:
    return list(map(ctx.labels.__getitem__, nu))


def _poly_json(p: LaurentPoly) -> dict:
    return {"pairs": p.to_pairs(), "display": str(p)}


def _csv(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gdim(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    nu = _tuple(ctx, args.nu)
    nuprime = _tuple(ctx, args.nuprime if args.nuprime is not None else args.nu)
    p = dims.graded_dim(ctx.cartan, lam, nu, nuprime, deadline=ctx.deadline)
    doc = {
        "nu": _labels_of(ctx, nu),
        "nuprime": _labels_of(ctx, nuprime),
        "value": _poly_json(p),
    }
    return doc, str(p)


def _cmd_dim(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    if (args.nu is not None or args.nuprime is not None) and (
        args.beta is not None or args.all_pairs
    ):
        raise PreconditionFail("give either --nu/--nuprime or --beta (with --all-pairs), not both")
    if args.nu is not None and args.nuprime is not None:
        nu = _tuple(ctx, args.nu)
        nuprime = _tuple(ctx, args.nuprime)
        v = dims.dim(ctx.cartan, lam, nu, nuprime, deadline=ctx.deadline)
        doc = {"nu": _labels_of(ctx, nu), "nuprime": _labels_of(ctx, nuprime), "value": v}
        return doc, str(v)
    if args.beta is None:
        raise PreconditionFail("need either --nu/--nuprime or --beta")
    beta = _beta(ctx, args.beta)
    if not args.all_pairs:
        v = dims.block_dim(ctx.cartan, lam, beta, deadline=ctx.deadline)
        return {"beta": list(beta.coeffs), "value": v}, str(v)
    tuples = dims.tuples_with_content(beta, deadline=ctx.deadline)
    columns = {
        nuprime: dims.transport_column(ctx.cartan, lam, nuprime, False, ctx.deadline)
        for nuprime in tuples
    }
    pairs = [
        {
            "nu": _labels_of(ctx, nu),
            "nuprime": _labels_of(ctx, nuprime),
            "value": columns[nuprime].get(nu, 0),
        }
        for nu in tuples
        for nuprime in tuples
    ]
    total = sum(pair["value"] for pair in pairs)
    lines = [
        f"e({_csv(pair['nu'])}) e({_csv(pair['nuprime'])})  {pair['value']}"
        for pair in pairs
    ]
    lines.append(f"total  {total}")
    return {"beta": list(beta.coeffs), "pairs": pairs, "total": total}, "\n".join(lines)


def _cmd_block(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    beta = _beta(ctx, args.beta)
    g = dims.block_graded_dim(ctx.cartan, lam, beta, deadline=ctx.deadline)
    u = eval_one(g)
    doc = {"beta": list(beta.coeffs), "graded": _poly_json(g), "ungraded": u}
    return doc, f"graded   {g}\nungraded {u}"


def _cmd_algebra(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    n = args.n
    if n < 0:
        raise PreconditionFail("--n must be >= 0")
    # One walk over the words of length n; a block with no nonzero word is 0.
    by_content = dims.blocks_graded_dims(ctx.cartan, lam, n, deadline=ctx.deadline)
    blocks = []
    for beta in dims.blocks_of_size(ctx.cartan, n):
        # C(n + rank - 1, n) blocks, however few words are nonzero.
        budget.check(ctx.deadline, "block sum")
        g = by_content.get(beta, LaurentPoly.zero())
        blocks.append((beta, g, eval_one(g)))
    total_g = sum(by_content.values(), LaurentPoly.zero())
    total_u = eval_one(total_g)
    lines = [f"beta={_csv(beta.coeffs)}  graded {g}  ungraded {u}" for beta, g, u in blocks]
    lines.append(f"total  graded {total_g}  ungraded {total_u}")
    doc = {
        "n": n,
        "blocks": [
            {"beta": list(b.coeffs), "graded": _poly_json(g), "ungraded": u}
            for b, g, u in blocks
        ],
        "total": {"graded": _poly_json(total_g), "ungraded": total_u},
    }
    return doc, "\n".join(lines)


def _cmd_nonzero(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    nu = _tuple(ctx, args.nu)
    method = args.method
    if method == "direct":
        verdict = idempotents.nonzero_direct(ctx.cartan, lam, nu, deadline=ctx.deadline)
    elif method == "divided":
        verdict = idempotents.nonzero_divided(ctx.cartan, lam, nu, deadline=ctx.deadline)
    elif method == "blockwise":
        verdict = idempotents.nonzero_blockwise(ctx.cartan, lam, nu)
    else:
        fundamentals = [i for i, k in enumerate(lam.coeffs) for _ in range(k)]
        verdict = idempotents.nonzero_by_shuffle(
            ctx.cartan, nu, fundamentals, deadline=ctx.deadline
        )
    witness = verdict.witness
    if method == "shuffle" and witness is not None:
        witness = [_labels_of(ctx, piece) for piece in witness]
    elif method == "blockwise":
        witness = [list(pair) for pair in witness]
    doc = {
        "nu": _labels_of(ctx, nu),
        "method": verdict.method,
        "nonzero": verdict.nonzero,
        "witness": witness,
    }
    return doc, (
        f"{'nonzero' if verdict.nonzero else 'zero'} (method {verdict.method}, "
        f"witness {witness})"
    )


def _cmd_basis(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    mu, form = _grouped(ctx, args)
    basis = basis_mod.MonomialBasis(
        mu, form, basis_mod.exponent_bounds(ctx.cartan, lam, mu, form)
    )
    cardinality = 0 if basis.empty else basis.cardinality
    doc = {
        "mu": _labels_of(ctx, mu),
        "grouped": _labels_of(ctx, form.tuple),
        "bounds": list(basis.bounds),
        "block_sizes": list(form.sizes),
        "empty": basis.empty,
        "cardinality": cardinality,
    }
    lines = [
        f"grouped {_csv(doc['grouped'])}",
        f"bounds  {_csv(basis.bounds)}",
        f"cardinality {cardinality}",
    ]
    if args.list and not basis.empty:
        elements = []
        for w, r in basis.elements():
            budget.check(ctx.deadline, "basis enumeration")
            elements.append({"w": list(w), "r": list(r)})
            lines.append(f"w={list(w)} r={list(r)}")
        doc["elements"] = elements
    return doc, "\n".join(lines)


def _cmd_reduce(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    parts = [Weight(_node_vector(ctx, chunk, "split part")) for chunk in args.split.split(";")]
    if (args.nu is not None or args.mu is not None) and args.beta is not None:
        raise PreconditionFail("give either --nu/--mu or --beta, not both")
    if args.nu is not None and args.mu is not None:
        nu = _tuple(ctx, args.nu)
        mu = _tuple(ctx, args.mu)
        reduced = levelred.reduce_pair_dim_multi(
            ctx.cartan, lam, nu, mu, parts, deadline=ctx.deadline
        )
        direct = dims.dim(ctx.cartan, lam, nu, mu, deadline=ctx.deadline)
        doc = {"nu": _labels_of(ctx, nu), "mu": _labels_of(ctx, mu)}
    elif args.beta is not None:
        beta = _beta(ctx, args.beta)
        reduced = levelred.reduce_block_dim(
            ctx.cartan, lam, beta, parts, deadline=ctx.deadline
        )
        direct = dims.block_dim(ctx.cartan, lam, beta, deadline=ctx.deadline)
        doc = {"beta": list(beta.coeffs)}
    else:
        raise PreconditionFail("need either --nu/--mu or --beta")
    doc.update(
        {
            "split": [list(w.coeffs) for w in parts],
            "reduced": reduced,
            "direct": direct,
            "match": reduced == direct,
        }
    )
    return doc, (
        f"reduced {reduced}\ndirect  {direct}\n"
        f"{'match' if reduced == direct else 'MISMATCH'}"
    )


def _cmd_tilde(ctx: Context, args) -> tuple[dict, str]:
    mu, form = _grouped(ctx, args)
    d = sorting_perm(mu, form)
    doc = {
        "mu": _labels_of(ctx, mu),
        "grouped": _labels_of(ctx, form.tuple),
        "letters": _labels_of(ctx, form.letters),
        "block_sizes": list(form.sizes),
        "sorting_perm": list(d),
    }
    text = (
        f"grouped {_csv(doc['grouped'])}\n"
        f"blocks  {_csv(form.sizes)}\n"
        f"sorting permutation {list(d)}"
    )
    if args.weight is not None:
        lam = _weight(ctx, args)
        bounds = basis_mod.exponent_bounds(ctx.cartan, lam, mu, form)
        doc["bounds"] = list(bounds)
        text += f"\nbounds  {_csv(bounds)}"
    return doc, text


def _cmd_verify(ctx: Context, args) -> tuple[dict, str]:
    lam = _weight(ctx, args)
    if args.max_n < 0:
        raise PreconditionFail("--max-n must be >= 0")
    reports = verify_suite(
        args.suite, ctx.cartan, lam, max_n=args.max_n, deadline=ctx.deadline
    )
    doc = {
        "suite": args.suite,
        "ok": all(r.ok for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    return doc, "\n".join(f"[{r.suite}] {r.summary()}" for r in reports)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and then shared by every request of the process:
    # parse_args fills a fresh namespace each time and no option has a
    # mutable default, so nothing carries over from one request to the next.
    parser = argparse.ArgumentParser(
        prog="klrdim",
        description=(
            "Exact dimensions, idempotent tests, level reduction and "
            "monomial-basis indexing for cyclotomic quiver Hecke algebras."
        ),
        epilog=(
            "Cartan sources: a registry name (" + builtin_names() + ") or a "
            'JSON file {"matrix": [[...]], "labels": [...]}. Builtin labels '
            "are 1..rank in node order; weights and blocks are comma lists "
            "in node order; tuples are comma lists of node labels. "
            "Exit codes: 0 success, 1 domain error, 2 usage error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weight_required=True):
        p.add_argument("--cartan", required=True, help="registry name or JSON file")
        p.add_argument(
            "--weight",
            required=weight_required,
            default=None,
            help="dominant weight coefficients, comma list in node order",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--time-budget",
            type=_seconds,
            default=None,
            metavar="SECONDS",
            help="abort enumerations after this wall-clock budget",
        )

    p = sub.add_parser("gdim", help="graded dimension of one pair")
    common(p)
    p.add_argument("--nu", required=True)
    p.add_argument("--nuprime", default=None, help="defaults to --nu")
    p.set_defaults(func=_cmd_gdim)

    p = sub.add_parser("dim", help="ungraded dimension of a pair or block")
    common(p)
    p.add_argument("--nu", default=None)
    p.add_argument("--nuprime", default=None)
    p.add_argument("--beta", default=None, help="block multiplicities, node order")
    p.add_argument("--all-pairs", action="store_true", dest="all_pairs")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("block", help="graded and ungraded dimension of a block")
    common(p)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("algebra", help="whole-algebra dimensions at size n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("nonzero", help="decide whether e(nu) vanishes")
    common(p)
    p.add_argument("--nu", required=True)
    p.add_argument(
        "--method",
        choices=("direct", "divided", "blockwise", "shuffle"),
        default="direct",
    )
    p.set_defaults(func=_cmd_nonzero)

    p = sub.add_parser("basis", help="monomial basis index set for --mu")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--letters", default=None, help="explicit letter order")
    p.add_argument("--list", action="store_true", help="emit every (w, r) element")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("reduce", help="level-reduce a pair or block dimension")
    common(p)
    p.add_argument(
        "--split",
        required=True,
        help="weight parts separated by ';', e.g. '1,0;0,1;0,1'",
    )
    p.add_argument("--nu", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--beta", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("tilde", help="canonical grouped form of a tuple")
    common(p, weight_required=False)
    p.add_argument("--mu", required=True)
    p.add_argument("--letters", default=None)
    p.set_defaults(func=_cmd_tilde)

    p = sub.add_parser(
        "verify",
        help="run a self-verification suite (mismatches are reported, not raised)",
    )
    common(p)
    p.add_argument("--suite", choices=SCOPES, default="all")
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.set_defaults(func=_cmd_verify)

    return parser


@cache
def _plain_tables() -> dict[str, tuple[dict, dict, frozenset]]:
    """Per command: each full option string of a ``store`` or ``store_true``
    action mapped to its action, the namespace argparse starts that command
    from, and the required destinations."""
    (commands,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    tables = {}
    for name, sub in commands.choices.items():
        options, start = {}, {"command": name}
        for action in sub._actions:
            if action.default is not argparse.SUPPRESS:
                start[action.dest] = action.default
            if type(action) in (argparse._StoreAction, argparse._StoreTrueAction):
                options.update(dict.fromkeys(action.option_strings, action))
        start.update(sub._defaults)
        required = frozenset(a.dest for a in sub._actions if a.required)
        tables[name] = (options, start, required)
    return tables


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a plain request, or None for any other
    form: an unknown command or option, an abbreviation, ``--opt=value``, a
    value that starts with ``-``, a bad type or choice, or a missing
    required option.  A repeated option keeps its last value, as in
    argparse."""
    table = _plain_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    options, start, required = table
    args = argparse.Namespace()
    values = vars(args)
    values.update(start)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        given.add(action.dest)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= given:
        return None
    return args


def run(argv: list[str] | None = None) -> int:
    """Answer one request, print its document and return its exit code.

    The one pipeline of every command: parse the request, load the Cartan
    data and start the time budget, call the command, then print its JSON
    document (with ``schema`` and ``command`` added) or its text document.
    A domain error prints the JSON error document, or an ``error:`` line on
    stderr, and exits 1.  A plain request skips argparse
    (:func:`_parse_plain`); argparse parses every other form, and prints
    help and usage errors (exit 2).
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        cartan, labels, index = _load_cartan(args.cartan)
        deadline = Deadline(args.time_budget) if args.time_budget is not None else None
        doc, text = args.func(Context(cartan, labels, index, deadline), args)
    except KlrError as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        text, code, out = f"error: {type(exc).__name__}: {exc}", 1, sys.stderr
    else:
        doc["command"] = args.command
        code, out = 0, sys.stdout
    if args.format == "json":
        doc["schema"] = SCHEMA
        print(_JSON.encode(doc))
    else:
        print(text, file=out)
    return code


def main() -> None:
    # Dimensions grow factorially; print them past the interpreter's
    # default cap on int-to-str digits (4300).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # the interpreter's final flush cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
