"""Command-line interface.

Commands: check, enum, chain, laws, subst, translate, fv.  Every command
is deterministic given its flags and seed.  Exit codes: 0 success,
1 law or validation failure, 2 usage or I/O problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal
from itertools import islice

from .errors import BindsigError, ContextMismatch, UnknownBuiltin
from .model import fold, fv_model, run_law_suites
from .sigdef import Signature, TokenStream, _load_signature, parse_signature, parse_sort
from .subst import make_assignment, subst
from .term import (
    _printed_stage,
    _read_term,
    chain_count,
    check_context,
    parse_context,
    parse_term,
    print_term,
    sort_of,
)
from .translate import builtin_table, parse_table, translate_term

__all__ = ["main"]


def _resolve_sort(sig: Signature, text: str | None):
    if text is None:
        if sig.types.untyped:
            return sig.types.single_sort()
        raise ContextMismatch("--sort is required for a multi-sorted signature")
    sort = parse_sort(text)
    check_context(sig.types, (sort,))
    return sort


def _digits(n: int) -> str:
    """The decimal digits of ``n``, however many: ``str`` refuses more than
    the interpreter's int-to-str limit, ``Decimal`` does not."""
    return str(Decimal(n))


_CHUNK = 4096  # listing lines per write


def _emit(records: bool, text_value: str, record: dict) -> None:
    if records:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text_value)


def _cmd_check(args) -> int:
    with open(args.sigfile, "r", encoding="utf-8") as fh:
        text = fh.read()
    sig = parse_signature(text)
    print(f"ok: {len(sig.schemas)} operator(s)", file=sys.stderr)
    return 0


def _cmd_enum(args) -> int:
    sig = _load_signature(args.sig)
    ctx = parse_context(sig.types, args.ctx)
    sort = _resolve_sort(sig, args.sort)
    records = args.format == "records"
    if args.count:
        n = _digits(chain_count(sig, ctx, sort, args.depth, args.max_sort_depth))
        _emit(records, n, {"count": n})
        return 0
    lines = _printed_stage(sig, ctx, sort, args.depth, args.max_sort_depth)
    if records:  # as json.dumps({"term": text}, sort_keys=True), without the dict
        lines = ('{"term": ' + json.dumps(text) + "}" for text in lines)
    write = sys.stdout.write
    while chunk := list(islice(lines, _CHUNK)):
        write("\n".join(chunk) + "\n")
    return 0


def _cmd_chain(args) -> int:
    sig = _load_signature(args.sig)
    ctx = parse_context(sig.types, args.ctx)
    sort = _resolve_sort(sig, args.sort)
    records = args.format == "records"
    for k in range(args.depth + 1):
        n = _digits(chain_count(sig, ctx, sort, k, args.max_sort_depth))
        _emit(records, f"{k} {n}", {"stage": k, "count": n})
    return 0


def _cmd_laws(args) -> int:
    sig = _load_signature(args.sig)
    reports = run_law_suites(
        sig,
        model_name=args.model,
        depth=args.depth,
        seed=args.seed,
        cases=args.cases,
        max_sort_depth=args.max_sort_depth,
    )
    ok = True
    for report in reports:
        lines = report.to_records() if args.format == "records" else report.to_lines()
        for line in lines:
            print(line)
        ok = ok and report.passed
    return 0 if ok else 1


def _cmd_subst(args) -> int:
    sig = _load_signature(args.sig)
    ctx = parse_context(sig.types, args.ctx)
    target = parse_context(sig.types, args.target) if args.target else ctx
    t = parse_term(args.term)
    sort_of(sig, ctx, t)  # validate before substituting
    ts = TokenStream(args.assign)
    images = ts.form("assign", lambda: _read_term(ts))
    ts.expect_eof()
    assignment = make_assignment(sig, ctx, target, images)
    print(print_term(subst(sig, t, assignment)))
    return 0


def _cmd_translate(args) -> int:
    try:
        table = builtin_table(args.table)
    except UnknownBuiltin:
        with open(args.table, "r", encoding="utf-8") as fh:
            table = parse_table(fh.read())
    ctx = parse_context(table.source.types, args.ctx)
    t = parse_term(args.term)
    sort_of(table.source, ctx, t)
    print(print_term(translate_term(table, ctx, t)))
    return 0


def _cmd_fv(args) -> int:
    sig = _load_signature(args.sig)
    ctx = parse_context(sig.types, args.ctx)
    t = parse_term(args.term)
    sort_of(sig, ctx, t)
    model = fv_model(sig)
    print(model.show(fold(model, sig, ctx, t)))
    return 0


def _term_argument(parser):
    parser.add_argument("term_pos", nargs="?", metavar="TERM", help="term in the s-expression grammar")
    parser.add_argument("--term", dest="term_flag", help="term in the s-expression grammar")


def _fix_term(args, parser):
    term = args.term_flag if args.term_flag is not None else args.term_pos
    if term is None:
        parser.error("a term is required (positional or --term)")
    args.term = term


@functools.cache  # built on the first main(), then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bindsig",
        description="well-scoped syntax, substitution, and folds for binding signatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a signature file")
    p.add_argument("sigfile")
    p.set_defaults(run=_cmd_check)

    def common(p, sort=True):
        p.add_argument("--sig", default="ulc", help="builtin name or signature file")
        p.add_argument("--ctx", default="0", help="context: size (untyped) or '(ctx s0 s1 ...)'")
        if sort:
            p.add_argument("--sort", default=None, help="sort of the enumerated cell")
        p.add_argument("--max-sort-depth", type=int, default=None, dest="max_sort_depth")
        p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("enum", help="list (or count) one chain stage")
    common(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--count", action="store_true", help="print the count only")
    p.set_defaults(run=_cmd_enum)

    p = sub.add_parser("chain", help="chain statistics: counts for stages 0..depth")
    common(p)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(run=_cmd_chain)

    p = sub.add_parser("laws", help="run the monoid/module/morphism suites")
    p.add_argument("--sig", default="ulc")
    p.add_argument("--model", choices=("term", "fv"), default="term")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=0, help="extra seeded random cases")
    p.add_argument("--max-sort-depth", type=int, default=None, dest="max_sort_depth")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_cmd_laws)

    p = sub.add_parser("subst", help="apply a simultaneous substitution")
    common(p, sort=False)
    _term_argument(p)
    p.add_argument("--assign", required=True, help="'(assign t0 t1 ...)' positional over --ctx")
    p.add_argument("--target", default=None, help="target context; defaults to --ctx")
    p.set_defaults(run=_cmd_subst, needs_term=True)

    p = sub.add_parser("translate", help="translate a term along a table")
    p.add_argument("--table", required=True, help="builtin table (fol2ll, stlc2ulc) or file")
    p.add_argument("--ctx", default="0")
    _term_argument(p)
    p.set_defaults(run=_cmd_translate, needs_term=True)

    p = sub.add_parser("fv", help="free-variable indices of a term")
    p.add_argument("--sig", default="ulc")
    p.add_argument("--ctx", default="0")
    _term_argument(p)
    p.set_defaults(run=_cmd_fv, needs_term=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_term", False):
        _fix_term(args, parser)
    try:
        return args.run(args)
    except BindsigError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as e:  # a file that cannot be read as UTF-8
        print(f"io error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as e:
        message = "input too large or nested too deeply"
        print(f"resource error: {type(e).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
