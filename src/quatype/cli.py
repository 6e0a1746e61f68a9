"""Command-line front end.

Exit codes are a stable contract: 0 success / all checks pass, 1 verification
failure, 2 usage or parse error, 3 exponential non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .blades import Signature, grade
from .multivector import (
    AlgebraError,
    ConvergenceFailure,
    Field,
    Multivector,
    _integer_l1,
)
from .qtype import OpKind, TYPE_ORDER, detect_qtype, emit_table, pattern_of
from .verify import SUITE_NAMES, CheckConfig, CheckStatus, Strategy, run_suite

_BINARY_OPS = {
    "gp": "geometric_product",
    "comm": "commutator",
    "anticomm": "anticommutator",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quatype",
        description="Exact Clifford algebra arithmetic with a mod-4 grading layer.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    signature = argparse.ArgumentParser(add_help=False)
    signature.add_argument("--p", type=int, default=2, help="generators squaring to +1")
    signature.add_argument("--q", type=int, default=2, help="generators squaring to -1")

    v = sub.add_parser(
        "verify", help="run verification suites", parents=[signature],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    v.add_argument("--suite", default="all", choices=SUITE_NAMES,
                   help="which checks to run: a group or a single check")
    v.add_argument("--samples", type=int, default=CheckConfig.samples,
                   help="exp witness samples per theorem7 row")
    v.add_argument("--seed", type=int, default=CheckConfig.seed,
                   help="base seed for sampling")
    v.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser(
        "table", help="print a 15 x 15 type composition table",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    t.add_argument("--op", required=True, choices=[op.value for op in OpKind],
                   help="operation the table composes under")
    t.add_argument("--format", default="markdown",
                   choices=["markdown", "csv", "json"], help="output format")
    t.set_defaults(func=cmd_table)

    ty = sub.add_parser(
        "type", help="classify a multivector", parents=[signature],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    src = ty.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", help="multivector expression, e.g. '1 + 2e12'")
    src.add_argument("--input", help="path to a multivector document (JSON)")
    ty.add_argument("--tol", type=float, default=1e-12,
                    help="detection tolerance (relative)")
    ty.set_defaults(func=cmd_type)

    ev = sub.add_parser(
        "eval", help="evaluate an operation on expressions", parents=[signature],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    ev.add_argument("--lhs", required=True, help="left operand expression")
    ev.add_argument("--rhs", default=None, help="right operand (binary ops only)")
    ev.add_argument("--op", required=True,
                    choices=[*_BINARY_OPS, "conj", "exp"],
                    help="gp/comm/anticomm are binary, conj/exp unary")
    ev.set_defaults(func=cmd_eval)
    return ap


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args: argparse.Namespace) -> int:
    sig = Signature(args.p, args.q)
    cfg = CheckConfig(sig=sig, seed=args.seed, samples=args.samples)
    reports = run_suite([args.suite], cfg)
    counts = {status: 0 for status in CheckStatus}
    for report in reports:
        counts[report.status] += 1
    if args.format == "json":
        payload = {
            "command": "verify",
            "p": sig.p,
            "q": sig.q,
            "suite": args.suite,
            "seed": cfg.seed,
            "samples": cfg.samples,
            "strategy": Strategy.EXHAUSTIVE.value,
            "reports": [r.to_dict() for r in reports],
            "summary": {s.value: counts[s] for s in CheckStatus},
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(r.name) for r in reports)
        for r in reports:
            line = f"{r.name:<{width}}  {r.status.value.upper():<7}  cases={r.cases_run}"
            if r.notes:
                line += f"  [{r.notes}]"
            print(line)
            if r.counterexample is not None:
                ce = r.counterexample
                print(f"{'':<{width}}  counterexample: {ce.operation}("
                      f"{ce.lhs}{', ' + ce.rhs if ce.rhs else ''}) "
                      f"leaks {ce.magnitude:g} in {ce.component}")
        total = len(reports)
        print(f"{total} checks: {counts[CheckStatus.PASS]} pass, "
              f"{counts[CheckStatus.FAIL]} fail, "
              f"{counts[CheckStatus.SKIPPED]} skipped")
    return 1 if counts[CheckStatus.FAIL] else 0


def cmd_table(args: argparse.Namespace) -> int:
    table = emit_table(OpKind(args.op))
    order = [str(t) for t in TYPE_ORDER]
    cells = [[str(c) for c in row] for row in table]
    if args.format == "json":
        print(json.dumps({"op": args.op, "order": order, "cells": cells}, indent=2))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow([args.op] + order)
        for label, row in zip(order, cells):
            writer.writerow([label] + row)
    else:
        print("| " + args.op + " | " + " | ".join(order) + " |")
        print("|" + "---|" * (len(order) + 1))
        for label, row in zip(order, cells):
            print("| " + label + " | " + " | ".join(row) + " |")
    return 0


def _load_operand(args: argparse.Namespace, sig: Signature) -> Multivector:
    from .exprio import mv_from_document, parse_expression

    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError("document nested too deeply") from None
        return mv_from_document(doc, sig)
    return parse_expression(args.expr, sig)


def cmd_type(args: argparse.Namespace) -> int:
    from .exprio import format_expression

    sig = Signature(args.p, args.q)
    u = _load_operand(args, sig)
    qt = detect_qtype(u, args.tol)
    print(f"signature: {sig}")
    print(f"field: {u.field.value}")
    print(f"type: {qt if qt else '(empty)'}")
    print(f"pattern: {pattern_of(u, args.tol)}")
    for k in sorted(u.grades()):
        print(f"grade {k}: {format_expression(u.grade_project(k))}")
    print(f"even: {format_expression(u.parity_project(True))}")
    print(f"odd: {format_expression(u.parity_project(False))}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .exprio import format_expression, mv_to_document, parse_expression

    sig = Signature(args.p, args.q)
    unary = args.op not in _BINARY_OPS
    if unary and args.rhs is not None:
        return _fail_usage(f"--op {args.op} is unary; drop --rhs")
    if not unary and args.rhs is None:
        return _fail_usage(f"--op {args.op} needs --rhs")
    lhs = parse_expression(args.lhs, sig)
    if unary:
        result = lhs.conjugate() if args.op == "conj" else lhs.exp()
    else:
        rhs = parse_expression(args.rhs, sig)
        if lhs.field is not rhs.field:  # promote the real side
            lhs = Multivector(sig, Field.COMPLEX, dict(lhs.terms))
            rhs = Multivector(sig, Field.COMPLEX, dict(rhs.terms))
        result = getattr(lhs, _BINARY_OPS[args.op])(rhs)
        # README's bound: integer products stay exact while the l1 product is
        # below 2^53, brackets (a difference of two products) below 2^52
        a, b = _integer_l1(lhs.terms.values()), _integer_l1(rhs.terms.values())
        bits = 53 if args.op == "gp" else 52
        if a is not None and b is not None and a * b >= 1 << bits:
            print(f"note: l1(lhs)*l1(rhs) = {a * b} is at least 2^{bits}; "
                  "the result may not be exact", file=sys.stderr)
    print(format_expression(result))
    print(json.dumps(mv_to_document(result)))
    return 0


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AlgebraError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    # Stdout is written once the command is done, so a reader that closes
    # the pipe early cannot change the exit code.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _run(argv)
    try:
        # print, not sys.stdout.write: with no stdout at all it does nothing
        print(out.getvalue(), end="", flush=True)
    except BrokenPipeError:
        # Nobody is reading: say nothing, and point stdout at devnull so the
        # flush at interpreter exit does not fail on the same data.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
