"""Command-line front end.

Subcommands: reduce, solve, decide, simulate, decode, verify-roundtrip,
bench.  Exit codes: 0 success, 1 usage error or any other failure (including
a horizon too deep for the recursive searches), 2 solver budget exceeded, 3
verification disagreement.  Every failure is one line on stderr, with no
traceback.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .core import EXACT, _distributions, _plan_states, _value
from .instance_io import (
    artifact_from_document,
    format_scalar,
    parse_dimacs,
    read_instance,
    read_plan,
    write_artifact,
    write_plan,
)
from .reduction import (
    SIGN_CHARS,
    VerificationError,
    decode_assignment,
    encode_reduction,
    normalize_cnf,
    verify_roundtrip,
)
from .solvers import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    beam_search,
    branch_and_bound_solve,
    decide_threshold,
    enumerate_solve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_DISAGREEMENT = 3

DEFAULT_BEAM_WIDTH = 8

# per method, its solver called with an instance, a beam width and an
# enumeration budget
_SOLVERS = {
    "enum": lambda inst, width, budget: enumerate_solve(inst, budget=budget),
    "bnb": lambda inst, width, budget: branch_and_bound_solve(inst),
    "beam": lambda inst, width, budget: beam_search(inst, width),
}
METHODS = tuple(_SOLVERS)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken by "budget
    # exceeded" here, so route usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timemachine",
        description="Optimize antibiotic treatment plans and run the 3-SAT reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("reduce", help="compile a DIMACS CNF file into an instance")
    p.add_argument("--cnf", required=True, help="DIMACS CNF input file")
    p.add_argument("--out", required=True, help="instance file to write")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="maximize plan value on an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--beam-width", type=int, default=DEFAULT_BEAM_WIDTH, help="beam only")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="enumeration budget on K^N (enum only)",
    )
    p.add_argument("--out", help="write the best plan to this file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="decide whether some plan reaches a threshold")
    p.add_argument("instance", help="instance file")
    p.add_argument("--alpha", required=True, help="threshold in [0, 1], rational or decimal")
    p.add_argument("--out", help="write the witness plan to this file when attained")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("simulate", help="evaluate a plan on an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("plan", help="plan file")
    p.add_argument("--trace", action="store_true", help="print every intermediate distribution")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decode", help="read the assignment off a value-1 plan")
    p.add_argument("instance", help="instance file produced by reduce")
    p.add_argument("plan", help="plan file")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "verify-roundtrip", help="check SAT brute force against the encoded decision"
    )
    p.add_argument("--cnf", required=True, help="DIMACS CNF input file")
    p.set_defaults(func=_cmd_verify_roundtrip)

    p = sub.add_parser("bench", help="run a suite of solves and write a CSV report")
    p.add_argument("--suite", required=True, help="suite file: one '<instance> <method>' per line")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=_cmd_bench)

    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _normalized_from_file(path: str):
    num_vars, raw_clauses = parse_dimacs(_read_text(path))
    if not raw_clauses:
        raise ValueError("CNF file has no clauses")
    return normalize_cnf(raw_clauses, num_vars)


def _cmd_reduce(args) -> int:
    result = _normalized_from_file(args.cnf)
    if result.found_empty_clause:
        print("UNSATISFIABLE (empty clause present); nothing encoded")
        return EXIT_OK
    if result.trivially_satisfiable:
        print("TRIVIALLY SATISFIABLE (every clause is a tautology); nothing encoded")
        return EXIT_OK
    artifact = encode_reduction(result.formula)
    write_artifact(artifact, args.out)
    inst = artifact.instance
    print(
        f"encoded n={result.formula.num_vars} m={result.formula.num_clauses}: "
        f"d={inst.d} K={inst.K} N={inst.N} p={format_scalar(artifact.p, EXACT)}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _run_method(inst, method: str, beam_width: int, budget: int):
    return _SOLVERS[method](inst, beam_width, budget)


def _cmd_solve(args) -> int:
    doc = read_instance(args.instance)
    result = _run_method(doc.instance, args.method, args.beam_width, args.budget)
    mode = doc.instance.numeric_mode
    print(f"method {result.method}")
    print(f"value {format_scalar(result.value, mode)}")
    print("plan " + " ".join(str(k) for k in result.plan))
    print(f"nodes_explored {result.nodes_explored}")
    print(f"nodes_pruned {result.nodes_pruned}")
    if args.out:
        write_plan(result.plan, args.out, comment=f"method={result.method}")
    return EXIT_OK


# The decimal exponents an alpha may be written with.  Fraction builds
# 10**exponent, which at 1e100000000 takes minutes, so a wider one is
# refused before any number is built; no alpha in [0, 1] needs one.
ALPHA_EXPONENT_LIMIT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _parse_alpha(text: str) -> Fraction:
    """The alpha as written; decide_threshold converts it for a float instance."""
    written = _EXPONENT.search(text)
    if written is not None:
        digits = written.group(1).replace("_", "").lstrip("0") or "0"
        if len(digits) > len(str(ALPHA_EXPONENT_LIMIT)) or int(digits) > ALPHA_EXPONENT_LIMIT:
            raise ValueError(
                f"alpha {text!r} has a decimal exponent outside "
                f"[-{ALPHA_EXPONENT_LIMIT}, {ALPHA_EXPONENT_LIMIT}]"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse alpha {text!r}") from exc


def _cmd_decide(args) -> int:
    doc = read_instance(args.instance)
    alpha = _parse_alpha(args.alpha)
    attained, witness = decide_threshold(doc.instance, alpha)
    if attained:
        print("ATTAINED")
        print("plan " + " ".join(str(k) for k in witness))
        if args.out:
            write_plan(witness, args.out, comment=f"threshold witness, alpha={args.alpha}")
    else:
        print("NOT ATTAINED")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    doc = read_instance(args.instance)
    inst = doc.instance
    plan = read_plan(args.plan)
    points, mass = _plan_states(inst, plan, full=True)  # one walk for the value and the trace
    if args.trace:
        for t, point in enumerate(_distributions(inst, points, mass)):
            row = " ".join(format_scalar(w, inst.numeric_mode) for w in point.weights)
            print(f"{t}: {row}")
    print(format_scalar(_value(points[-1][inst.target], mass), inst.numeric_mode))
    return EXIT_OK


def _cmd_decode(args) -> int:
    doc = read_instance(args.instance)
    artifact = artifact_from_document(doc)
    plan = read_plan(args.plan)
    assignment = decode_assignment(artifact, plan)
    print(" ".join(f"x{i}={SIGN_CHARS[s]}" for i, s in enumerate(assignment)))
    return EXIT_OK


def _cmd_verify_roundtrip(args) -> int:
    result = _normalized_from_file(args.cnf)
    if result.found_empty_clause:
        print("AGREE unsatisfiable (empty clause; not encoded)")
        return EXIT_OK
    if result.trivially_satisfiable:
        print("AGREE satisfiable (all clauses tautological; not encoded)")
        return EXIT_OK
    report = verify_roundtrip(result.formula)
    if report.satisfiable:
        print("AGREE satisfiable; certificates validated in both directions")
    else:
        print("AGREE unsatisfiable")
    return EXIT_OK


def _parse_suite_line(line: str):
    """``(path, method, beam width)`` of a suite line ``<instance> <method>``,
    the method one of METHODS and a beam's width written ``beam:<width>``;
    raises ValueError quoting the line if it is not of that form."""
    fields = line.split()
    if len(fields) != 2:
        raise ValueError(f"suite line must be '<instance> <method>', got {line!r}")
    path = fields[0]
    method, colon, width = fields[1].partition(":")
    if method not in METHODS or (colon and method != "beam"):
        raise ValueError(f"unknown method in suite line {line!r}; methods are {', '.join(METHODS)}")
    if not colon:
        return path, method, DEFAULT_BEAM_WIDTH
    if not (width.isdecimal() and int(width) >= 1):
        raise ValueError(f"beam width must be an integer >= 1 in suite line {line!r}")
    return path, method, int(width)


def _cmd_bench(args) -> int:
    suite_dir = os.path.dirname(os.path.abspath(args.suite))
    rows = []
    with open(args.suite, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(_parse_suite_line(line))
    documents = {}  # per resolved path, its document, read once
    results = []  # written only once every line has run
    for path, method, width in rows:
        resolved = os.path.normpath(path if os.path.isabs(path) else os.path.join(suite_dir, path))
        doc, read_ms = documents.get(resolved), 0.0
        if doc is None:
            started = time.perf_counter()
            doc = documents[resolved] = read_instance(resolved)
            read_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        result = _run_method(doc.instance, method, width, DEFAULT_ENUMERATION_BUDGET)
        wall_ms = (time.perf_counter() - started) * 1000.0
        method_tag = f"beam:{width}" if method == "beam" else method
        results.append(
            [
                path,
                method_tag,
                format_scalar(result.value, doc.instance.numeric_mode),
                result.nodes_explored,
                result.nodes_pruned,
                f"{wall_ms:.3f}",
                f"{read_ms:.3f}",
            ]
        )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "method", "value", "nodes_explored", "nodes_pruned", "wall_ms", "read_ms"]
        )
        writer.writerows(results)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


# the parser, built by the first main call and reused by every later one
_parser = cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ValueError, OSError) as exc:  # InstanceFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the walk of branch and bound and the decision recurses once per plan step
        print("error: horizon N is too deep for the recursive search", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other fault, reported on one line, not as a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
