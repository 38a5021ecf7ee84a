"""Command-line front end.

Subcommands: reduce, solve, decide, simulate, decode, verify-roundtrip,
bench.  Exit codes: 0 success, 1 usage error (including a horizon too deep for
the recursive searches), 2 solver budget exceeded, 3 verification
disagreement.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .core import EXACT, evaluate_plan, trajectory
from .instance_io import (
    InstanceFormatError,
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
    p.add_argument("--method", required=True, choices=("enum", "bnb", "beam"))
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
    if method == "enum":
        return enumerate_solve(inst, budget=budget)
    if method == "bnb":
        return branch_and_bound_solve(inst)
    return beam_search(inst, beam_width)


def _cmd_solve(args) -> int:
    doc = read_instance(args.instance)
    if args.beam_width < 1:
        raise ValueError(f"--beam-width must be >= 1, got {args.beam_width}")
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


def _parse_alpha(text: str, mode: str):
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse alpha {text!r}") from exc
    return alpha if mode == EXACT else float(alpha)


def _cmd_decide(args) -> int:
    doc = read_instance(args.instance)
    alpha = _parse_alpha(args.alpha, doc.instance.numeric_mode)
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
    value = evaluate_plan(inst, plan)
    if args.trace:
        for t, point in enumerate(trajectory(inst, plan)):
            row = " ".join(format_scalar(w, inst.numeric_mode) for w in point.weights)
            print(f"{t}: {row}")
    print(format_scalar(value, inst.numeric_mode))
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
    fields = line.split()
    if len(fields) != 2:
        raise ValueError(f"suite line must be '<instance> <method>', got {line!r}")
    path, method = fields
    width = DEFAULT_BEAM_WIDTH
    if method.startswith("beam:"):
        width = int(method.split(":", 1)[1])
        method = "beam"
    if method not in ("enum", "bnb", "beam"):
        raise ValueError(f"unknown method {method!r} in suite")
    return path, method, width


def _cmd_bench(args) -> int:
    suite_dir = os.path.dirname(os.path.abspath(args.suite))
    rows = []
    with open(args.suite, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(_parse_suite_line(line))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "method", "value", "nodes_explored", "nodes_pruned", "wall_ms"])
        for path, method, width in rows:
            resolved = path if os.path.isabs(path) else os.path.join(suite_dir, path)
            doc = read_instance(resolved)
            started = time.perf_counter()
            result = _run_method(doc.instance, method, width, DEFAULT_ENUMERATION_BUDGET)
            wall_ms = (time.perf_counter() - started) * 1000.0
            method_tag = f"beam:{width}" if method == "beam" else method
            writer.writerow(
                [
                    path,
                    method_tag,
                    format_scalar(result.value, doc.instance.numeric_mode),
                    result.nodes_explored,
                    result.nodes_pruned,
                    f"{wall_ms:.3f}",
                ]
            )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the searches recurse once per plan step
        print("error: horizon N is too deep for the recursive search", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
