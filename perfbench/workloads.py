"""The three workloads: how each builds its corpus and runs and checks a job.

Every job calls the library only through ``run.tr.call`` so that the traced
run can put a span around each call.  A job raises :class:`JobFailure`
when its output disagrees with its oracle.

Sizes are fixed per workload; the seed only changes the formulas and the
matrix entries.  That keeps the amount of work per pass nearly the same from
seed to seed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Tuple

from timemachine import (
    EVAL_TOL,
    EXACT,
    artifact_from_document,
    beam_search,
    branch_and_bound_solve,
    decide_threshold,
    decode_assignment,
    encode_reduction,
    enumerate_solve,
    evaluate_plan,
    is_canonical_plan,
    mdp_value_table,
    normalize_cnf,
    parse_dimacs,
    read_instance,
    read_plan,
    satisfying_plan,
    validate_instance,
    write_artifact,
    write_plan,
)
from timemachine.cli import main as cli_main

import corpus


class JobFailure(Exception):
    """A job's output disagrees with its oracle."""


def check(condition, message):
    if not condition:
        raise JobFailure(message)


def value_text(value) -> str:
    """Canonical text of a solver answer, as stored in the golden file."""
    if isinstance(value, bool):
        return "attained" if value else "not attained"
    if isinstance(value, float):
        return repr(value)
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def same_value(a: str, b: str) -> bool:
    """Equal answers: exact text, or floats within the solvers' tolerance."""
    if a == b:
        return True
    if "/" in a or "/" in b or "attained" in a or "attained" in b:
        return False
    return abs(float(a) - float(b)) <= EVAL_TOL


class Run:
    """What the jobs of one pass share: the tracer, the golden answers, a
    directory for the files jobs write, and the counters the traced run
    reports."""

    def __init__(self, tracer, golden, workdir):
        self.tr = tracer
        self.golden = golden
        self.workdir = workdir
        self.optimum = {}
        self.answers = {}
        self.nodes = {}
        self.beam_ratios = []
        self.golden_checked = 0
        self.golden_drift = 0
        self.nonzero_exits = 0
        self.bytes_written = 0
        self.matrix_entries = 0
        self.matrix_nonzeros = 0

    def count_matrices(self, inst):
        """Add an instance's d*d*K matrix entries and its nonzero entries to
        the pass's totals.  Only traced runs count: the count is not free."""
        if self.tr.enabled:
            self.matrix_entries += inst.d * inst.d * inst.K
            self.matrix_nonzeros += sum(1 for m in inst.matrices for row in m.rows for x in row if x)

    def searched(self, key, solver, value, plan, explored=None, pruned=None):
        """Record one search answer and compare it with the golden file.

        A different value or decision fails the job; a different plan or
        node count with the same value is only counted as drift.
        """
        record = [value_text(value), None if plan is None else list(plan), explored, pruned]
        self.answers[key] = record
        if explored is not None:
            totals = self.nodes.setdefault(solver, [0, 0])
            totals[0] += explored
            totals[1] += pruned
        expected = self.golden.get(key)
        if expected is None:
            return
        self.golden_checked += 1
        check(same_value(record[0], expected[0]), f"{key}: {record[0]} != golden {expected[0]}")
        if record != expected:
            self.golden_drift += 1


def _values_match(a, b, mode) -> bool:
    return a == b if mode == EXACT else abs(a - b) <= EVAL_TOL


# ---------------------------------------------------------------------------
# sat_ladder: reduce planted formulas and decide alpha = 1


# (n, m, copies).  Many cheap rungs, bound by table building, put the median
# job among near-identical small jobs; two large rungs and all-patterns are
# bound by exact search and carry most of a pass.  Rungs with n = 6 or m = 6
# are left out: their bnb times spread so widely from seed to seed that the
# p90 job time stopped repeating.  n = 8 is left out because the decider's
# memo there, and with it the peak RSS, changes by half from seed to seed.
SAT_LADDER = (
    (4, 4, 10),
    (4, 5, 12),
    (5, 5, 5),
    (7, 9, 2),
)
# branch_and_bound_solve runs as its own job on formulas with at most this
# many clauses, and on all-patterns.
BNB_MAX_CLAUSES = 6


@dataclass
class FormulaJob:
    """One formula and one method: ``decide`` runs the reduction pipeline,
    the alpha = 1 decision and the certificate checks; ``bnb`` runs the
    reduction and exact branch and bound."""

    id: str
    key: str
    method: str
    text: str
    n: int
    m: int
    clauses: list
    planted: Optional[Tuple[int, ...]]  # None: the formula is unsatisfiable

    def run(self, run: Run):
        tr = run.tr
        num_vars, raw = tr.call("instance_io.parse_dimacs", parse_dimacs, self.text)
        formula = tr.call("reduction.normalize_cnf", normalize_cnf, raw, num_vars).formula
        check(
            formula is not None and (formula.num_vars, formula.num_clauses) == (self.n, self.m),
            "normalization changed the formula's size",
        )
        artifact = tr.call("reduction.encode_reduction", encode_reduction, formula)
        inst = artifact.instance
        if self.method == "bnb":
            result = tr.call("solvers.bnb.exact", branch_and_bound_solve, inst)
            run.searched(
                f"{self.key}:bnb", "bnb.exact", result.value, result.plan,
                result.nodes_explored, result.nodes_pruned,
            )
            check((result.value == 1) == (self.planted is not None), f"bnb value {result.value}")
            value = tr.call("core.evaluate_plan", evaluate_plan, inst, result.plan)
            check(value == result.value, "bnb plan does not evaluate to its value")
            return
        run.count_matrices(inst)
        table = tr.call("solvers.tables", mdp_value_table, inst)
        attained, witness = tr.call("solvers.decide.exact", decide_threshold, inst, Fraction(1))
        run.searched(f"{self.key}:decide", "decide.exact", attained, witness)
        if self.planted is None:
            check(not attained, "threshold 1 attained on an unsatisfiable formula")
            return
        check(attained, "threshold 1 not attained on a satisfiable formula")
        check(table.bound(inst.start.weights, inst.N) == 1, "relaxation bound below 1")
        with tr.span("reduction.certificates"):
            decoded = tr.call("reduction.decode_assignment", decode_assignment, artifact, witness)
            check(corpus.satisfies(self.clauses, decoded), "decoded assignment violates a clause")
            check(
                tr.call("reduction.is_canonical_plan", is_canonical_plan, artifact, witness),
                "witness plan is not canonical",
            )
            plan = tr.call("reduction.satisfying_plan", satisfying_plan, artifact, self.planted)
            value = tr.call("core.evaluate_plan", evaluate_plan, inst, plan)
            check(value == 1, f"planted plan evaluates to {value}, not 1")


def _formula_jobs(index, n, m, planted, clauses):
    """The decide job of one formula, plus its bnb job if it is small enough."""
    text = corpus.dimacs_text(n, clauses, f"sat_ladder formula {index} n={n} m={m}")
    if planted is not None:
        check(corpus.satisfies(clauses, planted), "generator broke its planted assignment")
    key = f"sat_ladder:{corpus.text_digest(text)}"
    methods = ("decide", "bnb") if m <= BNB_MAX_CLAUSES or planted is None else ("decide",)
    return [
        FormulaJob(f"sat_ladder/{index}/{method}", key, method, text, n, m, clauses, planted)
        for method in methods
    ]


def build_sat_ladder(seed: int):
    rng = Random(f"sat_ladder/{seed}")
    jobs = _formula_jobs(0, 3, 8, None, corpus.all_patterns_clauses())
    index = 1
    for n, m, copies in SAT_LADDER:
        for _ in range(copies):
            planted, clauses = corpus.planted_formula(rng, n, m)
            jobs.extend(_formula_jobs(index, n, m, planted, clauses))
            index += 1
    return jobs


# ---------------------------------------------------------------------------
# random_search: dense random instances, every optimizer, both modes


# (mode, d, K, N): the seed fills in the entries, the sizes stay fixed.
RANDOM_SHAPES = (
    ("float", 5, 3, 5),
    ("float", 6, 3, 6),
    ("float", 7, 3, 7),
    ("float", 8, 3, 7),
    ("float", 9, 4, 5),
    ("float", 10, 4, 6),
    ("float", 11, 4, 6),
    ("float", 12, 4, 7),
    ("float", 8, 4, 8),
    ("float", 6, 3, 9),
    ("exact", 5, 3, 5),
    ("exact", 6, 3, 6),
    ("exact", 7, 3, 6),
    ("exact", 8, 3, 6),
    ("exact", 6, 4, 5),
    ("exact", 8, 4, 6),
    ("exact", 10, 4, 5),
    ("exact", 12, 3, 6),
)
# Each shape appears this many times with different entries, so that seed to
# seed the job-time percentiles average over several instances per shape.
RANDOM_COPIES = 3
SEARCH_METHODS = ("enum", "bnb", "beam:16", "beam:64", "decide:below", "decide:above")
# decide runs this close to the optimum, relatively, on either side
DECIDE_MARGIN = Fraction(1, 10**6)


@dataclass
class SearchJob:
    id: str
    key: str
    instance_id: int
    inst: object
    method: str

    def run(self, run: Run):
        tr, inst, mode = run.tr, self.inst, self.inst.numeric_mode
        if self.method == "enum":
            run.count_matrices(inst)
            table = tr.call("solvers.tables", mdp_value_table, inst)
            result = tr.call(f"solvers.enum.{mode}", enumerate_solve, inst)
            bound = table.bound(inst.start.weights, inst.N)
            check(bound >= result.value - (0 if mode == EXACT else EVAL_TOL), "bound below optimum")
            run.optimum[self.instance_id] = result.value
        else:
            optimum = run.optimum[self.instance_id]
            if self.method == "bnb":
                result = tr.call(f"solvers.bnb.{mode}", branch_and_bound_solve, inst)
                check(_values_match(result.value, optimum, mode), f"bnb {result.value} != {optimum}")
            elif self.method.startswith("beam:"):
                width = int(self.method.partition(":")[2])
                result = tr.call(f"solvers.beam.{mode}", beam_search, inst, width)
                check(result.value <= optimum + (0 if mode == EXACT else EVAL_TOL), "beam beat the optimum")
                run.beam_ratios.append(float(result.value / optimum))
            else:
                self._decide(run, optimum)
                return
        run.searched(
            f"{self.key}:{self.method}", f"{self.method.partition(':')[0]}.{mode}",
            result.value, result.plan, result.nodes_explored, result.nodes_pruned,
        )
        value = tr.call("core.evaluate_plan", evaluate_plan, inst, result.plan)
        check(_values_match(value, result.value, mode), "plan does not evaluate to its value")

    def _decide(self, run: Run, optimum):
        tr, inst, mode = run.tr, self.inst, self.inst.numeric_mode
        below = self.method == "decide:below"
        factor = 1 - DECIDE_MARGIN if below else 1 + DECIDE_MARGIN
        alpha = optimum * factor if mode == EXACT else optimum * float(factor)
        attained, witness = tr.call(f"solvers.decide.{mode}", decide_threshold, inst, alpha)
        run.searched(f"{self.key}:{self.method}", f"decide.{mode}", attained, witness)
        check(attained == below, f"decide at {self.method} gave {attained}")
        if attained:
            value = tr.call("core.evaluate_plan", evaluate_plan, inst, witness)
            check(value >= alpha - (0 if mode == EXACT else EVAL_TOL), "witness below alpha")


def build_random_search(seed: int):
    rng = Random(f"random_search/{seed}")
    jobs = []
    for instance_id, (mode, d, K, N) in enumerate(RANDOM_SHAPES * RANDOM_COPIES):
        inst = corpus.random_instance(rng, mode, d, K, N)
        report = validate_instance(inst)
        check(report.ok, f"generated instance is invalid: {report.violations[:1]}")
        digest = corpus.instance_digest(inst)
        for method in SEARCH_METHODS:
            jobs.append(
                SearchJob(
                    id=f"random_search/{instance_id}/{method}",
                    key=f"random_search:{digest}",
                    instance_id=instance_id,
                    inst=inst,
                    method=method,
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# instance_roundtrip: reduce, write, read back, simulate; no search


# Clause counts of the round-trip jobs; each formula has m // 4 + 2 variables.
# The largest stops at 20 so that two passes always fit in a 35-second run.
ROUNDTRIP_CLAUSES = (8, 10, 12, 16, 20)


@dataclass
class RoundtripJob:
    id: str
    text: str
    n: int
    m: int
    planted: Tuple[int, ...]

    def run(self, run: Run):
        tr = run.tr
        num_vars, raw = tr.call("instance_io.parse_dimacs", parse_dimacs, self.text)
        formula = tr.call("reduction.normalize_cnf", normalize_cnf, raw, num_vars).formula
        artifact = tr.call("reduction.encode_reduction", encode_reduction, formula)
        stem = os.path.join(run.workdir, self.id.replace("/", "-"))
        instance_path, plan_path = stem + ".json", stem + ".plan"
        try:
            tr.call("instance_io.write_artifact", write_artifact, artifact, instance_path)
            run.bytes_written += os.path.getsize(instance_path)
            doc = tr.call("instance_io.read_instance", read_instance, instance_path)
            run.count_matrices(doc.instance)
            report = tr.call("core.validate_instance", validate_instance, doc.instance)
            check(report.ok, "read-back instance is invalid")
            loaded = tr.call("instance_io.artifact_from_document", artifact_from_document, doc)
            check((loaded.num_vars, loaded.num_clauses) == (self.n, self.m), "tables lost")
            with tr.span("reduction.certificates"):
                plan = tr.call("reduction.satisfying_plan", satisfying_plan, artifact, self.planted)
            tr.call("instance_io.write_plan", write_plan, plan, plan_path)
            plan_back = tr.call("instance_io.read_plan", read_plan, plan_path)
            check(plan_back == plan, "plan file did not round-trip")
            value = tr.call("core.evaluate_plan", evaluate_plan, doc.instance, plan_back)
            check(value == 1, f"planted plan evaluates to {value} on the read-back instance")
            with tr.span("reduction.certificates"):
                decoded = tr.call("reduction.decode_assignment", decode_assignment, loaded, plan_back)
                check(decoded == self.planted, "decoded assignment is not the planted one")
            out = io.StringIO()
            with redirect_stdout(out):
                code = tr.call("cli.main", cli_main, ["simulate", instance_path, plan_path])
            if code != 0:
                run.nonzero_exits += 1
            check(code == 0 and out.getvalue().strip() == "1/1", f"simulate exit {code}")
        finally:
            for path in (instance_path, plan_path):
                if os.path.exists(path):
                    os.remove(path)


def build_instance_roundtrip(seed: int):
    rng = Random(f"instance_roundtrip/{seed}")
    jobs = []
    for index, m in enumerate(ROUNDTRIP_CLAUSES):
        n = m // 4 + 2
        planted, clauses = corpus.planted_formula(rng, n, m)
        check(corpus.satisfies(clauses, planted), "generator broke its planted assignment")
        text = corpus.dimacs_text(n, clauses, f"instance_roundtrip job {index} n={n} m={m}")
        jobs.append(RoundtripJob(f"instance_roundtrip/{index}", text, n, m, planted))
    return jobs


WORKLOADS = {
    "sat_ladder": build_sat_ladder,
    "random_search": build_random_search,
    "instance_roundtrip": build_instance_roundtrip,
}
