"""Compile 3-SAT formulas into time-machine instances and back.

A clause here is stored the way the construction consumes it: as the one
sign pattern of its three variables that falsifies it.  An assignment
satisfies the clause iff it differs from that pattern somewhere.  Under
standard DIMACS semantics the falsifying pattern assigns every literal
false, so a positive literal contributes a ``-`` and a negated literal a
``+`` (the conversion happens in :func:`normalize_cnf`).

:func:`encode_reduction` builds, for a normalized formula with n variables
and m clauses, an exact instance with

* ``d = 3n + m + 3`` states: the wild type ``s`` (start and target), an
  absorbing death state ``d``, a tally state ``f``, three states per
  variable (``x``, ``x-``, ``x+``) and one per clause;
* ``K = 7m + 2`` matrices: a start matrix ``S`` splitting the population
  into n + m packets of mass ``p = 1/(n+m)``, a final matrix ``F`` routing
  signed variable states and the tally back to ``s``, and per clause one
  matrix per sign tuple of its three variables except the falsifying one;
* horizon ``N = m + 2``.

The formula is satisfiable iff some plan returns the full population to
``s`` (value exactly 1): :func:`satisfying_plan` builds such a plan from a
satisfying assignment, :func:`decode_assignment` reads an assignment off
any value-1 plan, and :func:`verify_roundtrip` checks the whole equivalence
against a brute-force SAT scan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    EXACT,
    _ZERO_ONE,
    Distribution,
    Instance,
    Plan,
    StochasticMatrix,
    _check_plan_indices,
    _plan_states,
    _unit_rows,
    _value,
    evaluate_plan,
)
from .solvers import BudgetExceededError, decide_threshold

Sign = int  # +1 or -1
Assignment = Tuple[Sign, ...]
RawLiteral = Tuple[int, int]  # (variable index, polarity: +1 plain / -1 negated)

MINUS = -1
PLUS = 1

SIGN_CHARS = {MINUS: "-", PLUS: "+"}
_LABEL_CHARS = {MINUS: "m", PLUS: "p"}


class VerificationError(RuntimeError):
    """The SAT oracle and the threshold decision disagreed, or a certificate
    failed to check out.  Never expected; signals an implementation bug."""


def _check_sign(value) -> Sign:
    if value not in (MINUS, PLUS):
        raise ValueError(f"sign must be +1 or -1, got {value!r}")
    return value


@dataclass(frozen=True)
class Clause:
    """Three distinct variables plus the unique sign pattern falsifying them."""

    literals: Tuple[Tuple[int, Sign], ...]

    def __post_init__(self):
        literals = tuple((int(v), _check_sign(s)) for v, s in self.literals)
        if len(literals) != 3:
            raise ValueError(f"a clause needs exactly 3 literals, got {len(literals)}")
        variables = [v for v, _ in literals]
        if len(set(variables)) != 3:
            raise ValueError(f"clause variables must be distinct, got {variables}")
        if min(variables) < 0:
            raise ValueError(f"negative variable index in {variables}")
        object.__setattr__(self, "literals", literals)

    @property
    def variables(self) -> Tuple[int, int, int]:
        return tuple(v for v, _ in self.literals)

    @property
    def forbidden(self) -> Tuple[Sign, Sign, Sign]:
        return tuple(s for _, s in self.literals)


def clause_satisfied(clause: Clause, assignment: Sequence[Sign]) -> bool:
    """True iff the assignment differs from the clause's falsifying pattern
    on at least one of its three variables."""
    return any(assignment[v] != s for v, s in clause.literals)


@dataclass(frozen=True)
class CnfFormula:
    """A normalized formula: every clause has 3 distinct variables and every
    variable in [0, num_vars) occurs in at least one clause.

    ``CnfFormula(0, ())`` is the canonical trivially satisfiable formula
    (what an all-tautology input normalizes to); it cannot be encoded.
    """

    num_vars: int
    clauses: Tuple[Clause, ...]

    def __post_init__(self):
        clauses = tuple(self.clauses)
        seen = set()
        for clause in clauses:
            for v in clause.variables:
                if v >= self.num_vars:
                    raise ValueError(f"variable {v} out of range for num_vars={self.num_vars}")
                seen.add(v)
        if len(seen) != self.num_vars:
            missing = sorted(set(range(self.num_vars)) - seen)
            raise ValueError(f"variables {missing} occur in no clause")
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of :func:`normalize_cnf`.

    Exactly one of three shapes:

    * a normalized formula ready for encoding (``formula.num_clauses >= 1``);
    * ``trivially_satisfiable``: every input clause was a tautology, so the
      canonical empty formula is returned;
    * ``found_empty_clause``: the input is unsatisfiable as given and there
      is nothing to encode (``formula`` is None).
    """

    formula: Optional[CnfFormula]
    trivially_satisfiable: bool = False
    found_empty_clause: bool = False


def normalize_cnf(raw_clauses: Sequence[Sequence[RawLiteral]], num_vars: int) -> NormalizeResult:
    """Rewrite arbitrary-width CNF clauses into an equisatisfiable formula
    whose clauses each have 3 distinct variables.

    Duplicate literals are dropped first; a clause holding a variable with
    both polarities is a tautology and is removed.  Width-1 and width-2
    clauses are padded with fresh variables over every sign pattern of the
    padding; wider clauses are split with fresh chaining variables.  Unused
    variables are removed and indices compacted, preserving relative order.
    Literal polarity follows the usual convention (+1 plain, -1 negated);
    the returned clauses store falsifying sign patterns, i.e. the negated
    polarities.
    """
    if not raw_clauses:
        raise ValueError("clause list is empty")
    fresh = num_vars
    expanded: List[List[RawLiteral]] = []
    for idx, raw in enumerate(raw_clauses):
        if len(raw) == 0:
            return NormalizeResult(None, found_empty_clause=True)
        lits: List[RawLiteral] = []
        polarity_by_var: Dict[int, int] = {}
        tautology = False
        for var, polarity in raw:
            var = int(var)
            _check_sign(polarity)
            if not 0 <= var < num_vars:
                raise ValueError(f"clause {idx}: variable {var} out of range for n={num_vars}")
            known = polarity_by_var.get(var)
            if known is None:
                polarity_by_var[var] = polarity
                lits.append((var, polarity))
            elif known != polarity:
                tautology = True
                break
        if tautology:
            continue
        width = len(lits)
        if width == 1:
            z1, z2 = fresh, fresh + 1
            fresh += 2
            for s1, s2 in product((MINUS, PLUS), repeat=2):
                expanded.append([lits[0], (z1, s1), (z2, s2)])
        elif width == 2:
            z = fresh
            fresh += 1
            for s in (MINUS, PLUS):
                expanded.append(lits + [(z, s)])
        elif width == 3:
            expanded.append(lits)
        else:
            chain = list(range(fresh, fresh + width - 3))
            fresh += width - 3
            expanded.append([lits[0], lits[1], (chain[0], PLUS)])
            for i in range(2, width - 2):
                expanded.append([(chain[i - 2], MINUS), lits[i], (chain[i - 1], PLUS)])
            expanded.append([(chain[-1], MINUS), lits[width - 2], lits[width - 1]])
    if not expanded:
        return NormalizeResult(CnfFormula(0, ()), trivially_satisfiable=True)
    used = sorted({var for clause in expanded for var, _ in clause})
    remap = {old: new for new, old in enumerate(used)}
    clauses = tuple(
        Clause(tuple((remap[var], -polarity) for var, polarity in clause)) for clause in expanded
    )
    return NormalizeResult(CnfFormula(len(used), clauses))


def formula_digest(formula: CnfFormula) -> str:
    """Stable fingerprint of a normalized formula (recorded in instance files)."""
    parts = [f"n={formula.num_vars}"]
    for clause in formula.clauses:
        parts.append(",".join(f"{v}{SIGN_CHARS[s]}" for v, s in clause.literals))
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()


def clause_matrix_label(clause_index: int, signs: Sequence[Sign]) -> str:
    return f"T{clause_index}:" + "".join(_LABEL_CHARS[s] for s in signs)


@dataclass(frozen=True)
class ReductionArtifact:
    """An encoded instance plus the tables tying gadget names to indices.

    ``state_table`` maps "s", "d", "f", "x{i}", "x{i}-", "x{i}+", "c{j}" to
    state indices; ``matrix_table`` maps "S", "F" and "T{j}:<sss>" labels
    (s in {m, p} for -/+) to matrix indices.  ``formula`` is present when
    the artifact was produced by :func:`encode_reduction` and is required
    by :func:`satisfying_plan`; artifacts reloaded from disk carry only the
    tables.  Treat the tables as read-only.
    """

    instance: Instance
    state_table: Dict[str, int]
    matrix_table: Dict[str, int]
    p: Fraction
    formula: Optional[CnfFormula] = None

    @property
    def num_clauses(self) -> int:
        return (self.instance.K - 2) // 7

    @property
    def num_vars(self) -> int:
        return (self.instance.d - 3 - self.num_clauses) // 3


def encode_reduction(formula: CnfFormula) -> ReductionArtifact:
    """Compile a normalized formula into an exact time-machine instance.

    Layout is fixed for reproducibility: states s=0, d=1, f=2, then the
    (x, x-, x+) triple per variable, then one state per clause; matrices
    S=0, F=1, then per clause its 7 sign-tuple matrices in lexicographic
    order with - before +.
    """
    n, m = formula.num_vars, formula.num_clauses
    if m == 0:
        raise ValueError("cannot encode a formula with no clauses")
    d = 3 * n + m + 3
    p = Fraction(1, n + m)
    start_state, death, tally = 0, 1, 2

    def x_base(i: int) -> int:
        return 3 + 3 * i

    def x_signed(i: int, sign: Sign) -> int:
        return x_base(i) + (2 if sign == PLUS else 1)

    def clause_state(j: int) -> int:
        return 3 + 3 * n + j

    state_table: Dict[str, int] = {"s": start_state, "d": death, "f": tally}
    for i in range(n):
        state_table[f"x{i}"] = x_base(i)
        state_table[f"x{i}-"] = x_signed(i, MINUS)
        state_table[f"x{i}+"] = x_signed(i, PLUS)
    for j in range(m):
        state_table[f"c{j}"] = clause_state(j)

    unit_rows = _unit_rows(d, EXACT)
    split_row = [_ZERO_ONE[EXACT][0]] * d
    for i in range(n):
        split_row[x_base(i)] = p
    for j in range(m):
        split_row[clause_state(j)] = p
    start_matrix = StochasticMatrix(
        tuple(tuple(split_row) if z == start_state else unit_rows[death] for z in range(d)),
        label="S",
    )

    final_rows = []
    back_home = {tally} | {x_signed(i, s) for i in range(n) for s in (MINUS, PLUS)}
    for z in range(d):
        final_rows.append(unit_rows[start_state] if z in back_home else unit_rows[death])
    final_matrix = StochasticMatrix(tuple(final_rows), label="F")

    matrices = [start_matrix, final_matrix]
    matrix_table: Dict[str, int] = {"S": 0, "F": 1}
    for j, clause in enumerate(formula.clauses):
        for signs in product((MINUS, PLUS), repeat=3):
            if signs == clause.forbidden:
                continue
            moves = {start_state: death, clause_state(j): tally}
            for (var, _), sign in zip(clause.literals, signs):
                moves[x_base(var)] = x_signed(var, sign)
                moves[x_signed(var, -sign)] = death
            rows = tuple(unit_rows[moves.get(z, z)] for z in range(d))
            label = clause_matrix_label(j, signs)
            matrix_table[label] = len(matrices)
            matrices.append(StochasticMatrix(rows, label=label))

    instance = Instance(
        matrices=tuple(matrices),
        N=m + 2,
        start=Distribution.unit(d, start_state, EXACT),
        target=start_state,
        numeric_mode=EXACT,
    )
    return ReductionArtifact(instance, state_table, matrix_table, p, formula=formula)


def satisfying_plan(artifact: ReductionArtifact, assignment: Sequence[Sign]) -> Plan:
    """Build the canonical value-1 plan for a satisfying assignment:
    the start matrix, then per clause (in formula order) the matrix of the
    assignment restricted to that clause, then the final matrix.

    Raises if any clause is left unsatisfied -- the matrix the plan would
    need does not exist in that case.
    """
    formula = artifact.formula
    if formula is None:
        raise ValueError("artifact does not carry its source formula")
    assignment = tuple(_check_sign(s) for s in assignment)
    if len(assignment) != formula.num_vars:
        raise ValueError(
            f"assignment has {len(assignment)} signs, formula has {formula.num_vars} variables"
        )
    steps = [artifact.matrix_table["S"]]
    for j, clause in enumerate(formula.clauses):
        if not clause_satisfied(clause, assignment):
            raise ValueError(f"assignment does not satisfy clause {j}: no matrix exists for it")
        signs = tuple(assignment[v] for v in clause.variables)
        steps.append(artifact.matrix_table[clause_matrix_label(j, signs)])
    steps.append(artifact.matrix_table["F"])
    return tuple(steps)


def decode_assignment(artifact: ReductionArtifact, plan: Sequence[int]) -> Assignment:
    """Read an assignment off a plan of value exactly 1.

    After all but the last step, each variable's packet must sit on exactly
    one of its two signed states; those signs form a satisfying assignment.
    Raises if the plan's value is not 1, or if some variable's weight is
    missing or ambiguous (impossible for a well-formed artifact).
    """
    inst = artifact.instance
    states, mass = _plan_states(inst, plan, full=True)
    value = _value(states[-1][inst.target], mass)
    if value != 1:
        raise ValueError(f"plan value is {value}, not 1; nothing to decode")
    penultimate = states[-2:][0]  # the start state for an empty plan; signs only
    signs: List[Sign] = []
    for i in range(artifact.num_vars):
        on_plus = penultimate[artifact.state_table[f"x{i}+"]] > 0
        on_minus = penultimate[artifact.state_table[f"x{i}-"]] > 0
        if on_plus == on_minus:
            raise ValueError(
                f"variable {i} carries weight on {'both' if on_plus else 'neither'} signed "
                f"state before the final step; artifact is corrupted"
            )
        signs.append(PLUS if on_plus else MINUS)
    return tuple(signs)


def sat_bruteforce(
    formula: CnfFormula, max_vars: int = 25
) -> Tuple[bool, Optional[Assignment]]:
    """Exhaustively scan all 2^n assignments in lexicographic order
    (- before +) and return the first satisfying one, if any."""
    n = formula.num_vars
    if n > max_vars:
        raise BudgetExceededError(
            f"brute force would scan 2^{n} assignments, limit is 2^{max_vars}", 2**n
        )
    for assignment in product((MINUS, PLUS), repeat=n):
        if all(clause_satisfied(c, assignment) for c in formula.clauses):
            return True, assignment
    return False, None


def is_canonical_plan(artifact: ReductionArtifact, plan: Sequence[int]) -> bool:
    """Structural shape every value-1 plan must have: starts with S, ends
    with F, and uses exactly one matrix from each clause's block in between.
    Raises ValueError, as :func:`~timemachine.core.evaluate_plan` does, if
    a step is not a matrix index of the instance."""
    plan = _check_plan_indices(artifact.instance, plan)
    m = artifact.num_clauses
    if len(plan) != m + 2:
        return False
    if plan[0] != artifact.matrix_table["S"] or plan[-1] != artifact.matrix_table["F"]:
        return False
    hit = [0] * m
    for k in plan[1:-1]:
        if k < 2:
            return False
        hit[(k - 2) // 7] += 1
    return all(count == 1 for count in hit)


@dataclass(frozen=True)
class RoundtripReport:
    """Evidence from one agreement check between the SAT brute force and the
    threshold decision on the encoded instance (plus, when satisfiable, the
    certificate cross-checks in both directions)."""

    satisfiable: bool
    threshold_attained: bool
    sat_witness: Optional[Assignment]
    witness_plan: Optional[Plan]
    constructed_plan: Optional[Plan]
    decoded_assignment: Optional[Assignment]


def verify_roundtrip(
    formula: CnfFormula, max_vars: int = 10, max_clauses: int = 10
) -> RoundtripReport:
    """Check that the formula is satisfiable iff its encoding can reach
    value 1 in N steps, and that the certificates convert both ways.

    On the satisfiable side this validates: the plan built from the SAT
    witness evaluates to exactly 1; the assignment decoded from the found
    value-1 plan satisfies every clause; both value-1 plans have the
    canonical shape; and decoding the constructed plan returns the witness.
    Raises :class:`VerificationError` on any mismatch (never expected).
    """
    if formula.num_vars > max_vars or formula.num_clauses > max_clauses:
        raise BudgetExceededError(
            f"formula ({formula.num_vars} vars, {formula.num_clauses} clauses) exceeds "
            f"verification limits ({max_vars}, {max_clauses})",
            2**formula.num_vars,
        )
    satisfiable, witness = sat_bruteforce(formula)
    artifact = encode_reduction(formula)
    attained, plan = decide_threshold(artifact.instance, Fraction(1))
    if attained != satisfiable:
        raise VerificationError(
            f"SAT brute force says {'satisfiable' if satisfiable else 'unsatisfiable'} but "
            f"threshold 1 is {'attained' if attained else 'not attained'}"
        )
    if not satisfiable:
        return RoundtripReport(False, False, None, None, None, None)

    constructed = satisfying_plan(artifact, witness)
    if evaluate_plan(artifact.instance, constructed) != 1:
        raise VerificationError("constructed plan does not evaluate to 1")
    decoded = decode_assignment(artifact, plan)
    for j, clause in enumerate(formula.clauses):
        if not clause_satisfied(clause, decoded):
            raise VerificationError(f"decoded assignment violates clause {j}")
    for which, candidate in (("found", plan), ("constructed", constructed)):
        if not is_canonical_plan(artifact, candidate):
            raise VerificationError(f"{which} value-1 plan is not in canonical shape")
    if decode_assignment(artifact, constructed) != witness:
        raise VerificationError("decoding the constructed plan did not return the witness")
    return RoundtripReport(True, True, witness, plan, constructed, decoded)
