"""Shared test fixtures: seeded random generators and independent oracles.

The oracles here deliberately avoid the library's evaluation path: plan
values are recomputed via full matrix-matrix chain products, satisfaction
of raw literal clauses via a tiny truth-table evaluator, and matrix powers
by naive multiplication.  The exceptions are ``beam_reference``, which
keeps the apply-then-score beam search through the public ``apply`` and
``mdp_value_table``, and ``enum_reference``, the former recursive
enumeration on the solver's own backend, so that float answers compare bit
for bit.
``dense_apply_reference`` is a frozen copy of the dense row-vector product
the library ran before it moved populations through sparse rows, kept as
the reference its results must match bit for bit, and
``exec_float_kernel`` a frozen copy of the float apply kernels the library
compiled per matrix before it bound them from per-pattern templates.
"""

import io
import json
from fractions import Fraction
from itertools import product
from operator import mul
from random import Random

from timemachine import (
    Clause,
    CnfFormula,
    Distribution,
    Instance,
    StochasticMatrix,
    apply,
    mdp_value_table,
    write_instance,
)
from timemachine import core, solvers
from timemachine.instance_io import format_scalar


# ---------------------------------------------------------------------------
# independent oracles


def matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def matrix_power(rows, exponent):
    n = len(rows)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(exponent):
        result = matmul(result, [list(r) for r in rows])
    return result


def chain_value_oracle(inst, plan):
    """Plan value recomputed as start @ (T1 @ T2 @ ... @ TN) picked at target,
    via full matrix products rather than repeated vector application."""
    d = inst.d
    product_matrix = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for k in plan:
        product_matrix = matmul(product_matrix, [list(r) for r in inst.matrices[k].rows])
    start = inst.start.weights
    return sum(start[i] * product_matrix[i][inst.target] for i in range(d))


def dense_apply_reference(weights, rows, zero=None):
    """``weights @ rows`` by the dense loop over every entry of every row
    with a nonzero weight, starting each output from ``zero``, by default
    ``weights[0] * 0``: the products, order and zero (a -0.0 first weight
    gives -0.0 outputs where nothing lands) of the library's former
    ``core.apply``."""
    d = len(weights)
    out = [weights[0] * 0 if zero is None else zero] * d
    for i, w in enumerate(weights):
        if w:
            row = rows[i]
            for j in range(d):
                t = row[j]
                if t:
                    out[j] = out[j] + w * t
    return tuple(out)


def exec_float_kernel(rows):
    """The float kernel of a matrix's sparse ``(column, entry)`` rows as the
    library generated it before it bound kernels from templates: source
    holding the ``float.__repr__`` of every entry, one statement per output
    (each of at most 200 terms, the next starting from its total), compiled
    by ``exec`` per matrix and run without builtins.  The reference the
    template-bound kernels match bit for bit."""
    d = len(rows)
    columns = [[] for _ in range(d)]
    for i, row in enumerate(rows):
        for j, c in row:
            columns[j].append(f"w{i}*{float.__repr__(c)}")
    lines = ["def kernel(w):", f" {''.join(f'w{i},' for i in range(d))} = w"]
    for j, terms in enumerate(columns):
        total = "0.0"
        for s in range(0, len(terms) or 1, 200):
            lines.append(f" o{j} = {' + '.join([total, *terms[s : s + 200]])}")
            total = f"o{j}"
    lines.append(f" return {''.join(f'o{j},' for j in range(d))}")
    namespace = {"__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace.pop("kernel")


def dense_trajectory_reference(inst, plan, zero=None):
    """The weights of each state a plan visits, start first, through
    :func:`dense_apply_reference` from ``zero``."""
    points = [inst.start.weights]
    for k in plan:
        points.append(dense_apply_reference(points[-1], inst.matrices[k].rows, zero))
    return points


def beam_reference(inst, width):
    """Beam search that applies every child before scoring it.

    Each level applies all K children of every kept prefix, scores a child
    by the dot product of its population with the relaxed value level
    below it, keeps the ``width`` best (ties to the lexicographically
    smaller prefix) and counts the rest as dropped; the answer is the best
    leaf kept.  Populations move through ``core.apply``, which adds the
    same products in the same order as the float search backend, so float
    results are comparable bit for bit.  Returns ``(value, plan,
    nodes_explored, nodes_pruned)``.
    """
    N = inst.N
    values = mdp_value_table(inst).values
    beam = [(inst.start, ())]
    explored = dropped = 0
    for t in range(N):
        level = values[N - t - 1]
        candidates = []
        for population, prefix in beam:
            for k, matrix in enumerate(inst.matrices):
                explored += 1
                child = apply(population, matrix)
                score = sum(map(mul, child.weights, level))
                candidates.append((score, prefix + (k,), child))
        candidates.sort(key=lambda c: c[1])
        candidates.sort(key=lambda c: c[0], reverse=True)
        if len(candidates) > width:
            dropped += len(candidates) - width
            candidates = candidates[:width]
        beam = [(child, prefix) for _, prefix, child in candidates]

    best_value = best_plan = None
    for population, prefix in beam:
        value = population.weights[inst.target]
        if best_value is None or value > best_value or (value == best_value and prefix < best_plan):
            best_value, best_plan = value, prefix
    return best_value, best_plan, explored, dropped


def enum_reference(inst):
    """Exhaustive search by the recursive walk ``enumerate_solve`` ran
    before it read suffix values in blocks: depth first in plan order, one
    ``apply`` per inner node and the leaves' values off their parent's
    ``caps(weights, 1)``, keeping the first strict maximum.  It runs on the
    solver's own backend, so float values compare bit for bit; it recurses
    once per plan step.  Returns ``(value, plan, nodes_explored,
    nodes_pruned)``."""
    view = solvers._view(inst)
    K, N = inst.K, inst.N
    if N == 0:
        return view.to_value(view.start[inst.target]), (), 0, 0
    best_value, best_plan, explored = None, (), 0

    def walk(weights, steps_left, prefix):
        nonlocal best_value, best_plan, explored
        if steps_left == 1:
            explored += K
            for k, value in enumerate(view.caps(weights, 1)):
                if best_value is None or value > best_value:
                    best_value, best_plan = value, prefix + (k,)
            return
        for k in range(K):
            explored += 1
            walk(view.apply(weights, k), steps_left - 1, prefix + (k,))

    walk(view.start, N, ())
    return view.to_value(best_value, 1), best_plan, explored, 0


def float_suffix_table_read(view, b):
    """A function taking a float population with ``b`` steps left to its
    reads of all K^b suffix vectors P_sigma e_target, in plan order,
    through the float view's dot kernel, K vectors per call: the reads of
    the full table that float enumeration's reads off the suffix groups
    must match.  Each vector is built along its own sigma, last matrix
    first, by ``solvers._row_sums`` from the 0/1 vector of the target, as
    ``solvers._suffix_groups`` builds the vectors it keeps or drops, so at
    b = 1 they are Q[1] and the reads are the plans' values."""
    K, d = len(view._index), len(view.start)
    table = []
    for sigma in product(range(K), repeat=b):
        alpha = tuple(int(i == view._target) for i in range(d))
        for k in reversed(sigma):
            sums = solvers._row_sums(view._rows, alpha)
            alpha = tuple(map(sums.__getitem__, view._index[k]))
        table.append(alpha)
    chunks = list(zip(*[iter(table)] * K))
    return lambda weights: [m for chunk in chunks for m in view._dot(weights, chunk)]


def raw_clause_satisfied(raw_clause, assignment):
    """Standard literal semantics: (var, +1) is true when the variable is +."""
    return any(assignment[var] == polarity for var, polarity in raw_clause)


def raw_satisfiable(raw_clauses, num_vars):
    for assignment in product((-1, 1), repeat=num_vars):
        if all(raw_clause_satisfied(c, assignment) for c in raw_clauses):
            return True
    return False


def formula_satisfiable_bruteforce(formula: CnfFormula):
    """Truth-table satisfiability of a normalized formula, written against the
    falsifying-pattern convention directly (independent of clause_satisfied)."""
    for assignment in product((-1, 1), repeat=formula.num_vars):
        if all(
            tuple(assignment[v] for v in clause.variables) != clause.forbidden
            for clause in formula.clauses
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# seeded random data


def random_float_matrix(rng: Random, d: int) -> StochasticMatrix:
    rows = []
    for _ in range(d):
        raw = [rng.random() + 1e-3 for _ in range(d)]
        total = sum(raw)
        rows.append(tuple(x / total for x in raw))
    return StochasticMatrix(tuple(rows))


def random_exact_matrix(rng: Random, d: int, max_weight: int = 6) -> StochasticMatrix:
    rows = []
    for _ in range(d):
        raw = [rng.randint(0, max_weight) for _ in range(d)]
        if sum(raw) == 0:
            raw[rng.randrange(d)] = 1
        total = sum(raw)
        rows.append(tuple(Fraction(x, total) for x in raw))
    return StochasticMatrix(tuple(rows))


def random_float_distribution(rng: Random, d: int) -> Distribution:
    raw = [rng.random() + 1e-3 for _ in range(d)]
    total = sum(raw)
    return Distribution(tuple(x / total for x in raw))


def random_exact_distribution(rng: Random, d: int, max_weight: int = 6) -> Distribution:
    raw = [rng.randint(0, max_weight) for _ in range(d)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return Distribution(tuple(Fraction(x, total) for x in raw))


def random_sparse_float_weights(rng: Random, d: int, signed_zeros: bool = False):
    """A float probability vector with about half its entries zero, each
    zero a 0.0 or, with ``signed_zeros``, a -0.0 at random."""
    raw = [rng.random() + 1e-3 if rng.random() < 0.5 else 0.0 for _ in range(d)]
    if not any(raw):
        raw[rng.randrange(d)] = 1.0
    total = sum(raw)
    zeros = (0.0, -0.0) if signed_zeros else (0.0,)
    return tuple(x / total if x else rng.choice(zeros) for x in raw)


def random_sparse_float_instance(rng: Random, d: int, K: int, N: int) -> Instance:
    """A float instance whose rows are about half zeros and whose start
    holds 0.0 and -0.0 weights."""
    matrices = tuple(
        StochasticMatrix(tuple(random_sparse_float_weights(rng, d) for _ in range(d)))
        for _ in range(K)
    )
    return Instance(
        matrices=matrices,
        N=N,
        start=Distribution(random_sparse_float_weights(rng, d, signed_zeros=True)),
        target=rng.randrange(d),
        numeric_mode="float",
    )


def wide_float_weights(rng: Random, d: int, small=None):
    """A float probability vector whose entries are 0.0, 5e-324 or of
    magnitudes 1e-9 to 1, one of them taking what the others leave: the
    others are scaled with it to sum to 1, and each 5e-324 stays as it is.
    The entry at index ``small``, if given and d > 1, is instead 0.0,
    5e-324 or below 1e-300."""
    raw = [rng.choice((0.0, 5e-324, rng.random() * 10.0 ** -rng.randint(0, 9))) for _ in range(d)]
    raw[rng.choice([i for i in range(d) if i != small] or [0])] = 1.0
    if small is not None and d > 1:
        raw[small] = rng.choice((0.0, 5e-324, rng.random() * 10.0 ** -rng.randint(300, 320)))
    total = sum(x for x in raw if x != 5e-324)
    return tuple(x if x == 5e-324 else x / total for x in raw)


def wide_float_instance(rng: Random, d: int, K: int, N: int, tiny: bool = False) -> Instance:
    """A float instance of :func:`wide_float_weights` rows and start, so
    that products underflow and sums add terms of wide magnitude; with
    ``tiny``, every entry of the target column is small, and so is every
    plan's value at N >= 1."""
    target = rng.randrange(d)
    small = target if tiny else None
    matrices = tuple(
        StochasticMatrix(tuple(wide_float_weights(rng, d, small) for _ in range(d)))
        for _ in range(K)
    )
    return Instance(
        matrices=matrices,
        N=N,
        start=Distribution(wide_float_weights(rng, d)),
        target=target,
        numeric_mode="float",
    )


def tie_heavy_instance(rng: Random, d: int, K: int, N: int, mode: str = "exact") -> Instance:
    """Rows that are 0/1 maps mixed with half/half rows, and a start that
    is a point mass or half/half, so that many plans tie in value."""
    one, half = (Fraction(1), Fraction(1, 2)) if mode == "exact" else (1.0, 0.5)

    def weights():
        row = [one * 0] * d
        if d == 1 or rng.random() < 0.5:
            row[rng.randrange(d)] = one
        else:
            for j in rng.sample(range(d), 2):
                row[j] = half
        return tuple(row)

    matrices = tuple(StochasticMatrix(tuple(weights() for _ in range(d))) for _ in range(K))
    return Instance(
        matrices=matrices,
        N=N,
        start=Distribution(weights()),
        target=rng.randrange(d),
        numeric_mode=mode,
    )


def random_instance(rng: Random, d: int, K: int, N: int, mode: str = "float") -> Instance:
    if mode == "float":
        matrices = tuple(random_float_matrix(rng, d) for _ in range(K))
        start = random_float_distribution(rng, d)
    else:
        matrices = tuple(random_exact_matrix(rng, d) for _ in range(K))
        start = random_exact_distribution(rng, d)
    return Instance(
        matrices=matrices,
        N=N,
        start=start,
        target=rng.randrange(d),
        numeric_mode=mode,
    )


def _older_version(instance: Instance, reduction_meta, version: int, row_text) -> dict:
    """The written document with every matrix row, in matrix order, given
    as ``row_text(row, scalar)``, in place of the shared rows."""
    buf = io.StringIO()
    write_instance(instance, buf, reduction_meta=reduction_meta)
    doc = json.loads(buf.getvalue())
    mode = instance.numeric_mode

    def scalar(x):
        return format_scalar(x, mode) if mode == "exact" else float(x)

    doc["format_version"] = version
    del doc["rows"]
    doc["matrices"] = [[row_text(row, scalar) for row in m.rows] for m in instance.matrices]
    return doc


def instance_v1_text(instance: Instance, reduction_meta=None) -> str:
    """The instance as a version-1 document: every matrix row written densely,
    d numbers long, in the layout the library wrote before version 2."""
    doc = _older_version(
        instance, reduction_meta, 1, lambda row, scalar: [scalar(x) for x in row]
    )
    return json.dumps(doc, indent=2) + "\n"


def instance_v2_text(instance: Instance, reduction_meta=None) -> str:
    """The instance as a version-2 document, the text the library wrote
    before version 3: all d rows of every matrix, each as ``[column, value]``
    pairs for its nonzero entries."""
    doc = _older_version(
        instance,
        reduction_meta,
        2,
        lambda row, scalar: [[j, scalar(x)] for j, x in enumerate(row) if x],
    )
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# formulas


def single_clause_formula(forbidden=(-1, -1, -1)) -> CnfFormula:
    return CnfFormula(3, (Clause(tuple(zip((0, 1, 2), forbidden))),))


def all_patterns_formula() -> CnfFormula:
    """The minimal unsatisfiable formula in this clause model: all eight sign
    patterns over the same three variables are forbidden."""
    clauses = tuple(
        Clause(((0, a), (1, b), (2, c))) for a, b, c in product((-1, 1), repeat=3)
    )
    return CnfFormula(3, clauses)


def planted_formula(rng: Random, num_vars: int, num_clauses: int):
    """A random normalized formula over all ``num_vars`` variables, satisfied
    by a planted assignment; returns (assignment, formula).  No clause
    forbids the planted pattern."""
    planted = tuple(rng.choice((-1, 1)) for _ in range(num_vars))
    while True:
        clauses = []
        while len(clauses) < num_clauses:
            variables = sorted(rng.sample(range(num_vars), 3))
            signs = tuple(rng.choice((-1, 1)) for _ in range(3))
            if signs != tuple(planted[v] for v in variables):
                clauses.append(Clause(tuple(zip(variables, signs))))
        if len({v for clause in clauses for v in clause.variables}) == num_vars:
            return planted, CnfFormula(num_vars, tuple(clauses))


def random_normal_formula(rng: Random, num_vars: int, num_clauses: int) -> CnfFormula:
    """A random already-normalized formula; variables not hit by any clause
    are compacted away, so the result may have fewer variables."""
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(num_vars), 3)
        signs = [rng.choice((-1, 1)) for _ in range(3)]
        clauses.append(tuple(zip(variables, signs)))
    used = sorted({v for clause in clauses for v, _ in clause})
    remap = {old: new for new, old in enumerate(used)}
    return CnfFormula(
        len(used),
        tuple(Clause(tuple((remap[v], s) for v, s in clause)) for clause in clauses),
    )


def random_raw_clauses(rng: Random, num_vars: int, num_clauses: int):
    """Raw clause lists of mixed widths (literals as (var, polarity) pairs),
    possibly with repeated variables inside a clause."""
    width_choices = [1, 2, 2, 3, 3, 3, 3, 3, 4, 4]
    clauses = []
    for _ in range(num_clauses):
        width = rng.choice(width_choices)
        clause = [
            (rng.randrange(num_vars), rng.choice((-1, 1))) for _ in range(width)
        ]
        clauses.append(clause)
    return clauses


# ---------------------------------------------------------------------------
# instances built sparse


def assert_filled_as_checked(inst):
    """The prepared slot holds ``inst`` as the builder that just built it
    filled it, and that fill is what the full check and the moved-place
    scan give: the same violations (none), distinct rows with their entry
    objects' types, index, and moved rows in the same order."""
    slot = core._slot
    assert slot[0] is not None and slot[0]() is inst, "the builder filled no slot"
    violations, rows, index = core._checked_rows(inst)
    assert (slot[1], slot[2], slot[3]) == (violations, rows, index) == ([], rows, index)
    assert repr(slot[2]) == repr(rows)
    moved = core._moved_places(inst, rows, index)
    assert [list(m.items()) for m in slot[4][core._moved_places]] == [list(m.items()) for m in moved]
