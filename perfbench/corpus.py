"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical DIMACS text and equal instances.  The library only ever
sees what these functions return, never the seed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product
from random import Random

from timemachine import Distribution, Instance, StochasticMatrix

SIGNS = (-1, 1)


def planted_formula(rng: Random, n: int, m: int):
    """A random 3-SAT formula over n variables with m clauses, satisfied by a
    hidden assignment.

    Returns ``(planted, clauses)``: ``planted[v]`` is +1 (true) or -1 (false)
    and each clause is a list of three ``(variable, polarity)`` pairs over
    distinct variables, polarity +1 for a plain literal.  Each clause keeps at
    least one literal that the planted assignment makes true.  The first
    clauses cover every variable, so normalization keeps the numbering.
    """
    if m * 3 < n:
        raise ValueError(f"{m} clauses cannot cover {n} variables")
    planted = tuple(rng.choice(SIGNS) for _ in range(n))
    order = list(range(n))
    rng.shuffle(order)
    clauses = []
    for j in range(m):
        variables = order[3 * j : 3 * j + 3]
        while len(variables) < 3:
            v = rng.randrange(n)
            if v not in variables:
                variables.append(v)
        while True:
            polarities = [rng.choice(SIGNS) for _ in range(3)]
            if any(p == planted[v] for v, p in zip(variables, polarities)):
                break
        clauses.append(list(zip(variables, polarities)))
    return planted, clauses


def all_patterns_clauses():
    """The smallest unsatisfiable formula of this clause model: every sign
    pattern over three variables is a clause (d=20, K=58, N=10 once encoded).

    Polarities run + before - so that, once normalized, the falsifying
    patterns come in the order - before + that the ROADMAP baseline used.
    """
    return [list(zip((0, 1, 2), signs)) for signs in product((1, -1), repeat=3)]


def dimacs_text(num_vars: int, clauses, comment: str) -> str:
    lines = [f"c {comment}", f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str((v + 1) * p) for v, p in clause) + " 0")
    return "\n".join(lines) + "\n"


def satisfies(clauses, assignment) -> bool:
    """Literal semantics written here, independent of the library: a clause
    holds when one of its literals agrees with the assignment."""
    return all(any(assignment[v] == p for v, p in clause) for clause in clauses)


def _float_row(rng: Random, d: int):
    raw = [rng.random() + 1e-3 for _ in range(d)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _exact_row(rng: Random, d: int, max_weight: int):
    raw = [rng.randint(1, max_weight) for _ in range(d)]
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)


def random_instance(rng: Random, mode: str, d: int, K: int, N: int, max_weight: int = 3) -> Instance:
    """A dense random instance: every matrix entry and start weight is positive.

    Exact rows draw integer weights in ``[1, max_weight]``; a small
    ``max_weight`` keeps the common denominator of the integer view small.
    """
    if mode == "float":
        row = lambda: _float_row(rng, d)  # noqa: E731
    else:
        row = lambda: _exact_row(rng, d, max_weight)  # noqa: E731
    matrices = tuple(StochasticMatrix(tuple(row() for _ in range(d))) for _ in range(K))
    return Instance(
        matrices=matrices,
        N=N,
        start=Distribution(row()),
        target=rng.randrange(d),
        numeric_mode=mode,
    )


def instance_digest(inst: Instance) -> str:
    """Content key of an instance, used to look jobs up in the golden file."""
    parts = [inst.numeric_mode, str(inst.N), str(inst.target), repr(inst.start.weights)]
    parts.extend(repr(m.rows) for m in inst.matrices)
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()[:24]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:24]
