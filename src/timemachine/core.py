"""Population states, transition matrices, and treatment-plan evaluation.

A population over ``d`` genotypes is a row vector on the probability
simplex.  Applying an antibiotic multiplies that row vector on the right
by a row-stochastic ``d x d`` matrix.  A treatment plan is a sequence of
matrix indices; its value is the fraction of the population sitting on
the target (wild-type) state after the last step.

Everything runs in one of two numeric modes, tagged per instance:

* ``exact``: arbitrary-precision rationals (`fractions.Fraction`, plain
  ``int`` also accepted).  Used for reduction instances and threshold
  decisions at alpha = 1, where rounding would be fatal.
* ``float``: IEEE doubles, with input row sums accepted within
  ``ROW_SUM_TOL`` and internal comparisons at ``EVAL_TOL``.

Mixing modes inside one instance is a validation error.  All types here
are immutable and all operations are pure functions, so instances can be
shared freely across threads.

The library reads an instance's rows only through :func:`_sparse_rows`,
which keeps the check of the last instance object and its nonzero
``(column, entry)`` pairs, so validating, solving, evaluating and writing
one object scan it once.  Builders that know which rows they placed, the
encoder and the file reader, construct through :func:`_placed_instance`,
which fills that slot itself: it checks each distinct row once, so their
instances are never scanned.  Plan states move through the per-instance
form the searches apply matrices through, built once from those pairs and
shared with the search backend: the integer form (:class:`_IntegerForm`)
of an exact instance, so no Fraction is built until a caller reads a
weight, and the float form (:class:`_FloatForm`), whose apply kernels,
straight-line code per matrix, this module builds.  The public
:func:`apply`, which takes any matrix, keeps its own dense loop.

Most rows of a reduction instance are unit rows ``e_i``.  This module is
the one owner of both decisions about them: :func:`_unit_rows` builds
them, in each mode's shared 0 and 1 (``_ZERO_ONE``), for the constructors,
the encoder and the file reader; and :func:`_moved_places` lists, once
per instance object, the rows each matrix moves, every row but ``e_i``,
for the integer form, the support backend and the writer.  A builder's
instance gets that list from the rows it placed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import isfinite, lcm
from operator import is_
from types import CodeType, FunctionType
from typing import List, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction, float]
Plan = Tuple[int, ...]

EXACT = "exact"
FLOAT = "float"

# Accepted drift on row/mass sums of float input data.
ROW_SUM_TOL = 1e-9
# Internal float comparisons (plan values, bounds).
EVAL_TOL = 1e-12


def scalar_mode_error(x: Scalar, mode: str) -> Optional[str]:
    """Return a description of why ``x`` is not a valid scalar for ``mode``."""
    if isinstance(x, bool):
        return "booleans are not numeric values"
    if mode == EXACT:
        if not isinstance(x, (int, Fraction)):
            return f"{x!r} is not an exact rational"
    else:
        if not isinstance(x, float):
            return f"{x!r} is not a float"
        if not isfinite(x):
            return f"{x!r} is not finite"
    return None


# Each mode's zero and one, shared by every unit row, so that comparing
# such rows meets equal entries by identity.
_ZERO_ONE = {EXACT: (Fraction(0), Fraction(1)), FLOAT: (0.0, 1.0)}


def _unit_row(d: int, i: int, mode: str) -> tuple:
    """The unit row ``e_i`` of length ``d`` in the mode's own numbers.  Any
    mode but exact gets floats, so that an instance tagged with an unknown
    mode still constructs and its check can name the mode."""
    zero, one = _ZERO_ONE.get(mode, _ZERO_ONE[FLOAT])
    return (zero,) * i + (one,) + (zero,) * (d - i - 1)


def _unit_rows(d: int, mode: str) -> tuple:
    """The ``d`` unit rows ``e_i`` as tuples, in the mode's own numbers."""
    return tuple(_unit_row(d, i, mode) for i in range(d))


@dataclass(frozen=True)
class Distribution:
    """A population state: one weight per genotype, nonnegative, total mass 1."""

    weights: Tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def unit(cls, d: int, index: int, mode: str = EXACT) -> "Distribution":
        """Point mass on ``index`` in a ``d``-state system."""
        if not 0 <= index < d:
            raise ValueError(f"index {index} out of range for d={d}")
        return cls(_unit_row(d, index, mode))


@dataclass(frozen=True)
class StochasticMatrix:
    """A row-stochastic matrix: entry ``rows[i][j]`` is the probability that
    genotype ``i`` mutates to genotype ``j`` under one application."""

    rows: Tuple[Tuple[Scalar, ...], ...]
    label: Optional[str] = None

    def __post_init__(self):
        # keep already-tuple rows as-is so encoders can share row objects;
        # the common case, a tuple of tuples, is tested at C level
        rows = self.rows
        if type(rows) is not tuple or not all(map(isinstance, rows, repeat(tuple))):
            object.__setattr__(
                self, "rows", tuple(r if isinstance(r, tuple) else tuple(r) for r in rows)
            )

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int, mode: str = EXACT, label: Optional[str] = None) -> "StochasticMatrix":
        return cls(_unit_rows(d, mode), label=label)


@dataclass(frozen=True)
class Instance:
    """A solvable problem: K matrices, a horizon N, a start state and a target.

    ``start`` defaults to unit mass on state 0 (the wild type), which is also
    the default target.  Construction only does structural coercion; use
    :func:`validate_instance` for the full invariant check, which reports
    violations instead of raising so that bad data can be diagnosed.
    """

    matrices: Tuple[StochasticMatrix, ...]
    N: int
    start: Optional[Distribution] = None
    target: int = 0
    numeric_mode: str = FLOAT

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if self.start is None:
            if not self.matrices:
                raise ValueError("cannot infer dimension: no matrices and no start")
            d = self.matrices[0].dim
            object.__setattr__(self, "start", Distribution.unit(d, 0, self.numeric_mode))

    @property
    def d(self) -> int:
        return len(self.start.weights)

    @property
    def K(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_mass(weights: Sequence[Scalar], mode: str, what: str, out: List[str]) -> None:
    if mode == EXACT:
        # in integers over the common denominator; a Fraction only to name the mass
        scale = lcm(*(x.denominator for x in weights))
        total = sum(x.numerator * (scale // x.denominator) for x in weights)
        if total != scale:
            out.append(f"{what}: mass {Fraction(total, scale)} != 1")
        return
    # A float sum starts at 0.0, so that skipping zero entries leaves it unchanged.
    total = sum(weights, 0.0)
    if abs(total - 1) > ROW_SUM_TOL:
        out.append(f"{what}: mass {total!r} not within {ROW_SUM_TOL} of 1")


# The scalar types of each mode; a falsy entry of one of these is a valid zero.
_MODE_TYPES = {EXACT: (int, Fraction), FLOAT: (float,)}


def _row_violations(row: Sequence[Scalar], mode: str, d: int) -> Tuple[List[str], tuple]:
    """Violations of one matrix row, each to follow the row's name, and the
    row's nonzero ``(column, entry)`` pairs.

    Zero entries of the mode's own types are skipped: they cannot leave
    [0, 1] and add nothing to the mass.  An exact entry lies in [0, 1] iff
    0 <= numerator <= denominator, as its denominator is positive.
    """
    if len(row) != d:
        return [f": has {len(row)} entries, expected {d}"], ()
    out: List[str] = []
    zero_types = _MODE_TYPES[mode]
    exact = mode == EXACT
    pairs = []
    for j, x in enumerate(row):
        if type(x) in zero_types and not x:
            continue
        err = scalar_mode_error(x, mode)
        if err is not None:
            out.append(f" entry {j}: {err}")
        elif not (0 <= x.numerator <= x.denominator if exact else 0 <= x <= 1):
            out.append(f" entry {j}: {x!r} outside [0, 1]")
        elif x:  # a zero of a subclass of the mode's types is valid but no pair
            pairs.append((j, x))
    if not out:
        _check_mass([x for _, x in pairs], mode, "", out)
    return out, tuple(pairs)


def _header_violations(inst: Instance) -> List[str]:
    """The violations of everything but the matrices' rows, in the order
    :func:`validate_instance` reports them: the mode tag alone if it is not
    a mode, else K, N, d, the target and the start."""
    mode = inst.numeric_mode
    if mode not in _MODE_TYPES:
        return [f"numeric_mode must be '{EXACT}' or '{FLOAT}', got {mode!r}"]
    out: List[str] = []
    if inst.K < 1:
        out.append("instance must contain at least one matrix")
    if inst.N < 0:
        out.append(f"horizon N must be >= 0, got {inst.N}")
    d = inst.d
    if d < 1:
        out.append("state count d must be >= 1")
    if not 0 <= inst.target < d:
        out.append(f"target index {inst.target} out of range for d={d}")

    bad_start = False
    for i, w in enumerate(inst.start.weights):
        err = scalar_mode_error(w, mode)
        if err is not None:
            out.append(f"start entry {i}: {err}")
            bad_start = True
        elif w < 0:
            out.append(f"start entry {i}: {w!r} is negative")
            bad_start = True
    if not bad_start:
        _check_mass(inst.start.weights, mode, "start", out)
    return out


def _checked_rows(inst: Instance) -> Tuple[List[str], list, list]:
    """One scan of every instance invariant: ``(violations, rows, index)``.

    ``violations`` are those :func:`validate_instance` reports, in its
    order.  ``rows`` holds the nonzero ``(column, entry)`` pairs of each
    distinct row object, in order of first appearance; ``index[k][i]`` is
    the position in ``rows`` of row i of matrix k.  Each distinct row
    object is checked once, and its violations are reported at every place
    it occurs.  ``rows`` and ``index`` describe the instance only when
    there is no violation.
    """
    out = _header_violations(inst)
    mode = inst.numeric_mode
    if mode not in _MODE_TYPES:
        return out, [], []
    d = inst.d
    position = {}  # id(row) -> its place in rows; the instance keeps every row alive
    rows, found, index = [], [], []
    for k, matrix in enumerate(inst.matrices):
        name = f"matrix {k}" if matrix.label is None else f"matrix {k} ({matrix.label!r})"
        if matrix.dim != d:
            out.append(f"{name}: has {matrix.dim} rows, expected {d}")
            continue
        places = []
        for i, row in enumerate(matrix.rows):
            p = position.get(id(row))
            if p is None:
                p = position[id(row)] = len(rows)
                violations, pairs = _row_violations(row, mode, d)
                found.append(violations)
                rows.append(pairs)
            if found[p]:
                out.extend(f"{name} row {i}{v}" for v in found[p])
            places.append(p)
        index.append(tuple(places))
    return out, rows, index


# The last instance checked, one tuple replaced whole: a weak reference to
# it, its check's violations, rows and index, and the forms built from its
# rows so far, by class: its integer form and the solvers' backends.
# Compared by identity, since an equal instance may differ in type (an int
# 1 for a float 1.0) and be invalid; anything stored on the instance would
# make it unpicklable.  One slot, not a map: each caller's calls on one
# instance run back to back.  Threads need no lock: a race only makes one
# of them check again what the other did.
_slot: tuple = (None,)


def _forget(ref) -> None:
    """Empty the slot once its instance dies, freeing what it holds."""
    global _slot
    if _slot[0] is ref:
        _slot = (None,)


def _prepared(inst: Instance) -> tuple:
    """The slot for ``inst``, refilled by one check when it holds another."""
    global _slot
    slot = _slot
    if slot[0] is None or slot[0]() is not inst:
        slot = _slot = (weakref.ref(inst, _forget), *_checked_rows(inst), {})
    return slot


def _sparse_rows(inst: Instance):
    """``(rows, index)`` as :func:`_checked_rows` gives them.  Raises
    ValueError with the first violation :func:`validate_instance` reports."""
    slot = _prepared(inst)
    if slot[1]:
        raise ValueError(slot[1][0])
    return slot[2:4]


def _derived(inst: Instance, form):
    """``form(inst, rows, index)`` over the rows :func:`_sparse_rows` gives,
    built the first time and kept in the instance's slot."""
    rows, index = _sparse_rows(inst)
    built = _prepared(inst)[4]
    derived = built.get(form)
    if derived is None:
        derived = built[form] = form(inst, rows, index)
    return derived


def _moved_places(inst: Instance, rows, index) -> list:
    """Per matrix, the ``(i, p)`` of each row i that it moves, as a dict
    from i to p in increasing i, with p the row's place in ``rows``.  Every
    row is moved but the unit row ``e_i``, whose one nonzero pair is
    ``(i, 1)``.  Read through :func:`_derived`, so made at most once per
    instance object, and never for one :func:`_placed_instance` built,
    which has them from the rows placed.  A dict of ints is not tracked by
    the garbage collector, where a list of pairs would add a tracked tuple
    per moved row."""
    unit_at = list(map(_unit_column, rows))
    return [{i: p for i, p in enumerate(places) if unit_at[p] != i} for places in index]


def _unit_column(pairs) -> int:
    """i if the nonzero ``pairs`` of a row are those of the unit row
    ``e_i``, ``((i, 1),)``; -1 if they are not a unit row's."""
    return pairs[0][0] if len(pairs) == 1 and pairs[0][1] == 1 else -1


def _placed_instance(
    units: tuple,
    mode: str,
    N: int,
    start: Distribution,
    target: int,
    labels: Sequence[Optional[str]],
    placed: Sequence[dict],
) -> Instance:
    """The instance whose matrix k holds ``placed[k][i]`` at each row i that
    ``placed[k]`` lists, in increasing i, and the unit row ``units[i]`` at
    every other, with ``units`` the rows :func:`_unit_rows` builds for
    ``mode`` and ``labels[k]`` the label of matrix k.

    For builders that know which rows they placed, the encoder and the
    reader of every format version: it fills the slot with what
    :func:`_checked_rows` and :func:`_moved_places` would give
    (:func:`_placed_rows`), visiting only the places listed: the moved
    rows of a reduction or of a version-2 or version-3 document, and every
    row of a version-1 document.  It fills nothing if it finds a
    violation, so the instance's first check runs :func:`_checked_rows`
    and names every violation as it would for any other instance.
    """
    global _slot
    matrices = []
    kept = True  # every matrix holds the row objects placed
    for label, rows_at in zip(labels, placed):
        rows = list(units)
        for i, row in rows_at.items():
            rows[i] = row
        rows = tuple(rows)
        matrix = StochasticMatrix(rows, label)
        kept = kept and matrix.rows is rows
        matrices.append(matrix)
    inst = Instance(tuple(matrices), N, start, target, mode)
    found = _placed_rows(inst, units, placed) if kept else None
    if found is not None:
        _slot = (weakref.ref(inst, _forget), [], *found)
    return inst


def _placed_rows(inst: Instance, units: tuple, placed: Sequence[dict]) -> Optional[tuple]:
    """``(rows, index, built)`` for the slot of an instance that
    :func:`_placed_instance` built: the rows and index :func:`_checked_rows`
    gives and the :func:`_moved_places` lists, or None if the instance has
    a violation.  Time linear in d and in the rows placed, plus C-level
    passes over the d * d entries of the unit rows and a C-level copy of d
    places per matrix.

    A row object first appears at its first listed place or, for a unit row
    e_i, at the first matrix that leaves row i unlisted, whichever comes
    first; a unit row no place holds is not in ``rows``.  Each distinct row
    is checked once: the unit rows together, by the identity of their
    entries with the mode's shared 0 and 1, and any other row by
    :func:`_row_violations`, as is every unit row if one of them was
    built from other numbers.
    """
    mode, d = inst.numeric_mode, inst.d
    if len(units) != d or _header_violations(inst):
        return None
    first = {}  # id(row) -> (k, i, row) at the first place that holds it
    for k, rows_at in enumerate(placed):
        for i, row in rows_at.items():
            first.setdefault(id(row), (k, i, row))
    listed = set(range(d))  # the rows that every matrix so far lists
    for k, rows_at in enumerate(placed):
        for i in listed.difference(rows_at):  # row i left in place for the first time
            unit = units[i]
            seen = first.get(id(unit))
            if seen is None or seen[:2] > (k, i):
                first[id(unit)] = (k, i, unit)
        listed.intersection_update(rows_at)
        if not listed:
            break

    # the unit rows hold the mode's shared 0 and 1, as the d * d identity
    # read row by row: a 1, then d 0s and a 1 after it, d - 1 times
    zero, one = _ZERO_ONE[mode]
    identity = chain((one,), chain.from_iterable(repeat((*repeat(zero, d), one), d - 1)))
    shared = set(map(len, units)) == {d} and all(map(is_, chain.from_iterable(units), identity))
    unit_of = {id(unit): j for j, unit in enumerate(units)} if shared else {}
    position, rows = {}, []
    for _, _, row in sorted(first.values()):  # no two share a place, so no rows compare
        j = unit_of.get(id(row))
        if j is not None:
            pairs = ((j, one),)
        else:
            violations, pairs = _row_violations(row, mode, d)
            if violations:
                return None
        position[id(row)] = len(rows)
        rows.append(pairs)

    unit_at = list(map(_unit_column, rows))
    unit_places = [position.get(id(unit), -1) for unit in units]  # -1: listed everywhere
    index, moved = [], []
    for rows_at in placed:
        places = unit_places.copy()
        moves = {}
        for i, row in rows_at.items():
            p = places[i] = position[id(row)]
            if unit_at[p] != i:
                moves[i] = p
        index.append(tuple(places))
        moved.append(moves)
    return rows, index, {_moved_places: moved}


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every instance invariant and name each violation found.

    Covers: mode tag sanity, K >= 1, N >= 0, target range, start simplex
    membership, matrix shapes, entry ranges, per-row mass, and numeric-mode
    uniformity (no floats in an exact instance and vice versa).  Each
    distinct row object is checked once per instance object, and its
    violations are reported at every place it occurs.
    """
    return ValidationReport(tuple(_prepared(inst)[1]))


class _IntegerForm:
    """The integer rescaling of a valid exact instance.

    With L (``base``) the lcm of the denominators of the nonzero entries
    and start weights, ``rows`` holds each distinct sparse row with its
    entries times L, and ``start`` the start weights times D = L^(N+1)
    (``mass``).  Each of the N applications divides by L, so a population
    keeps mass D, every reachable weight stays an exact integer, a weight
    with r steps left is a multiple of L^r, and weight x stands for
    Fraction(x, D).

    ``moved[k]`` is ``(whole, split)``, the rows matrix k moves, as
    :func:`_moved_places` lists them: ``(i, j)`` for a row sending all of
    state i to j, ``(i, row)`` for a row with several coefficients.
    """

    def __init__(self, inst: Instance, entries, index):
        denominators = {t.denominator for row in entries for _, t in row}
        self.base = L = lcm(*denominators, *(w.denominator for w in inst.start.weights))
        self.rows = rows = [
            tuple((j, t.numerator * (L // t.denominator)) for j, t in row) for row in entries
        ]
        self.mass = L ** (inst.N + 1)
        self.start = tuple(int(w * L) * L**inst.N for w in inst.start.weights)
        # per distinct row, the column of its one entry, None if it has several
        single = [row[0][0] if len(row) == 1 else None for row in rows]
        self.moved = []
        for places in _derived(inst, _moved_places):
            whole, split = [], []
            for i, p in places.items():
                j = single[p]
                if j is None:
                    split.append((i, rows[p]))
                else:
                    whole.append((i, j))
            self.moved.append((whole, split))

    def apply(self, weights, k: int) -> tuple:
        """``weights`` times matrix ``k``, one step of the rescaling."""
        L = self.base
        out = list(weights)
        whole, split = self.moved[k]
        for i, j in whole:  # the coefficient is L, so w moves as it is
            w = weights[i]
            if w:
                out[i] -= w
                out[j] += w
        for i, row in split:
            w = weights[i]
            if w:
                out[i] -= w
                w //= L  # exact: a weight with a step left is a multiple of L
                for j, c in row:
                    out[j] += w * c
        return tuple(out)


# Terms per generated statement.  CPython compiles a chain of additions by
# recursing once per term, which overflows at a few thousand terms, so a
# kernel sums a long column in statements of at most this many terms.
_KERNEL_TERMS = 200


def _sum_lines(name: str, zero: str, terms: List[str]) -> List[str]:
    """Generated statements setting ``name`` to zero + terms[0] + terms[1] +
    ..., left to right, at most ``_KERNEL_TERMS`` terms per statement, each
    starting from the last one's total."""
    lines, total = [], zero
    for s in range(0, len(terms) or 1, _KERNEL_TERMS):
        lines.append(f" {name} = {' + '.join([total, *terms[s : s + _KERNEL_TERMS]])}")
        total = name
    return lines


@lru_cache(maxsize=128)
def _kernel_template(pattern: tuple) -> tuple:
    """``(code, order)``: the code of every :func:`_float_kernel` whose
    matrix has the sparsity ``pattern`` (per row, the columns of its
    nonzero entries, in row order; it fixes d), and the order in which a
    kernel's constants are picked out of its entries, row by row, and the
    template's own constants.

    The source is that of the kernel :func:`_float_kernel` describes, with
    the float n in place of the n-th of those entries, counting from 1:
    distinct floats that no other constant equals and that sit only in
    products with a local, so the compiler neither merges nor folds them,
    and each marks the one place among the code's constants where its entry
    goes.  Dense matrices of one d share one template, compiled once per
    process.
    """
    d = len(pattern)
    columns: List[List[str]] = [[] for _ in range(d)]
    n = 0
    for i, row in enumerate(pattern):
        for j in row:
            n += 1
            columns[j].append(f"w{i}*{n}.0")
    lines = ["def kernel(w):", f" {''.join(f'w{i},' for i in range(d))} = w"]
    for j, terms in enumerate(columns):
        lines += _sum_lines(f"o{j}", "0.0", terms)
    lines.append(f" return {''.join(f'o{j},' for j in range(d))}")
    module = compile("\n".join(lines), "<kernel>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    consts = enumerate(code.co_consts)  # the placeholders, then the template's own constants
    return code, tuple(int(c) - 1 if type(c) is float and c >= 1 else n + p for p, c in consts)


def _float_kernel(rows):
    """A function taking a float population to its image under one matrix,
    given the matrix's sparse ``(column, entry)`` rows in row order.

    It computes each output o_j = 0.0 + w_i1*c_1 + w_i2*c_2 + ... over
    column j's nonzero entries, in ascending row order: the products and
    the order of a loop that adds each weight's products into ``[0.0] *
    d``, so the results are the same bit for bit.  The loop skips zero
    weights; here a zero weight only adds a product of +-0.0 to a sum that
    starts at +0.0 and stays nonnegative, which changes no bit.  A column
    is summed in statements of at most ``_KERNEL_TERMS`` terms, each
    starting from the last one's total, so the additions keep their order
    and no expression grows with the column.

    The kernel is bound, not compiled: its code is the template of its
    pattern (:func:`_kernel_template`) with the entries put in place of the
    template's placeholders, each as the float's own value
    (``float.__float__``, whatever a subclass of float overrides).  So
    binding takes time linear in the nonzeros, and only a pattern seen for
    the first time is compiled.  The kernel runs without builtins.
    """
    code, order = _kernel_template(tuple(tuple(j for j, _ in row) for row in rows))
    entries = [float.__float__(c) for row in rows for _, c in row]
    pool = (*entries, *code.co_consts)
    return FunctionType(code.replace(co_consts=tuple(map(pool.__getitem__, order))), {"__builtins__": {}})


class _FloatForm:
    """The float form of a valid float instance: its start weights as they
    are, each read as itself (``mass`` None), and one apply kernel per
    matrix (:func:`_float_kernel`), which the float search backend and
    plan evaluation share.

    The kernels are bound the first time ``apply`` runs, once per
    instance, so callers that never apply a matrix bind none.  A state
    after a step holds +0.0, the kernels' zero, where nothing lands.
    """

    mass = None

    def __init__(self, inst: Instance, rows, index):
        self.start = inst.start.weights
        self._rows, self._index = rows, index

    @cached_property
    def kernels(self):
        """Per matrix, the kernel that applies it."""
        return [_float_kernel(list(map(self._rows.__getitem__, places))) for places in self._index]

    def apply(self, weights, k: int) -> tuple:
        """``weights`` times matrix ``k``, through its kernel."""
        return self.kernels[k](weights)


def apply(v: Distribution, matrix: StochasticMatrix) -> Distribution:
    """One treatment step: the row-vector product ``v @ matrix``, by a
    dense loop over the rows of nonzero weight, each output starting from
    the zero of the operand type."""
    weights = v.weights
    d = len(weights)
    rows = matrix.rows
    if not d or len(rows) != d or any(len(row) != d for row in rows):
        raise ValueError(
            f"dimension mismatch: distribution has {d} entries, "
            f"matrix is {len(rows)}x{len(rows[0]) if rows else 0}"
        )
    out = [weights[0] * 0] * d
    for w, row in zip(weights, rows):
        if w:
            for j, t in enumerate(row):
                if t:
                    out[j] += w * t
    return Distribution(tuple(out))


def _check_plan_indices(inst: Instance, plan: Sequence[int]) -> Plan:
    """The plan as a tuple; raises ValueError naming the first step that is
    not an int (bools excluded) in [0, K)."""
    plan = tuple(plan)
    for step, k in enumerate(plan):
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"plan step {step}: matrix index must be an int, got {k!r}")
        if not 0 <= k < inst.K:
            raise ValueError(f"plan step {step}: matrix index {k} out of range for K={inst.K}")
    return plan


def evaluate_plan(inst: Instance, plan: Sequence[int]) -> Scalar:
    """Value of a full-length plan: the target coordinate after applying
    the plan's matrices to the start state in order.

    The empty plan (N = 0) is legal and evaluates to ``start[target]``.

    Exact values are Fractions, as the solvers return them.  A float value
    is the sum of the apply kernels the float searches run, with no
    clamping, so it can exceed 1 by rounding: 0/1 rows that re-add the
    same weights in another order can make it 1.0000000000000002 on a
    start of mass exactly 1.0.  The float searches return the same bits.
    """
    points, mass = _plan_states(inst, plan, full=True)
    return _value(points[-1][inst.target], mass)


def trajectory(inst: Instance, plan: Sequence[int]) -> List[Distribution]:
    """The step-by-step population states visited by a plan (or plan prefix).

    Element 0 is the start state; element ``t + 1`` follows by applying the
    matrix chosen at step ``t``.  For a full-length plan the last element's
    target coordinate equals :func:`evaluate_plan`.
    """
    return _distributions(inst, *_plan_states(inst, plan, full=False))


def _plan_states(inst: Instance, plan: Sequence[int], full: bool) -> Tuple[list, Optional[int]]:
    """The weights of the states a plan visits, start state first, and the
    mass D they are read at, after checking the instance and that the plan
    has N steps if ``full``, else at most N.

    The walk is the instance's form, the one the searches apply matrices
    through, one ``apply`` per step: the integer form of an exact
    instance, whose weight x stands for Fraction(x, D), and the float form
    of a float one, whose weights stand for themselves (D is None).  So
    each value is the searches' own, bit for bit and by type.
    :func:`_value` and :func:`_distributions` read the weights.
    """
    _sparse_rows(inst)
    plan = _check_plan_indices(inst, plan)
    if full and len(plan) != inst.N:
        raise ValueError(f"plan has {len(plan)} steps, instance horizon is {inst.N}")
    if len(plan) > inst.N:
        raise ValueError(f"plan has {len(plan)} steps, longer than horizon {inst.N}")
    form = _derived(inst, _IntegerForm if inst.numeric_mode == EXACT else _FloatForm)
    points = [form.start]
    for k in plan:
        points.append(form.apply(points[-1], k))
    return points, form.mass


def _value(x, mass: Optional[int]) -> Scalar:
    """The number a weight of :func:`_plan_states` stands for."""
    return x if mass is None else Fraction(x, mass)


def _distributions(inst: Instance, points: list, mass: Optional[int]) -> List[Distribution]:
    """The states of :func:`_plan_states` as distributions, the start as
    the instance holds it; every zero weight of the integer form is one
    shared Fraction(0)."""
    if mass is None:
        later = map(Distribution, points[1:])
    else:
        zero = Fraction(0)
        later = (
            Distribution(tuple(Fraction(x, mass) if x else zero for x in w)) for w in points[1:]
        )
    return [inst.start, *later]
