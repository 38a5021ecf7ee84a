"""Exact and heuristic optimization of treatment-plan value.

Four entry points, all pure functions of an :class:`~timemachine.core.Instance`:

* :func:`enumerate_solve` -- exhaustive scan of all K^N plans, without
  recursion; the reference oracle for everything else.
* :func:`mdp_value_table` -- finite-horizon dynamic program for the relaxed
  single-individual problem, where a different matrix may be chosen per state
  per step.  ``U[r][i]`` bounds from above what any single plan can deliver
  from state ``i`` with ``r`` steps left, which makes it an admissible
  pruning bound.
* :func:`branch_and_bound_solve` -- depth-first search in ascending matrix
  order, pruning subtrees whose bound cannot strictly beat the incumbent:
  the best value of the child where suffix value vectors cover its level,
  else the relaxation bound.  Guaranteed to match enumerate_solve's value.
* :func:`beam_search` -- width-limited heuristic scored by the relaxation
  bound; its value never exceeds the true optimum.

:func:`decide_threshold` answers the decision variant (is there a plan with
value >= alpha?) with early exit on the first witness found.

Every search runs on a numeric backend, and is written once against the
interface the backends share: ``start``, ``apply(weights, k)``, ``caps``,
value levels ``U[r]`` (scaled by ``level_scale[r]``, one level ``base``
times the scale of the level below), the total mass ``full[r]`` at each
level's scale, ``memoize`` (with ``memo_keys`` and ``memo_class``),
``divide`` and ``to_value``.  ``caps(weights, r, last)`` returns the K
child bounds of a node with ``r`` steps left that matrix ``last`` made (K
at the root), sum_i w_i Q[r][k][i] at level r's scale, where Q[r][k][i]
is state i's value one step through matrix k; only the support backend
reads ``last``.  Beam search reads child bounds only through ``caps``,
and so does the walk at the leaves (r = 1).  Enumeration reads no child
bound: it reads plan values through ``suffix_values`` (below).  Above
the leaves the walk reads ``suffix_caps`` where the suffix groups ``G``
cover level r: the max of w . beta over the group G[r][k] of each child,
which is the child's best value (:func:`_suffix_groups`).  An instance
with K * K above
``_GAMMA_VECTORS`` (every 3-SAT reduction) builds no group, and a level
whose candidate vectors would exceed it ends the groups, so the levels
above it read ``caps``.  The two value
backends hold the matrices as sparse ``(column, coefficient)`` rows,
read off the instance check's own scan, and build their tables from them
with :func:`_tables`, in their own numbers.  Matrices share row objects
(the all-patterns reduction's 1,160 rows are 18 objects), so each distinct
row object is checked and converted once and summed once per level, and
every matrix's lookahead entries are read off those sums.

The instance check and each backend are built once per instance object,
not once per call: the backends are kept in the slot of
:mod:`timemachine.core` that holds the last instance checked, and the
calls that follow on the same object reuse them.  Backends are read-only
once built and their lazy parts deterministic, so answers and node counts
do not depend on what the slot held before.  The slot keeps nothing alive:
a backend lives until its instance dies or another instance is checked.

* :class:`_FloatView` serves float instances.  It keeps the instance's own
  weights unscaled and sums each child bound separately, so float
  arithmetic and its summation order are those of the plain problem.
  Float populations practically never repeat exactly, so searches keep no
  memo over it.  It applies each matrix through the apply kernel that the
  instance's float form (:class:`~timemachine.core._FloatForm`) holds,
  straight-line code over the matrix's nonzero entries that adds the same
  products in the same order as a loop over the rows from +0.0 would, so
  its results are bit-identical to that loop's, and plan evaluation steps
  through the same kernels.  :mod:`timemachine.core` compiles the code once
  per process per sparsity pattern (dense matrices of one d share it), and
  each matrix's kernel is that code with the matrix's entries bound in as
  its constants, the first time a search or an evaluation applies the
  matrix, once per instance, in time linear in the nonzeros.  Its child
  bounds come from one dot-product kernel per ``(d, K)`` shape, compiled
  once per process, and so do enumeration's reads, off G or off Q[1].
  The walk compares its bounds above the leaves with a rounding slack
  (``cutoffs``), and enumeration its largest reads, so that no bound or
  read, off ``caps`` or off ``G``, sits below the float value of a plan
  under it (:func:`_rounding_slack` has the proof).
* :class:`_IntegerView` serves exact instances.  Its coefficients are the
  entries times L, the lcm of their denominators, so its tables come out in
  integers, level r scaled by L^r, and no Fraction is built before the end.
  It packs the K lookahead entries of each state into one integer, so one
  big-integer dot product yields all K child bounds.  Its groups ``G`` are
  integers too, level r scaled by L^r, so the walk's bounds off them are
  exact.  Enumeration packs suffix values the same way, K^b to an integer.
* :class:`_SupportView` serves only the exact decision at alpha = 1, the
  regime of the 3-SAT reduction.  Its populations are support bitmasks; it
  builds no value table, only certainty masks that know the matrix order,
  so its child bounds are 0 or 1.  A child whose support relation commutes
  with that of ``last`` and sorts below it reads 0, so the walk skips plans
  with such a pair out of ascending order.

A leaf is never materialized: its value is its bound at r = 1, the sum of
its parent's weights times Q[1][k], which at one step from the end is the
leaf's target weight itself, scaled by ``base``.  In float mode the two
sums have the same nonzero terms in the same order, and the dot kernel fixes
that order, so leaf values match :func:`~timemachine.core.evaluate_plan` bit
for bit on any CPython.
A child whose occupied states all have relaxed value exactly 1 gets
exactly the full mass as its bound, with no special case.

Enumeration meets in the middle (Horowitz & Sahni 1974): an odometer
applies the first N - b steps of each plan forward, and each population it
reaches is read once, off the suffix vectors P_sigma e_target of Smallwood
& Sondik (1973) of b steps (``suffix_values``).  Exact enumeration meets at
b = max(N // 2, 1).  Exact values are associative, so exact reads are the
plans' values: per state, one integer packs the state's entries of all K^b
vectors, and one big-integer dot product per forward population yields K^b
exact plan values.  That table holds at most sqrt(K^N) vectors where N >=
2, and K where N = 1; it is built per call and dropped on return.  Float
enumeration meets at the deepest level 2 <= b <= max(N // 2, 1) that the
suffix groups cover, else at b = 1, and reads through the dot kernel, K
vectors per call.  At b = 1 the reads are the plans' values, off Q[1].  At
b >= 2 they are read off the vectors of G[b], all k, which hold the
maximal suffix vectors, add their products in another order than
:func:`~timemachine.core.evaluate_plan` does, and only filter: a population
whose largest read is at most the cutoff of the best value so far
(``cutoffs`` at level b) holds no plan that beats it, and any other is
valued again (``revalue``), through the apply kernels and the leaf values
above, in the same order as ``evaluate_plan``.  No recursion grows with N.

Branch and bound and the threshold decision are one depth-first walk,
:func:`_search`; the solvers set only its incumbents.  It visits children
in ascending order, and a bound that is the child's best value (exact
mode, covered levels) or above every plan under it prunes no subtree
holding the first optimal or qualifying plan, so the plans are those of
enumeration whichever bound is read.
All searches are deterministic, node counts included.  Every solver, and
:func:`mdp_value_table`, raises ValueError with the first violation that
:func:`~timemachine.core.validate_instance` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import ceil, fsum, gcd, inf, log10, nextafter
from operator import floordiv, ge, itemgetter, mul, pos
from struct import Struct
from typing import Dict, List, Optional, Sequence, Tuple

from .core import EXACT, EVAL_TOL, Instance, Plan, Scalar
from .core import _derived, _FloatForm, _IntegerForm, _moved_places, _sparse_rows, _sum_lines

DEFAULT_ENUMERATION_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """A solver's enumeration budget is too small for the request.

    ``required`` carries the number of visits the request would need
    (K^N for plan enumeration, 2^n for assignment scans).
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class ValueTable:
    """Per-state value table of the relaxed problem.

    ``values[r][i]`` is the best probability of occupying the target after
    exactly ``r`` more steps starting from state ``i``, when the matrix
    choice may differ per state and per step.
    """

    values: Tuple[Tuple[Scalar, ...], ...]

    def bound(self, weights: Sequence[Scalar], steps_left: int) -> Scalar:
        """Upper bound on any plan's value from population ``weights`` with
        ``steps_left`` applications remaining.  Raises ValueError unless
        ``steps_left`` lies in [0, N] and ``weights`` has one entry per state."""
        N = len(self.values) - 1
        if not 0 <= steps_left <= N:
            raise ValueError(f"steps_left must lie in [0, {N}], got {steps_left}")
        level = self.values[steps_left]
        if len(weights) != len(level):
            raise ValueError(f"weights must have {len(level)} entries, got {len(weights)}")
        return sum(map(mul, weights, level))


@dataclass(frozen=True)
class SolveResult:
    value: Scalar
    plan: Plan
    nodes_explored: int
    nodes_pruned: int
    method: str


def _mask(flags) -> int:
    """Bitmask with bit ``i`` set where ``flags[i]`` is truthy."""
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def _picker(indices: List[int]):
    """A C-level function taking a tuple to the tuple of its entries at the
    ascending ``indices``: a slice where they run contiguously (a tuple
    sliced whole is the tuple itself), else an itemgetter."""
    start = indices[0] if indices else 0
    if indices == list(range(start, start + len(indices))):
        return itemgetter(slice(start, start + len(indices)))
    return itemgetter(*indices)


def _row_sums(rows, values) -> list:
    """Per row, ``0 + c_1 * values[j_1] + c_2 * values[j_2] + ...`` over its
    ``(j, c)`` pairs, added left to right: for floats the order of ``sum()``
    up to CPython 3.11 (3.12 made float ``sum()`` compensated), so that the
    float bound slack of :func:`_rounding_slack` holds on every version."""
    sums = []
    for row in rows:
        total = 0
        for j, c in row:
            total += c * values[j]
        sums.append(total)
    return sums


def _fields(count: int, top: int) -> list:
    """The byte slices of ``count`` packed fields, field 0 at byte 0, each
    as many bytes wide as ``top``, the largest value a field holds, takes,
    and at least one 64-bit word."""
    width = max(8, (top.bit_length() + 7) // 8)
    return [slice(o, o + width) for o in range(0, count * width, width)]


def _field_reader(fields):
    """A function taking the little-endian bytes of an integer packed in
    ``fields`` (:func:`_fields`) to the tuple of their values: one
    precompiled ``struct`` unpack where a field is one 64-bit word, else
    one byte slice per field.  Wider fields are not padded to whole words,
    which would only lengthen the dot products that make the integers."""
    if fields[0].stop == 8:
        return Struct(f"<{len(fields)}Q").unpack
    return lambda data: tuple(map(int.from_bytes, map(data.__getitem__, fields), repeat("little")))


def _tables(rows, index, d: int, N: int, target: int):
    """Value levels U[0..N] and one-step lookahead tables Q[r][k][i] =
    sum_j c * U[r-1][j] over the ``(j, c)`` pairs of row (k, i), in the
    coefficients' own numbers, so that the bound of a child node can be read
    off before materializing it.  U[0] is the 0/1 indicator of the target.

    ``rows`` and ``index`` are shared rows as
    :func:`~timemachine.core._sparse_rows` gives them, so each distinct row
    is summed once per level (by :func:`_row_sums`), into ``sums[r]``, and
    Q[r][k] reads its entries off those sums.  Returns ``(U, Q, sums)``,
    with Q[0] and sums[0] None.
    """
    levels = [tuple(int(i == target) for i in range(d))]
    lookahead, sums = [None], [None]
    for _ in range(N):
        level_sums = _row_sums(rows, levels[-1])
        q_level = [tuple(map(level_sums.__getitem__, places)) for places in index]
        sums.append(level_sums)
        lookahead.append(q_level)
        levels.append(tuple(map(max, zip(*q_level))))
    return levels, lookahead, sums


# Suffix value vectors are built one level at a time while the level's
# candidates, K times the vectors of the level below, number at most this
# many; past it, the pointwise-dominance prune, quadratic in the candidates,
# would cost more than the bounds save.  An instance with K * K above it
# builds nothing, so the 3-SAT reductions (K >= 22) pay nothing.
_GAMMA_VECTORS = 64


def _maximal(vectors) -> list:
    """The vectors that no other is at least as large as in every entry,
    one of each set of equal ones.  In descending lexicographic order a
    vector comes after every vector that dominates it, and after its equals
    but the first, so one pass against the vectors kept so far finds them."""
    kept: list = []
    for b in sorted(vectors, reverse=True):
        if not any(all(map(ge, a, b)) for a in kept):
            kept.append(b)
    return kept


def _suffix_groups(rows, index, d: int, N: int, target: int) -> list:
    """Per level r = 1, 2, ... and matrix k, the group G[r][k]: the maximal
    vectors (:func:`_maximal`) of P_k alpha over alpha in Gamma_(r-1), in
    the coefficients' own numbers, where Gamma_0 = {e_target} and Gamma_r
    is the maximal vectors of the union of G[r].

    Gamma_r holds the suffix value vectors of Smallwood & Sondik (1973),
    with Cassandra, Littman & Zhang's (1997) LP-free prune: the value of an
    r-step suffix plan from population w is w . alpha for its vector alpha
    = P_(k_1) ... P_(k_r) e_target, and a vector that another is at least
    as large as everywhere never gives the larger value.  So the best value
    of the child that matrix k makes of w, with r - 1 steps left after it,
    is the max of w . beta over G[r][k].  G[0] is None, and the list ends at
    the first level whose candidates would exceed ``_GAMMA_VECTORS``; it
    is empty past G[0] where N < 2, as no walk or enumeration reads G[1].
    """
    K = len(index)
    groups: list = [None]
    if K * K > _GAMMA_VECTORS or N < 2:
        return groups
    gamma = [tuple(int(i == target) for i in range(d))]
    for _ in range(N):
        if K * len(gamma) > _GAMMA_VECTORS:
            break
        sums = [_row_sums(rows, alpha) for alpha in gamma]
        level = [_maximal([tuple(map(s.__getitem__, places)) for s in sums]) for places in index]
        groups.append(level)
        gamma = _maximal([beta for group in level for beta in group])
    return groups


def _rounding_slack(terms: int, levels: int) -> Tuple[float, float]:
    """``(F, A)`` such that every plan under a float child bound ``c`` read
    with ``levels`` >= 2 steps left, off ``caps`` or off ``G``, is worth at
    most ``c * F + A`` (in real numbers) as the walk values it, which is
    :func:`~timemachine.core.evaluate_plan`'s value; ``terms`` is d.  So is
    every plan that finishes a population of enumeration whose largest
    read (``suffix_values``) with ``levels`` = b >= 2 steps left is ``c``.

    Proof.  Let w be the node's float population, s = ``levels``, u =
    2^-53, and v the real number w . P_k P_sigma e_target for a plan (k,
    sigma) under child k, in the instance's float entries.  Every float
    sum involved adds at most d nonnegative products left to right from 0
    (the apply kernels, the dot kernel, :func:`_row_sums`), or is ``fsum``
    of at most d products, rounded once after the products.  Without
    underflow such a sum is the real one with each term scaled by at most d
    factors (1 + delta), |delta| <= u (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sec. 3.1).

    * The plan's float value applies s - 1 matrices to w and reads the last
      step off Q[1], which holds entries of the matrices themselves: s sums,
      so it is at most (1 + u)^(ds) v.
    * Rounding is monotone, and so is a float sum of nonnegative products in
      its terms.  Each vector of G[s][k], and Q[s][k], was built by s levels
      of :func:`_row_sums` from vectors at least as large, entry by entry,
      as those the same sums give along (k, sigma): G keeps a vector that
      dominates each one it drops, and U takes a max.  So it is at least
      (1 - u)^(ds) P_k P_sigma e_target, and ``c``, one more sum, is at
      least (1 - u)^(d(s+1)) v.  Enumeration's largest read off G[s], from
      a population w with s steps left, is at least the read of that
      vector of G[s][k], one more sum, so at least (1 - u)^(d(s+1)) v too,
      for every plan (k, sigma) that finishes w: the walk applies the steps
      before w through the same kernels as the plan's value.

    So the value is at most c (1 + u)^(ds) / (1 - u)^(d(s+1)) <= c (1 +
    gamma_m), with m = d(2s + 1) and gamma_m = m u / (1 - m u) (Higham,
    Lemma 3.1), and gamma_m <= 2 m u = F - 1 while m u <= 1/2.  A product
    that underflows errs by up to 2^-1075 absolutely instead (a sum never
    does, and a product with an exact 0 or 1 never errs).  The value takes
    at most s d^2 products, and a bound or a read ``c`` at most s d^2 + d
    <= (s + 1) d^2: s levels of :func:`_row_sums` build Q[s] or G[s], and
    one more sum reads it.  Entries are at most 1 and rows sum to at most
    1 + ROW_SUM_TOL, so each such error reaches the value or ``c`` scaled
    by at most 2, and F <= 2 scales those of ``c`` once more: A = 16 (s +
    1) d^2 2^-1075 covers them.  Both conditions hold while N (d u +
    ROW_SUM_TOL) <= 1/8, true of every instance a search can finish.  F = 1
    + m 2^-52 and A are exact floats.
    """
    m = terms * (2 * levels + 1)
    return 1 + m * 2.0**-52, (levels + 1) * terms * terms * 2.0**-1071


def _deflated(x: float, factor: float, absolute: float) -> float:
    """A float below (x - absolute) / factor, so that a bound ``c`` at most
    it has ``c * factor + absolute < x``: each rounded step is followed by
    a step to the next float down, which lies below the exact result."""
    return nextafter(nextafter(x - absolute, -inf) / factor, -inf)


@lru_cache(maxsize=128)
def _dot_kernel(n: int, m: int):
    """``kernel(w, Q)`` = ``[sum(map(mul, w, q)) for q in Q]`` for n weights
    and m vectors of n entries, as straight-line code over locals: each sum
    is 0 + w0*q_0 + w1*q_1 + ..., the int start, products and left-to-right
    order of ``sum()`` up to CPython 3.11, in the statements of
    :func:`~timemachine.core._sum_lines`.  It holds no constant but 0 and
    runs without builtins, so one kernel per shape serves every caller."""
    vectors = "".join("(" + "".join(f"q{k}_{i}," for i in range(n)) + ")," for k in range(m))
    lines = ["def kernel(w, Q):", f" {''.join(f'w{i},' for i in range(n))} = w", f" {vectors} = Q"]
    for k in range(m):
        lines += _sum_lines(f"s{k}", "0", [f"w{i}*q{k}_{i}" for i in range(n)])
    lines.append(f" return [{', '.join(f's{k}' for k in range(m))}]")
    namespace = {"__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace.pop("kernel")


def mdp_value_table(inst: Instance) -> ValueTable:
    """Solve the relaxed per-individual problem by backward induction.

    Runs in O(N * nonzeros).  ``values[0]`` is the indicator of the target;
    each later level takes the best matrix per state against the previous
    level.  The values are the search backend's levels, divided by their
    scale: Fractions for exact instances, floats for float ones.
    """
    view = _view(inst)
    levels = zip(view.U, view.level_scale)
    return ValueTable(tuple(tuple(view.divide(u, s) for u in level) for level, s in levels))


class _ValueView:
    """What the two value backends share: the suffix groups G, built in the
    backend's own numbers the first time a walk or float enumeration reads
    them, and the child bounds read off them.  G holds plain tuples and
    lists, nothing that refers back to the view."""

    @cached_property
    def G(self) -> list:
        """Per level r, per matrix k, the group G[r][k] of
        :func:`_suffix_groups`, up to the last level it covers."""
        N = len(self.full) - 1
        return _suffix_groups(self._rows, self._index, len(self.start), N, self._target)

    def suffix_caps(self, weights, r: int, last=None) -> list:
        """The K child bounds of a node with ``r`` steps left, 2 <= r <
        len(G): the max of ``weights . beta`` over each group G[r][k], at
        level r's scale, each a sum by ``_total``."""
        total = self._total
        return [max(map(total, map(map, repeat(mul), repeat(weights), group))) for group in self.G[r]]


class _FloatView(_ValueView):
    """Float backend: the instance's weights and entries as they are.

    Every level scale and full mass is 1, so each child bound is the plain
    float sum over the states, in the same order as in the unscaled
    problem.  Searches keep no memo over float populations: on dense random
    instances they practically never repeat exactly, so a memo costs a key
    per node and prunes nothing.

    ``start`` and ``apply`` are those of the instance's float form
    (:class:`~timemachine.core._FloatForm`), which plan evaluation walks
    too: ``apply`` runs one kernel per matrix
    (:func:`~timemachine.core._float_kernel`), a function with one
    straight-line sum per output state, which replaces a Python double loop
    over the nonzero entries.  The kernels are bound from the template of
    their pattern the first time the form applies a matrix, once per
    instance, whether a search or an evaluation asks first.  Callers that
    never apply a matrix bind nothing: :func:`mdp_value_table`, and every
    search at N <= 1, which reads every child off ``caps``.  A kernel
    references no view, so dropping the view frees it without a cycle
    collection.

    ``caps`` calls the :func:`_dot_kernel` of the instance's shape, taken
    the first time it runs and shared by every view of that shape.  It fixes
    the addition order, so leaf values match ``evaluate_plan`` bit for bit.
    Enumeration's reads (``suffix_values``) go through the same kernel, K
    vectors per call, so no other kernel shape is compiled.  They are read
    off Q[1], or off the vectors of G[b], the groups the walk reads too,
    built once per instance; no float path builds all K^b suffix vectors.
    ``suffix_caps`` adds each product of a group's vector with ``fsum``,
    which rounds once per product and once per sum on every CPython.

    ``cutoffs`` carries the rounding slack of :func:`_rounding_slack` into
    the walk's comparisons above the leaves, whichever of ``caps`` and
    ``suffix_caps`` gave the bound, and into enumeration's filter over its
    suffix reads; the bounds themselves stay plain float sums, so beam
    reads ``caps`` unchanged.
    """

    base = 1
    memoize = False
    _total = staticmethod(fsum)

    def __init__(self, inst: Instance, rows, index):
        self._form = form = _derived(inst, _FloatForm)
        self.start, self.apply = form.start, form.apply
        self._rows, self._index, self._target = rows, index, inst.target
        self.U, self.lookahead, _ = _tables(rows, index, inst.d, inst.N, inst.target)
        self.level_scale = self.full = (1,) * (inst.N + 1)
        self._slacks = [_rounding_slack(inst.d, r) for r in range(2, inst.N + 1)]

    @cached_property
    def _dot(self):
        return _dot_kernel(len(self.start), len(self._index))

    def caps(self, weights, r: int, last=None) -> list:
        return self._dot(weights, self.lookahead[r])

    def suffix_values(self, b: int):
        """``(read, level)`` for enumeration, which asks to meet b >= 1
        steps from the end: it meets ``level`` steps from the end, and
        ``read(weights)`` is the list of the reads of a population with
        ``level`` steps left, one dot kernel call per K vectors.

        ``level`` is the deepest level 2 <= level <= b that the suffix
        groups cover, and the reads are weights . beta over the vectors
        beta of G[level], of every k, padded with copies of the first to a
        multiple of K.  Every suffix vector P_sigma e_target of ``level``
        steps is at most, entry by entry, a vector of G[level] that is
        itself a suffix vector built by the same sums (G keeps a vector
        that dominates each one it drops, and rounding is monotone), and a
        read of nonnegative weights is monotone in the vector, so the
        largest read is the largest over all K^level suffix vectors, the
        same float.  These reads only filter: the largest is within the
        slack of ``cutoffs`` at ``level`` of every plan's value
        (:func:`_rounding_slack`), and enumeration values the plans it
        cannot rule out again (``revalue``).

        Where the groups cover no such level (K * K above
        ``_GAMMA_VECTORS``, or b = 1, which builds no G), ``level`` is 1
        and the reads are ``caps(weights, 1)``, the plans' values in plan
        order as ``evaluate_plan`` adds them.
        """
        level = min(b, len(self.G) - 1) if b > 1 else 1
        if level > 1:
            K = len(self._index)
            vectors = [beta for group in self.G[level] for beta in group]
            vectors += vectors[:1] * (-len(vectors) % K)
            table = list(zip(*[iter(vectors)] * K))  # in chunks of K
        else:
            level, table = 1, [self.lookahead[1]]
        dot = self._dot
        return lambda weights: list(chain.from_iterable(map(dot, repeat(weights), table))), level

    def revalue(self, weights, b: int) -> list:
        """The values of the K^b plans that finish population ``weights``,
        with b steps left, in plan order, as ``evaluate_plan`` adds them:
        the population expanded b - 1 steps through the apply kernels, and
        each leaf read off Q[1] (``caps(weights, 1)``)."""
        block = [weights]
        for _ in range(b - 1):  # the children of the block's populations, in plan order
            block = list(chain.from_iterable(zip(*[map(f, block) for f in self._form.kernels])))
        return list(chain.from_iterable(map(self._dot, block, repeat(self.lookahead[1]))))

    def cutoffs(self, x: float) -> list:
        """Per level r, the float a child bound read with r steps left is
        compared with, for plans worth ``x``: a bound at most it shows that
        no plan under the child beats ``x``, and a bound below it that none
        reaches ``x``.  It is ``x`` at r <= 1, where the bound is the leaf's
        value, and ``x`` less the rounding slack above."""
        return [x, x, *(_deflated(x, *slack) for slack in self._slacks)]

    @staticmethod
    def divide(x, scale):
        return x / scale

    @staticmethod
    def to_value(x, steps_left=0):
        return x


class _IntegerView(_ValueView):
    """Exact backend: the instance's integer form
    (:class:`~timemachine.core._IntegerForm`), which plan evaluation shares.

    With L the lcm of the denominators of the nonzero entries and start
    weights, each coefficient is an entry times L, so the tables come out
    scaled by L^r at level r: L^r U[r] = max_k sum_j (t L)(L^(r-1) U[r-1][j]).
    Populations are scaled by D = L^(N+1), and each of the N applications
    divides by L, so every reachable weight stays an exact integer, and a
    weight with r steps left is a multiple of L^r.  ``apply`` is the
    form's own step.

    The K lookahead entries Q[r][k][i] of a state are packed into one
    integer, field k holding Q[r][k][i], each field as many bytes wide as
    full[r] = D L^r takes, and at least one 64-bit word.  A reachable
    population has mass D and every Q[r][k][i] lies in [0, L^r], so each
    child bound lies in [0, full[r]] and fits its field: the weighted sum
    of the packed columns never carries from one field into the next, and
    one big-integer dot product yields all K child bounds, read off by
    :func:`_field_reader`, which also reads enumeration's suffix values
    (``suffix_values``).  The packed columns
    are built from one byte string per distinct row sum per level.  Exact
    populations repeat (the reduction's 0/1 matrices move whole packets),
    so searches memoize over them.  The packed columns are built the first
    time ``caps`` runs, so callers that read no child bound never pay for
    them.
    """

    memoize = True
    _total = staticmethod(sum)
    apply = _IntegerForm.apply
    revalue = None  # enumeration's suffix reads are the plans' exact values

    def __init__(self, inst: Instance, entries, index):
        form = _derived(inst, _IntegerForm)  # ``entries`` scaled, once per instance
        self.base, self.start, self.moved, rows = form.base, form.start, form.moved, form.rows
        self.U, _, self._sums = _tables(rows, index, inst.d, inst.N, inst.target)
        self._rows, self._index, self._target = rows, index, inst.target
        self._by_state = list(zip(*index))  # per state, its row's place in each matrix
        self.level_scale = [form.base**r for r in range(inst.N + 1)]
        self.full = [form.mass * scale for scale in self.level_scale]

    @cached_property
    def fields(self):
        """Per level r, the byte slice of each matrix's field in a packed
        sum, each as many bytes wide as full[r] takes, and at least one
        64-bit word."""
        return [_fields(len(self._index), full) for full in self.full]

    @cached_property
    def _readers(self):
        """Per level r, the :func:`_field_reader` of its fields."""
        return list(map(_field_reader, self.fields))

    def _pack(self, sums, width: int) -> list:
        """Per state, one integer whose field k, ``width`` bytes wide from
        byte k * width, holds the sum in ``sums`` of the state's row in
        matrix k."""
        packed = [s.to_bytes(width, "little") for s in sums].__getitem__
        return [int.from_bytes(b"".join(map(packed, places)), "little") for places in self._by_state]

    @cached_property
    def columns(self):
        """Per level r >= 1, the packed lookahead entries of each state."""
        levels = zip(self._sums[1:], self.fields[1:])  # field 0 of a level spans bytes [0, width)
        return [None, *(self._pack(sums, fields[0].stop) for sums, fields in levels)]

    def caps(self, weights, r: int, last=None) -> list:
        size = self.fields[r][-1].stop
        return list(self._readers[r](sum(map(mul, weights, self.columns[r])).to_bytes(size, "little")))

    def suffix_values(self, b: int):
        """``(read, b)`` for enumeration, b steps from the end:
        ``read(weights)`` is the tuple of the values of the K^b plans that
        finish a population with b steps left, in plan order, at level b's
        scale.

        The value of suffix sigma from w is w . V_sigma, with V_sigma = P_k
        V_rest for sigma = (k, rest), in integers at scale L^b.  So per
        state i, ``table[i]`` packs the K^b entries V_sigma[i] into one
        integer, field f holding the suffix whose base-K digits spell f,
        each field as wide as full[b] takes (:func:`_fields`), and one
        big-integer dot product with a population yields all K^b values,
        read off by :func:`_field_reader`.  The table is built level by
        level as :func:`_tables` builds value levels: :func:`_row_sums`
        over the packed integers of the level below gives, per distinct
        row, the packed P_k row times every shorter suffix at once (no
        field carries: every entry lies in [0, L^b]), and state i's block
        for matrix k is the sum of its row in matrix k (``_pack``, which
        also packs ``columns``).  It holds d integers of K^b fields, about
        d K^b w bytes with w the field width (8 where full[b] fits one
        word), and is built per call, not kept with the view.
        """
        fields = _fields(len(self._index) ** b, self.full[b])
        width, size = fields[0].stop, fields[-1].stop
        table = [int(i == self._target) for i in range(len(self.start))]
        for level in range(b):  # K^level fields per matrix at the level built so far
            table = self._pack(_row_sums(self._rows, table), len(self._index) ** level * width)
        read = _field_reader(fields)
        return lambda weights: read(sum(map(mul, weights, table)).to_bytes(size, "little")), b

    @cached_property
    def memo_keys(self) -> list:
        """Per level r, the picker of a population's live weights, those of
        the states with a nonzero U[r]: the raw key of the memo."""
        return [_picker([i for i, u in enumerate(level) if u]) for level in self.U]

    @staticmethod
    def memo_class(live) -> tuple:
        """The memo class of live weights and its scale: the weights
        divided by their gcd, and the gcd (None and 0 when no live state is
        occupied).  Every bound of a population is a sum of its live
        weights times integers, so the gcd divides it."""
        g = gcd(*live)
        return (tuple(map(floordiv, live, repeat(g))) if g else None), g

    def cutoffs(self, x) -> list:
        """Per level r >= 1, ``x``, a value at level 1's scale, at level r's."""
        return [None, *(x * scale for scale in self.level_scale[:-1])]

    @staticmethod
    def divide(x, scale):
        return Fraction(x, scale)

    def to_value(self, scaled, steps_left=0) -> Fraction:
        """The value of a target mass at the scale of level ``steps_left``."""
        return Fraction(scaled, self.full[steps_left])


def _view(inst: Instance, backend=None):
    """The ``backend`` of an instance, by default its value backend, built
    from its sparse rows the first time and kept in the instance's slot."""
    if backend is None:
        backend = _IntegerView if inst.numeric_mode == EXACT else _FloatView
    return _derived(inst, backend)


def _level_caps(view) -> list:
    """Per level r, the function a walk reads the K child bounds of a node
    with r steps left through: ``suffix_caps`` at the levels above the
    leaves that the view's suffix groups cover, ``caps`` elsewhere."""
    covered = len(view.G)
    return [view.suffix_caps if 2 <= r < covered else view.caps for r in range(len(view.full))]


def _image(successors, s: int) -> int:
    """The OR of ``successors[i]`` over the set bits ``i`` of ``s``."""
    out = 0
    while s:
        low = s & -s
        out |= successors[low.bit_length() - 1]
        s ^= low
    return out


class _SupportView:
    """Support backend: the exact decision at alpha = 1, on bitmasks.

    Mass is conserved, so a plan has value 1 iff its final support lies in
    {target}, and a child's support is the image of its parent's under the
    matrix's support relation (Eppstein's subset construction).  So a
    population is the bitmask of its support, and ``apply`` ORs the
    successor masks of the occupied rows that the matrix moves, as
    :func:`~timemachine.core._moved_places` lists them.

    Swapping adjacent matrices whose support relations commute leaves every
    final support unchanged.  So the lexicographically first plan of value
    1 has no adjacent pair ``a > b`` that commutes (a trace-monoid normal
    form, as in Mazurkiewicz 1977 and Godefroid 1996), and a child below
    ``last`` that commutes with it reads a bound of 0, so the walk skips it:
    ``commuting_below[last]`` marks those children, with index K standing
    for the root.  The certainty masks know the order: ``certain[r][k]``
    holds the states whose k-successors all lie in C[r-1][k], where
    C[r][last] is the union of ``certain[r][k]`` over the k allowed after
    ``last`` and C[0] is {target}.  So a child's bound is 1 iff it is not
    skipped and its parent's support lies in its mask, and 0 otherwise;
    every level's full mass and scale is 1.  The memo keys on the bitmask
    itself, at scale 1.  It leaves out ``last``: a subtree found dead after
    one prefix holds no first witness after a later one, since the plan
    through the earlier prefix would reach value 1 too and sort before it.
    """

    base = 1
    memoize = True
    G = (None,)  # no suffix groups: every level reads caps
    memo_class = staticmethod(lambda s: (s, 1))

    def __init__(self, inst: Instance, entries, index):
        K, N = inst.K, inst.N
        self.start = _mask(inst.start.weights)
        self.full = (1,) * (N + 1)
        row_masks = [sum(1 << j for j, _ in row) for row in entries]
        # the one successor of a row that has one, else None
        row_maps = [row[0][0] if len(row) == 1 else None for row in entries]
        self.rows, self.moved, moved_rows, maps = [], [], [], []
        for places, moved in zip(index, map(list, _derived(inst, _moved_places))):
            self.rows.append(list(map(row_masks.__getitem__, places)))
            self.moved.append(sum(1 << i for i in moved))
            moved_rows.append(moved)
            # a matrix whose every row has one successor maps states to states
            f = tuple(map(row_maps.__getitem__, places))
            maps.append(None if None in f else f)
        getters = [None if f is None else itemgetter(*f) for f in maps]

        # Compare R_a R_b with R_b R_a.  Two maps are composed whole by one
        # C-level call each; on a row neither matrix moves both products
        # are the unit row, so any other pair is compared on moved rows.
        below = [0] * (K + 1)
        for b in range(1, K):
            fb, get_b, rows_b = maps[b], getters[b], self.rows[b]
            for a in range(b):
                fa = maps[a]
                if fa is not None and fb is not None:
                    same = getters[a](fb) == get_b(fa)
                else:
                    rows_a = self.rows[a]
                    same = all(
                        _image(rows_b, rows_a[i]) == _image(rows_a, rows_b[i])
                        for i in moved_rows[a] + moved_rows[b]
                    )
                if same:
                    below[b] |= 1 << a
        self.commuting_below = below
        self._allowed = {}  # per last, built when first read
        self.memo_keys = [pos] * (N + 1)  # the bitmask itself

        # C[r][last] is the union of suffix[last] and the masks of the
        # children below last that do not commute with it.
        others_below = [(1 << last) - 1 & ~below[last] for last in range(K)]
        after = [1 << inst.target] * K  # C[r-1][k]
        self.uncertain = [None]  # per level and child, ~certain[r][k]
        for r in range(1, N + 1):
            level = []
            for k, c in enumerate(after):
                a, successors = c & ~self.moved[k], self.rows[k]
                for i in moved_rows[k]:
                    if not successors[i] & ~c:
                        a |= 1 << i
                level.append(a)
            self.uncertain.append([~mask for mask in level])
            suffix = [0] * (K + 1)
            for k in range(K - 1, -1, -1):
                suffix[k] = suffix[k + 1] | level[k]
            after = [
                suffix[last] | _image(level, others) if below[last] else suffix[0]
                for last, others in enumerate(others_below)
            ]

    def apply(self, s: int, k: int) -> int:
        moved = self.moved[k]
        return s & ~moved | _image(self.rows[k], s & moved)

    def caps(self, s: int, r: int, last: int) -> list:
        # True (1) where k is not skipped after last and s lies inside
        # certain[r][k], False (0) elsewhere
        allowed = self._allowed.get(last)
        if allowed is None:  # per child, False if it is skipped after last
            skip = self.commuting_below[last]
            allowed = self._allowed[last] = [not skip >> k & 1 for k in range(len(self.rows))]
        return [a and not s & outside for outside, a in zip(self.uncertain[r], allowed)]


def _digits(index: int, K: int, count: int) -> list:
    """The ``count`` base-K digits of ``index``, most significant first."""
    digits = [0] * count
    for place in range(count - 1, -1, -1):
        index, digits[place] = divmod(index, K)
    return digits


def enumerate_solve(inst: Instance, budget: int = DEFAULT_ENUMERATION_BUDGET) -> SolveResult:
    """Try all K^N plans and return the best value with the lexicographically
    smallest plan attaining it.

    Refuses to start if K^N exceeds ``budget`` (default 10^8), before any
    backend, table or suffix group is built.  The walk meets the suffix
    vectors in the middle (Horowitz & Sahni 1974), b steps from the end,
    at the level ``suffix_values`` chooses when asked for b = max(N // 2,
    1): an odometer applies the first N - b steps of each plan forward, and
    each population it reaches is read once, not through ``caps``.  Exact
    enumeration meets at b = max(N // 2, 1), and its reads are the values
    of its K^b suffixes, off d integers of K^b packed fields
    (:meth:`_IntegerView.suffix_values` gives their size in bytes), built
    per call and dropped on return; that is at most sqrt(budget) vectors
    where N >= 2.  Float enumeration meets at the deepest level 2 <= b <=
    max(N // 2, 1) that the suffix groups cover, else at b = 1, where the
    reads are the plans' values.  Float reads with b >= 2, off the vectors
    of G[b], add their products in another order than
    :func:`~timemachine.core.evaluate_plan`, within the rounding slack of
    ``cutoffs`` at level b: a population whose largest read is at most the
    cutoff of the best value so far holds no plan that beats it, and is
    skipped.  Any other population is valued again as ``evaluate_plan``
    adds (``revalue``), and only those values are compared, so every float
    value is the sequential one, bit for bit.  No recursion or nesting
    grows with N.  A population's first maximum is taken only if it beats
    the best value strictly, so the plan is the first maximum in plan
    order, that of a depth-first scan, whichever b the walk meets at.
    ``nodes_explored`` is sum_(r=1..N) K^r, every node of the plan tree
    below the root, and ``nodes_pruned`` is 0.
    """
    _sparse_rows(inst)  # the check first: K**N fails at K = 0, N < 0
    K, N = inst.K, inst.N
    total = K**N
    if total > budget:
        # K^N can run to more digits than int-to-str conversion allows
        count = f"{K}^{N}" if total.bit_length() > 64 else f"{K}^{N} = {total}"
        raise BudgetExceededError(
            f"enumeration would visit K^N = {count} plans, budget is {budget}", total
        )
    view = _view(inst)
    if N == 0:
        return SolveResult(view.to_value(view.start[inst.target]), (), 0, 0, "enum")
    read, b = view.suffix_values(max(N // 2, 1))
    revalue = view.revalue if b > 1 else None  # None where reads are the values
    apply, forward = view.apply, N - b

    best_value = cutoff = -1  # every plan is worth at least 0
    best_plan = ()
    populations, path = [[view.start]], [0]  # per level, its populations and the one visited
    while path:
        k = path[-1]
        if k == len(populations[-1]):
            populations.pop()
            path.pop()
            if path:
                path[-1] += 1
        elif len(path) <= forward:
            populations.append(list(map(apply, repeat(populations[-1][k]), range(K))))
            path.append(0)
        else:
            weights = populations[-1][k]
            values = read(weights)
            value = max(values)
            if value > cutoff:
                if revalue is not None:
                    values = revalue(weights, b)
                    value = max(values)
                if value > best_value:
                    best_value = value
                    best_plan = (*path[1:], *_digits(values.index(value), K, b))
                    cutoff = best_value if revalue is None else view.cutoffs(best_value)[b]
            path[-1] += 1
    explored = N if K == 1 else (K ** (N + 1) - K) // (K - 1)
    return SolveResult(view.to_value(best_value, b), best_plan, explored, 0, "enum")


def _search(inst: Instance, view, incumbents: list, on_leaf):
    """The depth-first walk of branch and bound and the threshold decision.

    Children are visited in ascending matrix order, and a child with ``r``
    steps left is pruned when its bound (:func:`_level_caps`) is at most
    ``incumbents[r]``, its level's incumbent at level r's scale.  One step
    from the end the bound is the leaf's value, so a leaf that passes is
    taken as the plan, and ``on_leaf(value)`` gives the incumbents from
    then on.

    Over exact populations (``view.memoize``) subtree value certificates
    are memoized so that revisited states prune at once: one per memo class
    (``view.memo_class``), per unit of its scale.  Each population seen is
    also keyed on its raw memo key as it is (``view.memo_keys``: its live
    weights, or its support bitmask), mapped to its class and scale, so a
    population seen before reaches its certificate in two dict lookups;
    that map is a pure cache.  A node looks up each child it applies and
    settles a memo prune itself, so only a child that survives the memo is
    walked.  A child the support backend skips reads a bound of 0, so it
    never raises its parent's certificate.

    Returns ``(value, plan, nodes_explored, nodes_pruned)``: the last leaf
    taken, its value at level 1's scale (both None if no leaf passed).
    ``nodes_explored`` counts one per child state visited: an apply for an
    inner node; a leaf is read off its parent's bound.  ``nodes_pruned``
    counts subtrees pruned by bound or memo.  The walk recurses once per
    plan step, and overwrites the lists ``caps`` returns.
    """
    K, N = inst.K, inst.N
    apply, level_caps, base, memoize = view.apply, _level_caps(view), view.base, view.memoize
    best_value = best_plan = None
    explored = pruned = walked = 0  # pruned: memo prunes
    # Per level: the certificate of each memo class, and for each population
    # seen, keyed on its raw memo key, its class and scale.
    classes: List[Dict] = [{} for _ in range(N + 1)]
    populations: List[Dict] = [{} for _ in range(N + 1)]
    memo_keys = view.memo_keys if memoize else [None] * (N + 1)
    memo_class = view.memo_class if memoize else None

    def walk(weights, steps_left: int, prefix: Plan, last: int, key, scale, cached):
        """Explore a subtree that matrix ``last`` made; return a certified
        upper bound on its best value, at its own level's scale.  ``key``,
        ``scale`` and ``cached`` are its memo class, scale and certificate,
        as its parent looked them up (``key`` None: no memo)."""
        nonlocal best_value, best_plan, incumbents, explored, pruned, walked
        walked += 1
        incumbent = incumbents[steps_left]
        r = steps_left - 1  # the children's level
        child_classes, seen, raw_key = classes[r], populations[r], memo_keys[r]
        child_key = child_scale = child_cached = None
        caps = level_caps[steps_left](weights, steps_left, last)
        for k, cap in enumerate(caps):
            if cap > incumbent:
                explored += 1
                if steps_left == 1:
                    # a leaf: its cap is its value
                    best_value, best_plan = cap, prefix + (k,)
                    incumbents = on_leaf(cap)
                else:
                    child = apply(weights, k)
                    if memoize:
                        raw = raw_key(child)
                        entry = seen.get(raw)
                        if entry is None:
                            entry = seen[raw] = memo_class(raw)
                            child_cached = child_classes.setdefault(entry[0], None)
                        else:
                            child_cached = child_classes[entry[0]]
                        child_key, child_scale = entry
                    if child_cached is None or child_cached * child_scale > incumbents[r]:
                        cap = walk(child, r, prefix + (k,), k, child_key, child_scale, child_cached)
                    else:
                        pruned += 1  # a memo prune, settled without walking the child
                        cap = child_cached * child_scale
                    caps[k] = cap * base  # its certificate, at this level's scale
                incumbent = incumbents[steps_left]
        level_cap = max(caps)  # over the certificates and the bounds of pruned children
        if key is not None:
            per_unit = level_cap // scale
            if cached is None or per_unit < cached:
                classes[steps_left][key] = per_unit
        return level_cap

    walk(view.start, N, (), K, None, None, None)  # the root is the only population at level N
    del walk  # free the memo now, not at the next cycle collection
    # every node read K bounds, and each that did not exceed its incumbent pruned a child
    return best_value, best_plan, explored, pruned + K * walked - explored


def branch_and_bound_solve(inst: Instance) -> SolveResult:
    """Exact solve by depth-first search with bound pruning: the walk of
    :func:`_search`, chasing strict improvements.

    Every level's incumbent starts at -1, which no bound reaches, and each
    leaf taken raises them to its value (``cutoffs``; in float mode above
    the leaves, less the rounding slack of :func:`_rounding_slack`).  So
    the returned plan is the first one attaining the final best value in
    ascending order, enumerate_solve's plan, and the values agree bit for
    bit.  The node counts are the walk's.
    """
    view = _view(inst)
    if inst.N == 0:
        return SolveResult(view.to_value(view.start[inst.target]), (), 0, 0, "bnb")
    value, plan, explored, pruned = _search(inst, view, [-1] * (inst.N + 1), view.cutoffs)
    return SolveResult(view.to_value(value, 1), plan, explored, pruned, "bnb")


def beam_search(inst: Instance, width: int) -> SolveResult:
    """Keep the ``width`` most promising plan prefixes per level, scored by
    the relaxation bound; ties go to the lexicographically smaller prefix.

    A level scores the K children of every kept prefix with one ``caps``
    call and applies only those it keeps; a last-level bound is the leaf's
    value, so the first leaf kept is the answer.  Its value never exceeds
    the optimum, and a width of at least K^N makes the search exhaustive.
    ``nodes_pruned`` counts prefixes dropped at beam truncation.  In float
    mode a bound adds its products in another order than the applied child
    would, so children tied to within rounding may be kept in another order.
    """
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ValueError(f"beam width must be an integer >= 1, got {width!r}")
    N = inst.N
    view = _view(inst)
    if N == 0:
        return SolveResult(view.to_value(view.start[inst.target]), (), 0, 0, "beam")
    apply, caps = view.apply, view.caps

    beam = [(view.start, ())]
    explored = dropped = 0
    for r in range(N, 0, -1):
        children = [(cap, p + (k,), w) for w, p in beam for k, cap in enumerate(caps(w, r))]
        children.sort(key=lambda c: (-c[0], c[1]))
        explored += len(children)
        dropped += max(len(children) - width, 0)
        del children[width:]
        if r > 1:
            beam = [(apply(w, plan[-1]), plan) for _, plan, w in children]
    value, plan, _ = children[0]
    return SolveResult(view.to_value(value, 1), plan, explored, dropped, "beam")


def _short_repr(x: Scalar) -> str:
    """``repr(x)``, or for an int or Fraction whose repr runs past some 80
    digits its order of magnitude, as ``about 1e400``."""
    if isinstance(x, float) or max(abs(x.numerator), x.denominator).bit_length() <= 256:
        return repr(x)
    exponent = round(log10(abs(x.numerator)) - log10(x.denominator))
    return f"about {'-' if x < 0 else ''}1e{exponent}"


def decide_threshold(inst: Instance, alpha: Scalar) -> Tuple[bool, Optional[Plan]]:
    """Is there a length-N plan with value >= alpha?  Returns (yes/no, witness).

    The walk of :func:`_search`, with every level's incumbent pinned just
    below the cutoff, so that a child passes iff its bound reaches it, and
    raised to +inf at the first leaf that passes, the witness, so that the
    walk unwinds by comparisons alone.  The witness is the
    lexicographically first plan that qualifies.  Exact mode compares
    exactly; float mode compares with ``alpha - 1e-12``, above the leaves
    less the rounding slack (``cutoffs``).

    Exact alpha = 1 (with N >= 1), the 3-SAT reduction's case, runs on
    support bitmasks (:class:`_SupportView`): a plan has value 1 iff its
    final support lies in {target}.  The witness is the same as on exact
    populations, found in far fewer nodes.

    ``alpha`` is an int or a Fraction, or on a float instance also a float;
    anything else, a boolean included, raises ValueError, as does an alpha
    outside [0, 1].
    """
    if isinstance(alpha, bool):
        raise ValueError("alpha must be a number, not a boolean")
    exact = inst.numeric_mode == EXACT
    if not isinstance(alpha, (int, Fraction) if exact else (int, Fraction, float)):
        kinds = "an exact (int/Fraction)" if exact else "an int, Fraction or float"
        mode = "exact" if exact else "float"
        raise ValueError(f"{mode} instance requires {kinds} alpha, got {type(alpha).__name__}")
    if not exact:
        try:
            alpha = float(alpha)
        except OverflowError:
            raise ValueError("alpha must lie in [0, 1], got one beyond the float range") from None
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {_short_repr(alpha)}")

    N = inst.N
    view = _view(inst, _SupportView if exact and alpha == 1 and N else None)
    # a bound passes iff it exceeds its incumbent: exact bounds are
    # integers, so the incumbent is one below the least integer at or above
    # the cutoff; a float one is the float below the cutoff
    if exact:
        incumbents = [ceil(alpha * full) - 1 for full in view.full]
    else:
        incumbents = [nextafter(c, -inf) for c in view.cutoffs(alpha - EVAL_TOL)]
    if N == 0:
        attained = view.start[inst.target] > incumbents[0]
        return attained, (() if attained else None)
    stop = [inf] * (N + 1)
    witness = _search(inst, view, incumbents, lambda value: stop)[1]
    return witness is not None, witness
