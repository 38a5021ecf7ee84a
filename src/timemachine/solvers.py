"""Exact and heuristic optimization of treatment-plan value.

Four entry points, all pure functions of an :class:`~timemachine.core.Instance`:

* :func:`enumerate_solve` -- exhaustive scan of all K^N plans; the reference
  oracle for everything else.
* :func:`mdp_value_table` -- finite-horizon dynamic program for the relaxed
  single-individual problem, where a different matrix may be chosen per state
  per step.  ``U[r][i]`` bounds from above what any single plan can deliver
  from state ``i`` with ``r`` steps left, which makes it an admissible
  pruning bound.
* :func:`branch_and_bound_solve` -- depth-first search in ascending matrix
  order, pruning subtrees whose relaxation bound cannot strictly beat the
  incumbent.  Guaranteed to match enumerate_solve's value.
* :func:`beam_search` -- width-limited heuristic scored by the same bound;
  its value never exceeds the true optimum.

:func:`decide_threshold` answers the decision variant (is there a plan with
value >= alpha?) with early exit on the first witness found.

Every search runs on a numeric backend built once per call, and is written
once against the interface the two backends share: ``start``,
``apply(weights, k)``, lookahead tables ``lookahead[r][k]`` and value levels
``U[r]`` (both scaled by ``level_scale[r]``), the bitmasks ``live[r]`` and
``certain[r][k]``, the total mass ``full[r]`` at each level's scale,
memo-key ``normalize``, ``divide`` and ``to_value``.

* :class:`_FloatView` serves float instances.  It keeps the instance's own
  weights unscaled and its certainty masks empty, so float arithmetic and
  its summation order are those of the plain problem.
* :class:`_IntegerView` serves exact instances.  It rescales them to
  integers so the hot loops do big-int arithmetic instead of Fraction
  arithmetic; results are identical, just reduced at the end.

Branch and bound and the threshold decision are the two depth-first walks.
The first chases strict improvements and memoizes certified subtree
bounds; the second stops at the first witness and memoizes dead states.
All searches are deterministic: identical inputs give identical results,
node counts included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .core import EXACT, EVAL_TOL, Instance, Plan, Scalar

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
        ``steps_left`` applications remaining."""
        level = self.values[steps_left]
        return sum(w * level[i] for i, w in enumerate(weights) if w)


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


def _tables(inst: Instance):
    """Sparse rows, value table levels U[0..N] and the one-step lookahead
    tables Q[r][k][i] = sum_j T_k[i][j] * U[r-1][j], all in the instance's
    own scalars, so that the bound of a child node can be read off before
    materializing it.  ``rows[k][i]`` holds the nonzero (column, weight)
    pairs of row ``i`` of matrix ``k``."""
    d, K, N = inst.d, inst.K, inst.N
    zero, one = (Fraction(0), Fraction(1)) if inst.numeric_mode == EXACT else (0.0, 1.0)
    rows = [
        [tuple((j, t) for j, t in enumerate(row) if t) for row in m.rows]
        for m in inst.matrices
    ]
    levels = [tuple(one if i == inst.target else zero for i in range(d))]
    lookahead = [None]
    for _ in range(N):
        prev = levels[-1]
        q_level = [
            tuple(sum(t * prev[j] for j, t in rows_k[i]) if rows_k[i] else zero for i in range(d))
            for rows_k in rows
        ]
        lookahead.append(q_level)
        levels.append(tuple(max(q_level[k][i] for k in range(K)) for i in range(d)))
    return rows, levels, lookahead


def mdp_value_table(inst: Instance) -> ValueTable:
    """Solve the relaxed per-individual problem by backward induction.

    Runs in O(N * K * d^2).  ``values[0]`` is the indicator of the target;
    each later level takes the best matrix per state against the previous
    level.
    """
    _, levels, _ = _tables(inst)
    return ValueTable(tuple(levels))


class _FloatView:
    """Float backend: the instance's weights, rows and tables as they are.

    Every level scale and full mass is 1 and every certainty mask is 0, so
    each bound is the plain float sum over the occupied states, in the same
    order as in the unscaled problem.  Memo keys divide a population by its
    live mass.
    """

    def __init__(self, inst: Instance):
        self.rows, self.U, self.lookahead = _tables(inst)
        self.start = inst.start.weights
        self.level_scale = self.full = (1,) * (inst.N + 1)
        self.live = [_mask(level) for level in self.U]
        self.certain = [None] + [(0,) * inst.K] * inst.N

    def apply(self, weights, k: int):
        rows = self.rows[k]
        out = [0.0] * len(weights)
        for i, w in enumerate(weights):
            if w:
                for j, t in rows[i]:
                    out[j] = out[j] + w * t
        return tuple(out)

    @staticmethod
    def normalize(live):
        """Memo key of the live ``(state, weight)`` pairs, and the factor
        the weights were divided by to get it."""
        mass = sum(w for _, w in live)
        return tuple((i, w / mass) for i, w in live), mass

    @staticmethod
    def divide(x, scale):
        return x / scale

    @staticmethod
    def to_value(x):
        return x


class _IntegerView:
    """Exact backend: an integer rescaling of an exact instance.

    With L the lcm of every matrix-entry (and start-weight) denominator and
    D = L^(N+1), every weight reachable within N steps is an exact integer
    once scaled by D: each application divides divisibility headroom by at
    most L, and there are only N applications.  Value levels and lookahead
    values scale by L^r at level r, so bound comparisons are integral too.
    Certainty masks mark states whose scaled lookahead equals the full mass
    headroom, i.e. whose relaxed value is exactly 1.  Memo keys divide a
    population by the gcd of its live weights.
    """

    def __init__(self, inst: Instance):
        N = inst.N
        rows, levels, lookahead = _tables(inst)
        denominators = {Fraction(w).denominator for w in inst.start.weights}
        for matrix in inst.matrices:
            for row in matrix.rows:
                for x in row:
                    denominators.add(Fraction(x).denominator)
        self.base = lcm(*denominators)
        self.mass = self.base ** (N + 1)
        self.start = tuple(self._scaled(w, self.mass) for w in inst.start.weights)
        self.rows = [
            [
                tuple((j, Fraction(t).numerator, Fraction(t).denominator) for j, t in row)
                for row in matrix_rows
            ]
            for matrix_rows in rows
        ]
        self.level_scale = [self.base**r for r in range(N + 1)]
        self.full = [self.mass * scale for scale in self.level_scale]
        self.U = [
            tuple(self._scaled(u, scale) for u in level)
            for level, scale in zip(levels, self.level_scale)
        ]
        self.live = [_mask(level) for level in levels]
        self.lookahead = [None]
        self.certain = [None]
        for r in range(1, N + 1):
            scale = self.level_scale[r]
            self.lookahead.append([tuple(self._scaled(q, scale) for q in qk) for qk in lookahead[r]])
            self.certain.append([_mask(q == 1 for q in qk) for qk in lookahead[r]])

    @staticmethod
    def _scaled(value, scale: int) -> int:
        scaled = Fraction(value) * scale
        if scaled.denominator != 1:
            raise AssertionError(f"scaling by {scale} did not clear denominator of {value}")
        return scaled.numerator

    def apply(self, weights, k: int):
        rows = self.rows[k]
        out = [0] * len(weights)
        for i, w in enumerate(weights):
            if w:
                for j, num, den in rows[i]:
                    out[j] += w * num // den
        return tuple(out)

    @staticmethod
    def normalize(live):
        """Memo key of the live ``(state, weight)`` pairs, and the factor
        the weights were divided by to get it."""
        scale = gcd(*(w for _, w in live))
        return tuple((i, w // scale) for i, w in live), scale

    @staticmethod
    def divide(x, scale):
        return Fraction(x, scale)

    def to_value(self, scaled) -> Fraction:
        return Fraction(scaled, self.mass)


def _view(inst: Instance):
    """The search backend of an instance."""
    return _IntegerView(inst) if inst.numeric_mode == EXACT else _FloatView(inst)


def enumerate_solve(inst: Instance, budget: int = DEFAULT_ENUMERATION_BUDGET) -> SolveResult:
    """Try all K^N plans and return the best value with the lexicographically
    smallest plan attaining it.

    Refuses to start if K^N exceeds ``budget`` (default 10^8).
    """
    K, N = inst.K, inst.N
    total = K**N
    if total > budget:
        raise BudgetExceededError(
            f"enumeration would visit K^N = {total} plans, budget is {budget}", total
        )
    view = _view(inst)
    target = inst.target

    best_value = None
    best_plan: Plan = ()
    explored = 0

    def walk(weights, depth: int, prefix: Plan):
        nonlocal best_value, best_plan, explored
        if depth == N:
            value = weights[target]
            if best_value is None or value > best_value:
                best_value, best_plan = value, prefix
            return
        for k in range(K):
            explored += 1
            walk(view.apply(weights, k), depth + 1, prefix + (k,))

    walk(view.start, 0, ())
    return SolveResult(view.to_value(best_value), best_plan, explored, 0, "enum")


def branch_and_bound_solve(inst: Instance) -> SolveResult:
    """Exact solve by depth-first search with relaxation-bound pruning.

    Children are visited in ascending matrix-index order.  A subtree rooted
    at population ``v`` with ``r`` steps left is pruned when
    ``sum_i v[i] * U[r][i] <= incumbent`` -- only strict improvements are
    chased, so the returned plan is the first one attaining the final best
    value in this order (which may differ from enumerate_solve's tie-break;
    the values always agree).  Subtree value certificates are memoized per
    rescaled population so that revisited states prune immediately.

    ``nodes_explored`` counts one per child state materialized (one apply
    each); ``nodes_pruned`` counts skipped subtrees.
    """
    K, N = inst.K, inst.N
    target = inst.target
    view = _view(inst)

    best_value = None  # at leaf scale
    best_plan: Plan = ()
    incumbent_by_level: List = [None] * (N + 1)  # best_value at each level's scale
    explored = 0
    pruned = 0
    certificates: Dict[tuple, Scalar] = {}

    def walk(weights, depth: int, prefix: Plan):
        """Explore a subtree; return a certified upper bound on its best
        value, at leaf scale."""
        nonlocal best_value, best_plan, incumbent_by_level, explored, pruned
        if depth == N:
            value = weights[target]
            if best_value is None or value > best_value:
                best_value, best_plan = value, prefix
                incumbent_by_level = [value * scale for scale in view.level_scale]
            return value
        steps_left = N - depth
        live_mask = view.live[steps_left]
        live = [(i, w) for i, w in enumerate(weights) if w and (live_mask >> i) & 1]
        key = scale = None
        if live:
            normalized, scale = view.normalize(live)
            key = (steps_left, normalized)
            cached = certificates.get(key)
            if cached is not None:
                ceiling = cached * scale
                if best_value is not None and ceiling <= best_value:
                    pruned += 1
                    return ceiling
        q_level = view.lookahead[steps_left]
        masks = view.certain[steps_left]
        level_scale = view.level_scale[steps_left]
        incumbent = incumbent_by_level[steps_left]
        nonzero = [(i, w) for i, w in enumerate(weights) if w]
        support = 0
        for i, _ in nonzero:
            support |= 1 << i
        level_cap = 0  # best child cap, at this level's scale
        for k in range(K):
            if not support & ~masks[k]:
                # every occupied state has relaxed value exactly 1
                cap = view.full[steps_left]
            else:
                qk = q_level[k]
                cap = sum(w * qk[i] for i, w in nonzero)
            if incumbent is not None and cap <= incumbent:
                pruned += 1
            else:
                explored += 1
                cap = walk(view.apply(weights, k), depth + 1, prefix + (k,)) * level_scale
                incumbent = incumbent_by_level[steps_left]
            if cap > level_cap:
                level_cap = cap
        subtree_cap = view.divide(level_cap, level_scale)
        if key is not None:
            per_unit = view.divide(subtree_cap, scale)
            cached = certificates.get(key)
            if cached is None or per_unit < cached:
                certificates[key] = per_unit
        return subtree_cap

    walk(view.start, 0, ())
    return SolveResult(view.to_value(best_value), best_plan, explored, pruned, "bnb")


def beam_search(inst: Instance, width: int) -> SolveResult:
    """Keep the ``width`` most promising plan prefixes per level, scored by
    the relaxation bound; ties go to the lexicographically smaller prefix.

    Returns the best full plan kept.  Its value never exceeds the true
    optimum, and a width of at least K^N makes the search exhaustive.
    ``nodes_pruned`` counts prefixes dropped at beam truncation.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    K, N = inst.K, inst.N
    target = inst.target
    view = _view(inst)

    beam = [(view.start, ())]
    explored = 0
    dropped = 0
    for t in range(N):
        level = view.U[N - t - 1]
        candidates = []
        for weights, prefix in beam:
            for k in range(K):
                explored += 1
                child = view.apply(weights, k)
                score = sum(w * level[i] for i, w in enumerate(child) if w)
                candidates.append((score, prefix + (k,), child))
        candidates.sort(key=lambda c: c[1])
        candidates.sort(key=lambda c: c[0], reverse=True)
        if len(candidates) > width:
            dropped += len(candidates) - width
            candidates = candidates[:width]
        beam = [(child, prefix) for _, prefix, child in candidates]

    best_value = None
    best_plan: Plan = ()
    for weights, prefix in beam:
        value = weights[target]
        if best_value is None or value > best_value or (value == best_value and prefix < best_plan):
            best_value, best_plan = value, prefix
    return SolveResult(view.to_value(best_value), best_plan, explored, dropped, "beam")


def decide_threshold(inst: Instance, alpha: Scalar) -> Tuple[bool, Optional[Plan]]:
    """Is there a length-N plan with value >= alpha?  Returns (yes/no, witness).

    Depth-first in ascending matrix order with early exit on the first
    witness; a child is pruned when its relaxation bound falls below alpha
    (below ``alpha - 1e-12`` in float mode, where a leaf also qualifies at
    ``value >= alpha - 1e-12``).  Exact mode compares exactly -- alpha = 1
    is the case the 3-SAT reduction rides on, and there any state that has
    leaked mass toward a dead end is cut by a mask check before its bound
    is summed or the child materialized.  In both modes failed states more
    than one step from the leaves are memoized, so the search never
    re-proves the same dead subtree of depth two or more.
    """
    if isinstance(alpha, bool):
        raise ValueError("alpha must be a number, not a boolean")
    if inst.numeric_mode == EXACT:
        if isinstance(alpha, float):
            raise ValueError("exact instance requires an exact (int/Fraction) alpha")
        threshold = alpha
    else:
        alpha = float(alpha)
        threshold = alpha - EVAL_TOL
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")

    K, N = inst.K, inst.N
    target = inst.target
    view = _view(inst)
    cutoffs = [threshold * full for full in view.full]
    # Where the cutoff is the full mass, a child passes only if every
    # occupied state is certain, so the mask alone decides.
    mask_decides = [cutoff == full for cutoff, full in zip(cutoffs, view.full)]
    failed = set()

    def walk(weights, depth: int, prefix: Plan) -> Optional[Plan]:
        if depth == N:
            return prefix if weights[target] >= cutoffs[0] else None
        steps_left = N - depth
        # One step from the leaves a dead state costs at most K bound sums
        # to prove again, less than hashing and keeping it.
        key = (depth, weights) if steps_left > 1 else None
        if key in failed:
            return None
        q_level = view.lookahead[steps_left]
        masks = view.certain[steps_left]
        cutoff = cutoffs[steps_left]
        by_mask = mask_decides[steps_left]
        support = _mask(weights)
        for k in range(K):
            if support & ~masks[k]:
                if by_mask:
                    continue  # some occupied state cannot fully return
                qk = q_level[k]
                if sum(w * qk[i] for i, w in enumerate(weights) if w) < cutoff:
                    continue
            witness = walk(view.apply(weights, k), depth + 1, prefix + (k,))
            if witness is not None:
                return witness
        if key is not None:
            failed.add(key)
        return None

    witness = walk(view.start, 0, ())
    return (witness is not None), witness
