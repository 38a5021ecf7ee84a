import gc
import io
import pickle
import sys
import threading
import time
import weakref
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import product
from math import nextafter
from operator import mul
from random import Random

import pytest

from timemachine import (
    EVAL_TOL,
    BudgetExceededError,
    Distribution,
    Instance,
    StochasticMatrix,
    apply,
    beam_search,
    branch_and_bound_solve,
    decide_threshold,
    enumerate_solve,
    evaluate_plan,
    mdp_value_table,
    validate_instance,
)
from timemachine import core, solvers
from timemachine.instance_io import (
    artifact_from_document,
    parse_dimacs,
    read_instance,
    write_artifact,
    write_instance,
)
from timemachine.reduction import (
    clause_satisfied,
    decode_assignment,
    encode_reduction,
    normalize_cnf,
    sat_bruteforce,
)

from helpers import (
    all_patterns_formula,
    beam_reference,
    enum_reference,
    exec_float_kernel,
    float_suffix_table_read,
    matrix_power,
    planted_formula,
    random_exact_distribution,
    random_exact_matrix,
    random_float_distribution,
    random_float_matrix,
    random_instance,
    random_sparse_float_instance,
    single_clause_formula,
    tie_heavy_instance,
    wide_float_instance,
)


def identity_instance(d=2, K=2, N=3, mode="exact"):
    return Instance(
        matrices=tuple(StochasticMatrix.identity(d, mode) for _ in range(K)),
        N=N,
        numeric_mode=mode,
    )


class TestEnumerate:
    def test_all_identity_picks_lex_smallest(self):
        result = enumerate_solve(identity_instance(d=3, K=3, N=4))
        assert result.value == 1
        assert result.plan == (0, 0, 0, 0)
        assert result.nodes_pruned == 0

    def test_shift_then_identity(self):
        shift = StochasticMatrix(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))
        inst = Instance(
            matrices=(shift, StochasticMatrix.identity(2)), N=1, numeric_mode="exact"
        )
        result = enumerate_solve(inst)
        assert result.value == 1
        assert result.plan == (1,)

    def test_budget_exceeded_reports_plan_count(self):
        inst = identity_instance(d=2, K=3, N=5)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_solve(inst, budget=100)
        assert err.value.required == 3**5
        assert "243" in str(err.value)

    def test_budget_error_at_deep_horizon(self):
        # K^N = 2^20000 has more digits than int-to-str conversion allows
        with pytest.raises(BudgetExceededError) as err:
            enumerate_solve(identity_instance(d=2, K=2, N=20000))
        assert err.value.required == 2**20000
        assert "2^20000" in str(err.value) and len(str(err.value)) < 100

    def test_empty_horizon(self):
        result = enumerate_solve(identity_instance(N=0))
        assert result.value == 1
        assert result.plan == ()

    def test_answers_equal_the_recursive_reference(self, monkeypatch):
        # floats by float.hex, exact values by type and value; exact suffix
        # values are read off one-word fields (tie-heavy instances: L = 2)
        # and off byte slices (random ones: L has many digits), at the b
        # the walk passes to suffix_values
        def key(answer):
            value, *rest = answer
            return (value.hex() if isinstance(value, float) else (type(value), value), *rest)

        rng = Random(1700)
        cases = []
        for _ in range(400):
            mode = rng.choice(["float", "exact"])
            d, K, N = rng.randint(1, 7), rng.randint(1, 4), rng.randint(0, 7)
            while K**N > 1024:
                N -= 1
            make = tie_heavy_instance if rng.random() < 0.5 else random_instance
            cases.append(make(rng, d, K, N, mode))
        # exact N = 1, where the walk reads a table of K suffixes (b = 1)
        for d, K in product((1, 3, 6), (1, 2, 5, 9)):
            make = tie_heavy_instance if rng.random() < 0.5 else random_instance
            cases.append(make(rng, d, K, 1, "exact"))
        tables = counting(monkeypatch, solvers._IntegerView, "suffix_values")
        paths = set()
        for inst in cases:
            result = enumerate_solve(inst)
            got = (result.value, result.plan, result.nodes_explored, result.nodes_pruned)
            assert key(got) == key(enum_reference(inst))
        for view, b in tables:
            paths.add(view.full[b].bit_length() <= 64)
        assert paths == {True, False}

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_deep_horizon_returns(self, mode):
        # far past the default recursion limit
        result = enumerate_solve(identity_instance(d=2, K=1, N=3000, mode=mode))
        assert (result.value, result.plan) == (1, (0,) * 3000)
        assert (result.nodes_explored, result.nodes_pruned) == (3000, 0)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_budget_refused_before_any_table(self, monkeypatch, mode):
        views = counting(monkeypatch, solvers, "_view")
        view_class = solvers._FloatView if mode == "float" else solvers._IntegerView
        tables = counting(monkeypatch, view_class, "suffix_values")
        groups = counting(monkeypatch, solvers, "_suffix_groups")
        inst = random_instance(Random(1701), 3, 3, 4, mode=mode)
        with pytest.raises(BudgetExceededError):
            enumerate_solve(inst, budget=3**4 - 1)
        assert (views, tables, groups) == ([], [], [])
        enumerate_solve(inst, budget=3**4)
        assert (len(views), len(tables)) == (1, 1)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("N", [1, 2, 5, 6])
    def test_each_forward_population_is_read_once(self, monkeypatch, mode, N):
        # the walk asks to meet at max(N // 2, 1), meets at the level b
        # suffix_values returns (the one asked for in exact mode) and reads
        # each of the K^(N - b) populations N - b steps in once
        view_class = solvers._FloatView if mode == "float" else solvers._IntegerView
        original, levels, reads = view_class.suffix_values, [], []

        def suffix_values(view, b):
            read, level = original(view, b)
            levels.append((b, level))

            def counted(weights):
                reads.append(level)
                return read(weights)

            return counted, level

        monkeypatch.setattr(view_class, "suffix_values", suffix_values)
        inst = random_instance(Random(1702), 4, 3, N, mode=mode)
        result = enumerate_solve(inst)
        [(asked, b)] = levels
        assert asked == max(N // 2, 1) and 1 <= b <= asked
        if mode == "exact":
            assert b == asked
        assert reads == [b] * 3 ** (N - b)
        got = (result.value, result.plan, result.nodes_explored, result.nodes_pruned)
        assert got == enum_reference(inst)


class TestValueTable:
    def test_identity_fixed_point(self):
        inst = identity_instance(d=3, K=2, N=4)
        table = mdp_value_table(inst)
        for r in range(5):
            assert table.values[r] == tuple(
                Fraction(1) if i == inst.target else Fraction(0) for i in range(3)
            )

    def test_single_matrix_equals_matrix_power(self):
        rng = Random(4242)
        for _ in range(10):
            inst = random_instance(rng, d=4, K=1, N=4, mode="exact")
            table = mdp_value_table(inst)
            rows = inst.matrices[0].rows
            for r in range(5):
                power = matrix_power(rows, r)
                for i in range(4):
                    assert table.values[r][i] == power[i][inst.target]

    def test_death_state_is_worthless(self):
        art = encode_reduction(single_clause_formula())
        table = mdp_value_table(art.instance)
        death = art.state_table["d"]
        for r in range(art.instance.N + 1):
            assert table.values[r][death] == 0

    def test_bound_method_matches_direct_sum(self):
        rng = Random(11)
        inst = random_instance(rng, d=4, K=2, N=3, mode="float")
        table = mdp_value_table(inst)
        weights = inst.start.weights
        direct = sum(w * table.values[3][i] for i, w in enumerate(weights))
        assert table.bound(weights, 3) == pytest.approx(direct, abs=1e-15)

    def test_bound_rejects_out_of_range_steps_and_wrong_length_weights(self):
        inst = random_instance(Random(12), d=4, K=2, N=3, mode="exact")
        table = mdp_value_table(inst)
        weights = inst.start.weights
        for r in range(4):
            expected = sum(w * u for w, u in zip(weights, table.values[r]))
            assert table.bound(weights, r) == expected
        for steps_left in (-1, 4, 10):
            with pytest.raises(ValueError, match=r"steps_left must lie in \[0, 3\]"):
                table.bound(weights, steps_left)
        for bad in (weights[:3], weights + (Fraction(0),), ()):
            with pytest.raises(ValueError, match="weights must have 4 entries"):
                table.bound(bad, 2)


class TestBranchAndBound:
    def test_identity_node_budget(self):
        d, K, N = 3, 4, 5
        result = branch_and_bound_solve(identity_instance(d=d, K=K, N=N))
        assert result.value == 1
        assert result.nodes_explored <= N * K + 1

    def test_agrees_with_enumeration_float(self):
        rng = Random(31337)
        for _ in range(25):
            d, K, N = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 6)
            inst = random_instance(rng, d, K, N, mode="float")
            exact = enumerate_solve(inst)
            bnb = branch_and_bound_solve(inst)
            assert abs(exact.value - bnb.value) <= 1e-12
            assert abs(evaluate_plan(inst, exact.plan) - exact.value) <= 1e-12
            assert abs(evaluate_plan(inst, bnb.plan) - bnb.value) <= 1e-12

    def test_agrees_with_enumeration_exact(self):
        rng = Random(90210)
        for _ in range(15):
            d, K, N = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 5)
            inst = random_instance(rng, d, K, N, mode="exact")
            exact = enumerate_solve(inst)
            bnb = branch_and_bound_solve(inst)
            assert exact.value == bnb.value
            assert evaluate_plan(inst, bnb.plan) == bnb.value

    def test_unsatisfiable_reduction_peaks_below_one(self):
        # The SAT brute force proves the formula unsatisfiable, so by the
        # encoding equivalence no plan reaches value 1; the optimum loses
        # exactly the one packet that can never clear its clause state.
        formula = all_patterns_formula()
        satisfiable, _ = sat_bruteforce(formula)
        assert not satisfiable
        art = encode_reduction(formula)
        result = branch_and_bound_solve(art.instance)
        assert result.value < 1
        assert result.value == 1 - art.p
        assert evaluate_plan(art.instance, result.plan) == result.value
        assert result.plan == (0, 2, 2, 17, 24, 31, 38, 45, 52, 1)
        assert (result.nodes_explored, result.nodes_pruned) == (156801, 597973)

    def test_satisfiable_reduction_reaches_one(self):
        art = encode_reduction(single_clause_formula())
        result = branch_and_bound_solve(art.instance)
        assert result.value == 1
        assert evaluate_plan(art.instance, result.plan) == 1

    def test_deterministic_repeat_runs(self):
        rng = Random(8)
        inst = random_instance(rng, 4, 3, 5, mode="float")
        first = branch_and_bound_solve(inst)
        second = branch_and_bound_solve(inst)
        assert first == second


class TestBeamSearch:
    def test_full_width_is_exhaustive(self):
        rng = Random(2718)
        for _ in range(10):
            d, K, N = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 4)
            inst = random_instance(rng, d, K, N, mode="float")
            exact = enumerate_solve(inst)
            beam = beam_search(inst, width=K**N)
            assert abs(beam.value - exact.value) <= 1e-12

    def test_width_one_identity(self):
        result = beam_search(identity_instance(d=2, K=2, N=3), width=1)
        assert result.value == 1
        # all children tie on score, so the lex-smaller prefix survives
        assert result.plan == (0, 0, 0)

    def test_wider_never_worse_and_never_above_optimum(self):
        rng = Random(1618)
        for _ in range(15):
            d, K, N = rng.randint(2, 5), rng.randint(2, 3), rng.randint(1, 5)
            inst = random_instance(rng, d, K, N, mode="float")
            narrow = beam_search(inst, width=1)
            wide = beam_search(inst, width=16)
            exact = enumerate_solve(inst)
            assert narrow.value <= wide.value
            assert wide.value <= exact.value
            assert abs(evaluate_plan(inst, wide.plan) - wide.value) <= 1e-12

    def test_exact_mode_beam(self):
        art = encode_reduction(single_clause_formula())
        result = beam_search(art.instance, width=4)
        assert result.value <= 1
        assert evaluate_plan(art.instance, result.plan) == result.value

    def test_exact_mode_full_width_matches_enumeration(self):
        rng = Random(3030)
        for _ in range(8):
            d, K, N = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 4)
            inst = random_instance(rng, d, K, N, mode="exact")
            assert beam_search(inst, width=K**N).value == enumerate_solve(inst).value

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width"):
            beam_search(identity_instance(), width=0)

    @pytest.mark.parametrize("width", [2.5, True, "2"])
    def test_width_must_be_an_integer(self, width):
        with pytest.raises(ValueError, match="width"):
            beam_search(identity_instance(), width=width)

    @staticmethod
    def answers(inst):
        """Per width 1, 2, K and K^N: the search's answer and the one of
        ``helpers.beam_reference``."""
        for width in sorted({1, 2, inst.K, inst.K**inst.N}):
            result = beam_search(inst, width)
            got = (result.value, result.plan, result.nodes_explored, result.nodes_pruned)
            yield got, beam_reference(inst, width)

    def test_exact_answers_match_the_reference(self):
        rng = Random(4040)
        for N in range(6):
            for _ in range(12):
                d, K = rng.randint(1, 4), rng.randint(1, 3)
                for inst in (
                    random_instance(rng, d, K, N, mode="exact"),
                    deterministic_instance(rng, d, K, N),
                ):
                    for got, expected in self.answers(inst):
                        assert got == expected

    def test_float_answers_match_the_reference_bit_for_bit(self):
        rng = Random(4041)
        for N in range(6):
            for _ in range(12):
                d, K = rng.randint(1, 5), rng.randint(1, 3)
                inst = random_instance(rng, d, K, N, mode="float")
                for (value, *rest), (ref_value, *ref_rest) in self.answers(inst):
                    assert (repr(value), rest) == (repr(ref_value), ref_rest)

    @pytest.mark.parametrize("view", [solvers._FloatView, solvers._IntegerView])
    def test_applies_only_the_children_it_keeps(self, monkeypatch, view):
        applies = {}  # per level (steps left), the applies after its caps calls
        level = None
        stepper = core._FloatForm if view is solvers._FloatView else view  # whose apply runs
        caps, apply = view.caps, stepper.apply

        def counting_caps(self, weights, r):
            nonlocal level
            level = r
            applies.setdefault(r, 0)
            return caps(self, weights, r)

        def counting_apply(self, weights, k):
            applies[level] += 1
            return apply(self, weights, k)

        monkeypatch.setattr(view, "caps", counting_caps)
        monkeypatch.setattr(stepper, "apply", counting_apply)
        mode = "float" if view is solvers._FloatView else "exact"
        rng = Random(4042)
        K = 3
        for N in range(6):
            inst = random_instance(rng, 3, K, N, mode=mode)
            for width in (1, 2, 4, K**N):
                applies.clear()
                beam_search(inst, width)
                kept, expected = 1, {}
                for r in range(N, 0, -1):
                    kept = min(width, K * kept)
                    expected[r] = kept if r > 1 else 0  # no leaf is applied
                assert applies == expected

    def test_float_searches_read_no_value_level(self, monkeypatch):
        # every search reads child bounds off caps, and bnb builds its memo
        # pickers off U only where it memoizes, which it never does on floats
        init = solvers._FloatView.__init__

        def without_levels(self, *args):
            init(self, *args)
            del self.U

        monkeypatch.setattr(solvers._FloatView, "__init__", without_levels)
        inst = pinned_instance(7)
        assert enumerate_solve(inst).value == branch_and_bound_solve(inst).value
        assert beam_search(inst, 4).plan == (0, 1, 0, 0, 1)
        assert decide_threshold(inst, 0.21) == (True, (0, 0, 1, 1, 1))


class TestDecideThreshold:
    def test_alpha_zero_first_plan_wins(self):
        inst = identity_instance(d=2, K=2, N=3)
        attained, witness = decide_threshold(inst, Fraction(0))
        assert attained
        assert witness == (0, 0, 0)

    def test_satisfiable_reduction_attains_one(self):
        art = encode_reduction(single_clause_formula())
        attained, witness = decide_threshold(art.instance, Fraction(1))
        assert attained
        assert evaluate_plan(art.instance, witness) == 1

    def test_unsatisfiable_reduction_does_not_attain_one(self):
        art = encode_reduction(all_patterns_formula())
        attained, witness = decide_threshold(art.instance, Fraction(1))
        assert not attained
        assert witness is None

    def test_witness_soundness_on_seeded_instances(self):
        rng = Random(64)
        for _ in range(30):
            mode = rng.choice(["float", "exact"])
            d, K, N = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 4)
            inst = random_instance(rng, d, K, N, mode=mode)
            optimum = enumerate_solve(inst).value
            if mode == "exact":
                alpha = Fraction(rng.randint(0, 4), 4)
                attained, witness = decide_threshold(inst, alpha)
                assert attained == (optimum >= alpha)
                if attained:
                    assert evaluate_plan(inst, witness) >= alpha
            else:
                alpha = rng.random()
                attained, witness = decide_threshold(inst, alpha)
                assert attained == (optimum >= alpha - 1e-12)
                if attained:
                    assert evaluate_plan(inst, witness) >= alpha - 1e-12

    def test_float_alpha_on_exact_instance_rejected(self):
        art = encode_reduction(single_clause_formula())
        with pytest.raises(ValueError, match="exact"):
            decide_threshold(art.instance, 0.5)

    def test_boolean_alpha_rejected(self):
        for mode in ("exact", "float"):
            with pytest.raises(ValueError, match="boolean"):
                decide_threshold(identity_instance(mode=mode), True)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            decide_threshold(identity_instance(), Fraction(3, 2))

    @pytest.mark.parametrize(
        "alpha, shown",
        [
            (10**5000, "about 1e5000"),
            (-Fraction(10**5000, 3), "about -1e5000"),
            (Fraction(1, 10**400) + 1, "about 1e0"),
        ],
        ids=["int", "negative", "near one"],
    )
    def test_huge_alpha_named_by_its_magnitude(self, alpha, shown):
        with pytest.raises(ValueError) as info:
            decide_threshold(identity_instance(), alpha)
        assert str(info.value) == f"alpha must lie in [0, 1], got {shown}"

    @pytest.mark.parametrize(
        "alpha",
        [Fraction(10**400), -Fraction(10**400), 10**400],
        ids=["fraction", "negative", "int"],
    )
    def test_alpha_beyond_float_range(self, alpha):
        for mode in ("exact", "float"):
            with pytest.raises(ValueError, match="alpha"):
                decide_threshold(identity_instance(mode=mode), alpha)

    @pytest.mark.parametrize(
        "alpha", [None, "0.5", 0.5j, Decimal("0.5")], ids=["none", "str", "complex", "decimal"]
    )
    def test_non_number_alpha_rejected(self, alpha):
        for mode in ("exact", "float"):
            with pytest.raises(ValueError, match="alpha"):
                decide_threshold(identity_instance(mode=mode), alpha)

    def test_decimal_alpha_rejected_where_it_rounded(self):
        # The only plan is worth exactly 1/2.  A Decimal alpha times the
        # level masses, 2^(N + 1 + r), rounds to 28 digits, which answered
        # no at N = 60; a Fraction compares exactly.
        half = Fraction(1, 2)
        inst = Instance(
            matrices=(StochasticMatrix(((half, half), (half, half))),), N=60, numeric_mode="exact"
        )
        assert decide_threshold(inst, half) == (True, (0,) * 60)
        with pytest.raises(ValueError, match="alpha"):
            decide_threshold(inst, Decimal("0.5"))

    def test_float_instance_takes_int_fraction_and_float(self):
        inst = identity_instance(mode="float")
        for alpha in (1, Fraction(1, 2), 0.5):
            assert decide_threshold(inst, alpha) == (True, (0, 0, 0))

    def test_stops_at_the_first_witness(self, monkeypatch):
        # At alpha 0 every child passes, so N - 1 applies reach the first
        # leaf, the witness, and the walk unwinds without applying another.
        inst = identity_instance(d=2, K=3, N=12)
        calls = counting(monkeypatch, solvers._view(inst), "apply")
        assert decide_threshold(inst, 0) == (True, (0,) * 12)
        assert len(calls) == 11


class TestBoundAdmissibility:
    def test_every_suffix_value_below_bound(self):
        # From every reachable prefix state, the value of every completion
        # never exceeds the relaxation bound at that depth.
        rng = Random(12345)
        for _ in range(6):
            mode = rng.choice(["float", "exact"])
            d, K, N = rng.randint(2, 4), 2, rng.randint(1, 4)
            inst = random_instance(rng, d, K, N, mode=mode)
            table = mdp_value_table(inst)
            for plan in product(range(K), repeat=N):
                v = inst.start
                for depth in range(N + 1):
                    bound = table.bound(v.weights, N - depth)
                    value = evaluate_plan(inst, plan)
                    if mode == "exact":
                        assert value <= bound
                    else:
                        assert value <= bound + 1e-12
                    if depth < N:
                        v = apply(v, inst.matrices[plan[depth]])


class TestSuffixBounds:
    """bnb and decide bound a child above the leaves by the max of w . beta
    over its suffix group G[r][k], and compare float bounds there with the
    rounding slack; values, plans and witnesses stay enumeration's."""

    @staticmethod
    def instances():
        rng = Random(9100)
        for N in range(6):
            for _ in range(5):
                d, K = rng.randint(1, 5), rng.randint(1, 4)
                for mode in ("float", "exact"):
                    yield random_instance(rng, d, K, N, mode=mode)
                    yield tie_heavy_instance(rng, d, K, N, mode=mode)
        for mode in ("float", "exact"):
            # groups that stop below the root
            yield random_instance(rng, 5, 6, 4, mode=mode)
            yield tie_heavy_instance(rng, 6, 7, 4, mode=mode)
            # K * K above _GAMMA_VECTORS: no groups, every level reads caps
            yield random_instance(rng, 3, 9, 3, mode=mode)
            yield tie_heavy_instance(rng, 4, 9, 3, mode=mode)

    @staticmethod
    def coverage(inst):
        """'none', 'partial' or 'full': which inner levels the groups cover."""
        covered = len(solvers._view(inst).G) - 1
        return "none" if covered < 2 else "full" if covered == inst.N else "partial"

    def test_bnb_and_decide_answer_as_enumeration(self):
        coverage = set()
        for inst in self.instances():
            exact = inst.numeric_mode == "exact"
            same = (lambda x: x) if exact else float.hex
            values = {p: evaluate_plan(inst, p) for p in product(range(inst.K), repeat=inst.N)}
            optimum = max(values.values())
            enum = enumerate_solve(inst)
            bnb = branch_and_bound_solve(inst)
            assert (same(enum.value), enum.plan) == (same(optimum), min(p for p, v in values.items() if v == optimum))
            assert (same(bnb.value), bnb.plan) == (same(enum.value), enum.plan)
            levels = sorted(set(values.values()))
            for v in levels[:: max(1, len(levels) // 6)] + [optimum]:
                # a float alpha whose threshold alpha - EVAL_TOL is v, or
                # next to it where no alpha has that threshold
                alpha = v if exact else next(
                    (a for a in (v + EVAL_TOL, nextafter(v + EVAL_TOL, 2.0)) if a - EVAL_TOL == v),
                    v + EVAL_TOL,
                )
                if alpha <= 1:
                    threshold = alpha if exact else alpha - EVAL_TOL
                    first = next((p for p, value in values.items() if value >= threshold), None)
                    assert decide_threshold(inst, alpha) == (first is not None, first)
            if exact or optimum > 0:  # no float threshold lies one ulp above 0
                above = (optimum + 1) / 2 if exact else threshold_alpha(nextafter(optimum, 1.0))
                if optimum < above <= 1:
                    assert decide_threshold(inst, above) == (False, None)
            if inst.N >= 2:
                coverage.add((self.coverage(inst), inst.numeric_mode))
        assert coverage == {(c, m) for c in ("none", "partial", "full") for m in ("float", "exact")}

    def test_beam_still_matches_the_reference(self):
        for inst in self.instances():
            for got, expected in TestBeamSearch.answers(inst):
                assert repr(got) == repr(expected)  # floats bit for bit

    def test_every_plan_under_a_child_lies_within_its_bound(self):
        # Float: every plan under a child, valued as the walk values it, is
        # worth at most bound * F + A.  Exact: a child's bound off G is its
        # best plan's value, and a bound off caps is at least that.
        for inst in self.instances():
            if inst.N < 2:
                continue
            view = solvers._view(inst)
            level_caps = solvers._level_caps(view)
            exact = inst.numeric_mode == "exact"

            def values(weights, r):
                """The values of the plans from ``weights`` with ``r`` steps
                left, at level 1's scale, each child's bound checked."""
                if r == 1:
                    return view.caps(weights, 1)
                out = []
                for k, bound in enumerate(level_caps[r](weights, r)):
                    below = values(view.apply(weights, k), r - 1)
                    if exact:
                        top = max(below) * view.level_scale[r - 1]
                        assert bound == top if level_caps[r] == view.suffix_caps else bound >= top
                    else:
                        F, A = solvers._rounding_slack(inst.d, r)
                        assert max(map(Fraction, below)) <= Fraction(bound) * Fraction(F) + Fraction(A)
                    out += below
                return out

            values(view.start, inst.N)

    def test_slack_and_cutoffs(self):
        u = Fraction(1, 2**53)
        for d, s in ((1, 2), (4, 2), (12, 9), (60, 30)):
            F, A = solvers._rounding_slack(d, s)
            m = d * (2 * s + 1)
            assert Fraction(F) - 1 >= m * u / (1 - m * u)  # 1 + gamma_m
            assert Fraction(A) == 16 * (s + 1) * d * d * Fraction(1, 2**1075)
            for x in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 0.21009345801792856, 1.0):
                cutoff = solvers._deflated(x, F, A)
                assert Fraction(cutoff) * Fraction(F) + Fraction(A) < Fraction(x)
                if x > 1e-300:
                    assert Fraction(cutoff) >= Fraction(x) * (1 - 2 * (Fraction(F) - 1))

    def test_reductions_build_no_groups(self, monkeypatch):
        maximal = counting(monkeypatch, solvers, "_maximal")
        inst = encode_reduction(planted_formula(Random(3), 4, 4)[1]).instance
        assert inst.K * inst.K > solvers._GAMMA_VECTORS
        result = branch_and_bound_solve(inst)
        assert result.value == 1 and decide_threshold(inst, Fraction(1, 2))[0]
        assert solvers._view(inst).G == [None] and maximal == []


# Answers recorded from the solvers before their float and exact search paths
# were merged into one walk over a numeric backend.  Node counts and
# tie-broken plans are part of the contract: a refactor of the search must
# reproduce every field bit for bit.
PINNED_INSTANCES = {
    # seed: (d, K, N, mode) for helpers.random_instance(Random(seed), ...)
    7: (5, 3, 5, "float"),
    8: (6, 2, 6, "float"),
    9: (4, 3, 4, "exact"),
    10: (5, 2, 5, "exact"),
}

PINNED_SOLVES = [
    # (seed, method, value, plan, nodes_explored, nodes_pruned)
    (7, "bnb", 0.21207698341970116, (0, 1, 1, 1, 1), 18, 21),
    (7, "beam1", 0.2056750177750979, (1, 2, 0, 0, 1), 15, 10),
    (7, "beam4", 0.20588470145199037, (0, 1, 0, 0, 1), 48, 29),
    (8, "bnb", 0.1593653521715404, (0, 1, 0, 1, 0, 0), 16, 10),
    (8, "beam1", 0.15591518714727198, (1, 1, 0, 1, 1, 0), 12, 6),
    (8, "beam4", 0.15591518714727198, (1, 1, 0, 1, 1, 0), 38, 16),
    (9, "bnb", Fraction(5190148559, 21227005800), (0, 0, 1, 2), 9, 6),
    (9, "beam1", Fraction(8262094277, 35983101000), (0, 2, 2, 1), 12, 8),
    (9, "beam4", Fraction(271580224529, 1167485319000), (0, 0, 2, 1), 36, 21),
    (10, "bnb", Fraction(595312999368716977, 2105326440574156800), (0, 1, 1, 0, 1), 15, 7),
    (10, "beam1", Fraction(133645205555394685169, 479440726995851292672), (0, 0, 0, 0, 1), 10, 5),
    (10, "beam4", Fraction(5264224639991055811, 18868190751509299200), (1, 0, 0, 0, 1), 30, 12),
]

PINNED_DECISIONS = [
    # (seed, alpha, witness); every alpha lies just below the optimum
    (7, 0.21, (0, 0, 1, 1, 1)),
    (8, 0.159, (0, 0, 0, 1, 0, 0)),
    (9, Fraction(6, 25), (0, 0, 1, 2)),
    (10, Fraction(7, 25), (0, 0, 0, 1, 1)),
]


# Exact bnb answers on instances whose populations repeat: 0/1 maps from
# deterministic_instance(Random(seed), d, K, N) with the start spread evenly
# over all d states, where the suffix groups bound every child exactly and
# the memo never prunes, and planted reductions, which build no groups and
# prune off the memo two and three steps from the leaves.
PINNED_MEMO_SOLVES = [
    # (kind, (seed, d, K, N) or (n, m, seed), value, plan, nodes_explored, nodes_pruned)
    ("spread", (3, 6, 3, 1), Fraction(1, 6), (1,), 2, 1),
    ("spread", (61, 4, 3, 2), Fraction(1, 4), (0, 1), 3, 3),
    ("spread", (82, 4, 3, 2), Fraction(1, 2), (0, 1), 3, 3),
    ("spread", (173, 6, 3, 3), Fraction(1, 3), (0, 2, 2), 7, 8),
    ("spread", (742, 6, 3, 3), Fraction(1, 2), (2, 1, 0), 6, 9),
    ("spread", (377, 6, 4, 4), Fraction(5, 6), (2, 1, 2, 0), 12, 24),
    ("spread", (484, 6, 4, 4), Fraction(2, 3), (1, 0, 3, 2), 10, 22),
    ("spread", (38, 10, 4, 7), Fraction(9, 10), (0, 3, 1, 3, 2, 2, 3), 41, 107),
    ("spread", (331, 12, 3, 8), Fraction(11, 12), (0, 2, 1, 2, 1, 2, 0, 1), 29, 43),
    ("planted", (4, 4, 2), Fraction(1), (0, 2, 9, 20, 26, 1), 34, 748),
    ("planted", (4, 5, 0), Fraction(1), (0, 2, 9, 16, 23, 30, 1), 188, 4169),
    ("planted", (5, 4, 3), Fraction(1), (0, 2, 10, 17, 23, 1), 37, 805),
    ("planted", (5, 5, 2), Fraction(1), (0, 2, 10, 19, 26, 35, 1), 203, 4633),
]


def pinned_instance(seed):
    d, K, N, mode = PINNED_INSTANCES[seed]
    return random_instance(Random(seed), d, K, N, mode=mode)


def memo_instance(kind, args):
    if kind == "planted":
        n, m, seed = args
        return encode_reduction(planted_formula(Random(seed), n, m)[1]).instance
    seed, d, K, N = args
    maps = deterministic_instance(Random(seed), d, K, N)
    spread = Distribution(tuple(Fraction(1, d) for _ in range(d)))
    return Instance(
        matrices=maps.matrices, N=N, start=spread, target=maps.target, numeric_mode="exact"
    )


class TestPinnedAnswers:
    @pytest.mark.parametrize("seed,method,value,plan,explored,pruned", PINNED_SOLVES)
    def test_solve(self, seed, method, value, plan, explored, pruned):
        inst = pinned_instance(seed)
        if method == "bnb":
            result = branch_and_bound_solve(inst)
        else:
            result = beam_search(inst, width=int(method[len("beam"):]))
        assert type(result.value) is type(value)
        assert (result.value, result.plan) == (value, plan)
        assert (result.nodes_explored, result.nodes_pruned) == (explored, pruned)

    @pytest.mark.parametrize("kind,args,value,plan,explored,pruned", PINNED_MEMO_SOLVES)
    def test_exact_bnb_with_memo_prunes(self, kind, args, value, plan, explored, pruned):
        result = branch_and_bound_solve(memo_instance(kind, args))
        assert type(result.value) is Fraction
        assert (result.value, result.plan) == (value, plan)
        assert (result.nodes_explored, result.nodes_pruned) == (explored, pruned)

    @pytest.mark.parametrize("kind,args,value,plan,explored,pruned", PINNED_MEMO_SOLVES)
    def test_decide_with_memo_prunes(self, kind, args, value, plan, explored, pruned):
        # decide walks with bnb's memo: at the optimum its witness is bnb's
        # plan, and just above it nothing qualifies (no alpha in [0, 1] lies
        # above an optimum of 1)
        inst = memo_instance(kind, args)
        assert decide_threshold(inst, value) == (True, plan)
        if value < 1:
            assert decide_threshold(inst, value + Fraction(1, 10**9)) == (False, None)

    def test_bnb_on_satisfiable_reduction(self):
        result = branch_and_bound_solve(encode_reduction(single_clause_formula()).instance)
        assert (result.value, result.plan) == (1, (0, 2, 1))
        assert (result.nodes_explored, result.nodes_pruned) == (5, 31)

    def test_bnb_memo_shares_certificates_across_proportional_populations(self):
        # planted_formula(Random("probe/0"), 4, 6) of perfbench/corpus.py.  A
        # memo keyed on raw live weights alone gives 2895 / 40024: these
        # counts hold only if proportional populations share one certificate.
        raw_clauses = (
            (3, -4, -2), (1, -2, 3), (2, -1, 4), (2, -4, -3), (-4, 3, -2), (3, 4, 1),
        )
        text = "p cnf 4 6\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in raw_clauses)
        num_vars, clauses = parse_dimacs(text)
        inst = encode_reduction(normalize_cnf(clauses, num_vars).formula).instance
        result = branch_and_bound_solve(inst)
        assert (result.value, result.plan) == (1, (0, 3, 14, 21, 26, 31, 37, 1))
        assert (result.nodes_explored, result.nodes_pruned) == (2888, 37874)

    def test_bnb_walks_a_population_with_no_live_weight(self):
        # matrix 0 sends all mass to state 1, which never reaches the target:
        # its child has no live weight, so no memo class
        F = Fraction
        kill = StochasticMatrix(((F(0), F(1)), (F(0), F(1))))
        inst = Instance(matrices=(kill, StochasticMatrix.identity(2)), N=3, numeric_mode="exact")
        result = branch_and_bound_solve(inst)
        assert (result.value, result.plan) == (1, (1, 1, 1))
        assert (result.nodes_explored, result.nodes_pruned) == (6, 4)

    def test_decide_witness_at_alpha_one(self):
        art = encode_reduction(single_clause_formula())
        assert decide_threshold(art.instance, Fraction(1)) == (True, (0, 2, 1))

    @pytest.mark.parametrize("seed,alpha,witness", PINNED_DECISIONS)
    def test_decide_witness_below_one(self, seed, alpha, witness):
        assert decide_threshold(pinned_instance(seed), alpha) == (True, witness)


class TestSearchStateLifetime:
    @pytest.mark.parametrize("seed", sorted(PINNED_INSTANCES))
    def test_freed_on_return(self, seed):
        # The search walk is a self-referencing closure; unless the search
        # breaks that cycle, its memo outlives the call until a full collection.
        inst = pinned_instance(seed)
        gc.collect()
        gc.disable()
        try:
            enumerate_solve(inst)
            assert gc.collect() == 0
            branch_and_bound_solve(inst)
            assert gc.collect() == 0
            decide_threshold(inst, 1)
            assert gc.collect() == 0
            beam_search(inst, 4)  # applies matrices on float instances too
            assert gc.collect() == 0
        finally:
            gc.enable()


def threshold_alpha(value):
    """An alpha whose float threshold ``alpha - EVAL_TOL`` is ``value`` itself."""
    alpha = value + EVAL_TOL
    for _ in range(16):
        if alpha - EVAL_TOL == value:
            return alpha
        alpha = nextafter(alpha, 1.0 if alpha - EVAL_TOL < value else 0.0)
    raise AssertionError(f"no alpha has threshold {value!r}")


def deterministic_instance(rng, d, K, N):
    """Exact 0/1 matrices, each row a single 1, and a point start: L = 1."""
    matrices = []
    for _ in range(K):
        cols = [rng.randrange(d) for _ in range(d)]
        matrices.append(
            StochasticMatrix(tuple(tuple(Fraction(int(j == c)) for j in range(d)) for c in cols))
        )
    return Instance(
        matrices=tuple(matrices),
        N=N,
        start=Distribution(tuple(Fraction(int(i == 0)) for i in range(d))),
        target=rng.randrange(d),
        numeric_mode="exact",
    )


class TestLastStepOffLookahead:
    # The searches read a leaf's value off its parent's lookahead sum instead
    # of applying the last matrix.  In float mode both are sums of the same
    # nonzero products in the same order, plus +0.0 terms, so they agree bit
    # for bit: the bounds come from a dot kernel, which adds left to right
    # whatever sum() does (CPython 3.12 made float sum() compensated).
    @pytest.mark.parametrize("N", [0, 1, 2, 5])
    def test_float_values_and_witnesses_equal_evaluate_plan(self, N):
        rng = Random(5150 + N)
        for _ in range(4):
            d, K = rng.randint(2, 5), rng.randint(1, 3)
            inst = random_instance(rng, d, K, N, mode="float")
            values = {plan: evaluate_plan(inst, plan) for plan in product(range(K), repeat=N)}
            optimum = max(values.values())
            enum = enumerate_solve(inst)
            bnb = branch_and_bound_solve(inst)
            assert enum.value == values[enum.plan] == optimum
            assert bnb.value == values[bnb.plan] == optimum
            # decide returns the first plan whose value reaches the threshold,
            # also at a threshold equal to a plan's value: inner bounds carry
            # the rounding slack, so none sits an ulp below a plan under it
            for threshold in [optimum - EVAL_TOL, *values.values()]:
                first = next(p for p, v in values.items() if v >= threshold)
                assert decide_threshold(inst, threshold_alpha(threshold)) == (True, first)
            above = threshold_alpha(nextafter(optimum, 1.0))
            assert decide_threshold(inst, above) == (False, None)

    def test_inner_bound_below_the_plan_still_qualifies(self):
        # the first instance of the N = 2 case above: d = 4, K = 1, so its
        # one plan is the optimum, and its root cap, a float sum of other
        # products, lands three ulps below that plan's value
        rng = Random(5152)
        d, K = rng.randint(2, 5), rng.randint(1, 3)
        inst = random_instance(rng, d, K, 2, mode="float")
        value = evaluate_plan(inst, (0, 0))
        assert (d, K, value) == (4, 1, 0.21009345801792856)
        assert solvers._view(inst).caps(inst.start.weights, 2) == [0.21009345801792853]
        assert decide_threshold(inst, threshold_alpha(value)) == (True, (0, 0))
        assert branch_and_bound_solve(inst).value == value

    @pytest.mark.parametrize("N", [0, 1, 2, 4])
    def test_exact_unit_scale_solvers_agree(self, N):
        rng = Random(6060 + N)
        for _ in range(12):
            inst = deterministic_instance(rng, rng.randint(2, 5), rng.randint(1, 3), N)
            enum = enumerate_solve(inst)
            bnb = branch_and_bound_solve(inst)
            assert bnb.value == enum.value == evaluate_plan(inst, enum.plan)
            assert evaluate_plan(inst, bnb.plan) == bnb.value
            # alpha = 1: every child is settled by its certainty mask
            expected = (True, enum.plan) if enum.value == 1 else (False, None)
            assert decide_threshold(inst, Fraction(1)) == expected
            assert decide_threshold(inst, Fraction(0)) == (True, (0,) * N)

    def test_certainty_mask_picks_the_last_step(self):
        # identity and swap from state 0 towards target 1: only the swap as
        # the last step returns the whole population
        swap = StochasticMatrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
        for N in (1, 2, 3):
            inst = Instance(
                matrices=(StochasticMatrix.identity(2), swap),
                N=N,
                target=1,
                numeric_mode="exact",
            )
            assert decide_threshold(inst, Fraction(1)) == (True, (0,) * (N - 1) + (1,))
            assert enumerate_solve(inst).plan == (0,) * (N - 1) + (1,)
            assert branch_and_bound_solve(inst).value == 1

    def test_exact_bnb_builds_one_fraction(self, monkeypatch):
        built = []

        def counting_fraction(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(solvers, "Fraction", counting_fraction)
        result = branch_and_bound_solve(encode_reduction(all_patterns_formula()).instance)
        assert (result.nodes_explored, result.nodes_pruned) == (156801, 597973)
        assert len(built) == 1  # the reported value


class TestFloatPermutationInstance:
    def test_bnb_value_where_populations_repeat(self):
        # Permutation matrices only move weights around, so the same float
        # populations recur along many plans.  Float searches keep no memo,
        # so this pins the value alone: the largest start weight, moved
        # onto the target.
        permutations = [(0, 1, 2, 3), (1, 0, 3, 2), (1, 2, 3, 0)]
        matrices = tuple(
            StochasticMatrix(tuple(tuple(float(j == p[i]) for j in range(4)) for i in range(4)))
            for p in permutations
        )
        inst = Instance(
            matrices=matrices,
            N=6,
            start=Distribution((0.1, 0.2, 0.3, 0.4)),
            target=0,
            numeric_mode="float",
        )
        result = branch_and_bound_solve(inst)
        assert result.value == 0.4
        assert evaluate_plan(inst, result.plan) == 0.4
        assert enumerate_solve(inst).value == 0.4


def mixed_denominator_instance(mode="exact"):
    """Matrices in halves and sevenths (row 0 of the first one mixes 1/2,
    1/7 and 5/14) under a start in fifths, a denominator no entry has."""
    F = Fraction
    matrices = (
        ((F(1, 2), F(1, 7), F(5, 14)), (F(0), F(1, 2), F(1, 2)), (F(3, 7), F(0), F(4, 7))),
        ((F(1, 7), F(6, 7), F(0)), (F(1, 2), F(0), F(1, 2)), (F(2, 7), F(3, 14), F(1, 2))),
    )
    start = (F(1, 5), F(4, 5), F(0))
    cast = Fraction if mode == "exact" else float
    return Instance(
        matrices=tuple(StochasticMatrix(tuple(tuple(map(cast, r)) for r in m)) for m in matrices),
        N=4,
        start=Distribution(tuple(map(cast, start))),
        target=2,
        numeric_mode=mode,
    )


def backward_induction(inst):
    """The relaxed value table by plain Fraction arithmetic on dense rows."""
    level = [Fraction(int(i == inst.target)) for i in range(inst.d)]
    levels = [level]
    for _ in range(inst.N):
        level = [
            max(sum(Fraction(t) * u for t, u in zip(m.rows[i], level)) for m in inst.matrices)
            for i in range(inst.d)
        ]
        levels.append(level)
    return levels


class TestExactScaling:
    def test_value_table_matches_fraction_backward_induction(self):
        inst = mixed_denominator_instance()
        table = mdp_value_table(inst)
        assert [list(level) for level in table.values] == backward_induction(inst)

    def test_solvers_agree_on_value_and_witness(self):
        inst = mixed_denominator_instance()
        exact = enumerate_solve(inst)
        bnb = branch_and_bound_solve(inst)
        assert (bnb.value, bnb.plan) == (exact.value, exact.plan)
        assert evaluate_plan(inst, exact.plan) == exact.value
        assert decide_threshold(inst, exact.value) == (True, exact.plan)
        assert decide_threshold(inst, exact.value + Fraction(1, 10**9)) == (False, None)

    @pytest.mark.parametrize("mode,kind", [("exact", Fraction), ("float", float)])
    def test_table_entries_are_the_instance_scalars(self, mode, kind):
        table = mdp_value_table(mixed_denominator_instance(mode))
        assert all(type(u) is kind for level in table.values for u in level)
        reference = backward_induction(mixed_denominator_instance())
        for level, exact_level in zip(table.values, reference):
            assert level == pytest.approx([float(u) for u in exact_level], abs=1e-12)


SOLVERS = {
    "bnb": branch_and_bound_solve,
    "enum": enumerate_solve,
    "beam": lambda inst: beam_search(inst, width=2),
    "decide": lambda inst: decide_threshold(inst, 1 if inst.numeric_mode == "exact" else 1.0),
    "table": mdp_value_table,
}


def two_state_instance(mode, bad_row=None, start=(1, 0), target=0, N=2):
    """Identity as matrix 0 and, as matrix 1, ``bad_row`` over the row
    (0, 1); every entry cast to the mode's scalars."""
    cast = Fraction if mode == "exact" else float
    second = ((0, 1) if bad_row is None else bad_row, (0, 1))
    return Instance(
        matrices=(
            StochasticMatrix.identity(2, mode),
            StochasticMatrix(tuple(tuple(map(cast, row)) for row in second)),
        ),
        N=N,
        start=Distribution(tuple(map(cast, start))),
        target=target,
        numeric_mode=mode,
    )


def rejection(solver, inst):
    """The message of the ValueError ``solver`` raises on ``inst``, which
    must be the first violation that validate_instance reports."""
    violations = validate_instance(inst).violations
    assert violations
    with pytest.raises(ValueError) as err:
        SOLVERS[solver](inst)
    assert str(err.value) == violations[0]
    return str(err.value)


class TestInvalidInstances:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("bad_row", [(Fraction(3, 2), Fraction(-1, 2)), (1, 1)])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_bad_row_rejected(self, solver, bad_row, mode):
        inst = two_state_instance(mode, bad_row)
        assert rejection(solver, inst).startswith("matrix 1 row 0")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "start", [(Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 2), Fraction(-1, 2))]
    )
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_bad_start_rejected(self, solver, start, mode):
        inst = two_state_instance(mode, start=start)
        assert rejection(solver, inst).startswith("start")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_bad_shape_and_target_rejected(self, solver):
        narrow = StochasticMatrix(((Fraction(1),), (Fraction(1),)))
        ragged = Instance(
            matrices=(StochasticMatrix.identity(2), narrow), N=1, numeric_mode="exact"
        )
        assert rejection(solver, ragged).startswith("matrix 1")
        assert rejection(solver, two_state_instance("exact", target=2)).startswith("target")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_entry_of_the_wrong_type_rejected(self, solver):
        exact = two_state_instance("exact")
        float_entry = StochasticMatrix(((Fraction(1, 2), 0.5), (Fraction(0), Fraction(1))))
        float_zero = StochasticMatrix(((Fraction(1), 0.0), (Fraction(0), Fraction(1))))
        int_entry = StochasticMatrix(((0.0, 1.0), (0.0, 1)))
        int_zero = StochasticMatrix(((1.0, 0), (0.0, 1.0)))
        float_identity = StochasticMatrix.identity(2, "float")
        wrong = [
            (Instance(matrices=(exact.matrices[0], float_entry), N=2, numeric_mode="exact"),
             "matrix 1 row 0 entry 1: 0.5 is not an exact rational"),
            (Instance(matrices=(exact.matrices[0], float_zero), N=2, numeric_mode="exact"),
             "matrix 1 row 0 entry 1: 0.0 is not an exact rational"),
            (Instance(matrices=(float_identity, int_entry), N=2, numeric_mode="float"),
             "matrix 1 row 1 entry 1: 1 is not a float"),
            (Instance(matrices=(float_identity, int_zero), N=2, numeric_mode="float"),
             "matrix 1 row 0 entry 1: 0 is not a float"),
        ]
        for inst, message in wrong:
            assert rejection(solver, inst) == message

    @pytest.mark.parametrize("start", [(Fraction(1), 0.0), (0.5, Fraction(1, 2)), (1.0, 0.0)])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_float_start_in_exact_instance_rejected(self, solver, start):
        inst = two_state_instance("exact")
        inst = Instance(matrices=inst.matrices, N=2, start=Distribution(start), numeric_mode="exact")
        assert rejection(solver, inst).startswith("start entry")

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_bad_count_horizon_and_mode_rejected(self, solver):
        inst = two_state_instance("exact")
        cases = [
            (Instance(matrices=(), N=2, start=inst.start, numeric_mode="exact"), "at least one matrix"),
            # enum must check the instance before it computes K^N = 0^-1
            (Instance(matrices=(), N=-1, start=inst.start, numeric_mode="exact"), "at least one matrix"),
            (Instance(matrices=inst.matrices, N=-1, numeric_mode="exact"), "horizon N"),
            (Instance(matrices=inst.matrices, N=2, numeric_mode="fuzzy"), "numeric_mode"),
        ]
        for bad, message in cases:
            assert message in rejection(solver, bad)

    def test_float_tolerance_matches_validation(self):
        # Row sums and start mass may drift by ROW_SUM_TOL, entries may not
        # leave [0, 1]: the solvers accept exactly what validate_instance does.
        cases = [
            dict(bad_row=(0.5, 0.5 + 5e-10)),
            dict(bad_row=(0.5, 0.5 + 5e-9)),
            dict(bad_row=(1 + 5e-10, 0.0)),
            dict(start=(1 + 5e-10, 0.0)),
            dict(start=(1 + 5e-9, 0.0)),
        ]
        for case in cases:
            inst = two_state_instance("float", **case)
            for solver in SOLVERS:
                if validate_instance(inst).ok:
                    SOLVERS[solver](inst)
                else:
                    rejection(solver, inst)


def first_plan_of_value_one(inst):
    """The lexicographically first plan with value exactly 1, by a scan of
    all K^N plans in order, or None when no plan reaches 1."""
    for plan in product(range(inst.K), repeat=inst.N):
        if evaluate_plan(inst, plan) == 1:
            return plan
    return None


def scan_answer(inst):
    plan = first_plan_of_value_one(inst)
    return (plan is not None), plan


def exact_matrix(*rows):
    return StochasticMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


def commuting_pairs(inst):
    """The pairs ``(a, b)``, a < b, that the support backend skips as ``b, a``."""
    below = solvers._SupportView(inst, *core._sparse_rows(inst)).commuting_below
    return {(a, b) for b in range(inst.K) for a in range(b) if below[b] >> a & 1}


def sparse_exact_instance(rng, d, K, N):
    """Exact matrices whose rows are mostly unit rows, so that some pairs of
    matrices commute; a moved row has one or two successors."""
    matrices = []
    for _ in range(K):
        rows = []
        for i in range(d):
            row = [Fraction(0)] * d
            if rng.random() < 0.5:
                row[i] = Fraction(1)
            else:
                a, b = rng.randrange(d), rng.randrange(d)
                share = Fraction(rng.randint(1, 3), 4)
                row[a] += share
                row[b] += 1 - share
            rows.append(tuple(row))
        matrices.append(StochasticMatrix(tuple(rows)))
    return Instance(
        matrices=tuple(matrices),
        N=N,
        start=Distribution.unit(d, rng.randrange(d), "exact"),
        target=rng.randrange(d),
        numeric_mode="exact",
    )


class TestSupportDecision:
    """decide_threshold at exact alpha = 1 runs on support bitmasks and skips
    plans that swap adjacent commuting matrices out of ascending order; its
    answer must still be the first value-1 plan of a full scan."""

    def test_single_clause_reduction(self):
        inst = encode_reduction(single_clause_formula()).instance
        assert decide_threshold(inst, Fraction(1)) == scan_answer(inst) == (True, (0, 2, 1))

    @pytest.mark.parametrize("n,m,seed", [(3, 1, 0), (3, 2, 1), (3, 2, 2), (4, 2, 3), (4, 2, 4)])
    def test_planted_formulas(self, n, m, seed):
        _, formula = planted_formula(Random(seed), n, m)
        inst = encode_reduction(formula).instance
        # every pair of clause matrices commutes; S and F commute with nothing
        clause_matrices = range(2, inst.K)
        assert commuting_pairs(inst) == {
            (a, b) for b in clause_matrices for a in clause_matrices if a < b
        }
        assert decide_threshold(inst, Fraction(1)) == scan_answer(inst)

    def test_commuting_permutations(self):
        # states 0..3; swap01 and swap23 commute with each other and with the
        # identity, the 4-cycle commutes with neither swap
        identity = exact_matrix((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        swap23 = exact_matrix((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        swap01 = exact_matrix((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        cycle = exact_matrix((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
        matrices = (identity, swap23, swap01, cycle)
        for N in (1, 2, 3, 4):
            for target in range(4):
                inst = Instance(matrices=matrices, N=N, target=target, numeric_mode="exact")
                assert commuting_pairs(inst) == {(0, 1), (0, 2), (0, 3), (1, 2)}
                assert decide_threshold(inst, Fraction(1)) == scan_answer(inst)
        # from state 0 the swaps and the cycle never reach 2 in one step
        inst = Instance(matrices=matrices, N=1, target=2, numeric_mode="exact")
        assert decide_threshold(inst, Fraction(1)) == (False, None)

    def test_zero_of_an_int_subclass_is_no_successor(self):
        # a valid zero entry whose type is a subclass of int adds no support
        zero = IntEnum("Zero", [("ZERO", 0)]).ZERO
        shift = StochasticMatrix(((zero, Fraction(1)), (Fraction(0), Fraction(1))))
        inst = Instance(
            matrices=(StochasticMatrix.identity(2), shift), N=1, target=1, numeric_mode="exact"
        )
        assert validate_instance(inst).ok
        assert decide_threshold(inst, Fraction(1)) == scan_answer(inst) == (True, (1,))

    def test_supports_commute_but_entries_do_not(self):
        # a and b both send state 0 to {1, 2}, with different weights; c sends 2 to 1
        a = exact_matrix((0, Fraction(1, 2), Fraction(1, 2)), (0, 1, 0), (0, 0, 1))
        b = exact_matrix((0, Fraction(1, 3), Fraction(2, 3)), (0, 1, 0), (0, 0, 1))
        c = exact_matrix((1, 0, 0), (0, 1, 0), (0, 1, 0))
        for N in (1, 2, 3, 4):
            inst = Instance(matrices=(a, b, c), N=N, target=1, numeric_mode="exact")
            assert commuting_pairs(inst) == {(0, 1)}
            expected = scan_answer(inst)
            assert decide_threshold(inst, Fraction(1)) == expected
            assert expected == ((False, None) if N == 1 else (True, (0,) * (N - 1) + (2,)))
        # the swapped pair moves different mass, so its products differ
        inst = Instance(matrices=(a, b, c), N=2, target=1, numeric_mode="exact")
        assert evaluate_plan(inst, (0, 1)) == Fraction(1, 2)
        assert evaluate_plan(inst, (1, 0)) == Fraction(1, 3)

    def test_split_rows_compared_on_rows_either_matrix_moves(self):
        # a splits state 0 over {0, 1}; b sends 2 to 0.  They agree on row 0,
        # the only row a moves, but differ on row 2: a, b sends 2 to {0}, and
        # b, a sends it to {0, 1}.
        a = exact_matrix((Fraction(1, 2), Fraction(1, 2), 0), (0, 1, 0), (0, 0, 1))
        b = exact_matrix((1, 0, 0), (0, 1, 0), (1, 0, 0))
        c = exact_matrix((0, 1, 0), (0, 1, 0), (0, 0, 1))
        inst = Instance(matrices=(a, b, c), N=2, target=1, numeric_mode="exact")
        assert commuting_pairs(inst) == {(0, 2)}
        for N in (1, 2, 3):
            inst = Instance(
                matrices=(a, b, c), N=N, start=Distribution.unit(3, 2, "exact"),
                target=0, numeric_mode="exact",
            )
            assert decide_threshold(inst, Fraction(1)) == scan_answer(inst)

    def test_seeded_sparse_instances(self):
        rng = Random(4242)
        attained = 0
        for _ in range(60):
            d, K, N = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 4)
            inst = sparse_exact_instance(rng, d, K, N)
            expected = scan_answer(inst)
            assert decide_threshold(inst, Fraction(1)) == expected
            attained += expected[0]
        assert 10 <= attained <= 50  # both answers are exercised

    def test_planted_n10_m14_within_budget(self):
        planted, formula = planted_formula(Random(10), 10, 14)
        art = encode_reduction(formula)
        start = time.perf_counter()
        attained, witness = decide_threshold(art.instance, Fraction(1))
        elapsed = time.perf_counter() - start
        assert elapsed < 20, f"decide took {elapsed:.1f} s"
        assert attained and evaluate_plan(art.instance, witness) == 1
        assignment = decode_assignment(art, witness)
        assert all(clause_satisfied(clause, assignment) for clause in formula.clauses)


def caps_reference(inst):
    """Q[r][k][i], the relaxed value of state i one step through matrix k
    with r steps left, by plain Fraction arithmetic over nonzero entries."""
    level = [Fraction(int(i == inst.target)) for i in range(inst.d)]
    reference = [None]
    for _ in range(inst.N):
        Q = [
            [sum(t * level[j] for j, t in enumerate(row) if t) for row in m.rows]
            for m in inst.matrices
        ]
        reference.append(Q)
        level = [max(column) for column in zip(*Q)]
    return reference


def apply_reference(inst, weights, k):
    """A scaled population moved through matrix k by Fraction arithmetic."""
    rows = inst.matrices[k].rows
    out = [0] * inst.d
    for w, row in zip(weights, rows):
        for j, t in enumerate(row):
            if t:
                out[j] += w * t
    return tuple(out)


def halves_instance(rng, d, K, N):
    """Exact entries and start weights in {0, 1/2, 1}, so L = 2, with an
    absorbing target: the target is certain at every level."""
    half = Fraction(1, 2)
    matrices = []
    for _ in range(K):
        rows = []
        for i in range(d):
            row = [Fraction(0)] * d
            for j in (i, i) if i == d - 1 else (rng.randrange(d), rng.randrange(d)):
                row[j] += half
            rows.append(tuple(row))
        matrices.append(StochasticMatrix(tuple(rows)))
    start = Distribution((half, half) + (Fraction(0),) * (d - 2))
    return Instance(
        matrices=tuple(matrices), N=N, start=start, target=d - 1, numeric_mode="exact"
    )


class TestChildCaps:
    """The exact backend packs the K lookahead entries of a state into one
    integer and reads all K child bounds off one big-integer dot product;
    its apply touches only the rows a matrix moves."""

    @staticmethod
    def word_boundary_instances():
        # L = 2 and N = 32: full[r] = 2^(N + 1 + r) takes one 64-bit word
        # at r = 30 and one bit more at r = 31
        rng = Random(79)
        yield halves_instance(rng, 4, 3, 32)
        yield halves_instance(rng, 5, 2, 32)

    @staticmethod
    def instances():
        yield encode_reduction(all_patterns_formula()).instance
        for n, m, seed in ((4, 4, 0), (4, 5, 1), (5, 4, 2), (5, 5, 3)):
            yield encode_reduction(planted_formula(Random(seed), n, m)[1]).instance
        rng = Random(77)
        for _ in range(3):
            yield random_instance(rng, rng.randint(3, 5), rng.randint(2, 4), 4, mode="exact")
        for _ in range(2):  # denominators near 10^6, so L has dozens of digits
            yield Instance(
                matrices=tuple(random_exact_matrix(rng, 4, max_weight=10**6) for _ in range(3)),
                N=3,
                start=random_exact_distribution(rng, 4, max_weight=10**6),
                numeric_mode="exact",
            )
        yield deterministic_instance(Random(78), 5, 3, 4)  # 0/1 entries: L = 1
        yield from TestChildCaps.word_boundary_instances()

    def test_caps_and_apply_on_reachable_populations(self):
        rng = Random(2024)
        for inst in self.instances():
            view = solvers._view(inst)
            reference = caps_reference(inst)
            D = view.full[0]  # the mass of every reachable population
            for _ in range(12):
                weights = view.start
                for r in range(inst.N, 0, -1):
                    live = [(i, w) for i, w in enumerate(weights) if w]
                    expected = [
                        sum(w * qk[i] for i, w in live) * view.full[r] / D for qk in reference[r]
                    ]
                    assert view.caps(weights, r) == expected
                    k = rng.randrange(inst.K)
                    child = view.apply(weights, k)
                    assert child == apply_reference(inst, weights, k)
                    assert sum(child) == D
                    weights = child

    def test_fields_one_word_wide_then_two_at_the_word_boundary(self):
        rng = Random(2026)
        for inst in self.word_boundary_instances():
            view = solvers._view(inst)
            assert view.base == 2
            assert [view.full[r].bit_length() for r in (30, 31)] == [64, 65]
            assert [view.fields[r][0].stop for r in (30, 31)] == [8, 9]
            reference = caps_reference(inst)
            D = view.full[0]
            for r in (30, 31):
                # the whole mass on the target fills the top bit at r = 30
                on_target = tuple(D * (i == inst.target) for i in range(inst.d))
                assert view.caps(on_target, r) == [view.full[r]] * inst.K
                for _ in range(20):
                    weights = view.start
                    for _ in range(inst.N - r):
                        weights = view.apply(weights, rng.randrange(inst.K))
                    expected = [
                        sum(w * qk[i] for i, w in enumerate(weights) if w) * view.full[r] / D
                        for qk in reference[r]
                    ]
                    assert view.caps(weights, r) == expected

    def test_fully_certain_child_gets_the_full_mass(self):
        rng = Random(2025)
        seen = 0
        for inst in self.instances():
            view = solvers._view(inst)
            reference = caps_reference(inst)
            D = view.full[0]
            for r in range(1, inst.N + 1):
                for k, qk in enumerate(reference[r]):
                    certain = [i for i, q in enumerate(qk) if q == 1]
                    if not certain:
                        continue
                    seen += 1
                    # the whole mass on certain states, split at random
                    cuts = sorted(rng.randint(0, D) for _ in certain[1:])
                    shares = [b - a for a, b in zip([0] + cuts, cuts + [D])]
                    weights = [0] * inst.d
                    for i, share in zip(certain, shares):
                        weights[i] = share
                    assert view.caps(tuple(weights), r)[k] == view.full[r]
        assert seen > 100

    def test_apply_on_unit_self_loop_and_shared_rows(self):
        F = Fraction
        unit = (F(1), F(0), F(0))
        shared = (F(0), F(1, 3), F(2, 3))  # one row object in two matrices
        loop = (F(0), F(1, 3), F(2, 3))  # c_22 = 2/3 of L
        matrices = (
            StochasticMatrix((unit, shared, (F(0), F(0), F(1)))),
            StochasticMatrix((shared, (F(1, 2), F(1, 2), F(0)), loop)),
            StochasticMatrix.identity(3),
            StochasticMatrix(((F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(0), F(0), F(1)))),
        )
        assert matrices[0].rows[1] is matrices[1].rows[0]
        inst = Instance(
            matrices=matrices, N=3, start=Distribution((F(1, 2), F(1, 3), F(1, 6))),
            numeric_mode="exact",
        )
        view = solvers._view(inst)
        assert view.base == 6
        # only moved rows are walked: matrix 0 moves row 1, the identity
        # none; matrix 3 moves rows 0 and 1 whole, to states 1 and 2
        assert [
            (whole, [i for i, _ in split]) for whole, split in view.moved
        ] == [([], [1]), ([], [0, 1, 2]), ([], []), ([(0, 1), (1, 2)], [])]
        rng = Random(5)
        for _ in range(20):
            weights = view.start
            for _ in range(inst.N):
                for k in range(inst.K):
                    assert view.apply(weights, k) == apply_reference(inst, weights, k)
                assert view.apply(weights, 2) == weights
                weights = view.apply(weights, rng.randrange(inst.K))


def tables_reference(inst):
    """U and Q computed row by row for every (k, i) of the instance's own
    matrices: the reference for _tables."""
    rows = [[[(j, t) for j, t in enumerate(row) if t] for row in m.rows] for m in inst.matrices]
    levels = [tuple(int(i == inst.target) for i in range(inst.d))]
    lookahead = [None]
    for _ in range(inst.N):
        prev = levels[-1]
        Q = [tuple(sum(c * prev[j] for j, c in row) for row in rows_k) for rows_k in rows]
        lookahead.append(Q)
        levels.append(tuple(max(qk[i] for qk in Q) for i in range(inst.d)))
    return levels, lookahead


def typed(x):
    """A number with its type; floats by their exact bits."""
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def typed_table(table):
    """Nested rows of numbers, each entry through :func:`typed`."""
    if isinstance(table, (list, tuple)):
        return [typed_table(part) for part in table]
    return None if table is None else typed(table)


class TestDistinctRowTables:
    """Each distinct row object is converted once and summed once per level,
    and every (k, i) entry is read off those sums; the results are those of
    the row-by-row loop, types and float bits included."""

    @staticmethod
    def instances():
        yield encode_reduction(all_patterns_formula()).instance
        yield encode_reduction(planted_formula(Random(3), 5, 5)[1]).instance
        rng = Random(90)
        first = random_float_matrix(rng, 4)
        other = random_float_matrix(rng, 4).rows
        # one row tuple in two matrices, and twice in the second
        reused = StochasticMatrix((other[0], first.rows[2], other[2], first.rows[2]))
        yield Instance(
            matrices=(first, reused, random_float_matrix(rng, 4)), N=5,
            start=random_float_distribution(rng, 4), target=1, numeric_mode="float",
        )
        for mode in ("float", "exact"):  # K = 1
            yield random_instance(rng, 4, 1, 5, mode=mode)

    def test_tables_match_the_row_by_row_loop(self):
        for inst in self.instances():
            rows, index = core._sparse_rows(inst)
            levels, lookahead, sums = solvers._tables(rows, index, inst.d, inst.N, inst.target)
            ref_levels, ref_lookahead = tables_reference(inst)
            assert typed_table(levels) == typed_table(ref_levels)
            assert typed_table(lookahead) == typed_table(ref_lookahead)
            distinct = {id(row) for m in inst.matrices for row in m.rows}
            assert sums[0] is None
            assert [len(level_sums) for level_sums in sums[1:]] == [len(distinct)] * inst.N
            assert [len(places) for places in index] == [inst.d] * inst.K

    def test_reduction_rows_are_converted_and_summed_once(self):
        inst = encode_reduction(all_patterns_formula()).instance
        rows, index = core._sparse_rows(inst)
        _, _, sums = solvers._tables(rows, index, inst.d, inst.N, inst.target)
        assert (inst.K * inst.d, len(rows), len(sums[1])) == (1160, 18, 18)

    def test_value_table_matches_the_reference(self):
        for inst in self.instances():
            ref_levels, _ = tables_reference(inst)
            as_value = Fraction if inst.numeric_mode == "exact" else float
            expected = [[as_value(u) for u in level] for level in ref_levels]
            assert typed_table(mdp_value_table(inst).values) == typed_table(expected)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_bad_row_shared_by_two_matrices_reported_at_its_first_place(self, solver, mode):
        cast = Fraction if mode == "exact" else float
        half, zero, one = cast(1) / 2, cast(0), cast(1)
        good = (zero, zero, one)
        bad = (half, half, half)
        inst = Instance(
            matrices=(
                StochasticMatrix.identity(3, mode),
                StochasticMatrix((good, good, bad)),
                StochasticMatrix((bad, good, good)),
            ),
            N=2, start=Distribution((one, zero, zero)), numeric_mode=mode,
        )
        assert inst.matrices[1].rows[2] is inst.matrices[2].rows[0]
        if mode == "exact":
            message = "matrix 1 row 2: mass 3/2 != 1"
        else:
            message = "matrix 1 row 2: mass 1.5 not within 1e-09 of 1"
        with pytest.raises(ValueError) as err:
            SOLVERS[solver](inst)
        assert str(err.value) == message


def float_apply_reference(rows, weights):
    """A float population moved through a matrix's sparse ``(column,
    entry)`` rows by a plain loop, the reference the generated kernels
    match bit for bit: each nonzero weight adds its products, in row
    order, into ``[0.0] * d``."""
    out = [0.0] * len(weights)
    for i, w in enumerate(weights):
        if w:
            for j, c in rows[i]:
                out[j] = out[j] + w * c
    return tuple(out)


def sparse_float_matrix(rng, d):
    """Rows with between one and d nonzero entries, at random columns."""
    rows = []
    for _ in range(d):
        columns = rng.sample(range(d), rng.randint(1, d))
        raw = [rng.random() + 1e-3 for _ in columns]
        row = [0.0] * d
        for j, x in zip(columns, raw):
            row[j] = x / sum(raw)
        rows.append(tuple(row))
    return StochasticMatrix(tuple(rows))


def population_with_zeros(rng, d):
    """Random weights, about a third of them replaced by 0.0 or -0.0."""
    return tuple(
        rng.choice((0.0, -0.0)) if rng.random() < 1 / 3 else rng.random() for _ in range(d)
    )


class TestFloatKernels:
    """The float backend applies each matrix through a generated kernel;
    its results are those of the loop it replaced, bit for bit."""

    @staticmethod
    def instances():
        rng = Random(7100)
        for d in (1, 2, 3, 5, 8, 13):
            for sparse in (False, True):
                make = sparse_float_matrix if sparse else random_float_matrix
                matrices = tuple(make(rng, d) for _ in range(3))
                yield rng, Instance(
                    matrices=matrices, N=3, start=random_float_distribution(rng, d),
                    target=rng.randrange(d), numeric_mode="float",
                )

    def test_apply_is_bit_identical_to_the_loop(self):
        for rng, inst in self.instances():
            rows, index = core._sparse_rows(inst)
            view = solvers._view(inst)
            for k, places in enumerate(index):
                matrix_rows = [rows[p] for p in places]
                populations = [inst.start.weights, (0.0,) * inst.d, (-0.0,) * inst.d]
                populations += [population_with_zeros(rng, inst.d) for _ in range(20)]
                for weights in populations:
                    for _ in range(3):  # and the populations those reach
                        got = view.apply(weights, k)
                        expected = float_apply_reference(matrix_rows, weights)
                        assert list(map(repr, got)) == list(map(repr, expected))
                        weights = got

    def test_long_column_is_summed_in_order(self):
        # every row sends half its mass to state 0: a column of 3,001
        # nonzeros, which a single chain of additions could not compile
        d = 3001
        rows = [((0, 1.0),)] + [((0, 0.5), (i, 0.5)) for i in range(1, d)]
        kernel = core._float_kernel(rows)
        rng = Random(7101)
        for _ in range(3):
            weights = population_with_zeros(rng, d)
            expected = float_apply_reference(rows, weights)
            assert list(map(repr, kernel(weights))) == list(map(repr, expected))

    def test_empty_column_is_zero(self):
        rows = [((0, 1.0),), ((0, 0.25), (2, 0.75)), ((0, 1.0),)]
        got = core._float_kernel(rows)((0.5, -0.0, 0.5))
        assert list(map(repr, got)) == ["1.0", "0.0", "0.0"]

    def test_kernel_runs_without_builtins(self):
        rows = [((1, 1.0),), ((0, 0.5), (1, 0.5))]
        kernel = core._float_kernel(rows)
        assert kernel.__globals__ == {"__builtins__": {}}
        assert kernel((0.5, 0.5)) == (0.25, 0.75)

    def test_built_only_when_a_search_applies_a_matrix(self, monkeypatch):
        built = []  # per kernel bound, its rows
        make = core._float_kernel

        def counting(rows):
            built.append(len(rows))
            return make(rows)

        monkeypatch.setattr(core, "_float_kernel", counting)
        core._kernel_template.cache_clear()
        inst = random_instance(Random(7102), 4, 3, 1, mode="float")
        mdp_value_table(inst)
        enumerate_solve(inst)
        branch_and_bound_solve(inst)
        decide_threshold(inst, 0.0)
        beam_search(inst, 4)
        assert built == []
        assert core._kernel_template.cache_info().misses == 0
        inst = random_instance(Random(7103), 4, 3, 2, mode="float")
        enumerate_solve(inst)
        # at N = 2 enumeration applies the first step, through one kernel
        # per matrix for the whole search
        assert built == [4] * 3
        branch_and_bound_solve(inst)
        enumerate_solve(inst)
        beam_search(inst, 4)
        assert built == [4] * 3
        # at N = 4 it values the populations its reads cannot rule out through
        # the same kernels
        inst = random_instance(Random(7104), 4, 3, 4, mode="float")
        enumerate_solve(inst)
        assert built == [4] * 6
        # dense matrices share one pattern, and one template
        assert core._kernel_template.cache_info().misses == 1

    def test_evaluation_and_searches_share_the_kernels(self, monkeypatch):
        built = counting(monkeypatch, core, "_float_kernel")
        rng = Random(7105)
        inst = random_instance(rng, 4, 3, 3, mode="float")
        mdp_value_table(inst)
        assert built == []
        result = branch_and_bound_solve(inst)
        assert len(built) == 3
        # an evaluation after a search walks the kernels the search bound
        assert repr(evaluate_plan(inst, result.plan)) == repr(result.value)
        assert len(built) == 3
        # and a search after an evaluation those the evaluation bound
        inst = random_instance(rng, 4, 3, 3, mode="float")
        evaluate_plan(inst, (0, 1, 2))
        assert len(built) == 6
        enumerate_solve(inst)
        beam_search(inst, 2)
        decide_threshold(inst, 0.5)
        assert len(built) == 6


class Shifted(float):
    """A float whose ``repr`` and ``float()`` both lie about its value."""

    def __repr__(self):
        return "0.5"

    def __float__(self):
        return 0.25


def random_sparse_rows(rng, d):
    """Sparse ``(column, entry)`` rows of between zero and d entries each,
    at random ascending columns, so that some columns are empty: entries
    of 5e-324, in [0, 1) or of magnitude 1e-9 to 1e9."""
    return [
        tuple(
            (j, rng.choice((5e-324, rng.random() + 5e-324, rng.random() * 10 ** rng.randint(-9, 9) + 5e-324)))
            for j in sorted(rng.sample(range(d), rng.randint(0, d)))
        )
        for _ in range(d)
    ]


def kernel_populations(rng, d):
    """Populations a kernel is checked on: all zeros, all -0.0, and random
    ones with zeros or of wide magnitudes."""
    populations = [(0.0,) * d, (-0.0,) * d]
    populations += [population_with_zeros(rng, d) for _ in range(5)]
    populations += [tuple(wide_float(rng) for _ in range(d)) for _ in range(5)]
    return populations


def hexes(values):
    return list(map(float.hex, values))


class TestKernelTemplates:
    """Float kernels are bound from one template per sparsity pattern; each
    computes what the kernel compiled for its own matrix computed
    (``exec_float_kernel``), bit for bit."""

    def test_bound_kernels_equal_the_compiled_ones(self):
        rng = Random(7110)
        for _ in range(300):
            rows = random_sparse_rows(rng, rng.randint(1, 12))
            kernel, reference = core._float_kernel(rows), exec_float_kernel(rows)
            for weights in kernel_populations(rng, len(rows)):
                assert hexes(kernel(weights)) == hexes(reference(weights))

    def test_column_longer_than_one_statement(self):
        # 450 rows all reach state 0: a column of 450 terms, in three statements
        d = 450
        assert d > 2 * core._KERNEL_TERMS
        rng = Random(7111)
        rows = [((0, rng.random() * 10 ** rng.randint(-9, 9)), (i, 5e-324)) for i in range(d)]
        kernel, reference = core._float_kernel(rows), exec_float_kernel(rows)
        for weights in kernel_populations(rng, d):
            assert hexes(kernel(weights)) == hexes(reference(weights))

    def test_float_subclass_entries_bind_their_float_value(self):
        shifted = [((0, Shifted(0.3)), (1, Shifted(0.7))), ((1, Shifted(1.0)),)]
        plain = [((0, 0.3), (1, 0.7)), ((1, 1.0),)]
        weights = (0.6, 0.4)
        got = core._float_kernel(shifted)(weights)
        assert hexes(got) == hexes(exec_float_kernel(shifted)(weights))
        assert hexes(got) == hexes(core._float_kernel(plain)(weights))
        assert all(type(x) is float for x in got)

    def test_compiled_once_per_pattern(self):
        core._kernel_template.cache_clear()
        rng = Random(7113)
        dense = [[tuple(enumerate(row)) for row in random_float_matrix(rng, 6).rows] for _ in range(3)]
        weights = random_float_distribution(rng, 6).weights
        for rows in dense:
            got = core._float_kernel(rows)(weights)
            assert hexes(got) == hexes(exec_float_kernel(rows)(weights))
        assert core._kernel_template.cache_info().misses == 1
        core._float_kernel(random_sparse_rows(rng, 6))
        assert core._kernel_template.cache_info().misses == 2


def dot_reference(weights, vectors):
    """The child bounds as ``sum()`` adds them, one sum of products per
    vector: the reference the dot kernels match bit for bit."""
    return [sum(map(mul, weights, q)) for q in vectors]


def wide_float(rng):
    """0.0, -0.0, the smallest subnormal, 1.0, or a float of random
    magnitude, so that a sum added in another order rounds differently."""
    return rng.choice((0.0, -0.0, 5e-324, 1.0, rng.random(), rng.random() * 10 ** rng.randint(-9, 9)))


class TestDotKernels:
    """Float child bounds come from one generated dot-product kernel per
    ``(d, K)`` shape, whose sums are those of ``sum()``, bit for bit."""

    def test_sums_are_bit_identical_to_sum(self):
        rng = Random(7200)
        # one weight and one vector; a sum longer than one statement
        for n, m in ((1, 1), (1, 4), (3, 1), (12, 4), (200, 2), (201, 3), (450, 1)):
            kernel = solvers._dot_kernel(n, m)
            populations = [(0.0,) * n, (-0.0,) * n, (5e-324,) * n, (1.0,) * n]
            populations += [tuple(wide_float(rng) for _ in range(n)) for _ in range(30)]
            for weights in populations:
                vectors = [tuple(wide_float(rng) for _ in range(n)) for _ in range(m)]
                got = kernel(weights, vectors)
                assert list(map(float.hex, got)) == list(map(float.hex, dot_reference(weights, vectors)))

    def test_kernel_holds_no_constant_and_runs_without_builtins(self):
        kernel = solvers._dot_kernel(4, 3)
        assert kernel.__globals__ == {"__builtins__": {}}
        assert [c for c in kernel.__code__.co_consts if c is not None] == [0]
        assert kernel((0.5, 0.5, 0, 0), [(1, 0, 0, 0), (0, 1, 1, 1), (0, 0, 0, 0)]) == [0.5, 0.5, 0]

    @pytest.mark.parametrize("d, K", [(5, 3), (128, 4), (129, 4), (13, 40)])
    def test_caps_equal_sum_at_every_size(self, d, K):
        rng = Random(7201)
        inst = Instance(
            matrices=tuple(sparse_float_matrix(rng, d) for _ in range(K)), N=2,
            start=random_float_distribution(rng, d), target=rng.randrange(d),
            numeric_mode="float",
        )
        view = solvers._view(inst)
        for weights in [inst.start.weights] + [population_with_zeros(rng, d) for _ in range(5)]:
            for r in (1, 2):
                got = view.caps(weights, r)
                assert list(map(float.hex, got)) == list(map(float.hex, dot_reference(weights, view.lookahead[r])))

    def test_compiled_once_per_shape(self):
        solvers._dot_kernel.cache_clear()
        for seed in (7202, 7203):
            inst = random_instance(Random(seed), 5, 3, 3, mode="float")
            branch_and_bound_solve(inst)
            assert solvers._dot_kernel.cache_info().misses == 1
        # enumeration reads the suffix groups (b = 3) through the kernel
        # of the instance's shape too
        enumerate_solve(random_instance(Random(7202), 5, 3, 6, mode="float"))
        assert solvers._dot_kernel.cache_info().misses == 1
        enumerate_solve(random_instance(Random(7204), 6, 3, 3, mode="float"))
        assert solvers._dot_kernel.cache_info().misses == 2

    def test_callers_that_read_no_bound_compile_none(self):
        solvers._dot_kernel.cache_clear()
        inst = random_instance(Random(7205), 7, 3, 3, mode="float")
        mdp_value_table(inst)
        branch_and_bound_solve(Instance(
            matrices=inst.matrices, N=0, start=inst.start, target=inst.target, numeric_mode="float",
        ))
        assert solvers._dot_kernel.cache_info().misses == 0
        branch_and_bound_solve(inst)
        assert solvers._dot_kernel.cache_info().misses == 1


class TestFloatSuffixReads:
    """Float enumeration reads each population b steps from the end, at
    the deepest level 2 <= b <= max(N // 2, 1) that the suffix groups
    cover, off the vectors of G[b], skips the populations whose largest
    read the rounding slack rules out, and values the rest again as
    ``evaluate_plan`` adds; where G covers no such level it reads the
    plans' values at b = 1.  Its answers are the sequential scan's, bit
    for bit."""

    @staticmethod
    def check(inst):
        result = enumerate_solve(inst)
        value, plan, explored, _ = enum_reference(inst)
        assert (result.value.hex(), result.plan, result.nodes_explored) == (value.hex(), plan, explored)

    @staticmethod
    def shapes(rng, count, d, K, N):
        """``count`` random (d, K, N) in the given ranges, N lowered until
        K^N is at most 2,000."""
        for _ in range(count):
            shape = rng.randint(*d), rng.randint(*K), rng.randint(*N)
            while shape[1] ** shape[2] > 2000:
                shape = shape[0], shape[1], shape[2] - 1
            yield shape

    @pytest.mark.parametrize(
        "K, N",
        [(1, N) for N in range(1, 7)] + [(2, N) for N in range(2, 9)]
        + [(5, 3), (5, 4), (5, 5), (16, 2), (16, 3), (17, 2), (17, 3), (17, 4)],
    )
    def test_each_suffix_length_equals_the_reference(self, K, N):
        # b = max(N // 2, 1) from 1 to 4, at K up to 17
        rng = Random(7410 + 10 * K + N)
        for inst in (random_instance(rng, 5, K, N, "float"), random_sparse_float_instance(rng, 4, K, N)):
            self.check(inst)

    def test_random_instances_equal_the_reference(self):
        rng = Random(7400)
        for d, K, N in self.shapes(rng, 300, (1, 9), (1, 18), (0, 5)):
            self.check(random_instance(rng, d, K, N, "float"))

    def test_tie_heavy_instances_equal_the_reference(self):
        # plans tie with the best value, so their populations pass the cutoff, and
        # the first maximum in plan order decides
        rng = Random(7401)
        for d, K, N in self.shapes(rng, 150, (1, 6), (1, 4), (2, 8)):
            self.check(tie_heavy_instance(rng, d, K, N, "float"))

    def test_extreme_entries_equal_the_reference(self):
        # entries of 5e-324 and of magnitudes 1e-9 to 1, and plan values
        # below 1e-300, where products underflow
        rng = Random(7402)
        for d, K, N in self.shapes(rng, 150, (1, 6), (1, 4), (2, 8)):
            self.check(wide_float_instance(rng, d, K, N, tiny=rng.random() < 0.5))

    def test_every_read_clears_the_cutoff_of_its_plans_value(self):
        rng = Random(7403)
        makes = [
            lambda d, K, N: random_instance(rng, d, K, N, "float"),
            lambda d, K, N: tie_heavy_instance(rng, d, K, N, "float"),
            lambda d, K, N: random_sparse_float_instance(rng, d, K, N),
            lambda d, K, N: wide_float_instance(rng, d, K, N),
            lambda d, K, N: wide_float_instance(rng, d, K, N, tiny=True),
        ]
        suffixes = set()
        for d, K, N in self.shapes(rng, 150, (1, 8), (1, 4), (1, 8)):
            inst = rng.choice(makes)(d, K, N)
            view = solvers._view(inst)
            b = max(N // 2, 1)
            # the reads of every suffix vector, off the full table
            read = float_suffix_table_read(view, b)
            suffixes.add(b)
            for prefix in product(range(K), repeat=N - b):
                weights = view.start
                for k in prefix:
                    weights = view.apply(weights, k)
                reads = list(read(weights))
                assert len(reads) == K**b
                for suffix, m in zip(product(range(K), repeat=b), reads):
                    v = evaluate_plan(inst, prefix + suffix)
                    assert m >= view.cutoffs(v)[b]
                    if b == 1:  # a read one step from the end is the value
                        assert m.hex() == v.hex()
        assert suffixes == {1, 2, 3, 4}

    def test_largest_read_over_the_groups_equals_the_largest_over_the_table(self, monkeypatch):
        # where the suffix groups cover level b >= 2, a population's filter
        # value is its largest read over G[b]: the largest over all K^b
        # suffix vectors, bit for bit, at every covered level
        rng = Random(7405)
        makes = {
            "random": lambda d, K, N: random_instance(rng, d, K, N, "float"),
            "tie-heavy": lambda d, K, N: tie_heavy_instance(rng, d, K, N, "float"),
            "sparse": lambda d, K, N: random_sparse_float_instance(rng, d, K, N),
            "wide": lambda d, K, N: wide_float_instance(rng, d, K, N),
            "tiny": lambda d, K, N: wide_float_instance(rng, d, K, N, tiny=True),
        }
        compared, kinds, levels = 0, set(), set()
        for d, K, N in self.shapes(rng, 450, (1, 8), (1, 5), (2, 9)):
            kind = rng.choice(sorted(makes))
            inst = makes[kind](d, K, N)
            view = solvers._view(inst)
            dot, groups = view._dot, []  # the chunks each read of G[b] passes the dot kernel
            monkeypatch.setattr(view, "_dot", lambda w, Q: groups.append(Q) or dot(w, Q))
            for b in range(2, len(view.G)):
                size = sum(map(len, view.G[b]))
                assert size <= K**b
                read, level = view.suffix_values(b)
                assert level == b
                table = float_suffix_table_read(view, b)
                for prefix in product(range(K), repeat=N - b):
                    weights = view.start
                    for k in prefix:
                        weights = view.apply(weights, k)
                    groups.clear()
                    largest = max(read(weights))
                    assert len(groups) == -(-size // K)
                    assert largest.hex() == max(table(weights)).hex()
                    compared += 1
                kinds.add(kind)
                levels.add(b)
        assert kinds == set(makes) and levels == set(range(2, 10))
        assert compared > 15_000

    def test_enumeration_and_branch_and_bound_build_the_groups_once(self, monkeypatch):
        groups = counting(monkeypatch, solvers, "_suffix_groups")
        inst = random_instance(Random(7406), 5, 4, 8, "float")
        enumerate_solve(inst)
        branch_and_bound_solve(inst)
        assert len(groups) == 1

    @pytest.mark.parametrize("K, N", [(4, 4), (4, 6), (4, 8), (3, 7)])
    def test_each_population_reads_the_groups_in_chunks_of_K(self, monkeypatch, K, N):
        inst = random_instance(Random(7407 + N), 5, K, N, "float")
        view, b = solvers._view(inst), N // 2
        assert 2 <= b < len(view.G)
        dots, per_population = [], []
        dot = view._dot
        monkeypatch.setattr(view, "_dot", lambda w, Q: dots.append(Q) or dot(w, Q))
        original = solvers._FloatView.suffix_values

        def suffix_values(view, b):
            read, level = original(view, b)

            def counted(weights):
                before = len(dots)
                values = read(weights)
                per_population.append(len(dots) - before)
                return values

            return counted, level

        monkeypatch.setattr(solvers._FloatView, "suffix_values", suffix_values)
        result = enumerate_solve(inst)
        size = sum(map(len, view.G[b]))
        assert size < K**b
        assert per_population == [-(-size // K)] * K ** (N - b)
        value, plan, explored, _ = enum_reference(inst)
        assert (result.value.hex(), result.plan, result.nodes_explored) == (value.hex(), plan, explored)

    @pytest.mark.parametrize(
        "d, K, N, level",
        [(5, 5, 6, 2), (5, 8, 6, 2), (4, 9, 4, 1), (3, 9, 5, 1), (5, 5, 3, 1), (4, 9, 3, 1), (4, 6, 2, 1)],
    )
    def test_meeting_level_is_the_deepest_the_groups_cover(self, monkeypatch, d, K, N, level):
        # asked for b = max(N // 2, 1), enumeration meets where G stops below
        # it (K = 5, 8: G covers level 2 only), at b = 1 where G is empty
        # (K = 9: K * K > 64), and at b = 1 without building G where N <= 3
        groups = counting(monkeypatch, solvers, "_suffix_groups")
        inst = random_instance(Random(7420), d, K, N, "float")
        view = solvers._view(inst)
        dots, levels, per_population = [], [], []
        dot = view._dot
        monkeypatch.setattr(view, "_dot", lambda w, Q: dots.append(Q) or dot(w, Q))
        original = solvers._FloatView.suffix_values

        def suffix_values(view, b):
            read, chosen = original(view, b)
            levels.append((b, chosen))

            def counted(weights):
                before = len(dots)
                values = read(weights)
                per_population.append(len(dots) - before)
                return values

            return counted, chosen

        monkeypatch.setattr(solvers._FloatView, "suffix_values", suffix_values)
        result = enumerate_solve(inst)
        assert levels == [(max(N // 2, 1), level)]
        assert len(groups) == int(N > 3)
        if N > 3:  # the deepest level G covers
            assert len(view.G) - 1 == (level if K < 9 else 0)
        chunks = -(-sum(map(len, view.G[level])) // K) if level > 1 else 1
        assert per_population == [chunks] * K ** (N - level)
        value, plan, explored, _ = enum_reference(inst)
        assert (result.value.hex(), result.plan, result.nodes_explored) == (value.hex(), plan, explored)

    def test_one_kernel_shape_and_only_apply_kernels(self, monkeypatch):
        built = counting(monkeypatch, core, "_float_kernel")
        revalued = counting(monkeypatch, solvers._FloatView, "revalue")
        solvers._dot_kernel.cache_clear()
        inst = random_instance(Random(7404), 8, 4, 8, "float")
        enumerate_solve(inst)  # b = 4: 11 vectors of G[4], of 8 entries
        assert solvers._dot_kernel.cache_info().misses == 1
        # the apply kernels, one per matrix, and no other
        assert [len(rows) for rows, in built] == [8] * 4
        assert not hasattr(solvers._view(inst), "fused")
        # of the 256 populations 4 steps from the end, the reads rule out most
        assert 1 <= len(revalued) < 256 // 4


def clear_slot():
    """Forget the prepared instance, as a fresh process starts."""
    core._slot = (None,)


def counting(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the list of calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def all_solver_answers(inst, fresh=False):
    """The value table and every search on ``inst``, in the order a
    benchmark job calls them, with decide just below and just above the
    optimum; ``fresh`` clears the slot before each call."""
    calls = [
        lambda: mdp_value_table(inst).values,
        lambda: enumerate_solve(inst),
        lambda: branch_and_bound_solve(inst),
        lambda: beam_search(inst, 2),
        lambda: beam_search(inst, 16),
    ]
    answers = []
    for call in calls:
        if fresh:
            clear_slot()
        answers.append(call())
    optimum = answers[1].value
    exact = inst.numeric_mode == "exact"
    margin = Fraction(1, 10**6) if exact else 1e-6
    for alpha in (optimum * (1 - margin), min(optimum * (1 + margin), 1)):
        if fresh:
            clear_slot()
        answers.append(decide_threshold(inst, alpha))
    return repr(answers)  # floats compared bit for bit


class TestPreparedInstance:
    """Consecutive solver calls on one instance object share one check, one
    set of tables, one float kernel per matrix and one packed-column build,
    and answer as calls in a fresh process would."""

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_one_preparation_serves_every_call(self, monkeypatch, mode):
        inst = random_instance(Random(7300), 5, 3, 4, mode=mode)
        expected = all_solver_answers(inst, fresh=True)
        clear_slot()
        checks = counting(monkeypatch, core, "_checked_rows")
        kernels = counting(monkeypatch, core, "_float_kernel")
        integer_views = counting(monkeypatch, solvers._IntegerView, "__init__")
        core._kernel_template.cache_clear()
        assert all_solver_answers(inst) == expected
        assert len(checks) == 1
        # per matrix, one apply kernel, all bound from one template: the
        # matrices are dense
        assert len(kernels) == (inst.K if mode == "float" else 0)
        assert core._kernel_template.cache_info().misses == (1 if mode == "float" else 0)
        assert len(integer_views) == (1 if mode == "exact" else 0)

    def test_alternating_objects_are_prepared_each_time(self, monkeypatch):
        a = random_instance(Random(7301), 4, 3, 4, mode="float")
        b = random_instance(Random(7302), 4, 2, 5, mode="exact")
        expected = [all_solver_answers(inst, fresh=True) for inst in (a, b, a)]
        clear_slot()
        checks = counting(monkeypatch, core, "_checked_rows")
        assert [all_solver_answers(inst) for inst in (a, b, a)] == expected
        assert len(checks) == 3

    def test_one_check_serves_reading_solving_evaluating_and_writing(self, monkeypatch):
        clear_slot()
        checks = counting(monkeypatch, core, "_checked_rows")
        fills = counting(monkeypatch, core, "_placed_rows")
        buf = io.StringIO()
        write_artifact(encode_reduction(single_clause_formula()), buf)
        buf.seek(0)
        # the encoder's fill is the written instance's one check
        assert (len(fills), len(checks)) == (1, 0)
        doc = read_instance(buf)
        inst = doc.instance
        assert validate_instance(inst).ok
        for name in sorted(SOLVERS):
            SOLVERS[name](inst)
        attained, plan = decide_threshold(inst, 1)
        assert attained and evaluate_plan(inst, plan) == 1
        decode_assignment(artifact_from_document(doc), plan)
        write_instance(inst, io.StringIO())
        # the version-3 reader's fill is the read instance's one check
        assert (len(fills), len(checks)) == (2, 0)

    def test_alternating_objects_are_checked_each_time_by_every_caller(self, monkeypatch):
        a = random_instance(Random(7308), 4, 3, 4, mode="float")
        b = random_instance(Random(7309), 4, 2, 5, mode="exact")
        clear_slot()
        checks = counting(monkeypatch, core, "_checked_rows")
        for inst in (a, b, a):
            validate_instance(inst)
            evaluate_plan(inst, (0,) * inst.N)
            write_instance(inst, io.StringIO())
        assert len(checks) == 3

    def test_table_then_decision_below_one_builds_the_integer_view_once(self, monkeypatch):
        inst = random_instance(Random(7303), 5, 3, 4, mode="exact")
        clear_slot()
        integer_views = counting(monkeypatch, solvers._IntegerView, "__init__")
        mdp_value_table(inst)
        decide_threshold(inst, Fraction(1, 2))
        assert len(integer_views) == 1

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_invalid_instance_raises_its_first_violation_every_call(self, monkeypatch, solver):
        inst = two_state_instance("float", bad_row=(0.5, 0.6))
        clear_slot()
        checks = counting(monkeypatch, core, "_checked_rows")
        first = rejection(solver, inst)
        assert [rejection(name, inst) for name in sorted(SOLVERS)] == [first] * len(SOLVERS)
        assert len(checks) == 1

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_equal_twin_with_an_int_entry_is_still_rejected(self, solver):
        valid = two_state_instance("float")
        identity = valid.matrices[0]
        twin = Instance(
            matrices=(identity, StochasticMatrix(((0.0, 1), (0.0, 1.0)))), N=2, numeric_mode="float",
        )
        assert twin == valid and hash(twin) == hash(valid)
        for name in sorted(SOLVERS):
            SOLVERS[name](valid)
            assert rejection(solver, twin) == "matrix 1 row 0 entry 1: 1 is not a float"

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_slot_keeps_nothing_alive(self, mode):
        inst = random_instance(Random(7304), 5, 3, 4, mode=mode)
        gc.disable()
        try:
            all_solver_answers(inst)
            views = [solvers._view(inst)]
            if mode == "exact":
                views.append(solvers._view(inst, solvers._SupportView))
            assert core._slot[0]() is inst
            refs = [weakref.ref(view) for view in views] + [weakref.ref(inst)]
            del views, inst
            assert [ref() for ref in refs] == [None] * len(refs)
            assert core._slot == (None,)
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_solved_instance_still_pickles(self, mode):
        inst = random_instance(Random(7305), 5, 3, 4, mode=mode)
        answers = all_solver_answers(inst)
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst
        assert all_solver_answers(copy) == answers

    def test_threads_alternating_two_instances_get_sequential_answers(self):
        instances = (
            random_instance(Random(7306), 5, 3, 4, mode="float"),
            random_instance(Random(7307), 5, 3, 4, mode="exact"),
        )
        expected = [all_solver_answers(inst, fresh=True) for inst in instances]
        callers, rounds = 4, 4
        start = threading.Barrier(callers)
        got = [[] for _ in range(callers)]

        def caller(t):
            start.wait(timeout=60)
            for i in range(rounds):
                got[t].append(all_solver_answers(instances[(i + t) % 2]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=caller, args=(t,)) for t in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        for t in range(callers):
            assert got[t] == [expected[(i + t) % 2] for i in range(rounds)]


def led_by_negative_zero(rng, d, K, N):
    """A sparse float instance whose start weight 0 is -0.0."""
    inst = random_sparse_float_instance(rng, d, K, N)
    start = (-0.0, *random_sparse_float_instance(rng, d - 1, 1, 0).start.weights)
    return Instance(inst.matrices, N, Distribution(start), inst.target, "float")


def with_exact_start(rng, inst, kind):
    """``inst`` with a start led by a Fraction, by an int (a point mass of
    ints), or mixed (its whole weights ints, the others Fractions)."""
    weights = random_exact_distribution(rng, inst.d).weights
    if kind == "int":
        weights = [0] * inst.d
        weights[rng.randrange(inst.d)] = 1
    elif kind == "mixed":
        weights = [int(w) if w.denominator == 1 else w for w in weights]
    return Instance(inst.matrices, inst.N, Distribution(tuple(weights)), inst.target, "exact")


def plan_value_cases():
    rng = Random(7500)
    float_kinds = {
        "dense": lambda d, K, N: random_instance(rng, d, K, N, "float"),
        "sparse": lambda d, K, N: random_sparse_float_instance(rng, d, K, N),
        "tie-heavy": lambda d, K, N: tie_heavy_instance(rng, d, K, N, "float"),
        "-0.0-led": lambda d, K, N: led_by_negative_zero(rng, d, K, N),
    }
    cases = [
        # nothing reaches the target: every later state holds 0.0 there
        pytest.param(
            Instance((StochasticMatrix.identity(2, "float"),), N, Distribution((-0.0, 1.0)), 0, "float"),
            id=f"-0.0-led-identity-N{N}",
        )
        for N in range(3)
    ]
    for kind, build in float_kinds.items():
        for n in range(12):
            inst = build(rng.randint(2, 5), rng.randint(1, 3), n % 5)
            cases.append(pytest.param(inst, id=f"float-{kind}-{n}"))
    for kind in ("fraction", "int", "mixed"):
        for n in range(12):
            d, K, N = rng.randint(1, 5), rng.randint(1, 3), n % 5
            build = random_instance if n % 2 else tie_heavy_instance
            inst = with_exact_start(rng, build(rng, d, K, N, "exact"), kind)
            cases.append(pytest.param(inst, id=f"exact-{kind}-{n}"))
    return cases


class TestPlanValuesAreTheSolversValues:
    """``evaluate_plan`` steps through the form the searches apply matrices
    through, so the value of a solver's plan is the solver's value, with
    the same repr and type, and a decision's witness is valued in the same
    numbers."""

    @pytest.mark.parametrize("inst", plan_value_cases())
    def test_same_repr_and_type(self, inst):
        results = [
            enumerate_solve(inst),
            branch_and_bound_solve(inst),
            beam_search(inst, 1),
            beam_search(inst, inst.K),
        ]
        for result in results:
            value = evaluate_plan(inst, result.plan)
            assert (type(value), repr(value)) == (type(result.value), repr(result.value)), result
        optimum, exact = results[0].value, inst.numeric_mode == "exact"
        for alpha in (0, optimum):
            attained, witness = decide_threshold(inst, alpha)
            value = evaluate_plan(inst, witness)
            assert attained and type(value) is type(optimum)
            assert value >= alpha - (0 if exact else EVAL_TOL)
        if exact:  # the first plan at the optimum is enumeration's
            assert (witness, repr(value)) == (results[0].plan, repr(optimum))
