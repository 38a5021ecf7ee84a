from fractions import Fraction
from itertools import product
from random import Random

import pytest

from timemachine import (
    BudgetExceededError,
    Instance,
    StochasticMatrix,
    apply,
    beam_search,
    branch_and_bound_solve,
    decide_threshold,
    enumerate_solve,
    evaluate_plan,
    mdp_value_table,
)
from timemachine.reduction import encode_reduction, sat_bruteforce

from helpers import (
    all_patterns_formula,
    matrix_power,
    random_instance,
    single_clause_formula,
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

    def test_empty_horizon(self):
        result = enumerate_solve(identity_instance(N=0))
        assert result.value == 1
        assert result.plan == ()


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
    (7, "bnb", 0.21207698341970116, (0, 1, 1, 1, 1), 126, 237),
    (7, "beam1", 0.2056750177750979, (1, 2, 0, 0, 1), 15, 10),
    (7, "beam4", 0.20588470145199037, (0, 1, 0, 0, 1), 48, 29),
    (8, "bnb", 0.1593653521715404, (0, 1, 0, 1, 0, 0), 66, 60),
    (8, "beam1", 0.15591518714727198, (1, 1, 0, 1, 1, 0), 12, 6),
    (8, "beam4", 0.15591518714727198, (1, 1, 0, 1, 1, 0), 38, 16),
    (9, "bnb", Fraction(5190148559, 21227005800), (0, 0, 1, 2), 40, 68),
    (9, "beam1", Fraction(8262094277, 35983101000), (0, 2, 2, 1), 12, 8),
    (9, "beam4", Fraction(271580224529, 1167485319000), (0, 0, 2, 1), 36, 21),
    (10, "bnb", Fraction(595312999368716977, 2105326440574156800), (0, 1, 1, 0, 1), 35, 27),
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


def pinned_instance(seed):
    d, K, N, mode = PINNED_INSTANCES[seed]
    return random_instance(Random(seed), d, K, N, mode=mode)


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

    def test_bnb_on_satisfiable_reduction(self):
        result = branch_and_bound_solve(encode_reduction(single_clause_formula()).instance)
        assert (result.value, result.plan) == (1, (0, 2, 1))
        assert (result.nodes_explored, result.nodes_pruned) == (5, 31)

    def test_decide_witness_at_alpha_one(self):
        art = encode_reduction(single_clause_formula())
        assert decide_threshold(art.instance, Fraction(1)) == (True, (0, 2, 1))

    @pytest.mark.parametrize("seed,alpha,witness", PINNED_DECISIONS)
    def test_decide_witness_below_one(self, seed, alpha, witness):
        assert decide_threshold(pinned_instance(seed), alpha) == (True, witness)
