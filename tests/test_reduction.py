from fractions import Fraction
from itertools import product
from random import Random

import pytest

from timemachine import (
    Clause,
    CnfFormula,
    ReductionArtifact,
    StochasticMatrix,
    VerificationError,
    clause_satisfied,
    decide_threshold,
    decode_assignment,
    encode_reduction,
    evaluate_plan,
    is_canonical_plan,
    normalize_cnf,
    sat_bruteforce,
    satisfying_plan,
    validate_instance,
    verify_roundtrip,
)
from timemachine import core
from timemachine.solvers import BudgetExceededError

from helpers import (
    all_patterns_formula,
    formula_satisfiable_bruteforce,
    random_normal_formula,
    random_raw_clauses,
    raw_satisfiable,
    single_clause_formula,
)


class TestClause:
    def test_satisfied_when_any_sign_differs(self):
        clause = Clause(((0, -1), (1, -1), (2, -1)))
        assert clause_satisfied(clause, (1, 1, 1))

    def test_falsified_only_by_its_own_pattern(self):
        clause = Clause(((0, -1), (1, -1), (2, -1)))
        assert not clause_satisfied(clause, (-1, -1, -1))

    def test_exactly_seven_of_eight_patterns_satisfy(self):
        clause = Clause(((0, 1), (1, -1), (2, 1)))
        satisfied = sum(
            clause_satisfied(clause, assignment)
            for assignment in product((-1, 1), repeat=3)
        )
        assert satisfied == 7

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Clause(((0, 1), (0, -1), (2, 1)))

    def test_formula_requires_every_variable_to_occur(self):
        with pytest.raises(ValueError, match="occur"):
            CnfFormula(4, (Clause(((0, 1), (1, 1), (2, 1))),))


class TestNormalize:
    def test_already_normal_is_unchanged(self):
        raw = [[(0, 1), (1, -1), (2, 1)]]
        result = normalize_cnf(raw, 3)
        formula = result.formula
        assert not result.trivially_satisfiable and not result.found_empty_clause
        assert formula.num_vars == 3
        assert formula.clauses == (Clause(((0, -1), (1, 1), (2, -1))),)

    def test_unit_clause_padding_forces_the_literal(self):
        result = normalize_cnf([[(0, 1)]], 1)
        formula = result.formula
        assert formula.num_vars == 3
        assert formula.num_clauses == 4
        # padding covers all four sign patterns of the two fresh variables
        patterns = {tuple(s for _, s in c.literals[1:]) for c in formula.clauses}
        assert patterns == set(product((-1, 1), repeat=2))
        # equisatisfiable, and every model of the padded formula sets x0 = +
        assert formula_satisfiable_bruteforce(formula)
        for assignment in product((-1, 1), repeat=3):
            if all(
                tuple(assignment[v] for v in c.variables) != c.forbidden
                for c in formula.clauses
            ):
                assert assignment[0] == 1

    def test_binary_clause_padding(self):
        raw = [[(0, 1), (1, -1)]]
        result = normalize_cnf(raw, 2)
        assert result.formula.num_vars == 3
        assert result.formula.num_clauses == 2
        assert raw_satisfiable(raw, 2) == formula_satisfiable_bruteforce(result.formula)

    def test_wide_clause_split_preserves_satisfiability(self):
        raw = [[(0, 1), (1, 1), (2, 1), (3, 1)]]
        result = normalize_cnf(raw, 4)
        formula = result.formula
        assert formula.num_clauses == 2
        assert formula.num_vars == 5
        assert raw_satisfiable(raw, 4) == formula_satisfiable_bruteforce(formula)

    def test_wide_clause_split_tracks_unsatisfiable_context(self):
        # x0 is forced false by four unit-ish clauses, so the wide clause
        # collapses; brute force on both sides must agree.
        rng = Random(5)
        for _ in range(20):
            num_vars = rng.randint(1, 4)
            raw = random_raw_clauses(rng, num_vars, rng.randint(1, 4))
            result = normalize_cnf(raw, num_vars)
            if result.found_empty_clause:
                continue
            if result.trivially_satisfiable:
                assert raw_satisfiable(raw, num_vars)
                continue
            assert raw_satisfiable(raw, num_vars) == formula_satisfiable_bruteforce(
                result.formula
            )

    def test_duplicate_literals_deduplicated(self):
        result = normalize_cnf([[(0, 1), (0, 1), (1, -1), (2, 1)]], 3)
        assert result.formula.clauses == (Clause(((0, -1), (1, 1), (2, -1))),)

    def test_tautology_dropped(self):
        result = normalize_cnf([[(0, 1), (0, -1)], [(0, 1), (1, 1), (2, 1)]], 3)
        assert result.formula.num_clauses == 1

    def test_all_tautologies_is_trivially_satisfiable(self):
        result = normalize_cnf([[(0, 1), (0, -1)]], 1)
        assert result.trivially_satisfiable
        assert result.formula == CnfFormula(0, ())

    def test_empty_clause_is_distinguished(self):
        result = normalize_cnf([[(0, 1)], []], 1)
        assert result.found_empty_clause
        assert result.formula is None

    def test_unused_variables_compacted(self):
        result = normalize_cnf([[(0, 1), (2, 1), (4, 1)]], 5)
        assert result.formula.num_vars == 3
        assert result.formula.clauses[0].variables == (0, 1, 2)

    def test_empty_clause_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_cnf([], 3)


class TestEncode:
    def test_single_clause_sizes(self):
        art = encode_reduction(single_clause_formula())
        inst = art.instance
        assert (inst.d, inst.K, inst.N) == (13, 9, 3)
        assert art.p == Fraction(1, 4)

    def test_eight_clause_sizes(self):
        art = encode_reduction(all_patterns_formula())
        inst = art.instance
        assert (inst.d, inst.K, inst.N) == (20, 58, 10)
        assert art.p == Fraction(1, 11)

    def test_death_row_is_absorbing_everywhere(self):
        art = encode_reduction(single_clause_formula())
        death = art.state_table["d"]
        unit = tuple(
            Fraction(1) if j == death else Fraction(0) for j in range(art.instance.d)
        )
        for matrix in art.instance.matrices:
            assert matrix.rows[death] == unit

    def test_entries_are_zero_one_except_split_row(self):
        art = encode_reduction(single_clause_formula())
        start_row = art.state_table["s"]
        for k, matrix in enumerate(art.instance.matrices):
            for i, row in enumerate(matrix.rows):
                if k == art.matrix_table["S"] and i == start_row:
                    assert sum(1 for x in row if x == art.p) == 4  # n + m packets
                    assert all(x in (Fraction(0), art.p) for x in row)
                else:
                    assert all(x in (Fraction(0), Fraction(1)) for x in row)

    def test_encoded_instance_is_exactly_valid(self):
        art = encode_reduction(all_patterns_formula())
        report = validate_instance(art.instance)
        assert report.ok
        split = art.instance.matrices[art.matrix_table["S"]].rows[art.state_table["s"]]
        assert sum(split) == 1

    def test_matrix_labels_follow_layout(self):
        art = encode_reduction(single_clause_formula())
        labels = [m.label for m in art.instance.matrices]
        assert labels[:2] == ["S", "F"]
        # forbidden pattern (-,-,-) is skipped: seven tuples in lex order
        assert labels[2:] == [
            "T0:mmp", "T0:mpm", "T0:mpp", "T0:pmm", "T0:pmp", "T0:ppm", "T0:ppp",
        ]
        assert art.matrix_table["T0:ppm"] == labels.index("T0:ppm")

    def test_artifact_size_accessors(self):
        art = encode_reduction(all_patterns_formula())
        assert art.num_vars == 3
        assert art.num_clauses == 8

    def test_empty_formula_rejected(self):
        with pytest.raises(ValueError, match="no clauses"):
            encode_reduction(CnfFormula(0, ()))


class TestPlans:
    def test_single_clause_plan_reaches_one(self):
        art = encode_reduction(single_clause_formula())
        plan = satisfying_plan(art, (1, 1, 1))
        assert len(plan) == 3
        assert evaluate_plan(art.instance, plan) == 1

    def test_two_disjoint_clauses(self):
        formula = CnfFormula(
            6,
            (
                Clause(((0, -1), (1, -1), (2, -1))),
                Clause(((3, 1), (4, 1), (5, 1))),
            ),
        )
        art = encode_reduction(formula)
        assert art.instance.N == 4
        plan = satisfying_plan(art, (1, 1, 1, -1, -1, -1))
        assert len(plan) == 4
        assert evaluate_plan(art.instance, plan) == 1

    def test_unsatisfying_assignment_names_the_clause(self):
        art = encode_reduction(single_clause_formula())
        with pytest.raises(ValueError, match="clause 0"):
            satisfying_plan(art, (-1, -1, -1))

    def test_decode_round_trip(self):
        art = encode_reduction(single_clause_formula())
        for assignment in product((-1, 1), repeat=3):
            if assignment == (-1, -1, -1):
                continue
            plan = satisfying_plan(art, assignment)
            assert decode_assignment(art, plan) == assignment

    def test_every_satisfying_assignment_yields_a_value_one_plan(self):
        rng = Random(2026)
        for _ in range(5):
            formula = random_normal_formula(rng, rng.randint(3, 4), rng.randint(1, 4))
            art = encode_reduction(formula)
            for assignment in product((-1, 1), repeat=formula.num_vars):
                if all(clause_satisfied(c, assignment) for c in formula.clauses):
                    plan = satisfying_plan(art, assignment)
                    assert evaluate_plan(art.instance, plan) == 1

    def test_decode_of_found_witness_satisfies_formula(self):
        formula = single_clause_formula()
        art = encode_reduction(formula)
        attained, witness = decide_threshold(art.instance, Fraction(1))
        assert attained
        decoded = decode_assignment(art, witness)
        assert all(clause_satisfied(c, decoded) for c in formula.clauses)

    def test_decode_rejects_plans_below_one(self):
        art = encode_reduction(single_clause_formula())
        bad = (0, 0, 1)  # reapplying S kills every packet
        assert evaluate_plan(art.instance, bad) < 1
        with pytest.raises(ValueError, match="not 1"):
            decode_assignment(art, bad)

    @pytest.mark.parametrize("plan", [(0, 2), (0, 2, 1, 1)])
    def test_decode_rejects_plans_of_another_length(self, plan):
        art = encode_reduction(single_clause_formula())
        message = rf"plan has {len(plan)} steps, instance horizon is 3"
        with pytest.raises(ValueError, match=message):
            decode_assignment(art, plan)

    def test_decode_walks_the_plan_once(self, monkeypatch):
        art = encode_reduction(single_clause_formula())
        plan = satisfying_plan(art, (1, 1, 1))
        applied = []
        step = core._IntegerForm.apply
        monkeypatch.setattr(
            core._IntegerForm, "apply", lambda form, w, k: applied.append(k) or step(form, w, k)
        )
        assert decode_assignment(art, plan) == (1, 1, 1)
        assert len(applied) == len(plan)

    def test_decode_flags_corrupted_artifact(self):
        real = encode_reduction(single_clause_formula())
        d = real.instance.d
        from timemachine import Instance

        fake_instance = Instance(
            matrices=tuple(StochasticMatrix.identity(d) for _ in range(3)),
            N=3,
            numeric_mode="exact",
        )
        fake = ReductionArtifact(
            instance=fake_instance,
            state_table=dict(real.state_table),
            matrix_table=dict(real.matrix_table),
            p=real.p,
        )
        with pytest.raises(ValueError, match="neither"):
            decode_assignment(fake, (0, 1, 2))

    def test_death_leak_forecloses_full_recovery(self):
        # Applying F right after S sends the freshly split packets to death;
        # no completion can reach value 1 afterwards.
        art = encode_reduction(single_clause_formula())
        plan = (0, 1, 1)
        trajectory_value = evaluate_plan(art.instance, plan)
        assert trajectory_value < 1

    def test_canonical_plan_shape(self):
        art = encode_reduction(single_clause_formula())
        plan = satisfying_plan(art, (1, 1, 1))
        assert is_canonical_plan(art, plan)
        assert not is_canonical_plan(art, (0, 0, 1))
        assert not is_canonical_plan(art, (1, 2, 0))

    @pytest.mark.parametrize("step", [2.0, "2", True, 9])
    def test_plan_step_that_is_no_matrix_index_rejected(self, step):
        art = encode_reduction(single_clause_formula())
        plan = satisfying_plan(art, (1, 1, 1))
        bad = (plan[0], step, plan[2])
        for check in (is_canonical_plan, decode_assignment):
            with pytest.raises(ValueError, match="plan step 1: matrix index"):
                check(art, bad)


class TestSatBruteforce:
    def test_single_clause_lex_first_witness(self):
        satisfiable, witness = sat_bruteforce(single_clause_formula())
        assert satisfiable
        assert witness == (-1, -1, 1)

    def test_all_patterns_unsatisfiable(self):
        satisfiable, witness = sat_bruteforce(all_patterns_formula())
        assert not satisfiable
        assert witness is None

    def test_empty_formula_trivially_satisfiable(self):
        satisfiable, witness = sat_bruteforce(CnfFormula(0, ()))
        assert satisfiable
        assert witness == ()

    def test_budget(self):
        clauses = []
        for base in range(0, 24, 3):
            clauses.append(Clause(((base, 1), (base + 1, 1), (base + 2, 1))))
        clauses.append(Clause(((23, 1), (24, 1), (25, 1))))
        formula = CnfFormula(26, tuple(clauses))
        with pytest.raises(BudgetExceededError):
            sat_bruteforce(formula)


class TestRoundtrip:
    def test_satisfiable_single_clause(self):
        report = verify_roundtrip(single_clause_formula())
        assert report.satisfiable and report.threshold_attained
        assert report.sat_witness == (-1, -1, 1)
        assert evaluate_plan(
            encode_reduction(single_clause_formula()).instance, report.witness_plan
        ) == 1

    def test_unsatisfiable_eight_clauses(self):
        report = verify_roundtrip(all_patterns_formula())
        assert not report.satisfiable and not report.threshold_attained

    def test_seeded_random_formulas_agree(self):
        rng = Random(424242)
        for _ in range(15):
            formula = random_normal_formula(rng, rng.randint(3, 4), rng.randint(1, 6))
            report = verify_roundtrip(formula)
            assert report.satisfiable == report.threshold_attained

    def test_budget_guard(self):
        rng = Random(7)
        formula = random_normal_formula(rng, 12, 11)
        with pytest.raises(BudgetExceededError):
            verify_roundtrip(formula)

    def test_disagreement_raises(self, monkeypatch):
        # A disagreement cannot be produced through the public surface, so
        # stub the decision procedure into lying to exercise the error path.
        import timemachine.reduction as reduction_module

        monkeypatch.setattr(
            reduction_module, "decide_threshold", lambda inst, alpha: (False, None)
        )
        with pytest.raises(VerificationError, match="satisfiable"):
            verify_roundtrip(single_clause_formula())
