import io
from fractions import Fraction
from random import Random

import pytest

from timemachine import (
    Distribution,
    Instance,
    ReductionArtifact,
    StochasticMatrix,
    apply,
    decide_threshold,
    evaluate_plan,
    mdp_value_table,
    read_instance,
    trajectory,
    validate_instance,
    write_instance,
)
from timemachine import core
from timemachine.reduction import decode_assignment, encode_reduction, satisfying_plan

from helpers import (
    all_patterns_formula,
    assert_filled_as_checked,
    chain_value_oracle,
    dense_apply_reference,
    dense_trajectory_reference,
    instance_v1_text,
    instance_v2_text,
    planted_formula,
    random_exact_distribution,
    random_exact_matrix,
    random_float_distribution,
    random_instance,
    random_sparse_float_instance,
    random_sparse_float_weights,
    single_clause_formula,
    tie_heavy_instance,
)


def identity_instance(d=2, K=2, N=3, mode="exact"):
    return Instance(
        matrices=tuple(StochasticMatrix.identity(d, mode) for _ in range(K)),
        N=N,
        numeric_mode=mode,
    )


class TestValidateInstance:
    def test_identity_instance_is_ok(self):
        report = validate_instance(identity_instance())
        assert report.ok
        assert report.violations == ()

    def test_float_row_sum_out_of_tolerance(self):
        bad = StochasticMatrix(((0.5, 0.48), (0.0, 1.0)))
        inst = Instance(matrices=(bad,), N=1, numeric_mode="float")
        report = validate_instance(inst)
        assert not report.ok
        assert any("row 0" in v and "0.98" in v for v in report.violations)

    def test_negative_entry_is_named(self):
        bad = StochasticMatrix(((-0.1, 1.1), (0.0, 1.0)))
        inst = Instance(matrices=(bad,), N=1, numeric_mode="float")
        report = validate_instance(inst)
        assert any("row 0 entry 0" in v for v in report.violations)
        assert any("row 0 entry 1" in v for v in report.violations)

    def test_mode_mixing_is_flagged(self):
        mixed = StochasticMatrix(((Fraction(1, 2), 0.5), (Fraction(0), Fraction(1))))
        inst = Instance(matrices=(mixed,), N=1, numeric_mode="exact")
        report = validate_instance(inst)
        assert any("row 0 entry 1" in v for v in report.violations)

    def test_nan_rejected(self):
        bad = StochasticMatrix(((float("nan"), 1.0), (0.0, 1.0)))
        inst = Instance(matrices=(bad,), N=1, numeric_mode="float")
        assert not validate_instance(inst).ok

    def test_bad_target(self):
        inst = Instance(matrices=(StochasticMatrix.identity(2),), N=1, target=5)
        report = validate_instance(inst)
        assert any("target" in v for v in report.violations)


def _bad_exact_instance():
    shared = (Fraction(3, 2), Fraction(-1, 2), Fraction(0))  # one row object, two matrices
    good = (Fraction(0), Fraction(1), Fraction(0))
    return Instance(
        matrices=(
            StochasticMatrix((good, shared, (Fraction(1), 0.0, Fraction(0)))),
            StochasticMatrix(
                ((True, Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 3), Fraction(0)), (1, 1, 0)),
                label="x1+",
            ),
            StochasticMatrix((shared, (0, 0, 0), (Fraction(1),)), label="shared"),
            StochasticMatrix((good, good)),
            StochasticMatrix((("1/2", Fraction(1, 2), Fraction(0)), good, (Fraction(1, 4), Fraction(3, 4), -0.0))),
        ),
        N=-1,
        start=Distribution((Fraction(1, 2), 0.5, Fraction(-1, 2))),
        target=3,
        numeric_mode="exact",
    )


def _bad_float_instance():
    shared = (0.7, 0.7, 0.0)
    return Instance(
        matrices=(
            StochasticMatrix(((0.0, 0.0, 0.0), shared, (-0.0, 1.0, 0.0)), label="a"),
            StochasticMatrix(((float("nan"), 0.5, 0.5), (float("inf"), 0.0, 0.0), (1, 0.0, 0.0))),
            StochasticMatrix(((Fraction(1), 0.0, 0.0), (0.5, 0.48, 0.0), (-0.25, 1.25, 0.0))),
            StochasticMatrix(((0.0, 1.0, 0.0), shared, (False, 1.0, 0.0)), label="b"),
            StochasticMatrix(((0.1, 0.0, 0.2), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))),
        ),
        N=2,
        start=Distribution((0.5, 0.5000001, 0.0)),
        numeric_mode="float",
    )


class TestPinnedViolations:
    """The exact violation tuples, text and order, on instances that break
    every invariant at once; a shared bad row is reported at each place."""

    def test_exact_instance(self):
        assert validate_instance(_bad_exact_instance()).violations == (
            "horizon N must be >= 0, got -1",
            "target index 3 out of range for d=3",
            "start entry 1: 0.5 is not an exact rational",
            "start entry 2: Fraction(-1, 2) is negative",
            "matrix 0 row 1 entry 0: Fraction(3, 2) outside [0, 1]",
            "matrix 0 row 1 entry 1: Fraction(-1, 2) outside [0, 1]",
            "matrix 0 row 2 entry 1: 0.0 is not an exact rational",
            "matrix 1 ('x1+') row 0 entry 0: booleans are not numeric values",
            "matrix 1 ('x1+') row 1: mass 5/6 != 1",
            "matrix 1 ('x1+') row 2: mass 2 != 1",
            "matrix 2 ('shared') row 0 entry 0: Fraction(3, 2) outside [0, 1]",
            "matrix 2 ('shared') row 0 entry 1: Fraction(-1, 2) outside [0, 1]",
            "matrix 2 ('shared') row 1: mass 0 != 1",
            "matrix 2 ('shared') row 2: has 1 entries, expected 3",
            "matrix 3: has 2 rows, expected 3",
            "matrix 4 row 0 entry 0: '1/2' is not an exact rational",
            "matrix 4 row 2 entry 2: -0.0 is not an exact rational",
        )

    def test_float_instance(self):
        assert validate_instance(_bad_float_instance()).violations == (
            "start: mass 1.0000000999999998 not within 1e-09 of 1",
            "matrix 0 ('a') row 0: mass 0.0 not within 1e-09 of 1",
            "matrix 0 ('a') row 1: mass 1.4 not within 1e-09 of 1",
            "matrix 1 row 0 entry 0: nan is not finite",
            "matrix 1 row 1 entry 0: inf is not finite",
            "matrix 1 row 2 entry 0: 1 is not a float",
            "matrix 2 row 0 entry 0: Fraction(1, 1) is not a float",
            "matrix 2 row 1: mass 0.98 not within 1e-09 of 1",
            "matrix 2 row 2 entry 0: -0.25 outside [0, 1]",
            "matrix 2 row 2 entry 1: 1.25 outside [0, 1]",
            "matrix 3 ('b') row 1: mass 1.4 not within 1e-09 of 1",
            "matrix 3 ('b') row 2 entry 0: booleans are not numeric values",
            "matrix 4 row 0: mass 0.30000000000000004 not within 1e-09 of 1",
        )

    @pytest.mark.parametrize("make", [_bad_exact_instance, _bad_float_instance])
    @pytest.mark.parametrize("plan", [(), (0, 0), (99,), ("x",)])
    def test_evaluation_and_writer_raise_the_first_violation(self, make, plan):
        # the instance is checked before the plan, whatever is wrong with it
        inst = make()
        first = validate_instance(inst).violations[0]
        artifact = ReductionArtifact(inst, {}, {}, Fraction(1, 2))
        buf = io.StringIO()
        calls = [
            lambda: evaluate_plan(inst, plan),
            lambda: trajectory(inst, plan),
            lambda: decode_assignment(artifact, plan),
            lambda: write_instance(inst, buf),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == first
        assert buf.getvalue() == ""

    @pytest.mark.parametrize(
        "inst, violations",
        [
            (
                Instance(matrices=(), N=1, start=Distribution((1.0,)), numeric_mode="float"),
                ("instance must contain at least one matrix",),
            ),
            (
                Instance(matrices=(StochasticMatrix.identity(2),), N=1, numeric_mode="fuzzy"),
                ("numeric_mode must be 'exact' or 'float', got 'fuzzy'",),
            ),
            (
                Instance(
                    matrices=(StochasticMatrix.identity(2, "float"),),
                    N=1,
                    start=Distribution((1, 0)),
                    numeric_mode="float",
                ),
                ("start entry 0: 1 is not a float", "start entry 1: 0 is not a float"),
            ),
            (
                Instance(
                    matrices=(StochasticMatrix.identity(2),),
                    N=1,
                    start=Distribution((Fraction(1, 3), Fraction(1, 3))),
                    numeric_mode="exact",
                ),
                ("start: mass 2/3 != 1",),
            ),
            (
                Instance(
                    matrices=(StochasticMatrix(((2, -1), (0, 1))),), N=1, numeric_mode="exact"
                ),
                ("matrix 0 row 0 entry 0: 2 outside [0, 1]", "matrix 0 row 0 entry 1: -1 outside [0, 1]"),
            ),
        ],
    )
    def test_instance_level_violations(self, inst, violations):
        assert validate_instance(inst).violations == violations


class TestApply:
    def test_identity_fixes_point_mass(self):
        v = Distribution.unit(2, 0)
        assert apply(v, StochasticMatrix.identity(2)).weights == (Fraction(1), Fraction(0))

    def test_deterministic_transition(self):
        v = Distribution.unit(2, 0)
        shift = StochasticMatrix(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))
        assert apply(v, shift).weights == (Fraction(0), Fraction(1))

    def test_hand_computed_product(self):
        # (1/2, 1/2) @ [[1/2, 1/2], [0, 1]] = (1/4, 3/4)
        v = Distribution((Fraction(1, 2), Fraction(1, 2)))
        T = StochasticMatrix(
            ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)))
        )
        assert apply(v, T).weights == (Fraction(1, 4), Fraction(3, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply(Distribution.unit(3, 0), StochasticMatrix.identity(2))

    def test_empty_distribution_is_a_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: distribution has 0 entries"):
            apply(Distribution(()), StochasticMatrix(()))

    def test_matches_the_dense_loop(self):
        rng = Random(20241)
        for _ in range(100):
            inst = random_sparse_float_instance(rng, rng.randint(1, 6), 1, 1)
            got = apply(inst.start, inst.matrices[0]).weights
            expected = dense_apply_reference(inst.start.weights, inst.matrices[0].rows)
            assert list(map(float.hex, got)) == list(map(float.hex, expected))

    def test_simplex_preserved_on_seeded_cases(self):
        rng = Random(20240)
        for _ in range(200):
            d = rng.randint(1, 6)
            inst = random_instance(rng, d, 1, 1, mode=rng.choice(["float", "exact"]))
            out = apply(inst.start, inst.matrices[0])
            assert all(w >= 0 for w in out.weights)
            total = sum(out.weights)
            if inst.numeric_mode == "exact":
                assert total == 1
            else:
                assert abs(total - 1) <= 1e-9


class TestEvaluatePlan:
    def test_empty_plan_reads_start(self):
        inst = identity_instance(N=0)
        assert evaluate_plan(inst, ()) == 1

    def test_all_identity_any_plan(self):
        inst = identity_instance(d=3, K=2, N=4)
        assert evaluate_plan(inst, (0, 1, 1, 0)) == 1

    def test_matches_chain_product_oracle(self):
        rng = Random(777)
        inst = random_instance(rng, d=4, K=3, N=5, mode="float")
        for _ in range(25):
            plan = tuple(rng.randrange(3) for _ in range(5))
            assert evaluate_plan(inst, plan) == pytest.approx(
                chain_value_oracle(inst, plan), abs=1e-12
            )

    def test_wrong_length_rejected(self):
        inst = identity_instance(N=3)
        with pytest.raises(ValueError, match="plan has 2 steps"):
            evaluate_plan(inst, (0, 0))

    def test_index_out_of_range(self):
        inst = identity_instance(K=2, N=1)
        with pytest.raises(ValueError, match="out of range"):
            evaluate_plan(inst, (2,))

    @pytest.mark.parametrize("step", [0.0, 0.5, "0", True, None])
    def test_non_integer_step_rejected(self, step):
        inst = identity_instance(K=1, N=2)
        for check in (evaluate_plan, trajectory):
            message = rf"plan step 1: matrix index must be an int, got {step!r}"
            with pytest.raises(ValueError, match=message):
                check(inst, (0, step))

    def test_value_in_unit_interval_and_consistent_with_trajectory(self):
        rng = Random(555)
        for _ in range(40):
            mode = rng.choice(["float", "exact"])
            d, K, N = rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 5)
            inst = random_instance(rng, d, K, N, mode=mode)
            plan = tuple(rng.randrange(K) for _ in range(N))
            value = evaluate_plan(inst, plan)
            assert 0 <= value <= 1
            tail = trajectory(inst, plan)[-1].weights[inst.target]
            if mode == "exact":
                assert value == tail
            else:
                assert abs(value - tail) <= 1e-12

    @pytest.mark.parametrize(
        "row, message",
        [
            # both were evaluated without a check, to 1 and to 0.5
            ((1, 1), "matrix 0 row 0: mass 2 != 1"),
            ((0.5, Fraction(1, 2)), "matrix 0 row 0 entry 0: 0.5 is not an exact rational"),
        ],
    )
    def test_invalid_exact_instance_is_rejected(self, row, message):
        matrix = StochasticMatrix((row, (Fraction(0), Fraction(1))))
        inst = Instance(matrices=(matrix,), N=1, numeric_mode="exact")
        with pytest.raises(ValueError) as err:
            evaluate_plan(inst, (0,))
        assert str(err.value) == message

    def test_exact_mode_is_bit_deterministic(self):
        rng = Random(99)
        inst = random_instance(rng, 4, 2, 5, mode="exact")
        plan = (0, 1, 0, 1, 1)
        first = evaluate_plan(inst, plan)
        second = evaluate_plan(inst, plan)
        assert isinstance(first, Fraction)
        assert (first.numerator, first.denominator) == (second.numerator, second.denominator)


class TestTrajectory:
    def test_empty_plan(self):
        inst = identity_instance()
        points = trajectory(inst, ())
        assert len(points) == 1
        assert points[0] == inst.start

    def test_two_state_shift(self):
        shift = StochasticMatrix(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))
        inst = Instance(matrices=(shift,), N=1, numeric_mode="exact")
        points = trajectory(inst, (0,))
        assert [p.weights for p in points] == [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ]

    def test_longer_than_horizon_rejected(self):
        inst = identity_instance(N=1)
        with pytest.raises(ValueError, match="longer than horizon"):
            trajectory(inst, (0, 0))

    def test_reduction_packet_trace(self):
        # One satisfiable clause: after the split the mass sits on the
        # variable and clause states, after the clause matrix on the signed
        # variable states plus the tally, and after the final matrix all of
        # it is back on the start state.
        formula = single_clause_formula()
        art = encode_reduction(formula)
        plan = satisfying_plan(art, (1, 1, 1))
        points = trajectory(art.instance, plan)
        st = art.state_table

        def support(point):
            return {i for i, w in enumerate(point.weights) if w > 0}

        assert support(points[0]) == {st["s"]}
        assert support(points[1]) == {st["x0"], st["x1"], st["x2"], st["c0"]}
        assert support(points[2]) == {st["x0+"], st["x1+"], st["x2+"], st["f"]}
        assert support(points[3]) == {st["s"]}
        assert points[3].weights[st["s"]] == 1


def typed(weights):
    return [(type(x), x) for x in weights]


def as_fractions(weights):
    """``typed`` of ``weights`` with every weight read as a Fraction."""
    return [(Fraction, x) for x in weights]


class TestDenseIdentity:
    """Plan states, through the instance's float or integer form, match
    the dense loop the library ran before: floats bit for bit, from a +0.0
    start of each sum, and exact states by value, every state after the
    start a Fraction."""

    def test_float_states_match_bit_for_bit(self):
        # a -0.0 first start weight leaves +0.0 where nothing lands, as
        # the search kernels do
        rng = Random(20242)
        for _ in range(150):
            d, K, N = rng.randint(1, 7), rng.randint(1, 3), rng.randint(0, 5)
            inst = random_sparse_float_instance(rng, d, K, N)
            plan = tuple(rng.randrange(K) for _ in range(N))
            got = [list(map(float.hex, p.weights)) for p in trajectory(inst, plan)]
            reference = dense_trajectory_reference(inst, plan, zero=0.0)
            assert got == [list(map(float.hex, w)) for w in reference]

    @pytest.mark.parametrize("start_kind", ["fraction", "int", "mixed"])
    def test_exact_states_match_by_value_and_type(self, start_kind):
        rng = Random(20243)
        for _ in range(60):
            d, K, N = rng.randint(1, 6), rng.randint(1, 3), rng.randint(0, 5)
            inst = random_instance(rng, d, K, N, mode="exact")
            if start_kind != "fraction":
                weights = [0] * d
                weights[rng.randrange(d)] = 1
                if start_kind == "mixed" and d > 1:
                    weights = [Fraction(1, 2), Fraction(1, 2)] + [0] * (d - 2)
                inst = Instance(
                    matrices=inst.matrices,
                    N=N,
                    start=Distribution(tuple(weights)),
                    target=inst.target,
                    numeric_mode="exact",
                )
            plan = tuple(rng.randrange(K) for _ in range(N))
            got = [typed(p.weights) for p in trajectory(inst, plan)]
            start, *later = dense_trajectory_reference(inst, plan)
            assert got == [typed(start), *map(as_fractions, later)]


def parts_row(rng, d, denominator, whole_as_int=False):
    """A random stochastic row in multiples of 1/denominator; with
    ``whole_as_int`` its entries 0 and 1 are plain ints."""
    counts = [0] * d
    for _ in range(denominator):
        counts[rng.randrange(d)] += 1
    return tuple(
        c // denominator if whole_as_int and c % denominator == 0 else Fraction(c, denominator)
        for c in counts
    )


def parts_instance(rng, d, K, N, row_denominators, start_denominator, whole_as_int=False):
    """An exact instance with rows in multiples of one of ``row_denominators``
    and a Fraction start in multiples of 1/start_denominator."""
    matrices = tuple(
        StochasticMatrix(
            tuple(parts_row(rng, d, rng.choice(row_denominators), whole_as_int) for _ in range(d))
        )
        for _ in range(K)
    )
    start = Distribution(parts_row(rng, d, start_denominator))
    return Instance(matrices, N, start, rng.randrange(d), "exact")


class TestExactPlanStates:
    """Exact plan states walk the instance's integer form and read back as
    the dense loop's Fractions, by value and type, at every prefix."""

    def assert_dense(self, inst, plan):
        expected = [typed(w) for w in dense_trajectory_reference(inst, plan)]
        for t in range(len(plan) + 1):
            assert [typed(p.weights) for p in trajectory(inst, plan[:t])] == expected[: t + 1]
        assert typed([evaluate_plan(inst, plan)]) == [expected[-1][inst.target]]

    @pytest.mark.parametrize(
        "rows, start, whole_as_int",
        [
            ((2, 7), 5, False),  # start denominators absent from the rows
            ((2, 7), 5, True),  # int entries beside Fraction ones
            ((1,), 1, False),  # 0/1 entries, L = 1
            ((1,), 1, True),
            ((1, 3), 4, True),
        ],
    )
    def test_states_match_the_dense_loop(self, rows, start, whole_as_int):
        rng = Random(20244 + start)
        for _ in range(40):
            d, K, N = rng.randint(1, 6), rng.randint(1, 3), rng.randint(0, 6)
            inst = parts_instance(rng, d, K, N, rows, start, whole_as_int)
            self.assert_dense(inst, tuple(rng.randrange(K) for _ in range(N)))

    @pytest.mark.parametrize("solve_first", [False, True])
    def test_solver_and_evaluation_share_one_integer_form(self, solve_first):
        from timemachine import branch_and_bound_solve, core, solvers

        rng = Random(20245)
        for _ in range(10):
            inst = parts_instance(rng, 4, 3, 4, (2, 7), 5)
            plan = tuple(rng.randrange(3) for _ in range(4))
            if solve_first:
                branch_and_bound_solve(inst)
            self.assert_dense(inst, plan)
            result = branch_and_bound_solve(inst)
            self.assert_dense(inst, plan)
            assert evaluate_plan(inst, result.plan) == result.value
            form = core._derived(inst, core._IntegerForm)
            view = solvers._view(inst)
            assert (view.moved, view.start, view.base) == (form.moved, form.start, form.base)
            assert view.moved is form.moved

    def test_int_first_start_weight_walks_the_integer_form(self, monkeypatch):
        from timemachine import core

        steps = []
        step = core._IntegerForm.apply

        def counted(form, weights, k):
            steps.append(k)
            return step(form, weights, k)

        monkeypatch.setattr(core._IntegerForm, "apply", counted)
        rng = Random(20246)
        for _ in range(20):
            d, K, N = rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 5)
            inst = parts_instance(rng, d, K, N, (2, 7), 5, whole_as_int=True)
            weights = [0] * d
            weights[0] = 1
            inst = Instance(inst.matrices, N, Distribution(tuple(weights)), inst.target, "exact")
            plan = tuple(rng.randrange(K) for _ in range(N))
            del steps[:]
            # the dense loop's values, every state after the start a Fraction
            start, *later = dense_trajectory_reference(inst, plan)
            for t in range(N + 1):
                got = [typed(p.weights) for p in trajectory(inst, plan[:t])]
                assert got == [typed(start), *map(as_fractions, later[:t])]
            assert typed([evaluate_plan(inst, plan)]) == as_fractions([later[-1][inst.target]])
            assert len(steps) == sum(range(N + 1)) + N  # every prefix, then the value

    @pytest.mark.parametrize(
        "start", [(Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))]
    )
    def test_deep_identity_returns(self, start):
        inst = Instance((StochasticMatrix.identity(2),), 3000, Distribution(start), 1, "exact")
        plan = (0,) * 3000
        assert typed([evaluate_plan(inst, plan)]) == [(Fraction, start[1])]
        points = trajectory(inst, plan)
        assert len(points) == 3001
        assert all(typed(p.weights) == typed(start) for p in points)


def brute_moved_places(inst):
    """Per matrix, ``(i, p)`` for each row i that differs by value from the
    dense unit row e_i, with p the row's place in the instance check's rows."""
    from timemachine import core

    _, index = core._sparse_rows(inst)
    d = inst.d
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return [
        [(i, index[k][i]) for i, row in enumerate(m.rows) if row != units[i]]
        for k, m in enumerate(inst.matrices)
    ]


def _moved_place_cases():
    rng = Random(2027)
    built = [
        random_instance(rng, 4, 3, 2, mode="float"),
        random_instance(rng, 4, 3, 2, mode="exact"),
        random_sparse_float_instance(rng, 5, 3, 2),
        tie_heavy_instance(rng, 5, 4, 2, mode="exact"),
        tie_heavy_instance(rng, 5, 4, 2, mode="float"),
        encode_reduction(all_patterns_formula()).instance,
        encode_reduction(planted_formula(rng, 5, 5)[1]).instance,
        identity_instance(d=4, K=3, mode="exact"),
        identity_instance(d=4, K=3, mode="float"),
        # rows equal to e_1 and e_0 but built apart from any unit row
        Instance(
            (StochasticMatrix(((0.5, 0.5), (0.0, 1.0))), StochasticMatrix(((1.0, 0.0), (1.0, 0.0)))),
            N=1,
            numeric_mode="float",
        ),
        # a one-entry float row within the row-sum tolerance of e_1 is moved
        Instance((StochasticMatrix(((1.0, 0.0), (0.0, 1.0 - 1e-12))),), N=1, numeric_mode="float"),
        Instance(
            (StochasticMatrix(((Fraction(2, 2), 0), (Fraction(1, 3), Fraction(2, 3)))),),
            N=1,
            numeric_mode="exact",
        ),
    ]
    cases = list(built)
    for inst in built:
        buf = io.StringIO()
        write_instance(inst, buf)
        for text in (buf.getvalue(), instance_v1_text(inst), instance_v2_text(inst)):
            cases.append(read_instance(io.StringIO(text)).instance)
    # a version-3 document that lists the unit row e_1 at place 1
    cases.append(
        read_instance(
            io.StringIO(
                '{"format_version": 3, "numeric_mode": "exact", "d": 2, "K": 1, "N": 1,'
                ' "target": 0, "start": ["1/1", "0/1"], "rows": [[[1, "1/1"]], [[1, "1/1"]]],'
                ' "matrices": [[[0, 0], [1, 1]]]}'
            )
        ).instance
    )
    return cases


class TestMovedPlaces:
    """``core._moved_places`` lists, per matrix, every row but the unit
    rows e_i, whichever object holds them."""

    @pytest.mark.parametrize("inst", _moved_place_cases())
    def test_matches_a_dense_comparison(self, inst):
        from timemachine import core

        moved = core._derived(inst, core._moved_places)
        assert [list(places.items()) for places in moved] == brute_moved_places(inst)

    def test_made_once_per_instance(self, monkeypatch):
        from timemachine import core, instance_io, solvers

        calls, fills = [], []

        def counted(inst, rows, index, made=core._moved_places):
            calls.append(inst)
            return made(inst, rows, index)

        def counted_fill(inst, units, placed, fill=core._placed_rows):
            fills.append(inst)
            return fill(inst, units, placed)

        for module in (core, solvers, instance_io):
            monkeypatch.setattr(module, "_moved_places", counted)
        monkeypatch.setattr(core, "_placed_rows", counted_fill)
        assignment, formula = planted_formula(Random(2028), 4, 4)
        inst = encode_reduction(formula).instance
        # the same matrices, built by hand: checked and scanned on first use
        twin = Instance(inst.matrices, inst.N, inst.start, inst.target, inst.numeric_mode)
        for built in (inst, twin):
            mdp_value_table(built)
            attained, plan = decide_threshold(built, 1)
            assert attained
            assert evaluate_plan(built, plan) == 1
            write_instance(built, io.StringIO())
        # the encoder's fill lists the reduction's moved rows, and no scan
        # makes them again
        assert fills == [inst]
        assert calls == [twin]


def _reductions():
    rng = Random(2029)
    formulas = [single_clause_formula(), all_patterns_formula()]
    for n, m in ((4, 4), (5, 5), (6, 8), (7, 9)):
        formulas.append(planted_formula(rng, n, m)[1])
    return formulas


def random_placement(rng, d, K, mode, units=None):
    """Random arguments of ``core._placed_instance``: per matrix, some rows
    in increasing order, each a row from a small pool shared by the
    matrices, or a unit row, of its own column or another."""
    if units is None:
        units = core._unit_rows(d, mode)
    if mode == "exact":
        pool = list(random_exact_matrix(rng, d).rows)
    else:
        pool = [random_sparse_float_weights(rng, d, signed_zeros=True) for _ in range(d)]
    del pool[rng.randint(1, d) :]
    placed = []
    for _ in range(K):
        listed = sorted(rng.sample(range(d), rng.randint(0, d)))
        placed.append(
            {i: rng.choice(pool) if rng.random() < 0.5 else units[rng.randrange(d)] for i in listed}
        )
    start = (random_exact_distribution if mode == "exact" else random_float_distribution)(rng, d)
    labels = [rng.choice((None, f"L{k}")) for k in range(K)]
    return units, mode, rng.randint(0, 3), start, rng.randrange(d), labels, placed


def _with_row(rows_at, i, row):
    """``rows_at`` with ``row`` placed at row i, in increasing row order."""
    return dict(sorted({**rows_at, i: row}.items()))


def _rebuilt_unit(units, j, zero):
    """``units`` with e_j rebuilt from ``zero`` and a copy of its 1."""
    row = tuple(zero if i != j else type(units[j][j])(units[j][j]) for i in range(len(units)))
    return units[:j] + (row,) + units[j + 1 :]


def _mutated(rng, mode, mutation):
    """Arguments of ``core._placed_instance`` with one seeded fault, or a
    change that the fill must see through."""
    d, K = rng.randint(2, 5), rng.randint(1, 4)
    units = core._unit_rows(d, mode)
    if mutation in ("fresh zeros", "int zero"):  # new zero objects, or an int 0
        zero = 0 if mutation == "int zero" else Fraction(0) if mode == "exact" else float("0")
        units = _rebuilt_unit(units, rng.randrange(d), zero)
    units, mode, N, start, target, labels, placed = random_placement(rng, d, K, mode, units)
    k, i = rng.randrange(K), rng.randrange(d)
    if mutation == "invalid row":
        half = Fraction(1, 2) if mode == "exact" else 0.5
        placed[k] = _with_row(placed[k], i, (half,) + units[0][1:])
    elif mutation == "int entry":  # a float row with an int zero
        placed[k] = _with_row(placed[k], i, (1.0,) + (0,) * (d - 1))
    elif mutation == "list row":
        placed[k] = _with_row(placed[k], i, list(units[0]))
    elif mutation == "negative horizon":
        N = -1
    return units, mode, N, start, target, labels, placed


class TestPlacedInstance:
    """``core._placed_instance`` builds the instance its builder placed and
    fills the prepared slot with what the full check gives, checking each
    distinct row once and no place; on any violation it fills nothing, and
    the full check names every violation as for an instance built by hand."""

    @pytest.mark.parametrize("formula", _reductions())
    def test_reduction_is_filled_as_checked(self, formula):
        assert_filled_as_checked(encode_reduction(formula).instance)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_random_placements_are_filled_as_checked(self, mode):
        rng = Random(f"placed/{mode}")
        for _ in range(300):
            args = random_placement(rng, rng.randint(1, 6), rng.randint(1, 4), mode)
            inst = core._placed_instance(*args)
            assert_filled_as_checked(inst)
            units, _, _, _, _, labels, placed = args
            for matrix, label, rows_at in zip(inst.matrices, labels, placed):
                assert matrix.label == label
                assert all(row is rows_at.get(i, units[i]) for i, row in enumerate(matrix.rows))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_older_reads_of_placements_are_filled_as_checked(self, monkeypatch, mode):
        checks = []
        check = core._checked_rows
        monkeypatch.setattr(core, "_checked_rows", lambda inst: checks.append(inst) or check(inst))
        rng = Random(f"placed/{mode}/older")
        built = [
            core._placed_instance(*random_placement(rng, rng.randint(1, 6), rng.randint(1, 4), mode))
            for _ in range(100)
        ]
        if mode == "exact":
            built += [encode_reduction(formula).instance for formula in _reductions()[:3]]
        for inst in built:
            for text in (instance_v1_text(inst), instance_v2_text(inst)):
                del checks[:]
                read = read_instance(io.StringIO(text)).instance
                assert checks == []  # a valid read runs no full check
                assert read == inst
                assert_filled_as_checked(read)

    @pytest.mark.parametrize(
        "mode, mutation, valid",
        [
            ("exact", "invalid row", False),
            ("float", "invalid row", False),
            ("float", "int entry", False),
            ("exact", "negative horizon", False),
            ("float", "negative horizon", False),
            ("exact", "list row", True),
            ("float", "list row", True),
            ("exact", "fresh zeros", True),
            ("float", "fresh zeros", True),
            ("exact", "int zero", True),
            ("float", "int zero", None),  # invalid where a place holds the rebuilt row
        ],
    )
    def test_seeded_mutations(self, mode, mutation, valid):
        rng = Random(f"placed/{mode}/{mutation}")
        outcomes = set()
        for _ in range(60):
            args = _mutated(rng, mode, mutation)
            core._slot = (None,)
            inst = core._placed_instance(*args)
            violations = core._checked_rows(inst)[0]
            outcomes.add(not violations)
            if violations or mutation == "list row":
                # nothing filled: the first check is the full one, and it
                # reports what it reports for the same matrices built by hand
                assert core._slot == (None,)
                twin = Instance(inst.matrices, inst.N, inst.start, inst.target, inst.numeric_mode)
                assert validate_instance(inst).violations == tuple(violations)
                assert validate_instance(twin).violations == tuple(violations)
            else:
                assert_filled_as_checked(inst)
        assert outcomes == ({True, False} if valid is None else {valid})


class TestStochasticMatrixRows:
    def test_tuple_rows_are_kept_and_list_rows_converted(self):
        row = (0.5, 0.5)
        rows = (row, (0.0, 1.0))
        assert StochasticMatrix(rows).rows is rows
        assert StochasticMatrix(rows).rows[0] is row
        mixed = StochasticMatrix([row, [0.0, 1.0]])
        assert type(mixed.rows) is tuple and mixed.rows[0] is row
        assert mixed.rows[1] == (0.0, 1.0) and type(mixed.rows[1]) is tuple


class TestUnitRows:
    """Unit distributions and identity matrices hold each mode's own 0
    and 1; any mode but exact builds floats."""

    @pytest.mark.parametrize(
        "mode, zero, one",
        [("exact", Fraction(0), Fraction(1)), ("float", 0.0, 1.0), ("fuzzy", 0.0, 1.0)],
    )
    def test_values_and_types(self, mode, zero, one):
        expected = [[(type(one), one if i == j else zero) for j in range(3)] for i in range(3)]
        for i in range(3):
            assert typed(Distribution.unit(3, i, mode).weights) == expected[i]
        assert [typed(row) for row in StochasticMatrix.identity(3, mode).rows] == expected

    def test_default_mode_is_exact(self):
        assert typed(Distribution.unit(2, 1).weights) == [(Fraction, 0), (Fraction, 1)]
        assert typed(StochasticMatrix.identity(1).rows[0]) == [(Fraction, 1)]

    def test_unknown_mode_constructs_and_is_reported(self):
        inst = Instance((StochasticMatrix.identity(2, "fuzzy"),), N=1, numeric_mode="fuzzy")
        assert typed(inst.start.weights) == [(float, 1.0), (float, 0.0)]
        assert validate_instance(inst).violations == (
            "numeric_mode must be 'exact' or 'float', got 'fuzzy'",
        )

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError, match="index 2 out of range for d=2"):
            Distribution.unit(2, 2)
