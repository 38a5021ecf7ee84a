import csv
import io
from itertools import product

import pytest

from timemachine import evaluate_plan, read_instance, read_plan
from timemachine.cli import main

SINGLE_CLAUSE_CNF = "c one satisfiable clause\np cnf 3 1\n1 2 3 0\n"
UNSAT_CNF = "p cnf 3 8\n" + "".join(
    f"{'-' if a < 0 else ''}1 {'-' if b < 0 else ''}2 {'-' if c < 0 else ''}3 0\n"
    for a, b, c in product((1, -1), repeat=3)
)


@pytest.fixture
def sat_instance(tmp_path):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text(SINGLE_CLAUSE_CNF)
    out = tmp_path / "sat.instance.json"
    assert main(["reduce", "--cnf", str(cnf), "--out", str(out)]) == 0
    return out


@pytest.fixture
def unsat_instance(tmp_path):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text(UNSAT_CNF)
    out = tmp_path / "unsat.instance.json"
    assert main(["reduce", "--cnf", str(cnf), "--out", str(out)]) == 0
    return out


class TestReduce:
    def test_reports_sizes(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CLAUSE_CNF)
        out = tmp_path / "f.json"
        assert main(["reduce", "--cnf", str(cnf), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "d=13 K=9 N=3 p=1/4" in stdout
        doc = read_instance(str(out))
        assert doc.reduction_meta is not None

    def test_empty_clause_not_encoded(self, tmp_path, capsys):
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n0\n")
        out = tmp_path / "never.json"
        assert main(["reduce", "--cnf", str(cnf), "--out", str(out)]) == 0
        assert "UNSATISFIABLE" in capsys.readouterr().out
        assert not out.exists()

    def test_tautologies_not_encoded(self, tmp_path, capsys):
        cnf = tmp_path / "taut.cnf"
        cnf.write_text("p cnf 1 1\n1 -1 0\n")
        out = tmp_path / "never.json"
        assert main(["reduce", "--cnf", str(cnf), "--out", str(out)]) == 0
        assert "TRIVIALLY SATISFIABLE" in capsys.readouterr().out
        assert not out.exists()


class TestDecide:
    def test_satisfiable_attains_one(self, sat_instance, tmp_path, capsys):
        plan_path = tmp_path / "witness.plan"
        code = main(
            ["decide", str(sat_instance), "--alpha", "1", "--out", str(plan_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("ATTAINED")
        plan = read_plan(str(plan_path))
        doc = read_instance(str(sat_instance))
        assert evaluate_plan(doc.instance, plan) == 1

    def test_unsatisfiable_does_not_attain_one(self, unsat_instance, capsys):
        assert main(["decide", str(unsat_instance), "--alpha", "1"]) == 0
        assert capsys.readouterr().out.startswith("NOT ATTAINED")

    def test_bad_alpha_is_usage_error(self, sat_instance, capsys):
        assert main(["decide", str(sat_instance), "--alpha", "nope"]) == 1


class TestSolve:
    def test_bad_beam_width_is_usage_error(self, sat_instance, capsys):
        assert main(["solve", str(sat_instance), "--method", "beam", "--beam-width", "0"]) == 1
        assert "beam width must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_enum_budget_exceeded_exit_2(self, sat_instance, capsys):
        code = main(["solve", str(sat_instance), "--method", "enum", "--budget", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "729" in err  # K^N = 9^3

    def test_bnb_solves_reduction(self, sat_instance, tmp_path, capsys):
        plan_path = tmp_path / "best.plan"
        code = main(
            ["solve", str(sat_instance), "--method", "bnb", "--out", str(plan_path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "value 1/1" in stdout
        doc = read_instance(str(sat_instance))
        assert evaluate_plan(doc.instance, read_plan(str(plan_path))) == 1

    def test_deterministic_stdout(self, sat_instance, capsys):
        assert main(["solve", str(sat_instance), "--method", "beam", "--beam-width", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", str(sat_instance), "--method", "beam", "--beam-width", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestSimulateAndDecode:
    def test_simulate_value_matches_library(self, sat_instance, tmp_path, capsys):
        plan_path = tmp_path / "w.plan"
        assert main(["decide", str(sat_instance), "--alpha", "1", "--out", str(plan_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(sat_instance), str(plan_path)]) == 0
        printed = capsys.readouterr().out.strip()
        doc = read_instance(str(sat_instance))
        value = evaluate_plan(doc.instance, read_plan(str(plan_path)))
        assert printed == f"{value.numerator}/{value.denominator}"

    def test_simulate_trace_has_one_line_per_step(self, sat_instance, tmp_path, capsys):
        plan_path = tmp_path / "w.plan"
        main(["decide", str(sat_instance), "--alpha", "1", "--out", str(plan_path)])
        capsys.readouterr()
        assert main(["simulate", str(sat_instance), str(plan_path), "--trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # N+1 trace lines plus the value
        assert lines[0].startswith("0:")

    def test_simulate_trace_walks_the_plan_once(self, sat_instance, tmp_path, capsys, monkeypatch):
        from timemachine import core

        plan_path = tmp_path / "w.plan"
        main(["decide", str(sat_instance), "--alpha", "1", "--out", str(plan_path)])
        capsys.readouterr()
        applied = []
        step = core._IntegerForm.apply
        monkeypatch.setattr(
            core._IntegerForm, "apply", lambda form, w, k: applied.append(k) or step(form, w, k)
        )
        assert main(["simulate", str(sat_instance), str(plan_path), "--trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(applied) == len(read_plan(str(plan_path))) == len(lines) - 2
        assert lines[-1] == "1/1"

    def test_decode_prints_assignment(self, sat_instance, tmp_path, capsys):
        plan_path = tmp_path / "w.plan"
        main(["decide", str(sat_instance), "--alpha", "1", "--out", str(plan_path)])
        capsys.readouterr()
        assert main(["decode", str(sat_instance), str(plan_path)]) == 0
        printed = capsys.readouterr().out.strip()
        parts = printed.split()
        assert len(parts) == 3
        assert all(part.startswith(f"x{i}=") for i, part in enumerate(parts))
        assert all(part[-1] in "+-" for part in parts)

    def test_decode_without_meta_is_usage_error(self, tmp_path, capsys):
        from timemachine import Instance, StochasticMatrix, write_instance

        inst_path = tmp_path / "plain.json"
        write_instance(
            Instance(matrices=(StochasticMatrix.identity(2, "float"),), N=1,
                     numeric_mode="float"),
            str(inst_path),
        )
        plan_path = tmp_path / "p.plan"
        plan_path.write_text("0\n")
        assert main(["decode", str(inst_path), str(plan_path)]) == 1


class TestVerifyRoundtrip:
    def test_satisfiable(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CLAUSE_CNF)
        assert main(["verify-roundtrip", "--cnf", str(cnf)]) == 0
        assert "AGREE satisfiable" in capsys.readouterr().out

    def test_unsatisfiable(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(UNSAT_CNF)
        assert main(["verify-roundtrip", "--cnf", str(cnf)]) == 0
        assert "AGREE unsatisfiable" in capsys.readouterr().out

    def test_disagreement_exits_3(self, tmp_path, capsys, monkeypatch):
        # cannot happen through the real pipeline; stub the verifier to
        # check the exit-code plumbing
        import timemachine.cli as cli_module
        from timemachine import VerificationError

        def explode(formula):
            raise VerificationError("stubbed disagreement")

        monkeypatch.setattr(cli_module, "verify_roundtrip", explode)
        cnf = tmp_path / "f.cnf"
        cnf.write_text(SINGLE_CLAUSE_CNF)
        assert main(["verify-roundtrip", "--cnf", str(cnf)]) == 3
        assert "disagreement" in capsys.readouterr().err


class TestBench:
    def test_csv_columns_and_rows(self, sat_instance, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text(f"# demo suite\n{sat_instance.name} bnb\n{sat_instance.name} beam:4\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "instance", "method", "value", "nodes_explored", "nodes_pruned", "wall_ms", "read_ms",
        ]
        assert len(rows) == 3
        assert rows[1][1] == "bnb" and rows[1][2] == "1/1"
        assert rows[2][1] == "beam:4"
        float(rows[1][5])  # wall_ms parses
        assert float(rows[1][6]) > 0  # the read, timed once
        assert rows[2][6] == "0.000"  # the same file: its document reused

    def test_each_instance_file_read_once(self, sat_instance, tmp_path, monkeypatch):
        import timemachine.cli as cli_module

        reads = []

        def counting(path):
            reads.append(path)
            return read_instance(path)

        monkeypatch.setattr(cli_module, "read_instance", counting)
        suite = tmp_path / "suite.txt"
        name = sat_instance.name
        suite.write_text(f"{name} enum\n{name} bnb\n./{name} beam:4\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
        assert len(reads) == 1
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[:3] for row in rows[1:]] == [
            [name, "enum", "1/1"], [name, "bnb", "1/1"], [f"./{name}", "beam:4", "1/1"],
        ]
        assert [row[6] for row in rows[2:]] == ["0.000", "0.000"]

    @pytest.mark.parametrize("method", ["dance", "beam:abc", "beam:0"])
    def test_unknown_method_is_usage_error(self, sat_instance, tmp_path, capsys, method):
        # refused while the suite is parsed, before the CSV is opened
        suite = tmp_path / "suite.txt"
        line = f"{sat_instance.name} {method}"
        suite.write_text(f"{sat_instance.name} bnb\n{line}\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and repr(line) in err

    @pytest.mark.parametrize("earlier", [None, "earlier results\n"])
    def test_missing_instance_leaves_out_untouched(self, sat_instance, tmp_path, capsys, earlier):
        # a line fails after an earlier one ran: the CSV is written only
        # once every line has run, so --out is neither created nor overwritten
        suite = tmp_path / "suite.txt"
        suite.write_text(f"{sat_instance.name} bnb\nmissing.json enum\n")
        out = tmp_path / "bench.csv"
        if earlier is not None:
            out.write_text(earlier)
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
        assert "missing.json" in capsys.readouterr().err
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_text() == earlier


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/path.json", "--method", "bnb"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_alpha_beyond_float_range_is_one_line_error(self, tmp_path, capsys):
        from timemachine import Instance, StochasticMatrix, write_instance

        inst_path = tmp_path / "float.json"
        identity = StochasticMatrix.identity(2, "float")
        write_instance(Instance(matrices=(identity,), N=2, numeric_mode="float"), str(inst_path))
        assert main(["decide", str(inst_path), "--alpha", "1e400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "alpha, words",
        [
            ("1e100000000", "decimal exponent outside"),
            ("1e5000", "decimal exponent outside"),
            ("1e400", "about 1e400"),
        ],
    )
    def test_alpha_with_a_large_exponent_is_one_short_error_line(self, tmp_path, capsys, alpha, words):
        from timemachine import Instance, StochasticMatrix, write_instance

        inst_path = tmp_path / "exact.json"
        identity = StochasticMatrix.identity(2)
        write_instance(Instance(matrices=(identity,), N=2, numeric_mode="exact"), str(inst_path))
        assert main(["decide", str(inst_path), "--alpha", alpha]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err
        assert len(err.splitlines()) == 1
        assert len(err) < 100

    def test_enum_budget_at_deep_horizon_exits_2(self, tmp_path, capsys):
        from timemachine import Instance, StochasticMatrix, write_instance

        inst_path = tmp_path / "deep.json"
        identity = StochasticMatrix.identity(2)
        write_instance(
            Instance(matrices=(identity, identity), N=20000, numeric_mode="exact"),
            str(inst_path),
        )
        assert main(["solve", str(inst_path), "--method", "enum"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^20000" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command", [["solve", "--method", "bnb"], ["decide", "--alpha", "1"]]
    )
    def test_horizon_too_deep_is_one_line_error(self, tmp_path, capsys, command):
        from timemachine import Instance, StochasticMatrix, write_instance

        inst_path = tmp_path / "deep.json"
        identity = StochasticMatrix.identity(2)
        write_instance(
            Instance(matrices=(identity, identity), N=1500, numeric_mode="exact"),
            str(inst_path),
        )
        assert main([command[0], str(inst_path)] + command[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too deep" in err
        assert len(err.splitlines()) == 1

    def test_unnamed_exception_is_one_line_error(self, sat_instance, capsys, monkeypatch):
        from timemachine import cli

        def broken(inst):
            raise KeyError("x0+")

        monkeypatch.setattr(cli, "branch_and_bound_solve", broken)
        assert main(["solve", str(sat_instance), "--method", "bnb"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: KeyError: 'x0+'\n"
        assert captured.out == ""


class TestParser:
    def test_three_calls_build_one_parser(self, sat_instance, tmp_path, capsys):
        from timemachine import cli

        cli._parser.cache_clear()
        plan_path = tmp_path / "best.plan"
        assert main(["solve", str(sat_instance), "--method", "bnb", "--out", str(plan_path)]) == 0
        assert main(["frobnicate"]) == 1
        assert main(["simulate", str(sat_instance), str(plan_path)]) == 0
        assert capsys.readouterr().out.endswith("1/1\n")
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
