"""Smoke test of the benchmark harness itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that generation is deterministic, that planted formulas satisfy
their planted assignment, that golden mismatches and drift are told apart,
that self time is span time minus child spans, that the printed metric
names match BENCHMARK.json, that the ROADMAP baseline on all-patterns
reproduces, and that the command refuses to run without the library
sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from timemachine import branch_and_bound_solve, encode_reduction, normalize_cnf  # noqa: E402

import corpus  # noqa: E402
import metrics  # noqa: E402
import run as entry  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check_generation_is_deterministic():
    for name, build in workloads.WORKLOADS.items():
        first, again, other = build(3), build(3), build(4)
        assert [_job_input(j) for j in first] == [_job_input(j) for j in again], name
        assert [_job_input(j) for j in first] != [_job_input(j) for j in other], name


def _job_input(job):
    return job.text if hasattr(job, "text") else (job.key, job.method)


def check_planted_formulas():
    for seed in range(50):
        rng = Random(seed)
        n = rng.randint(3, 9)
        m = rng.randint(max(1, (n + 2) // 3), 12)
        planted, clauses = corpus.planted_formula(rng, n, m)
        assert corpus.satisfies(clauses, planted)
        assert all(len({v for v, _ in clause}) == 3 for clause in clauses)
        formula = normalize_cnf(clauses, n).formula
        assert (formula.num_vars, formula.num_clauses) == (n, m), "numbering not kept"


def check_golden_mismatch_and_drift():
    job = workloads.build_sat_ladder(0)[2]
    run = workloads.Run(spans.NoTracer(), {}, OUT_DIR)
    job.run(run)
    key = job.key + ":decide"
    value, plan, _, _ = run.answers[key]

    drifted = workloads.Run(spans.NoTracer(), {key: [value, [0] * len(plan), None, None]}, OUT_DIR)
    job.run(drifted)
    assert (drifted.golden_checked, drifted.golden_drift) == (1, 1)

    wrong = workloads.Run(spans.NoTracer(), {key: ["not attained", None, None, None]}, OUT_DIR)
    try:
        job.run(wrong)
    except workloads.JobFailure:
        pass
    else:
        raise AssertionError("a changed decision did not fail the job")


def check_self_time():
    # one job span of 10 s holding a 4 s solver call that holds a 1 s core call
    fake = [
        ["bench.job", "bench", 0.0, 10.0, -1, "j"],
        ["solvers.bnb.exact", "solvers", 1.0, 5.0, 0, "j"],
        ["core.evaluate_plan", "core", 2.0, 3.0, 1, "j"],
    ]
    assert spans.self_seconds(fake) == {"bench": 6.0, "solvers": 3.0, "core": 1.0}
    assert spans.totals(fake)["solvers.bnb.exact"] == (4.0, 1)


def _tiny(name, seed):
    """A tiny corpus of each workload, built through the real job types."""
    if name == "sat_ladder":
        rng = Random(seed)
        return [job for i in range(2) for job in workloads._formula_jobs(
            i, 4, 4, *corpus.planted_formula(rng, 4, 4))]
    if name == "random_search":
        return workloads.build_random_search(seed)[:12]
    return workloads.build_instance_roundtrip(seed)[:1]


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared[0] == metrics.END_TO_END, "end_to_end differs from metrics.END_TO_END"
    assert declared[1] == metrics.PER_LAYER, "per_layer differs from metrics.PER_LAYER"
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(entry.WORKLOADS)

    saved = dict(workloads.WORKLOADS)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        for name in saved:
            workloads.WORKLOADS[name] = lambda seed, name=name: _tiny(name, seed)
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    worker.main([
                        "--workload", name, "--seed", "1", "--seconds", "0.01",
                        "--trace", str(trace), "--workdir", workdir,
                    ])
                result = json.loads(out.getvalue().splitlines()[-1].partition(" ")[2])
                assert result["correct"] and result["failed"] == 0, (name, trace, result)
                printed = set(result["values"]) | ({"peak_rss_mb"} if trace == 0 else set())
                assert printed == set(declared[trace]), (name, trace, printed ^ set(declared[trace]))
    finally:
        workloads.WORKLOADS.update(saved)
        shutil.rmtree(workdir, ignore_errors=True)


def check_roadmap_baseline():
    clauses = corpus.all_patterns_clauses()
    artifact = encode_reduction(normalize_cnf(clauses, 3).formula)
    inst = artifact.instance
    assert (inst.d, inst.K, inst.N) == (20, 58, 10)
    result = branch_and_bound_solve(inst)
    assert (result.nodes_explored, result.nodes_pruned) == (156801, 597973), result
    assert result.value == 1 - artifact.p  # 10/11


def check_refuses_without_sources():
    bare = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sat_ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0 and "correct" not in done.stdout, done
    finally:
        shutil.rmtree(bare, ignore_errors=True)


CHECKS = [
    check_generation_is_deterministic,
    check_planted_formulas,
    check_golden_mismatch_and_drift,
    check_self_time,
    check_metric_names,
    check_roadmap_baseline,
    check_refuses_without_sources,
]


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
