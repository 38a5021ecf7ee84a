"""The frozen golden answers of every search job, and the tool that records
or checks them.

``golden.json`` maps a job key (workload, content digest of its input,
method) to ``[value, plan, nodes_explored, nodes_pruned]`` as the solvers
gave them when the file was recorded.  Keys are content digests, so a job
is checked whenever its input appears in a run, whatever seed made it.

    python3 perfbench/golden.py check            # every recorded seed
    python3 perfbench/golden.py record --seeds 0-31

``check`` exits 1 if any answer's value or decision changed, and reports
plan and node-count drift separately.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SEARCH_WORKLOADS = ("sat_ladder", "random_search")


def load_golden():
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def write_golden(path, seeds, answers):
    """One job per line, sorted by key, so that a re-recording diffs well."""
    lines = [f"{json.dumps(key)}: {json.dumps(answers[key])}" for key in sorted(answers)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seeds": {json.dumps(seeds)}, "jobs": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _passes(seeds, golden):
    """Yield (workload, seed, Run, failures) for one untraced pass per
    workload and seed; ``failures`` describes the jobs whose oracle failed."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from spans import NoTracer
    from workloads import WORKLOADS, JobFailure, Run

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for workload in SEARCH_WORKLOADS:
            for seed in seeds:
                run = Run(NoTracer(), golden, workdir)
                failures = []
                for job in WORKLOADS[workload](seed):
                    try:
                        job.run(run)
                    except JobFailure as exc:
                        failures.append(f"{job.id}: {exc}")
                yield workload, seed, run, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record or check the golden search answers.")
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("--seeds", help="seed range such as 0-31 (record: required)")
    args = parser.parse_args(argv)

    if args.action == "record":
        if not args.seeds:
            parser.error("record needs --seeds")
        seeds = _seeds(args.seeds)
        answers = {}
        for workload, seed, run, failures in _passes(seeds, {}):
            if failures:
                print("\n".join(failures), file=sys.stderr)
                print("not recorded: the solvers fail their oracles", file=sys.stderr)
                return 1
            answers.update(run.answers)
            print(f"{workload} seed {seed}: {len(run.answers)} answers", flush=True)
        write_golden(GOLDEN_PATH, [seeds[0], seeds[-1]], answers)
        print(f"wrote {len(answers)} answers to {GOLDEN_PATH}")
        return 0

    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    first, last = recorded["seeds"]
    seeds = _seeds(args.seeds) if args.seeds else list(range(first, last + 1))
    failed = 0
    for workload, seed, run, failures in _passes(seeds, recorded["jobs"]):
        failed += len(failures)
        for failure in failures:
            print(failure, file=sys.stderr)
        print(
            f"{workload} seed {seed}: {run.golden_checked} checked, {len(failures)} failed, "
            f"{run.golden_drift} with plan or node-count drift",
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
