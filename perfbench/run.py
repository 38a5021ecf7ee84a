"""Benchmark entry point: run one workload in a fresh process and print its
metrics.

    python3 perfbench/run.py --workload sat_ladder --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``.
The workload runs in a child process (``worker.py``) under a wall-clock
limit, so that its peak RSS is its own and a hung or crashed run is reported
as failed jobs instead of stalling.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list the same metrics for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("sat_ladder", "random_search", "instance_roundtrip")
# the child is killed after this long; the whole command must end within 180 s
LIMIT_S = 165


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _last(lines, prefix):
    for line in reversed(lines):
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive_int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "timemachine", "__init__.py")):
        print(f"perfbench: no library sources at {os.path.join(ROOT, 'src', 'timemachine')}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--spans-out", spans_out,
    ]
    started = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        output, _ = child.communicate(timeout=LIMIT_S)
        hung = False
    except subprocess.TimeoutExpired:
        child.kill()
        output, _ = child.communicate()
        hung = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    lines = output.splitlines()
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    reported = _last(lines, "result ")
    if reported is not None and child.returncode == 0:
        result = json.loads(reported)
        values = result["values"]
        if not args.trace:
            values["peak_rss_mb"] = peak_rss_mb
        summary = (
            f"{args.workload} seed {args.seed}: {result['attempted']} jobs, "
            f"{result['passes']} {'traced ' if args.trace else ''}passes timed, "
            f"{result['failed']} failed, {elapsed:.1f} s; "
            f"machine ran at {result['machine_speed']:.3f} of reference speed"
        )
        status = 0
    else:
        # The job that was running when the child hung or died fails, and so
        # does the run; no metric was measured.
        attempted, failed = map(int, (_last(lines, "progress ") or "0 0").split())
        why = "hit the time limit" if hung else f"exited with code {child.returncode}"
        print(f"perfbench: the {args.workload} worker {why} after {elapsed:.1f} s",
              file=sys.stderr)
        result = {"correct": False, "attempted": attempted + 1, "failed": failed + 1}
        values = {name: None for name in units}
        summary = f"{args.workload} seed {args.seed}: run failed ({why})"
        status = 1

    print(summary)
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]!s:>24} {unit}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
