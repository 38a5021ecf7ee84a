"""Run one workload in this process and print its result.

``run.py`` starts this file in a fresh process for every run.  It builds the
corpus from the seed (several times, to time set-up), runs passes over the
corpus until ``--seconds`` is used up, and prints ``progress`` lines while it
works and one ``result`` line at the end.  The parent adds the process's
peak RSS to the result.

With ``--trace 0`` every pass is untraced.  With ``--trace 1`` one untraced
pass is followed by traced passes; the per-layer metrics come from the
traced passes and ``trace.overhead_ratio`` compares the two kinds.

Every time is reported at the speed of a reference machine.  A virtual
machine shared with other work can change speed by a fifth or more from one
minute to the next (seen on a 2-vCPU KVM guest), which no amount of
repetition inside one run averages away.  So between jobs the worker times
a fixed piece of stdlib work that never calls the library
(:func:`reference_work`), a tenth of the run, and multiplies each pass's
wall times by ``REFERENCE_S / mean probe time`` of that pass.  A change to
the library moves the job times and not the probe, so it shows in full.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
from golden import load_golden  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

SETUP_REPEATS = 5
# Duration of reference_work on the reference machine: a 2-vCPU KVM guest on
# an Intel Xeon with AVX-512, Python 3.11.7, measured while it was quiet.
REFERENCE_S = 0.0086
# share of the run spent timing reference_work
PROBE_SHARE = 0.1


def reference_work():
    """About 9 ms of interpreter work like the library's hot loops: tuples,
    big integers, dict lookups and fractions.  It must never call the library."""
    memo = {}
    weights = tuple(range(1, 25))
    total = Fraction(0)
    for step in range(1000):
        weights = tuple((w * 7 + step) % 1009 for w in weights)
        key = (step % 7, weights)
        memo[key] = memo.get(key, 0) + sum(w * (1 << 70) // 3 for w in weights)
        total += Fraction(weights[0], weights[1] + 1)
    return len(memo), total


class SpeedProbe:
    """Times reference_work between jobs to track the machine's speed."""

    def __init__(self):
        self.started = perf_counter()
        self.spent = 0.0
        self.samples = []

    def sample(self):
        started = perf_counter()
        reference_work()
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed

    def keep_up(self):
        """Probe until the probe has had its share of the run so far."""
        while self.spent < PROBE_SHARE * (perf_counter() - self.started):
            self.sample()

    def speed(self, first=0):
        """Machine speed relative to the reference, from samples[first:]."""
        return REFERENCE_S / statistics.fmean(self.samples[first:])


class Progress:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def job_done(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1
        print(f"progress {self.attempted} {self.failed}", flush=True)


def run_pass(jobs, tracer, golden, workdir, progress, probe):
    """Run every job once.  Return the pass's Run, its time and its job times
    (both at reference speed), and the machine speed during the pass."""
    run = Run(tracer, golden, workdir)
    job_times = []
    first_sample = len(probe.samples)
    probe.sample()
    with tracer.span("bench.pass"):
        for job in jobs:
            tracer.job = job.id
            job_started = perf_counter()
            try:
                with tracer.span("bench.job"):
                    job.run(run)
                ok = True
            except Exception:  # a failed job is counted, the run goes on
                ok = False
                print(f"job {job.id} failed:\n{traceback.format_exc()}", file=sys.stderr)
            job_times.append(perf_counter() - job_started)
            progress.job_done(ok)
            with tracer.span("probe", "probe"):
                probe.keep_up()
    speed = probe.speed(first_sample)
    return run, sum(job_times) * speed, [t * speed for t in job_times], speed


def end_to_end(setup_s, pass_times, job_times):
    """``job_times[p][j]`` is job j's time in pass p.  Each job's median over
    the passes is one sample of the job-time percentiles."""
    per_job = [statistics.median(times) for times in zip(*job_times)]
    # inclusive: with few jobs the p90 interpolates between the two slowest
    # instead of extrapolating past the slowest
    p90 = per_job[0]
    if len(per_job) > 1:
        p90 = statistics.quantiles(per_job, n=10, method="inclusive")[8]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(pass_times),
        "job_ms_p50": statistics.median(per_job) * 1000,
        "job_ms_p90": p90 * 1000,
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer, runs, speed, untraced_pass_s, traced_pass_times, progress):
    """Per-pass averages over the traced passes, named as in metrics.PER_LAYER.
    Span times are scaled to reference speed with the traced passes' mean speed."""
    passes = len(runs)
    totals = spans.totals(tracer.spans)

    def seconds(name):
        return totals.get(name, (0.0, 0))[0] / passes * speed

    def calls(name):
        return totals.get(name, (0.0, 0))[1] / passes

    def per_pass(attribute):
        return sum(getattr(run, attribute) for run in runs) / passes

    entries, nonzeros = per_pass("matrix_entries"), per_pass("matrix_nonzeros")
    bytes_written = per_pass("bytes_written")
    read_s = seconds("instance_io.read_instance")
    out = {
        "fail_ratio": _ratio(progress.failed, progress.attempted),
        "core.validate_instance.ms": seconds("core.validate_instance") * 1000,
        "core.evaluate_plan.ms": seconds("core.evaluate_plan") * 1000,
        "core.evaluate_plan.calls": calls("core.evaluate_plan"),
        "core.matrix_entries": entries,
        "core.matrix_nonzeros": nonzeros,
        "core.matrix_density": _ratio(nonzeros, entries),
        "solvers.tables.ms": seconds("solvers.tables") * 1000,
    }
    for method in metrics.SEARCH_METHODS:
        for mode in metrics.MODES:
            name = f"solvers.{method}.{mode}"
            out[f"{name}.ms"] = seconds(name) * 1000
            out[f"{name}.calls"] = calls(name)
            if method != "decide":
                explored = sum(run.nodes.get(f"{method}.{mode}", (0, 0))[0] for run in runs) / passes
                pruned = sum(run.nodes.get(f"{method}.{mode}", (0, 0))[1] for run in runs) / passes
                out[f"{name}.nodes_explored"] = explored
                out[f"{name}.nodes_pruned"] = pruned
                out[f"{name}.nodes_per_s"] = _ratio(explored, seconds(name))
    for mode in metrics.MODES:
        out[f"solvers.bnb.{mode}.prune_ratio"] = _ratio(
            out[f"solvers.bnb.{mode}.nodes_pruned"],
            out[f"solvers.bnb.{mode}.nodes_explored"] + out[f"solvers.bnb.{mode}.nodes_pruned"],
        )
    ratios = [r for run in runs for r in run.beam_ratios]
    self_s = spans.self_seconds(tracer.spans)
    out.update(
        {
            "solvers.beam.value_ratio": statistics.fmean(ratios) if ratios else 0.0,
            "solvers.golden_checked": per_pass("golden_checked"),
            "solvers.golden_drift": per_pass("golden_drift"),
            "reduction.normalize_cnf.ms": seconds("reduction.normalize_cnf") * 1000,
            "reduction.encode_reduction.ms": seconds("reduction.encode_reduction") * 1000,
            "reduction.certificates.ms": seconds("reduction.certificates") * 1000,
            "instance_io.parse_dimacs.ms": seconds("instance_io.parse_dimacs") * 1000,
            "instance_io.write_artifact.ms": seconds("instance_io.write_artifact") * 1000,
            "instance_io.write_artifact.bytes": bytes_written,
            "instance_io.read_instance.ms": read_s * 1000,
            "instance_io.read_instance.mb_per_s": _ratio(bytes_written / 1e6, read_s),
            "instance_io.plan_io.ms": (
                seconds("instance_io.write_plan") + seconds("instance_io.read_plan")
            ) * 1000,
            "cli.main.ms": seconds("cli.main") * 1000,
            "cli.nonzero_exits": per_pass("nonzero_exits"),
        }
    )
    for layer in metrics.LAYERS:
        out[f"{layer}.self_ms"] = self_s.get(layer, 0.0) / passes * speed * 1000
    out["bench.machine_speed"] = speed
    out["trace.overhead_ratio"] = statistics.median(traced_pass_times) / untraced_pass_s - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True, help="directory for the files jobs write")
    parser.add_argument("--spans-out", help="traced runs write their spans here")
    args = parser.parse_args(argv)

    build = WORKLOADS[args.workload]
    golden = load_golden()
    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        started = perf_counter()
        jobs = build(args.seed)
        setup_times.append(perf_counter() - started)
    probe.sample()
    setup_s = statistics.median(setup_times) * probe.speed()

    progress = Progress()
    started = perf_counter()
    untraced_pass_s = None
    if args.trace:
        _, untraced_pass_s, _, _ = run_pass(
            jobs, spans.NoTracer(), golden, args.workdir, progress, probe
        )
    tracer = spans.Tracer() if args.trace else spans.NoTracer()
    runs, pass_times, job_times, speeds = [], [], [], []
    while True:
        pass_started = perf_counter()
        run, pass_s, times, speed = run_pass(jobs, tracer, golden, args.workdir, progress, probe)
        runs.append(run)
        pass_times.append(pass_s)
        job_times.append(times)
        speeds.append(speed)
        # start another pass only if one more is expected to fit
        if perf_counter() - started + (perf_counter() - pass_started) > args.seconds:
            break

    if args.trace:
        values = per_layer(
            tracer, runs, statistics.fmean(speeds), untraced_pass_s, pass_times, progress
        )
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        values = end_to_end(setup_s, pass_times, job_times)
    result = {
        "correct": progress.failed == 0,
        "attempted": progress.attempted,
        "failed": progress.failed,
        "passes": len(pass_times),
        "machine_speed": probe.speed(),
        "values": values,
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
