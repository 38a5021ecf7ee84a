"""Names and units of every metric the benchmark prints.

``END_TO_END`` is printed by untraced runs (``--trace 0``) and
``PER_LAYER`` by traced runs (``--trace 1``).  BENCHMARK.json lists the
same names; the smoke test checks that the two agree.
"""

LAYERS = ("core", "solvers", "reduction", "instance_io", "cli", "bench")
SEARCH_METHODS = ("enum", "bnb", "beam", "decide")
MODES = ("float", "exact")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer():
    units = {
        "fail_ratio": "ratio",
        "core.validate_instance.ms": "ms",
        "core.evaluate_plan.ms": "ms",
        "core.evaluate_plan.calls": "count",
        "core.matrix_entries": "count",
        "core.matrix_nonzeros": "count",
        "core.matrix_density": "ratio",
        "solvers.tables.ms": "ms",
    }
    for method in SEARCH_METHODS:
        for mode in MODES:
            prefix = f"solvers.{method}.{mode}"
            units[f"{prefix}.ms"] = "ms"
            units[f"{prefix}.calls"] = "count"
            if method != "decide":
                units[f"{prefix}.nodes_explored"] = "count"
                units[f"{prefix}.nodes_pruned"] = "count"
                units[f"{prefix}.nodes_per_s"] = "1/s"
    for mode in MODES:
        units[f"solvers.bnb.{mode}.prune_ratio"] = "ratio"
    units.update(
        {
            "solvers.beam.value_ratio": "ratio",
            "solvers.golden_checked": "count",
            "solvers.golden_drift": "count",
            "reduction.normalize_cnf.ms": "ms",
            "reduction.encode_reduction.ms": "ms",
            "reduction.certificates.ms": "ms",
            "instance_io.parse_dimacs.ms": "ms",
            "instance_io.write_artifact.ms": "ms",
            "instance_io.write_artifact.bytes": "B",
            "instance_io.read_instance.ms": "ms",
            "instance_io.read_instance.mb_per_s": "MB/s",
            "instance_io.plan_io.ms": "ms",
            "cli.main.ms": "ms",
            "cli.nonzero_exits": "count",
        }
    )
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units["bench.machine_speed"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer()
