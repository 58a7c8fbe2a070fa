"""Metric names and units, shared by the runner, the worker and the self-check.

BENCHMARK.json lists the same names; the self-check keeps the two in step.
"""

# Printed in the result line of an untraced run (--trace 0).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed by every run but not in the result line: fail_frac is the line's
# failed / attempted and is 0 at a healthy commit; escape_frac is a
# deterministic outcome of the optimizer workloads.
REPORTED = {
    "fail_frac": "ratio",
    "escape_frac": "ratio",
}

# Printed in the result line of a traced run (--trace 1).
PER_LAYER = {
    "core.eval_objective.calls": "count",
    "core.eval_objective.self_s": "s",
    "benchmarks.value.calls": "count",
    "benchmarks.value.s": "s",
    "benchmarks.gradient.calls": "count",
    "benchmarks.gradient.s": "s",
    "benchmarks.oracle_per_step": "calls/step",
    "benchmarks.make_problem.s": "s",
    "harness.parse_config.s": "s",
    "optimizers.run.calls": "count",
    "optimizers.run.self_s": "s",
    "optimizers.steps": "count",
    "optimizers.perturbations": "count",
    "optimizers.nce": "count",
    "optimizers.batch.calls": "count",
    "optimizers.batch.s": "s",
    "optimizers.batch_per_step": "calls/step",
    "optimizers.baseline_step.s": "s",
    "optimizers.nce.calls": "count",
    "optimizers.nce.s": "s",
    "occupation.sample_occupation.calls": "count",
    "occupation.sample_occupation.self_s": "s",
    "occupation.counts_all.calls": "count",
    "occupation.counts_all.s": "s",
    "occupation.record.calls": "count",
    "occupation.record.s": "s",
    "occupation.sample_ball.calls": "count",
    "occupation.sample_ball.s": "s",
    "occupation.window_bytes": "B",
    "analysis.classify_point.calls": "count",
    "analysis.classify_point.s": "s",
    "analysis.escape_summary.s": "s",
    "harness.write_trace_csv.calls": "count",
    "harness.write_trace_csv.s": "s",
    "harness.artifact_bytes": "B",
    "harness.run_experiment.self_s": "s",
    "walks.msd_curve.calls": "count",
    "walks.msd_curve.self_s": "s",
    "walks.simulate.calls": "count",
    "walks.simulate.s": "s",
    "walks.steps": "count",
    "walks.counts_used_frac": "ratio",
    "walks.localization_metric.s": "s",
    "walks.fit_msd_exponent.s": "s",
    "trace.overhead_frac": "ratio",
    "escape_frac": "ratio",
}
