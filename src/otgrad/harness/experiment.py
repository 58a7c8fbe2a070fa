"""Experiment execution and artifact emission.

run_experiment() drives the (algorithm x seed) grid for one config and
writes, into <output>/<hash12>/:

    trace_<algorithm>_seed<seed>.csv   one per grid cell
    summary.json                       per-run stats + final classification
    index.json                         artifact listing with statuses

All seeds of an algorithm run as one group of lanes (optimizers.run_lanes),
and each cell's trace equals the one its seed gives alone, bit for bit.
A group's trace files and summary rows are made as soon as it finishes and
its traces are dropped before the next group runs, so a grid holds one
group's traces at a time, however many algorithms it has.

Everything is deterministic: reruns of the same config produce the same
bytes, and the artifact contents do not depend on the order in which the
grid cells executed. Files are written to a temporary name and renamed,
so a crash never leaves a half-written artifact behind.
"""

from __future__ import annotations

import dataclasses
import json
import os
from array import array
from pathlib import Path
from typing import Optional

import numpy as np

from ..analysis import MAX_HESSIAN_DIM, classify_point, escape_summary
from ..benchmarks import ProblemBundle, make_problem
from ..core import ContractViolation, STREAM_INIT, derive_stream, one_blas_thread
from ..optimizers import RunError, RunTrace, run_lanes, steps_per_epoch
# The benchmark's tracer rebinds experiment.run when it installs.
from ..optimizers import run  # noqa: F401
from .config import ExperimentConfig, OUTPUT_ENV_VAR, _jsonable, check_window_budget

TRACE_HEADER = "t,f,grad_norm,perturbed,nce"


def resolve_output_dir(config: ExperimentConfig) -> Path:
    """Artifact directory: <base>/<hash12>, base overridable via the env."""
    base = os.environ.get(OUTPUT_ENV_VAR) or config.output
    return Path(base) / config.config_hash[:12]


def initial_point(bundle: ProblemBundle, config: ExperimentConfig, seed: int) -> np.ndarray:
    """Per-seed initial iterate, shared by every algorithm in the replicate."""
    rng = derive_stream(seed, STREAM_INIT)
    style = config.init[0]
    if style == "default":
        return bundle.default_init(rng)
    if style == "zeros":
        return np.zeros(bundle.dim)
    if style == "constant":
        return np.full(bundle.dim, float(config.init[1]))
    if style == "gaussian":
        mean, std = config.init[1], config.init[2]
        return mean + std * rng.normal(bundle.dim)
    vec = np.asarray(config.init[1], dtype=np.float64)
    if vec.shape != (bundle.dim,):
        raise ContractViolation(
            f"explicit init has {vec.shape[0]} values, problem dim is {bundle.dim}")
    return vec


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def trace_csv_text(trace: RunTrace) -> str:
    return TRACE_HEADER + "\n" + "".join([
        f"{t},{f!r},{g!r},{p},{n}\n"
        for t, f, g, p, n in zip(trace.ts, trace.fs, trace.grad_norms, trace.perturbed, trace.nce)])


def write_trace_csv(path: Path, trace: RunTrace) -> None:
    _atomic_write_text(path, trace_csv_text(trace))


def read_trace_csv(path: Path) -> dict:
    """Load a trace file back into column arrays (inverse of write_trace_csv):
    int64 t, perturbed and nce, float64 f and grad_norm."""
    ts, fs, gs, ps, ns = array("q"), array("d"), array("d"), array("q"), array("q")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ContractViolation(f"unexpected trace header {header!r}")
        for line in fh:
            t, f, g, p, n = line.strip().split(",")
            ts.append(int(t))
            fs.append(float(f))
            gs.append(float(g))
            ps.append(int(p))
            ns.append(int(n))
    return {"t": np.asarray(ts), "f": np.asarray(fs), "grad_norm": np.asarray(gs),
            "perturbed": np.asarray(ps), "nce": np.asarray(ns)}


def _classification_report(bundle: ProblemBundle, config: ExperimentConfig,
                           trace: RunTrace) -> Optional[dict]:
    if bundle.dim > MAX_HESSIAN_DIM or trace.final_x is None:
        return None
    return dataclasses.asdict(classify_point(bundle.objective, trace.final_x,
                                             config.classify_eps, config.classify_rho))


def _finish_group(bundle: ProblemBundle, config: ExperimentConfig, algorithm: str,
                  out_dir: Path, thresholds: dict, results: list,
                  rows: list, entries: list) -> None:
    """Write one lane group's trace files; append an index entry per cell to
    `entries` and a summary row per ok cell to `rows`."""
    for seed, result in zip(config.seeds, results):
        if isinstance(result, RunError):
            trace = result.trace
            status = f"failed: {result}"
        else:
            trace = result
            status = "ok"
            row, = escape_summary([trace], thresholds[seed])
            row["final_classification"] = _classification_report(bundle, config, trace)
            rows.append(row)
        fname = f"trace_{algorithm}_seed{seed}.csv"
        write_trace_csv(out_dir / fname, trace)
        entries.append({"file": fname, "kind": "trace", "algorithm": algorithm,
                        "seed": seed, "status": status})


@one_blas_thread()
def run_experiment(config: ExperimentConfig) -> Path:
    """Run the full grid and write artifacts; returns the artifact directory.

    The whole grid (problem build, thresholds, runs, classification) runs
    on one BLAS thread, so its bytes do not depend on the core count.

    Raises ConfigError, before anything runs or is written, when the
    occupation windows would exceed their memory budget
    (check_window_budget); a bad explicit init, too, leaves nothing on
    disk.
    """
    bundle = make_problem(config.problem_name, data_seed=config.data_seed,
                          **config.problem_options)
    # a dataset-backed problem trains on its mini-batches, config.batch_size each
    obj = bundle.objective if bundle.problem is None else bundle.problem
    max_steps = (config.max_steps if config.epochs is None
                 else config.epochs * steps_per_epoch(bundle.problem, config.batch_size))
    check_window_budget(config, bundle.dim, max_steps)

    inits = {seed: initial_point(bundle, config, seed) for seed in config.seeds}
    thresholds = {seed: float(config.threshold) if config.threshold is not None
                  else 0.5 * float(bundle.objective.value(x0)) for seed, x0 in inits.items()}
    out_dir = resolve_output_dir(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    entries = []
    for algo in config.algorithms:
        # the group's traces live only inside _finish_group, so the grid
        # holds one group's traces at a time
        _finish_group(bundle, config, algo.name, out_dir, thresholds,
                      run_lanes(obj, algo, max_steps, config.seeds,
                                [inits[seed] for seed in config.seeds],
                                record_every=config.record_every,
                                batch_size=config.batch_size),
                      rows, entries)
    rows.sort(key=lambda row: (row["algorithm"], row["seed"]))

    summary = {
        "config_hash": config.config_hash,
        "problem": config.problem_name,
        "max_steps": max_steps,
        "thresholds": {str(seed): thresholds[seed] for seed in sorted(thresholds)},
        "runs": rows,
    }
    _atomic_write_text(out_dir / "summary.json",
                       json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n")

    entries.sort(key=lambda e: (e["kind"], e["algorithm"], e["seed"]))
    index = {
        "config_hash": config.config_hash,
        "problem": config.problem_name,
        "summary": "summary.json",
        "artifacts": entries,
    }
    _atomic_write_text(out_dir / "index.json",
                       json.dumps(_jsonable(index), sort_keys=True, indent=2) + "\n")
    return out_dir
