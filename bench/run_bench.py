"""Layer bench: the cost of one layer at a time, median of repeats.

    PYTHONPATH=src python3 bench/run_bench.py [--out BENCH_<n>.json] [--walks]

Point PYTHONPATH at the src/ of any tree to time that tree: the one-lane
rows call run(), the harness rows run_experiment and the walk rows
msd_curve and simulate, which every tree has, so two trees' numbers
compare row by row.  Rows whose entry point a tree lacks (run_lanes, the
stacked oracle) are left out of its output.  The step.*.mlp.* rows pass
run() and run_lanes a batch_size, so they need a tree whose engine builds
each lane's mini-batches from its seed (this tree or a later one).

Layers, REPEATS runs each. On the d = 4 staircase from its saddle ring
with preset example1's knobs (gd and agd from the ring plus MOVING in
every coordinate, since on the ring they stand still):

    step.<algo>.lanes1     microseconds per step of run(), one lane, for
                           every algorithm in practical mode and the four
                           perturbed ones in theory mode (theory_<algo>)
    step.<algo>.lanes<L>   microseconds per cell-step of run_lanes with L
                           lanes (4, 16), for gd, practical pgdot and
                           pagdot, and theory pgdot and pagdot, whose
                           windows keep the whole history
    step.gd.ring.lanes4    the same for gd with 4 lanes on the ring, where
                           the engine retires each lane after its first
                           step (a tree without retirement steps them all)
    oracle.rows<L>         microseconds per row of one call of the
                           Objective's stacked oracle over L rows (1, 4, 16)

On the MLP of the mlp_plateau benchmark (d = 3562, synthetic blobs, from
its saturated start, init_mean -1) with that benchmark's knobs, MLP_STEPS
steps on mini-batches of 128:

    step.<algo>.mlp.lanes<L>   microseconds per cell-step of adam, practical
                               pgdot and pagdot on mini-batches
                               (batch_size = MLP_BATCH): run() at L = 1,
                               run_lanes at L = 2

On two presets, cut to HARNESS_STEPS steps:

    harness.<preset>           microseconds per cell-step of run_experiment
                               on example1 (staircase, 6 algorithms x 3
                               seeds) and example3_pr (phase retrieval),
                               writing its artifacts to a temporary
                               directory (unless $OTGRAD_OUT is set)
    harness.<preset>.peak_heap_kb
                               tracemalloc's peak over one more
                               run_experiment of that config, after the
                               timed ones, in kB (1000 bytes)

On every closed-form problem, at its default size and starting point:

    eval_objective.<problem>   microseconds per eval_objective call
    classify.<problem>         microseconds per classify_point call at the
                               harness's default tolerances (eps 0.01,
                               rho 1): the gradient norm and lambda_min of
                               the finite-difference Hessian

On the default MLP (d = 3562, synthetic blobs) and the occupation layer:

    mlp.loss_and_gradient      microseconds per fused loss and gradient of
                               one batch of 128 samples
    mlp.oracle.lanes<L>        microseconds per call of the stacked
                               batch_oracle over L parameter rows, each on
                               its own batch of 128 (L in {1, 2, 6}; at
                               L = 1 the same row and batch as
                               mlp.loss_and_gradient)
    occupation.<layer>.d<d>    microseconds per call of counts_all,
                               sample_occupation_perturbation (alpha 5) and
                               sample_ball_perturbation at d in {4, 100,
                               3562}, with the MLP preset's window: the last
                               50 iterates, unwindowed (h = 1e12)

On the walks, WALK_T steps:

    walk.msd_curve.alpha<a>    nanoseconds per path-step of
                               msd_curve("repelling", WeightFn(a), ...) over
                               WALK_PATHS paths, a in {0, 1}
    walk.simulate.<kind><a>    nanoseconds per step of
                               simulate(kind, WeightFn(a), ...) for one path:
                               reinforced at a = 5, which soon bounces
                               between two sites, and reinforced at a = 1
                               and repelling at a = 5, which seldom or never do

bench_walks() times the walk rows alone, and --walks prints only them:
run it with PYTHONPATH at two trees in turn, in fresh processes, to
compare their walk rows in alternating pairs.

A step is one trace row (every run records every step), so a theory
pgd/pgdot lane that terminates early is charged only for the steps it
made.

BLAS threads: the step.* rows (run() and run_lanes) and the harness.*
rows (run_experiment) run inside one_blas_thread, on one BLAS thread, in
a tree that has the guard.  The oracle.*, eval_objective.*, classify.*,
mlp.* and occupation.* rows call their layer directly,
outside it, on the thread count that the machine record names
(blas_threads; null where the tree or numpy has no bundled OpenBLAS
lookup).  Uses the standard library and numpy only, and is not part of the
test suite.  Timings depend on the machine, so the output records it;
compare two trees only with numbers from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from otgrad import core, optimizers
from otgrad.analysis import classify_point
from otgrad.benchmarks import make_problem
from otgrad.core import RngStream, eval_objective
from otgrad.harness import PRESETS, parse_config, run_experiment
from otgrad.occupation import (OccupationWindow, WeightFn, sample_ball_perturbation,
                               sample_occupation_perturbation)
from otgrad.optimizers import ALGORITHMS, PERTURBED_ALGORITHMS, AlgoConfig, run
from otgrad.walks import msd_curve, simulate

REPEATS = 5
STEPS = 2000
ORACLE_CALLS = 2000
LANES = (4, 16)
KNOBS = dict(eta=0.1, t_thres=10, g_thres=0.01, r=0.04, momentum=0.5, h=0.04, t_count=200)
ONE_LANE = {**{name: AlgoConfig(name=name, **KNOBS) for name in ALGORITHMS},
            **{f"theory_{name}": AlgoConfig(name=name, mode="theory", **KNOBS)
               for name in PERTURBED_ALGORITHMS}}
MANY_LANES = ("gd", "pgdot", "pagdot", "theory_pgdot", "theory_pagdot")
UNPERTURBED = ("gd", "agd")
MOVING = 0.05
WALK_T = 20000
WALK_PATHS = 100
SIMULATED_WALKS = (("reinforced", 5), ("repelling", 5), ("reinforced", 1))
CLOSED_FORM = ("staircase", "airy_regression", "reglq", "phase_retrieval")
CLASSIFY_EPS, CLASSIFY_RHO = 0.01, 1.0
MLP_BATCH = 128
MLP_STEPS = 200
MLP_KNOBS = dict(eta=0.01, t_thres=10, g_thres=0.1, r=0.5, momentum=0.9, h=1e12, t_count=50)
MLP_ALGORITHMS = ("adam", "pgdot", "pagdot")
MLP_ORACLE_LANES = (1, 2, 6)
HARNESS_STEPS = 200
HARNESS_PRESETS = {"example1": "max_steps = 2000", "example3_pr": "max_steps = 1200"}
OCCUPATION_DIMS = (4, 100, 3562)
WINDOW_ROWS, WINDOW_H = 50, 1e12  # the MLP preset's window


def _median_us(fn, per) -> float:
    """Median over REPEATS calls of fn, in microseconds per unit of work;
    per(result) is the units of work one call did."""
    times, units = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        units = per(result)
    return statistics.median(times) / units * 1e6


def _steps(traces) -> int:
    """Trace rows over the traces' lanes."""
    return sum(len(trace.ts) for trace in traces)


def bench() -> dict:
    layers = bench_staircase()
    layers.update(bench_mlp_steps())
    layers.update(bench_classify())
    layers.update(bench_harness())
    layers.update(bench_layers())
    layers.update(bench_walks())
    return layers


def bench_staircase() -> dict:
    """The step.* rows on the staircase and its oracle.* rows."""
    bundle = make_problem("staircase")
    obj = bundle.objective
    saddle = bundle.init_point(0)

    def start(name):
        return saddle + MOVING if name in UNPERTURBED else saddle

    layers = {}
    for name, algo in ONE_LANE.items():
        layers[f"step.{name}.lanes1"] = _median_us(
            lambda: [run(obj, algo, STEPS, 0, x0=start(name))], _steps)
    run_lanes = getattr(optimizers, "run_lanes", None)
    if run_lanes is not None:
        for name in MANY_LANES:
            for n in LANES:
                layers[f"step.{name}.lanes{n}"] = _median_us(
                    lambda: run_lanes(obj, ONE_LANE[name], STEPS, range(n), [start(name)] * n),
                    _steps)
        layers["step.gd.ring.lanes4"] = _median_us(
            lambda: run_lanes(obj, ONE_LANE["gd"], STEPS, range(4), [saddle] * 4), _steps)
    oracle = getattr(obj, "oracle", None)
    if oracle is not None:
        rng = np.random.default_rng(0)
        for n in (1,) + LANES:
            X = saddle + 0.1 * rng.standard_normal((n, saddle.shape[0]))
            layers[f"oracle.rows{n}"] = _per_call_us(lambda: oracle(X), ORACLE_CALLS) / n
    return layers


def bench_mlp_steps() -> dict:
    bundle = make_problem("mlp", init_mean=-1.0)
    problem = bundle.problem
    start = bundle.init_point(0)
    layers = {}
    for name in MLP_ALGORITHMS:
        algo = AlgoConfig(name=name, **MLP_KNOBS)
        layers[f"step.{name}.mlp.lanes1"] = _median_us(
            lambda: [run(problem, algo, MLP_STEPS, 0, x0=start, batch_size=MLP_BATCH)], _steps)
        layers[f"step.{name}.mlp.lanes2"] = _median_us(
            lambda: optimizers.run_lanes(problem, algo, MLP_STEPS, range(2), [start] * 2,
                                         batch_size=MLP_BATCH), _steps)
    return layers


def bench_harness() -> dict:
    layers = {}
    with tempfile.TemporaryDirectory() as out:
        for preset, steps in HARNESS_PRESETS.items():
            config = parse_config(PRESETS[preset].replace(
                steps, f"max_steps = {HARNESS_STEPS}\noutput = {out}"))
            cell_steps = len(config.algorithms) * len(config.seeds) * HARNESS_STEPS
            layers[f"harness.{preset}"] = _median_us(
                lambda: run_experiment(config), lambda _: cell_steps)
            tracemalloc.start()
            try:
                run_experiment(config)
                layers[f"harness.{preset}.peak_heap_kb"] = tracemalloc.get_traced_memory()[1] / 1e3
            finally:
                tracemalloc.stop()
    return layers


def _per_call_us(fn, calls) -> float:
    """Microseconds per call of fn(), calling it calls times per repeat."""
    def many():
        for _ in range(calls):
            fn()
    return _median_us(many, lambda _: calls)


def bench_classify() -> dict:
    layers = {}
    for name in CLOSED_FORM:
        bundle = make_problem(name)
        obj, x = bundle.objective, bundle.init_point(0)
        layers[f"classify.{name}"] = _per_call_us(
            lambda: classify_point(obj, x, CLASSIFY_EPS, CLASSIFY_RHO), ORACLE_CALLS // 10)
    return layers


def bench_layers() -> dict:
    layers = {}
    for name in CLOSED_FORM:
        bundle = make_problem(name)
        obj, x = bundle.objective, bundle.init_point(0)
        layers[f"eval_objective.{name}"] = _per_call_us(lambda: eval_objective(obj, x),
                                                        ORACLE_CALLS)
    bundle = make_problem("mlp")
    params = bundle.init_point(0)
    batch = RngStream(0, 1).permutation(bundle.problem.n_samples)[:MLP_BATCH]
    layers["mlp.loss_and_gradient"] = _per_call_us(
        lambda: bundle.problem.loss_and_gradient(params, batch), ORACLE_CALLS // 10)
    batch_oracle = getattr(bundle.problem, "batch_oracle", None)
    if batch_oracle is not None:
        for n in MLP_ORACLE_LANES:
            X = np.array([bundle.init_point(seed) for seed in range(n)])
            I = np.array([RngStream(seed, 1).permutation(bundle.problem.n_samples)[:MLP_BATCH]
                          for seed in range(n)])
            layers[f"mlp.oracle.lanes{n}"] = _per_call_us(lambda: batch_oracle(X, I),
                                                          ORACLE_CALLS // 10)
    weight = WeightFn(5.0)
    for d in OCCUPATION_DIMS:
        rng = RngStream(d, 0)
        window = OccupationWindow(d, WINDOW_ROWS, WINDOW_H)
        for _ in range(WINDOW_ROWS):
            window.record(rng.normal(d))
        x = rng.normal(d)
        calls = ORACLE_CALLS if d <= 100 else ORACLE_CALLS // 10
        for layer, fn in (
                ("counts_all", lambda: window.counts_all(x)),
                ("sample_occupation", lambda: sample_occupation_perturbation(
                    x, window, 0.5, weight, rng)),
                ("sample_ball", lambda: sample_ball_perturbation(x, 0.5, rng))):
            layers[f"occupation.{layer}.d{d}"] = _per_call_us(fn, calls)
    return layers


def bench_walks() -> dict:
    layers = {}
    for alpha in (0, 1):
        layers[f"walk.msd_curve.alpha{alpha}"] = 1e3 * _median_us(
            lambda: msd_curve("repelling", WeightFn(float(alpha)), WALK_T, WALK_PATHS, 0),
            lambda _: WALK_T * WALK_PATHS)
    for kind, alpha in SIMULATED_WALKS:
        layers[f"walk.simulate.{kind}{alpha}"] = 1e3 * _median_us(
            lambda: simulate(kind, WeightFn(float(alpha)), WALK_T, 0), lambda _: WALK_T)
    return layers


def blas_record() -> dict:
    """numpy's bundled BLAS library and its thread count outside the guard."""
    lookup = getattr(core, "bundled_blas", None)
    blas = lookup() if lookup is not None else None
    return {"blas_library": blas.library if blas else None,
            "blas_threads": blas.get_threads() if blas else None}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON file to write")
    parser.add_argument("--walks", action="store_true", help="time the walk rows only")
    args = parser.parse_args()
    result = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu_count": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
                    **blas_record()},
        "repeats": REPEATS,
        "steps": STEPS,
        "oracle_calls": ORACLE_CALLS,
        "walk_t": WALK_T,
        "walk_paths": WALK_PATHS,
        "unit": "microseconds per cell-step (step.*, harness.<preset>), per row (oracle.*) "
                "or per call (eval_objective.*, classify.*, mlp.*, occupation.*); "
                "nanoseconds per path-step (walk.*); median; "
                "kB for harness.<preset>.peak_heap_kb, one run",
        "layers": bench_walks() if args.walks else bench(),
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")


if __name__ == "__main__":
    main()
