"""Command-line interface.

Subcommands:
    run <config.ini>                      run an experiment grid
    walk <kind> <alpha> <T> <paths> <seed>  walk statistics
    check <problem>                       derivative verification
    classify <problem> <point-file> <eps> <rho>
    list-problems
    presets [--dir DIR]                   write the shipped preset configs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..analysis import MAX_HESSIAN_DIM, classify_point, fd_gradient, min_hessian_eig
from ..benchmarks import PROBLEM_NAMES, make_problem
from ..core import (
    STREAM_INIT,
    ContractViolation,
    NumericalDomainError,
    derive_stream,
    one_blas_thread,
)
from ..occupation import WeightFn
from ..walks import (
    MSD_FIT_LO_FRAC,
    WALK_KINDS,
    check_msd_ensemble,
    fit_msd_exponent,
    localization_metric,
    path_range,
    simulate,
)
from .config import ConfigError, PRESETS, parse_config_file
from .experiment import _atomic_write_text, run_experiment

CHECK_POINTS = 20
CHECK_TOL = 1e-5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otgrad",
        description="Occupation-time-adapted gradient methods: experiments and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a config file")

    p_walk = sub.add_parser("walk", help="walk ensemble statistics")
    p_walk.add_argument("kind", choices=WALK_KINDS)
    p_walk.add_argument("alpha", type=float)
    p_walk.add_argument("T", type=int)
    p_walk.add_argument("paths", type=int)
    p_walk.add_argument("seed", type=int)

    p_check = sub.add_parser("check", help="verify analytic derivatives of one problem")
    p_check.add_argument("problem", choices=PROBLEM_NAMES)
    p_check.add_argument("--data-seed", type=int, default=0)

    p_cls = sub.add_parser("classify", help="classify a point's stationarity")
    p_cls.add_argument("problem", choices=PROBLEM_NAMES)
    p_cls.add_argument("point_file", help="text file of whitespace/comma separated floats")
    p_cls.add_argument("eps", type=float)
    p_cls.add_argument("rho", type=float)
    p_cls.add_argument("--data-seed", type=int, default=0)

    sub.add_parser("list-problems", help="list benchmark problem names")

    p_pre = sub.add_parser("presets", help="write the shipped preset configs to disk")
    p_pre.add_argument("--dir", default="presets", help="target directory")
    return parser


def _cmd_run(args) -> int:
    try:
        config = parse_config_file(args.config)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        out_dir = run_experiment(config)
    except ConfigError as exc:  # the windows' memory budget, checked before the run
        print(exc, file=sys.stderr)
        return 1
    print(f"artifacts written to {out_dir}")
    return 0


def _cmd_walk(args) -> int:
    """msd_exponent's numbers and per-path statistics from one run of each path.

    The summed squares are exact int64 sums, so the MSD curve equals
    msd_curve's bit for bit (see its docstring).
    """
    weight = WeightFn(args.alpha)
    check_msd_ensemble(args.T, args.paths)
    squares = np.zeros(args.T + 1, dtype=np.int64)
    metrics = []
    ranges = []
    for i in range(args.paths):
        path = simulate(args.kind, weight, args.T, args.seed + i)
        squares += path * path
        metrics.append(localization_metric(path))
        ranges.append(path_range(path))
    exponent, stderr = fit_msd_exponent(squares / args.paths,
                                        int(MSD_FIT_LO_FRAC * args.T), args.T)
    print(f"msd_exponent = {exponent:.4f} (stderr {stderr:.4f})")
    metrics = np.asarray(metrics)
    print(f"localization_metric: median {np.median(metrics):.4f}, "
          f"max {metrics.max():.4f}")
    print(f"path range: min {min(ranges)}, median {np.median(ranges):.1f}")
    return 0


def _check_points(bundle, rng) -> list:
    points = []
    for _ in range(CHECK_POINTS):
        base = bundle.default_init(rng)
        points.append(base + 0.5 * rng.normal(bundle.dim))
    return points


@one_blas_thread()  # its products, as a run's, on one BLAS thread
def _cmd_check(args) -> int:
    bundle = make_problem(args.problem, data_seed=args.data_seed)
    obj = bundle.objective
    rng = derive_stream(args.data_seed, STREAM_INIT)
    worst = 0.0
    for x in _check_points(bundle, rng):
        g_true = np.asarray(obj.gradient(x), dtype=np.float64)
        g_fd = fd_gradient(obj, x)
        rel = float(np.linalg.norm(g_true - g_fd) / max(np.linalg.norm(g_fd), 1e-8))
        worst = max(worst, rel)
    print(f"{args.problem}: max relative gradient error {worst:.3e} over "
          f"{CHECK_POINTS} points")
    if bundle.dim <= MAX_HESSIAN_DIM:
        lam = min_hessian_eig(obj, bundle.init_point(args.data_seed))
        print(f"{args.problem}: min Hessian eigenvalue at the canonical start {lam:.6f}")
    if worst < CHECK_TOL:
        print("PASS")
        return 0
    print(f"FAIL (tolerance {CHECK_TOL:g})")
    return 1


def _load_point(path: str) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").replace(",", " ")
    values = [float(tok) for tok in text.split()]
    if not values:
        raise ContractViolation(f"no numbers found in {path}")
    return np.asarray(values, dtype=np.float64)


@one_blas_thread()
def _cmd_classify(args) -> int:
    bundle = make_problem(args.problem, data_seed=args.data_seed)
    x = _load_point(args.point_file)
    report = classify_point(bundle.objective, x, args.eps, args.rho)
    print(f"grad_norm   = {report.grad_norm:.6e} (threshold {report.grad_threshold:g})")
    print(f"lambda_min  = {report.lambda_min:.6e} (threshold {report.curv_threshold:.6e})")
    print(f"label       = {report.label}")
    return 0


def _cmd_presets(args) -> int:
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(PRESETS.items()):
        path = target / f"{name}.ini"
        _atomic_write_text(path, text)
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "walk":
            return _cmd_walk(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "list-problems":
            for name in PROBLEM_NAMES:
                print(name)
            return 0
        if args.command == "presets":
            return _cmd_presets(args)
    except (ContractViolation, NumericalDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
