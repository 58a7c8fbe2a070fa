"""otgrad: gradient methods with occupation-time-adapted perturbations.

The package bundles the optimizers (plain, accelerated, perturbed, and
the occupation-adapted variants plus standard stochastic baselines), a
set of nonconvex benchmark problems with analytic gradients, a
self-interacting lattice-walk simulator, numerical verification tools,
and a config-driven experiment harness with a CLI.
"""

from .core import (
    ContractViolation,
    NumericalDomainError,
    Objective,
    RngStream,
    STREAM_ALGORITHM,
    STREAM_BATCH,
    STREAM_DATA,
    STREAM_INIT,
    as_vector,
    derive_stream,
    eval_objective,
)
from .occupation import (
    OccupationWindow,
    UNWINDOWED_H,
    WeightFn,
    sample_ball_perturbation,
    sample_occupation_perturbation,
)
from .optimizers import (
    ALGORITHMS,
    AlgoConfig,
    BASELINE_ALGORITHMS,
    Batcher,
    BaselineHyper,
    PERTURBED_ALGORITHMS,
    PagdotParams,
    PgdotParams,
    RunError,
    RunTrace,
    baseline_step,
    derive_pagdot_params,
    derive_pgdot_params,
    gd_step,
    nce,
    run,
    run_lanes,
)
from .analysis import (
    StationarityReport,
    classify_point,
    escape_summary,
    fd_gradient,
    fd_hessian,
    min_hessian_eig,
    monotone_after,
)
from .walks import (
    WALK_KINDS,
    fit_msd_exponent,
    localization_metric,
    msd_curve,
    msd_exponent,
    path_range,
    simulate,
)
from .benchmarks import PROBLEM_NAMES, ProblemBundle, make_problem

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgoConfig",
    "BASELINE_ALGORITHMS",
    "Batcher",
    "BaselineHyper",
    "ContractViolation",
    "NumericalDomainError",
    "Objective",
    "OccupationWindow",
    "PERTURBED_ALGORITHMS",
    "PROBLEM_NAMES",
    "PagdotParams",
    "PgdotParams",
    "ProblemBundle",
    "RngStream",
    "RunError",
    "RunTrace",
    "STREAM_ALGORITHM",
    "STREAM_BATCH",
    "STREAM_DATA",
    "STREAM_INIT",
    "StationarityReport",
    "UNWINDOWED_H",
    "WALK_KINDS",
    "WeightFn",
    "as_vector",
    "baseline_step",
    "classify_point",
    "derive_pagdot_params",
    "derive_pgdot_params",
    "derive_stream",
    "escape_summary",
    "eval_objective",
    "fd_gradient",
    "fd_hessian",
    "fit_msd_exponent",
    "gd_step",
    "localization_metric",
    "make_problem",
    "min_hessian_eig",
    "monotone_after",
    "msd_curve",
    "msd_exponent",
    "nce",
    "path_range",
    "run",
    "run_lanes",
    "sample_ball_perturbation",
    "sample_occupation_perturbation",
    "simulate",
]
