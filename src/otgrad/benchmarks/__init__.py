"""Benchmark problem registry.

PROBLEMS declares each problem once: a builder and its options, each with
a type, a default and a rule.  make_problem() and the config parser both
read it, so a new problem, or a new option, is one entry here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core import ANY, AT_LEAST_1, POSITIVE, Option, one_of
from ..core import STREAM_INIT, ContractViolation, Objective, RngStream, derive_stream
from .airy import AIRY_DIM, airy_ai, airy_regression_objective
from .datasets import DATASET_KINDS, BLOB_SAMPLES, load_dataset
from .mlp import ACTIVATIONS, MlpProblem, mlp_param_count
from .quadratics import (
    PR_DIM,
    PR_N_MEASUREMENTS,
    REGLQ_DIM,
    REGLQ_N_TERMS,
    phase_retrieval_init_std,
    phase_retrieval_objective,
    reglq_objective,
)
from .staircase import staircase_objective, staircase_profile, staircase_saddle_init

__all__ = [
    "PROBLEMS", "PROBLEM_NAMES", "ProblemBundle", "make_problem",
    "airy_ai", "airy_regression_objective", "load_dataset", "MlpProblem", "mlp_param_count",
    "phase_retrieval_objective", "reglq_objective", "staircase_objective", "staircase_profile",
]


@dataclass
class ProblemBundle:
    name: str
    objective: Objective                    # the full-data objective
    default_init: Callable[[RngStream], np.ndarray]
    problem: Optional[MlpProblem] = None    # the dataset behind it, set for dataset-backed problems

    @property
    def dim(self) -> int:
        return self.objective.dim

    def init_point(self, data_seed: int) -> np.ndarray:
        """Canonical x0, derived deterministically from the data seed."""
        return self.default_init(derive_stream(data_seed, STREAM_INIT))


@dataclass(frozen=True)
class Problem:
    """build(data_seed, **every option) returns the ProblemBundle fields
    after its name; check(every option) names a bad combination, or None.
    batch_size is the default mini-batch size of a dataset-backed problem,
    trained on mini-batches of its bundle's .problem; None for a
    closed-form one."""

    build: Callable[..., tuple]
    options: dict
    check: Callable[[dict], Optional[str]] = lambda options: None
    batch_size: Optional[int] = None

    def resolve(self, name: str, options: dict) -> dict:
        """The given options coerced to their types, the others (or None) at
        their defaults."""
        unknown = set(options) - set(self.options)
        if unknown:
            raise ContractViolation(f"unknown options for {name}: {sorted(unknown)}")
        return {key: opt.default if options.get(key) is None else opt.kind(options[key])
                for key, opt in self.options.items()}


def _staircase(data_seed, dim, n_plateaus, length):
    return (staircase_objective(dim=dim, n_plateaus=n_plateaus, length=length),
            lambda rng: staircase_saddle_init(dim, n_plateaus, length))


def _airy_regression(data_seed):
    return airy_regression_objective(), lambda rng: np.zeros(AIRY_DIM)


def _reglq(data_seed, n_terms):
    return reglq_objective(data_seed, n_terms=n_terms), lambda rng: np.zeros(REGLQ_DIM)


def _phase_retrieval(data_seed, dim, n_measurements):
    obj = phase_retrieval_objective(data_seed, n_measurements=n_measurements, dim=dim)
    std = phase_retrieval_init_std(dim)
    return obj, lambda rng: std * rng.normal(dim)


def _mlp(data_seed, n_hidden, dataset, data_path, n_samples, activation, init_mean, init_std):
    n_samples = BLOB_SAMPLES if n_samples is None else n_samples
    features, labels = load_dataset(dataset, path=data_path, seed=data_seed, n_samples=n_samples)
    problem = MlpProblem(features, labels, n_hidden=n_hidden, activation=activation)
    return (problem.full_objective(),
            lambda rng: problem.init_params(rng, mean=init_mean, std=init_std), problem)


def _mlp_check(options: dict) -> Optional[str]:
    if options["dataset"] != "synthetic_blobs":      # read from files
        if not options["data_path"]:
            return f"dataset {options['dataset']} needs data_path"
        if options["n_samples"] is not None:
            return f"dataset {options['dataset']} takes no n_samples: it reads every sample"


PROBLEMS = {
    "staircase": Problem(_staircase, {
        "dim": Option(int, AT_LEAST_1, 4),
        "n_plateaus": Option(int, AT_LEAST_1, 4),
        "length": Option(float, POSITIVE, 1.0),
    }),
    "airy_regression": Problem(_airy_regression, {}),
    "reglq": Problem(_reglq, {"n_terms": Option(int, AT_LEAST_1, REGLQ_N_TERMS)}),
    "phase_retrieval": Problem(_phase_retrieval, {
        "dim": Option(int, AT_LEAST_1, PR_DIM),
        "n_measurements": Option(int, AT_LEAST_1, PR_N_MEASUREMENTS),
    }),
    "mlp": Problem(_mlp, {
        "n_hidden": Option(int, AT_LEAST_1, 32),
        "dataset": Option(str, one_of(DATASET_KINDS), "synthetic_blobs"),
        "data_path": Option(str, ANY, None),
        "n_samples": Option(int, AT_LEAST_1, None),     # synthetic_blobs only; None: its default
        "activation": Option(str, one_of(ACTIVATIONS), "sigmoid"),
        "init_mean": Option(float, ANY, 0.0),
        "init_std": Option(float, POSITIVE, 0.1),
    }, check=_mlp_check, batch_size=128),
}

PROBLEM_NAMES = tuple(PROBLEMS)


def make_problem(name: str, data_seed: int = 0, **options) -> ProblemBundle:
    """Build a benchmark instance; unknown option keys, and a combination
    its entry's check names, are rejected."""
    entry = PROBLEMS.get(name)
    if entry is None:
        raise ContractViolation(f"unknown problem {name!r}, expected one of {PROBLEM_NAMES}")
    options = entry.resolve(name, options)
    message = entry.check(options)
    if message:
        raise ContractViolation(f"{name}: {message}")
    return ProblemBundle(name, *entry.build(data_seed, **options))
