"""Regularized linear-quadratic and phase-retrieval benchmark instances.

Both problems freeze their random data at construction from a seed-derived
stream, so an instance is a pure deterministic Objective afterwards.  Their
oracles evaluate a stack row by row: the stacked products would round
differently from the per-point ones.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import STREAM_DATA, ContractViolation, Objective, derive_stream, row_oracle

REGLQ_DIM = 2
REGLQ_N_TERMS = 10
# Averaging the N linear terms collapses the sum: H and the degree-10
# regularizer are shared, so f(x) = x'Hx/2 + mean(b_i)'x + sum_j x_j^10.
_REGLQ_H_DIAG = np.array([1.0, -0.1])
_REGLQ_B_STD = np.sqrt(np.array([0.1, 0.001]))


def reglq_objective(data_seed: int = 0, n_terms: int = REGLQ_N_TERMS) -> Objective:
    """Indefinite quadratic plus a degree-10 coordinate regularizer."""
    if n_terms < 1:
        raise ContractViolation(f"n_terms must be >= 1, got {n_terms}")
    rng = derive_stream(data_seed, STREAM_DATA)
    b = np.array([rng.normal(REGLQ_DIM) * _REGLQ_B_STD for _ in range(n_terms)])
    b_mean = b.mean(axis=0)

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        hx = _REGLQ_H_DIAG * x  # the same bits as x * H
        return (float(0.5 * hx @ x + b_mean @ x + np.sum(x ** 10)),
                hx + b_mean + 10.0 * x ** 9)

    return Objective(dim=REGLQ_DIM, name="reglq", oracle=row_oracle(value_and_gradient))


PR_N_MEASUREMENTS = 200
PR_DIM = 10


def phase_retrieval_objective(data_seed: int = 0,
                              n_measurements: int = PR_N_MEASUREMENTS,
                              dim: int = PR_DIM) -> Objective:
    """Quartic phase-retrieval loss f(x) = mean_i ((a_i'x)^2 - y_i)^2.

    Sensing vectors a_i are standard normal, the planted signal is
    x* ~ N(0, I/dim), and y_i = (a_i'x*)^2.
    """
    if n_measurements < 1 or dim < 1:
        raise ContractViolation(
            f"need n_measurements >= 1 and dim >= 1, got {n_measurements}, {dim}")
    rng = derive_stream(data_seed, STREAM_DATA)
    a = rng.normal(n_measurements * dim).reshape(n_measurements, dim)
    x_star = rng.normal(dim) / math.sqrt(dim)
    y = (a @ x_star) ** 2

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        z = a @ x
        res = z * z - y
        return (float(res @ res) / n_measurements,
                (4.0 / n_measurements) * (a.T @ (res * z)))

    return Objective(dim=dim, name="phase_retrieval", oracle=row_oracle(value_and_gradient))


def phase_retrieval_init_std(dim: int = PR_DIM) -> float:
    """Std of the canonical tiny Gaussian start N(0, I/(10000 dim))."""
    return math.sqrt(1.0 / (10000.0 * dim))
