"""Numerical verification tools.

Finite-difference derivative checks, the minimum eigenvalue of the dense
finite-difference Hessian (LAPACK's symmetric solver, np.linalg.eigvalsh),
stationarity classification of a point at tolerances (eps, rho), and
small trace analytics used by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ContractViolation, NumericalDomainError, Objective, as_vector, eval_objective
from .optimizers import RunTrace

MAX_HESSIAN_DIM = 64
DEFAULT_H_GRAD = 1e-6
DEFAULT_H_HESS = 1e-4

LABELS = ("eps_second_order", "eps_first_order", "neither")


@dataclass(frozen=True)
class StationarityReport:
    grad_norm: float
    lambda_min: float
    epsilon: float
    rho: float
    label: str
    grad_threshold: float   # eps
    curv_threshold: float   # -sqrt(rho * eps)


def fd_gradient(obj: Objective, x, h_fd: float = DEFAULT_H_GRAD) -> np.ndarray:
    """Central-difference gradient, one coordinate pair per entry."""
    if h_fd <= 0:
        raise ContractViolation(f"h_fd must be > 0, got {h_fd}")
    x = as_vector(x, obj.dim)
    g = np.zeros(obj.dim)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h_fd
        f_plus = obj.value(x + e)
        f_minus = obj.value(x - e)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalDomainError(f"non-finite evaluation in fd_gradient at coordinate {i}")
        g[i] = (f_plus - f_minus) / (2.0 * h_fd)
    return g


def fd_hessian(obj: Objective, x, h_fd: float = DEFAULT_H_HESS) -> np.ndarray:
    """Symmetrized Hessian from central differences of the analytic gradient:
    one oracle call over the rows x + h e_j, then x - h e_j, j < d."""
    if h_fd <= 0:
        raise ContractViolation(f"h_fd must be > 0, got {h_fd}")
    x = as_vector(x, obj.dim)
    if obj.dim > MAX_HESSIAN_DIM:
        raise ContractViolation(
            f"dense Hessian limited to dim <= {MAX_HESSIAN_DIM}, got {obj.dim}")
    steps = np.diag(np.full(obj.dim, h_fd))
    G = obj.oracle(np.concatenate([x + steps, x - steps]))[1]
    H = ((G[:obj.dim] - G[obj.dim:]) / (2.0 * h_fd)).T
    if not np.all(np.isfinite(H)):
        raise NumericalDomainError("non-finite entries in finite-difference Hessian")
    return 0.5 * (H + H.T)


def min_hessian_eig(obj: Objective, x, h_fd: float = DEFAULT_H_HESS) -> float:
    """Minimum eigenvalue of the finite-difference Hessian at x."""
    return float(np.linalg.eigvalsh(fd_hessian(obj, x, h_fd=h_fd))[0])


def classify_point(obj: Objective, x, eps: float, rho: float,
                   h_fd: float = DEFAULT_H_HESS) -> StationarityReport:
    """Classify x by gradient norm and minimum Hessian eigenvalue.

    eps_second_order: grad_norm <= eps and lambda_min >= -sqrt(rho*eps);
    eps_first_order: grad_norm <= eps only; neither: otherwise.
    """
    if eps <= 0 or rho <= 0:
        raise ContractViolation(f"eps and rho must be > 0, got eps={eps}, rho={rho}")
    x = as_vector(x, obj.dim)
    _, g = eval_objective(obj, x)
    grad_norm = float(np.linalg.norm(g))
    lambda_min = min_hessian_eig(obj, x, h_fd=h_fd)
    curv_threshold = -math.sqrt(rho * eps)
    if grad_norm <= eps and lambda_min >= curv_threshold:
        label = "eps_second_order"
    elif grad_norm <= eps:
        label = "eps_first_order"
    else:
        label = "neither"
    return StationarityReport(grad_norm=grad_norm, lambda_min=lambda_min,
                              epsilon=float(eps), rho=float(rho), label=label,
                              grad_threshold=float(eps), curv_threshold=curv_threshold)


def escape_summary(traces: Sequence[RunTrace], threshold: float) -> list:
    """One row per run: first step with f below threshold, best f, event counts.

    Rows are sorted by (algorithm, seed); all traces must come from the
    same objective.
    """
    traces = list(traces)
    if not traces:
        return []
    problems = {tr.problem for tr in traces}
    if len(problems) > 1:
        raise ContractViolation(f"traces mix objectives: {sorted(problems)}")
    rows = []
    for tr in sorted(traces, key=lambda tr: (tr.algorithm, tr.seed)):
        rows.append({
            "algorithm": tr.algorithm,
            "seed": tr.seed,
            "steps_to_threshold": tr.steps_to_threshold(threshold),
            "best_f": tr.best_f(),
            "n_perturbations": tr.n_perturbations,
            "n_nce": tr.n_nce,
        })
    return rows
