"""Shared primitives: objective contract, error types, seeded random streams.

Everything downstream (optimizers, benchmarks, walks, harness) builds on the
two things defined here: an `Objective` bundling a smooth function with its
analytic gradient, and `RngStream`, a counter-based random stream keyed by
(base_seed, stream_id) so that independent components of an experiment draw
from provably independent streams and every run is exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ContractViolation(ValueError):
    """An input violated a documented interface contract (e.g. wrong dimension)."""


class NumericalDomainError(ArithmeticError):
    """A numeric result left the valid domain (NaN, infinity, out-of-range argument)."""


@dataclass(frozen=True)
class Objective:
    """A differentiable function R^dim -> R with an analytic gradient.

    `value` and `gradient` must accept a float64 array of shape (dim,).
    `value_and_gradient`, when set, is a fused oracle returning
    (value(x), gradient(x)) with the same bits from one pass; eval_objective
    then calls it instead of the two.  Every closed-form benchmark problem
    (staircase, reglq, phase_retrieval, airy_regression) and every MLP
    objective carries one.  Smoothness constants are optional
    metadata; they are required only by the theory-mode parameter
    derivations.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    lipschitz_grad: Optional[float] = None
    lipschitz_hess: Optional[float] = None
    known_min: Optional[float] = None
    value_and_gradient: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce x to a 1-D float64 array, checking dimension when given."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractViolation(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def call_oracle(obj: Objective, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(f(x), grad f(x)) as a float and a float64 array, with no checks.

    Makes one fused call when the objective has one, else calls value and
    gradient.
    """
    if obj.value_and_gradient is not None:
        f, g = obj.value_and_gradient(x)
    else:
        f, g = obj.value(x), obj.gradient(x)
    return float(f), np.asarray(g, dtype=np.float64)


def eval_objective(obj: Objective, x) -> tuple[float, np.ndarray]:
    """Evaluate (f(x), grad f(x)) with dimension and finiteness checks."""
    v = as_vector(x, obj.dim)
    if not np.isfinite(v).all():
        raise NumericalDomainError(f"{obj.name or 'objective'}: non-finite input point")
    f, g = call_oracle(obj, v)
    if g.shape != (obj.dim,):
        raise ContractViolation(
            f"{obj.name or 'objective'}: gradient shape {g.shape} != ({obj.dim},)"
        )
    if not math.isfinite(f) or not np.isfinite(g).all():
        raise NumericalDomainError(f"{obj.name or 'objective'}: non-finite value or gradient")
    return f, g


_MASK64 = (1 << 64) - 1


class RngStream:
    """Counter-based random stream keyed by (base_seed, stream_id).

    Built on the Philox bit generator: two streams with distinct
    (base_seed, stream_id) keys are statistically independent, and a stream
    is fully determined by its key, independent of creation order.

    Primitive draws:
      uniform()      one float in [0, 1)
      bernoulli(p)   True with probability p; consumes exactly one uniform,
                     defined as uniform() < p, hence deterministic at p in {0, 1}
      normal()       standard normal draws (for Gaussian data and directions)
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        if base_seed < 0 or stream_id < 0:
            raise ContractViolation("base_seed and stream_id must be non-negative")
        self.base_seed = int(base_seed)
        self.stream_id = int(stream_id)
        key = (self.base_seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ContractViolation(f"bernoulli probability {p} outside [0, 1]")
        return self.uniform() < p

    def normal(self, n: Optional[int] = None):
        if n is None:
            return float(self._gen.standard_normal())
        return self._gen.standard_normal(n)

    def integers(self, low: int, high: int, n: Optional[int] = None):
        return self._gen.integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def derive_stream(base_seed: int, stream_id: int) -> RngStream:
    """Derive the stream with the given id from a base seed."""
    return RngStream(base_seed, stream_id)


# Stream id allocation, so independent parts of a run never share draws.
STREAM_ALGORITHM = 0   # perturbations, NCE directions
STREAM_BATCH = 1       # mini-batch shuffling
STREAM_INIT = 2        # random initial points
STREAM_DATA = 3        # frozen problem data (instances, datasets)
