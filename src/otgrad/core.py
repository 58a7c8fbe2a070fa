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

    `oracle` is the first-order oracle: it maps a float64 stack X of shape
    (rows, dim) to (F, G), float64 arrays of shape (rows,) and (rows, dim)
    with F[i] = f(X[i]) and G[i] = grad f(X[i]).  Row i must not depend on
    the other rows, so a row answers the same bits alone as in any stack.
    The optimizers make every call through it.

    `value` and `gradient` are the single-point calls on a vector of shape
    (dim,).  Give either the oracle or the two of them: an Objective built
    from `value` and `gradient` alone gets an oracle that calls them row by
    row, and one built from `oracle` alone gets them as its one-row case.

    Smoothness constants are optional metadata; they are required only by
    the theory-mode parameter derivations.
    """

    dim: int
    value: Optional[Callable[[np.ndarray], float]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    lipschitz_grad: Optional[float] = None
    lipschitz_hess: Optional[float] = None
    oracle: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        value, gradient, oracle = self.value, self.gradient, self.oracle
        if oracle is None:
            if value is None or gradient is None:
                raise ContractViolation("an Objective needs an oracle, or a value and a gradient")
            object.__setattr__(self, "oracle", row_oracle(lambda x: (value(x), gradient(x))))
            return
        if value is None:
            object.__setattr__(self, "value", lambda x: float(oracle(_one_row(x))[0][0]))
        if gradient is None:
            object.__setattr__(self, "gradient", lambda x: oracle(_one_row(x))[1][0])


def _one_row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)[None, :]


def row_oracle(point: Callable[[np.ndarray], tuple]) -> Callable:
    """The stacked oracle that calls point(x) -> (f(x), grad f(x)) on each
    row x of its stack in turn."""

    def oracle(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F, G = [], []
        for x in X:
            f, g = point(x)
            F.append(float(f))
            G.append(g)
        return np.array(F), np.array(G, dtype=np.float64)

    return oracle


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce x to a 1-D float64 array, checking dimension when given."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractViolation(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def eval_rows(obj: Objective, X: np.ndarray, checked: bool = True) -> tuple[list, np.ndarray]:
    """One oracle call over the rows of X: (F as a list of floats, G).

    A float overflow inside the objective raises NumericalDomainError, and
    F or G of the wrong shape ContractViolation.  `checked` adds
    eval_objective's finiteness checks on X, F and G.
    """
    name = obj.name or "objective"
    if checked and not np.isfinite(X).all():
        raise NumericalDomainError(f"{name}: non-finite input point")
    try:
        F, G = obj.oracle(X)
    except OverflowError as exc:
        raise NumericalDomainError(f"{name}: float overflow: {exc}") from exc
    if F.shape != (X.shape[0],) or G.shape != X.shape:
        raise ContractViolation(
            f"{name}: oracle shapes {F.shape}, {G.shape} for rows of shape {X.shape}")
    F = F.tolist()
    # finite floats have a finite sum unless it overflows; then each decides
    if checked and not ((math.isfinite(sum(F)) or all(map(math.isfinite, F)))
                        and np.isfinite(G).all()):
        raise NumericalDomainError(f"{name}: non-finite value or gradient")
    return F, G


def eval_objective(obj: Objective, x) -> tuple[float, np.ndarray]:
    """Evaluate (f(x), grad f(x)) with dimension and finiteness checks: the
    one-row case of eval_rows."""
    F, G = eval_rows(obj, as_vector(x, obj.dim)[None, :])
    return F[0], G[0]


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
