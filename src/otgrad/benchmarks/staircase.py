"""Radially symmetric staircase landscape with rings of degenerate saddles.

The scalar profile is piecewise cubic in r = mean(x_i^2):

    f~(r) = r^3                              0 <= r < L/2
    f~(r) = (r - nL)^3 + nL^3/4              nL - L/2 <= r < nL + L/2, 1 <= n <= N
    f~(r) = (r - NL)^3 + NL^3/4              r >= NL + L/2

The slope 3(r - nL)^2 vanishes on every ring r = nL, so plain gradient
descent parks on the first ring it reaches while the global minimum sits at
the origin.  The profile is C^1 across all branch boundaries.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ContractViolation, NumericalDomainError, Objective


def _branch(r: float, n_plateaus: int, length: float) -> int:
    """Plateau index for radius r: 0 for the innermost bowl, else min(n, N)."""
    try:
        n = math.floor(r / length + 0.5)
    except ValueError:  # math.floor(nan); the try costs nothing when r is a number
        raise NumericalDomainError(f"squared-radius mean is {r}") from None
    return min(n, n_plateaus)


def _profile_and_slope(r: float, n_plateaus: int, length: float) -> tuple[float, float]:
    """(f~(r), f~'(r)) from one branch lookup; r >= 0 is the caller's to check."""
    n = _branch(r, n_plateaus, length)
    if n == 0:
        return r ** 3, 3.0 * r * r
    u = r - n * length
    return u ** 3 + 0.25 * n * length ** 3, 3.0 * u ** 2


def staircase_profile(r: float, n_plateaus: int = 4, length: float = 1.0) -> float:
    if r < 0:
        raise ContractViolation(f"squared-radius mean must be >= 0, got {r}")
    return _profile_and_slope(r, n_plateaus, length)[0]


def staircase_slope(r: float, n_plateaus: int = 4, length: float = 1.0) -> float:
    if r < 0:
        raise ContractViolation(f"squared-radius mean must be >= 0, got {r}")
    return _profile_and_slope(r, n_plateaus, length)[1]


def staircase_objective(dim: int = 4, n_plateaus: int = 4, length: float = 1.0) -> Objective:
    """f(x) = f~(mean(x_i^2)); gradient_i = f~'(r) * 2 x_i / dim.

    The mean is np.add.reduce(x * x) / dim, which is what np.mean computes
    for a float64 vector, bit for bit, without its wrapper.  r is a mean of
    squares, so it is never negative and the profile needs no sign check.
    The lane oracle evaluates a (lanes, dim) stack with the same bits per
    row.
    """
    if dim <= 0 or n_plateaus < 1 or length <= 0:
        raise ContractViolation(
            f"invalid staircase shape dim={dim}, n_plateaus={n_plateaus}, length={length}")
    scale = 2.0 / dim
    add = np.add.reduce

    def value(x: np.ndarray) -> float:
        return _profile_and_slope(float(add(x * x)) / dim, n_plateaus, length)[0]

    def gradient(x: np.ndarray) -> np.ndarray:
        slope = _profile_and_slope(float(add(x * x)) / dim, n_plateaus, length)[1]
        return slope * scale * x

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, slope = _profile_and_slope(float(add(x * x)) / dim, n_plateaus, length)
        return f, slope * scale * x

    def lane_value_and_gradient(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The row reductions equal the per-vector ones; the profile stays
        # scalar per row, because array np.power rounds differently.
        fs, coefs = [], []
        for sum_sq in add(X * X, axis=1).tolist():
            f, slope = _profile_and_slope(sum_sq / dim, n_plateaus, length)
            fs.append(f)
            coefs.append(slope * scale)
        return np.array(fs), X * np.array(coefs)[:, None]

    return Objective(dim=dim, value=value, gradient=gradient, name="staircase",
                     known_min=0.0, value_and_gradient=value_and_gradient,
                     lane_value_and_gradient=lane_value_and_gradient)


def staircase_saddle_init(dim: int, n_plateaus: int = 4, length: float = 1.0) -> np.ndarray:
    """Constant vector sitting exactly on the outermost zero-gradient ring."""
    return np.full(dim, math.sqrt(n_plateaus * length))
