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


def _profile(sums: list, dim: int, scale: float, n_plateaus: int,
             length: float) -> tuple[list, list]:
    """f~(r) and scale * f~'(r) at r = s / dim for each row sum s, in one pass.

    The plateau index is 0 in the innermost bowl, else round(r / L) capped
    at N.  A NaN sum raises NumericalDomainError; r >= 0 is the caller's to check.
    """
    fs, coefs = [], []
    for s in sums:
        r = s / dim
        try:
            n = min(math.floor(r / length + 0.5), n_plateaus)
        except ValueError:  # math.floor(nan); the try costs nothing when r is a number
            raise NumericalDomainError(f"squared-radius mean is {r}") from None
        if n == 0:
            fs.append(r ** 3)
            coefs.append(3.0 * r * r * scale)
        else:
            u = r - n * length
            fs.append(u ** 3 + 0.25 * n * length ** 3)
            coefs.append(3.0 * u ** 2 * scale)
    return fs, coefs


def staircase_profile(r: float, n_plateaus: int = 4, length: float = 1.0) -> float:
    if r < 0:
        raise ContractViolation(f"squared-radius mean must be >= 0, got {r}")
    return _profile([r], 1, 1.0, n_plateaus, length)[0][0]


def staircase_objective(dim: int = 4, n_plateaus: int = 4, length: float = 1.0) -> Objective:
    """f(x) = f~(mean(x_i^2)); gradient_i = f~'(r) * 2 x_i / dim.

    The mean of a row is np.add.reduce(x * x) / dim, which is what np.mean
    computes for a float64 vector, bit for bit, without its wrapper; the
    row reductions of a stack equal the per-vector ones.  r is a mean of
    squares, so it is never negative and the profile needs no sign check.
    The profile stays scalar per row, because array np.power rounds
    differently.
    """
    if dim <= 0 or n_plateaus < 1 or length <= 0:
        raise ContractViolation(
            f"invalid staircase shape dim={dim}, n_plateaus={n_plateaus}, length={length}")
    scale = 2.0 / dim

    def oracle(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fs, coefs = _profile(np.add.reduce(X * X, axis=1).tolist(), dim, scale, n_plateaus, length)
        return np.array(fs), X * np.array(coefs)[:, None]

    return Objective(dim=dim, name="staircase", oracle=oracle)


def staircase_saddle_init(dim: int, n_plateaus: int = 4, length: float = 1.0) -> np.ndarray:
    """Constant vector sitting exactly on the outermost zero-gradient ring."""
    return np.full(dim, math.sqrt(n_plateaus * length))
