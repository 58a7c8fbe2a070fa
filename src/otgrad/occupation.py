"""Occupation-time bookkeeping and the adapted perturbation sampler.

The perturbed optimizers decide, coordinate by coordinate, whether a noise
kick should point left or right based on how much time the trajectory has
recently spent on either side of the current iterate.  This module owns that
bookkeeping: a sliding window of past iterates, per-coordinate left/right
occupation counts, the polynomial weight function, and the two perturbation
samplers (occupation-adapted per-coordinate noise, and uniform ball noise
used by the non-adapted baselines).

WeightFn owns the weight rule w(n) = 1 + n**alpha, its overflow and the
error that refuses it, for the sampler and both walk engines in
otgrad.walks, so they agree on every weight and on where the rule stops.

Conventions, all load-bearing:
  * counts at position xi look at stored samples only; a sample exactly equal
    to xi is a tie and counts LEFT,
  * the iterate being perturbed is never part of its own counts (callers
    record it into the window after sampling),
  * window half-width h >= UNWINDOWED_H (or infinity) means "no windowing":
    every stored sample on a side is counted regardless of distance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ContractViolation, RngStream, as_vector

# Half-widths at or above this sentinel disable distance windowing.
UNWINDOWED_H = 1e12

# Largest weight for which w(L) + w(R) is still a finite float.
_MAX_WEIGHT = sys.float_info.max / 2


@dataclass(frozen=True)
class WeightFn:
    """Polynomial occupation weight w(n) = 1 + n**alpha, alpha >= 0.

    Each weight is the scalar 1.0 + float(n) ** alpha: array np.power
    rounds some counts differently (alpha 1.5 at count 7, 2.5 at 10, 5 at
    1553 on numpy 2.4). A weight too large for w(L) + w(R) to stay
    finite, or NaN, is inf, and check() refuses the counts that reach one.
    """

    alpha: float = 5.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ContractViolation(f"weight exponent must be >= 0, got {self.alpha}")

    def __call__(self, n: int) -> float:
        """w(n) of one count n >= 0, or inf where it overflows."""
        if n < 0:
            raise ContractViolation("occupation count must be >= 0")
        try:
            w = 1.0 + float(n) ** self.alpha
        except OverflowError:
            return math.inf
        return w if w <= _MAX_WEIGHT else math.inf  # NaN too

    def weights(self, counts: np.ndarray) -> np.ndarray:
        """w of every entry of an integer array of counts, in its shape.

        Each entry equals the scalar w(n) bit for bit: the distinct counts
        are weighted one scalar call each and the weights gathered from
        that table.
        """
        try:
            occupied = np.bincount(counts.reshape(-1))
        except ValueError:  # a negative count
            raise ContractViolation("occupation count must be >= 0") from None
        table = np.empty(occupied.shape[0], dtype=np.float64)
        distinct = np.flatnonzero(occupied)
        table[distinct] = [self(n) for n in distinct.tolist()]
        return table[counts]

    def check(self, cmax: int) -> None:
        """Raise ContractViolation if a count in [0, cmax] has an inf weight.

        w grows with n, so the two ends decide whether one does, and
        bisection finds the smallest, which the error names: past it the
        move and kick probabilities are not defined.
        """
        if self(0) == math.inf:
            c = 0
        elif self(cmax) == math.inf:
            ok, c = 0, cmax  # w(ok) is finite, w(c) is not
            while c - ok > 1:
                mid = (ok + c) // 2
                if self(mid) == math.inf:
                    c = mid
                else:
                    ok = mid
        else:
            return
        raise ContractViolation(
            f"weight 1 + c**alpha overflows at alpha={self.alpha}, visit count c={c}")


class OccupationWindow:
    """Sliding window over the last `t_count` recorded iterates.

    t_count=None keeps the full history (used by the theory-mode algorithms,
    which count occupation over all past iterates).
    """

    def __init__(self, dim: int, t_count: Optional[int] = None, h: float = math.inf):
        if dim <= 0:
            raise ContractViolation(f"dim must be positive, got {dim}")
        if t_count is not None and t_count <= 0:
            raise ContractViolation(f"t_count must be positive, got {t_count}")
        if not (h > 0):
            raise ContractViolation(f"window half-width h must be positive, got {h}")
        self.dim = dim
        self.t_count = t_count
        self.h = float(h)
        if t_count is None:
            self._buf = np.empty((256, dim), dtype=np.float64)
        else:
            self._buf = np.empty((t_count, dim), dtype=np.float64)
        self._n = 0      # number of stored samples
        self._head = 0   # ring-buffer write position (bounded case)

    def __len__(self) -> int:
        return self._n

    @property
    def unwindowed(self) -> bool:
        return math.isinf(self.h) or self.h >= UNWINDOWED_H

    def record(self, x) -> None:
        """Append an iterate, evicting the oldest one beyond t_count."""
        v = as_vector(x, self.dim)
        if self.t_count is None:
            if self._n == self._buf.shape[0]:
                grown = np.empty((2 * self._n, self.dim), dtype=np.float64)
                grown[: self._n] = self._buf
                self._buf = grown
            self._buf[self._n] = v
            self._n += 1
        else:
            self._buf[self._head] = v
            self._head = (self._head + 1) % self.t_count
            self._n = min(self._n + 1, self.t_count)

    def samples(self) -> np.ndarray:
        """Stored samples, shape (len(self), dim). Order not significant."""
        return self._buf[: self._n]

    def counts_all(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Left/right occupation counts of every coordinate around the point x.

        For coordinate i, left counts stored values in [x_i - h, x_i] (ties
        at x_i count left), right counts values in (x_i, x_i + h].
        """
        v = as_vector(x, self.dim)
        block = self._buf[: self._n]
        if self._n == 0:
            z = np.zeros(self.dim, dtype=np.int64)
            return z, z.copy()
        if self.unwindowed:
            left = np.count_nonzero(block <= v, axis=0)
            right = self._n - left
        else:
            left = np.count_nonzero((block >= v - self.h) & (block <= v), axis=0)
            right = np.count_nonzero((block > v) & (block <= v + self.h), axis=0)
        return left.astype(np.int64), right.astype(np.int64)


def _left_probabilities(w: WeightFn, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Probability of a LEFT kick for every coordinate: w(R) / (w(L) + w(R)).

    More recent occupation on the right makes a left kick more likely, so
    the noise pushes the iterate away from where it has been. Each entry
    equals the scalar expression with WeightFn's weights bit for bit.
    Counts whose weights would overflow w(L) + w(R) raise
    ContractViolation (WeightFn.check) before any division.
    """
    counts = np.concatenate((left, right)).reshape(2, -1)
    w.check(int(counts.max()))
    wl, wr = w.weights(counts)
    return wr / (wl + wr)


def sample_occupation_perturbation(
    x, window: OccupationWindow, r: float, w: WeightFn, rng: RngStream
) -> np.ndarray:
    """Occupation-adapted perturbation of x.

    Coordinate i kicks left with probability p_i = w(R_i)/(w(L_i)+w(R_i))
    and has magnitude (r/sqrt(d)) * Unif[0,1).  Draw order is part of the
    contract, so a run can be replayed bit for bit: exactly two uniforms per
    coordinate, in ascending coordinate order, sign first (left when
    u < p_i, as RngStream.bernoulli) then magnitude.  The 2d uniforms are
    drawn in one call; even entries are signs, odd entries magnitudes.

    Each p_i equals w(R_i) / (w(L_i) + w(R_i)) with WeightFn's scalar
    weights bit for bit, never an array power (_left_probabilities).  A
    count whose weight would overflow w(L) + w(R) raises
    ContractViolation naming alpha and the smallest such count.
    """
    v = as_vector(x, window.dim)
    if r < 0:
        raise ContractViolation(f"perturbation radius must be >= 0, got {r}")
    d = window.dim
    left, right = window.counts_all(v)
    p_left = _left_probabilities(w, left, right)
    u = rng.uniforms(2 * d)
    mag = (r / math.sqrt(d)) * u[1::2]
    return np.where(u[0::2] < p_left, v - mag, v + mag)


def sample_ball_perturbation(x, r: float, rng: RngStream) -> np.ndarray:
    """x plus a uniform draw from the solid ball of radius r.

    Direction from a normalized Gaussian, radius r * U**(1/d); this makes
    E||xi||^2 = r^2 * d / (d + 2).
    """
    v = as_vector(x)
    if r < 0:
        raise ContractViolation(f"perturbation radius must be >= 0, got {r}")
    d = v.shape[0]
    direction = rng.normal(d)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:  # probability-zero guard
        direction = rng.normal(d)
        norm = float(np.linalg.norm(direction))
    radius = r * rng.uniform() ** (1.0 / d)
    return v + direction * (radius / norm)
