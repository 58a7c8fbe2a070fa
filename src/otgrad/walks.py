"""Self-interacting nearest-neighbor walks on the integer lattice.

Two variants share one mechanism. Both walks look at how often the two
neighbor sites have been visited so far and convert those counts into
transition probabilities through an increasing weight function w. The
repelling walk prefers the less-visited neighbor; the reinforced walk
prefers the more-visited one.

Repelling:   P(Z -> Z-1) = w(R) / (w(L) + w(R))
Reinforced:  P(Z -> Z-1) = w(L) / (w(L) + w(R))

where L and R are the visit counts of sites Z-1 and Z+1 among all sites
occupied strictly before the current step. The start site counts as
visited at t=0, so after t steps the counts sum to t+1.

Three functions apply this rule. walk_step advances one dict-backed
WalkState and is the reference. simulate runs one path in a scalar loop
over Python lists. msd_curve advances a whole ensemble in lockstep as
numpy arrays. All three draw one uniform per step, move left when it is
below the left-move probability, and evaluate each weight as the scalar
1 + c**alpha that WeightFn computes, so with the same stream they give
identical paths. The two batch engines give path i of seed s the stream
RngStream(s + i, 0), and they raise ContractViolation once a visit count
reaches a weight too large for w(L) + w(R) to be a finite float.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .core import ContractViolation, RngStream
from .occupation import WeightFn

WALK_KINDS = ("repelling", "reinforced")
MSD_FIT_LO_FRAC = 0.1  # msd_exponent fits t in [MSD_FIT_LO_FRAC * T, T]


@dataclass
class WalkState:
    position: int
    counts: Dict[int, int]
    t: int
    kind: str
    weight: WeightFn
    rng: RngStream

    def neighbor_counts(self) -> tuple[int, int]:
        return (self.counts.get(self.position - 1, 0),
                self.counts.get(self.position + 1, 0))


def make_walk_state(kind: str, weight: WeightFn, rng: RngStream,
                    start: int = 0) -> WalkState:
    if kind not in WALK_KINDS:
        raise ContractViolation(f"unknown walk kind {kind!r}, expected one of {WALK_KINDS}")
    return WalkState(position=start, counts={start: 1}, t=0, kind=kind,
                     weight=weight, rng=rng)


def left_move_probability(kind: str, weight: WeightFn, n_left: int, n_right: int) -> float:
    wl = weight(n_left)
    wr = weight(n_right)
    if kind == "repelling":
        return wr / (wl + wr)
    if kind == "reinforced":
        return wl / (wl + wr)
    raise ContractViolation(f"unknown walk kind {kind!r}")


def walk_step(state: WalkState) -> WalkState:
    """Advance the walk one step in place (one uniform draw per step)."""
    n_left, n_right = state.neighbor_counts()
    p_left = left_move_probability(state.kind, state.weight, n_left, n_right)
    if state.rng.uniform() < p_left:
        state.position -= 1
    else:
        state.position += 1
    state.counts[state.position] = state.counts.get(state.position, 0) + 1
    state.t += 1
    return state


# Largest weight for which w(L) + w(R) is still a finite float.
_MAX_WEIGHT = sys.float_info.max / 2

_LOOP_CHUNK = 4096    # uniforms drawn at a time by the single-path loop
_LOCKSTEP_CHUNK = 64  # lockstep steps per block of uniforms
_LATTICE_PAD = 256    # columns added past the needed range when the lattice grows


def _walk_weight(alpha: float, c: int) -> float:
    """w(c) = 1 + c**alpha as the scalar expression 1.0 + float(c) ** alpha.

    This equals WeightFn(alpha)(c), and so walk_step's weights, bit for
    bit; array np.power rounds some counts differently. A weight too large
    for w(L) + w(R) to stay finite comes back as inf.
    """
    try:
        w = 1.0 + float(c) ** alpha
    except OverflowError:
        return math.inf
    return w if w <= _MAX_WEIGHT else math.inf


def _weight_table(alpha: float, n: int) -> np.ndarray:
    """[w(0), ..., w(n - 1)], one _walk_weight call per count.

    Array np.power would round some entries differently (alpha 1.5 at
    count 7, 2.5 at 10, 5 at 1553 on numpy 2.4).
    """
    return np.array([_walk_weight(alpha, c) for c in range(n)])


def _check_weights(alpha: float, cmax: int) -> None:
    """Raise ContractViolation if a count in [0, cmax] has no finite weight.

    w grows with c, so testing the two ends suffices. The error names the
    smallest such count, which does not depend on how far a walk ran past
    it. Past that count the move probabilities are not defined.
    """
    if _walk_weight(alpha, 0) == math.inf:
        c = 0
    elif _walk_weight(alpha, cmax) == math.inf:
        c = cmax
        while _walk_weight(alpha, c - 1) == math.inf:
            c -= 1
    else:
        return
    raise ContractViolation(
        f"walk weight 1 + c**alpha overflows at alpha={alpha}, visit count c={c}")


def _check_walk_args(kind: str, T: int) -> None:
    if kind not in WALK_KINDS:
        raise ContractViolation(f"unknown walk kind {kind!r}, expected one of {WALK_KINDS}")
    if T < 1:
        raise ContractViolation(f"T must be >= 1, got {T}")


def simulate(kind: str, weight: WeightFn, T: int, seed: int) -> np.ndarray:
    """Run one walk for T steps; returns the path (length T+1, starts at 0).

    Step t compares the t-th uniform of RngStream(seed, 0) with the
    left-move probability, as walk_step does.
    """
    _check_walk_args(kind, T)
    rng = RngStream(seed, 0)
    alpha = weight.alpha
    # p_left = ws[n] / (ws[n] + ws[o]), where n is the neighbour in the
    # numerator of the kind's rule: the right one when repelling, the left
    # one when reinforced (float addition commutes, so this is wl + wr)
    s = 1 if kind == "repelling" else -1
    # counts[i] and ws[i] are the visit count and weight of site i - off;
    # both lists span the range visited so far plus one block of steps
    w0 = _walk_weight(alpha, 0)
    counts = [0] * (2 * _LOOP_CHUNK + 3)
    ws = [w0] * len(counts)
    off = i = _LOOP_CHUNK + 1
    counts[i], ws[i] = 1, _walk_weight(alpha, 1)
    path = np.empty(T + 1, dtype=np.int64)
    path[0] = 0
    t = 0
    while t < T:
        k = min(_LOOP_CHUNK, T - t)
        if i - k - 1 < 0:  # k steps reach at most k sites further
            counts[:0] = [0] * (k + 1)
            ws[:0] = [w0] * (k + 1)
            off += k + 1
            i += k + 1
        if i + k + 1 >= len(counts):
            counts.extend([0] * (k + 1))
            ws.extend([w0] * (k + 1))
        chunk = []
        append = chunk.append
        try:
            for u in rng.uniforms(k).tolist():
                wn = ws[i + s]
                if u < wn / (wn + ws[i - s]):
                    i -= 1
                else:
                    i += 1
                c = counts[i] + 1
                counts[i] = c
                ws[i] = 1.0 + c ** alpha  # int ** float is float(c) ** alpha
                append(i)
        except OverflowError:
            pass  # the check below names the count
        _check_weights(alpha, max(counts))
        segment = path[t + 1:t + 1 + k]
        segment[:] = chunk
        segment -= off
        t += k
    return path


def fit_msd_exponent(msd: np.ndarray, t_lo: int, t_hi: int) -> tuple[float, float]:
    """Least-squares slope of log msd[t] vs log t over t in [t_lo, t_hi].

    Returns (slope, stderr) with the stderr taken from the regression
    residuals. Entries with msd == 0 are skipped (log undefined).
    """
    msd = np.asarray(msd, dtype=np.float64)
    t_lo = max(1, int(t_lo))
    t_hi = min(int(t_hi), msd.shape[0] - 1)
    if t_hi <= t_lo:
        raise ContractViolation(f"empty fit window [{t_lo}, {t_hi}]")
    ys = msd[t_lo:t_hi + 1]
    keep = ys > 0
    if keep.all():
        lx = np.arange(t_lo, t_hi + 1, dtype=np.float64)
        ly = np.log(ys)
    else:
        lx = np.flatnonzero(keep).astype(np.float64)
        lx += t_lo
        ly = ys[keep]
        np.log(ly, out=ly)
    n = lx.shape[0]
    if n < 3:
        raise ContractViolation("fewer than 3 usable points in the fit window")
    # three window-sized arrays; each step runs in place but in the order
    # of the plain formulas, so (slope, stderr) match them bit for bit
    np.log(lx, out=lx)
    lx_mean = lx.mean()
    lx_c = lx - lx_mean
    sxx = float(lx_c @ lx_c)
    slope = float(lx_c @ ly) / sxx
    intercept = float(ly.mean() - slope * lx_mean)
    lx *= slope
    lx += intercept
    resid = np.subtract(ly, lx, out=lx)
    dof = n - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    stderr = float(np.sqrt(sigma2 / sxx))
    return slope, stderr


def msd_curve(kind: str, weight: WeightFn, T: int, n_paths: int, seed: int) -> np.ndarray:
    """Ensemble average of Z_t^2 over n_paths independent walks.

    Path i is simulate(kind, weight, T, seed + i). All paths advance in
    lockstep as arrays; path i draws its uniforms in blocks from its own
    RngStream(seed + i, 0), which yields the same numbers as one long
    draw. The visit counts live in a (paths x sites) lattice that grows
    with the ensemble's range, not with T. Each step's sum of Z_t^2 is an
    exact int64 sum, so the curve equals the float average of the
    per-path squares bit for bit: every partial sum is an integer below
    2**53.
    """
    _check_walk_args(kind, T)
    if n_paths < 1:
        raise ContractViolation(f"n_paths must be >= 1, got {n_paths}")
    rngs = [RngStream(seed + i, 0) for i in range(n_paths)]
    repelling = kind == "repelling"
    weights = np.empty(0)  # weights[c] = w(c), grown geometrically
    # counts[i, j] is path i's visit count of site j - off; uint16 until a
    # count could pass 2**16 - 1, which long reinforced walks reach
    width = 2 * (_LOCKSTEP_CHUNK + 1 + _LATTICE_PAD) + 1
    off = width // 2
    counts = np.zeros((n_paths, width), dtype=np.uint16)
    counts[:, off] = 1
    cmax = 1
    moves = np.array([1, -1], dtype=np.int64)  # indexed by "moved left"
    z = np.zeros(n_paths, dtype=np.int64)
    acc = np.zeros(T + 1, dtype=np.float64)
    t = 0
    while t < T:
        k = min(_LOCKSTEP_CHUNK, T - t)
        # k steps reach at most k sites further and raise a count by at most k
        short_left = k + 1 - int(z.min()) - off
        short_right = int(z.max()) + k + 1 + off - (width - 1)
        if short_left > 0 or short_right > 0:
            add_left = short_left + _LATTICE_PAD if short_left > 0 else 0
            add_right = short_right + _LATTICE_PAD if short_right > 0 else 0
            grown = np.zeros((n_paths, width + add_left + add_right), dtype=counts.dtype)
            grown[:, add_left:add_left + width] = counts
            counts, width, off = grown, grown.shape[1], off + add_left
        if cmax + k > np.iinfo(counts.dtype).max:
            counts = counts.astype(np.int64)
        if weights.shape[0] <= cmax + k:
            weights = _weight_table(weight.alpha, max(2 * weights.shape[0], cmax + k + 1))
        u = np.empty((n_paths, k))
        for rng, row in zip(rngs, u):
            row[:] = rng.uniforms(k)
        u = np.ascontiguousarray(u.T)
        # G[j] holds each path's flat lattice index of its left (row 0) and
        # right (row 1) neighbour site before step j
        flat = counts.reshape(-1)
        centre = flat[1:]
        base = np.arange(n_paths, dtype=np.int64) * width + (off - 1)
        G = np.empty((k + 1, 2, n_paths), dtype=np.int64)
        np.add(base, z, out=G[0, 0])
        np.add(G[0, 0], 2, out=G[0, 1])
        with np.errstate(invalid="ignore"):  # inf weights: _check_weights raises below
            for j in range(k):
                g = G[j]
                wl, wr = weights.take(flat.take(g))
                p = np.divide(wr if repelling else wl, wl + wr)
                g = np.add(g, moves.take(u[j] < p), out=G[j + 1])
                centre[g[0]] += 1
        cmax = int(counts.max())
        _check_weights(weight.alpha, cmax)
        Z = G[1:, 0]
        Z -= base
        z = Z[-1].copy()
        Z *= Z
        acc[t + 1:t + 1 + k] = Z.sum(axis=1)
        t += k
    acc /= n_paths
    return acc


def check_msd_ensemble(T: int, n_paths: int) -> None:
    """Reject an ensemble too small for a stable MSD exponent fit."""
    if T < 1000:
        raise ContractViolation(f"T must be >= 1000 for a stable fit, got {T}")
    if n_paths < 100:
        raise ContractViolation(f"n_paths must be >= 100, got {n_paths}")


def msd_exponent(kind: str, weight: WeightFn, T: int, n_paths: int, seed: int,
                 fit_lo_frac: float = MSD_FIT_LO_FRAC) -> tuple[float, float]:
    """Mean-squared-displacement scaling exponent with its regression stderr."""
    check_msd_ensemble(T, n_paths)
    msd = msd_curve(kind, weight, T, n_paths, seed)
    return fit_msd_exponent(msd, int(fit_lo_frac * T), T)


def localization_metric(path: Sequence[int]) -> float:
    """Share of the second half of the path spent at its 5 busiest sites."""
    path = np.asarray(path, dtype=np.int64)
    if path.shape[0] < 100:
        raise ContractViolation(f"path length must be >= 100, got {path.shape[0]}")
    second = path[path.shape[0] // 2:]
    counts = np.bincount(second - second.min())  # visits per site of the range
    counts = np.sort(counts)[::-1]
    return float(counts[:5].sum()) / second.shape[0]


def path_range(path: Sequence[int]) -> int:
    path = np.asarray(path, dtype=np.int64)
    return int(path.max() - path.min())


def write_paths_csv(file_path: str, seeds: Sequence[int],
                    paths: Sequence[np.ndarray]) -> None:
    """Write walk paths as rows (seed, t, Z), seeds in the given order."""
    with open(file_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "t", "Z"])
        for seed, path in zip(seeds, paths):
            for t, z in enumerate(path):
                writer.writerow([seed, t, int(z)])


def write_msd_csv(file_path: str, msd: np.ndarray) -> None:
    """Write an ensemble mean-squared-displacement curve as rows (t, msd)."""
    with open(file_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "msd"])
        for t, value in enumerate(msd):
            writer.writerow([t, repr(float(value))])
