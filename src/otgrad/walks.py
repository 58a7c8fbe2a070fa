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

Two functions apply this rule. simulate runs one path in a scalar loop
over Python lists, which takes two-site bounces in windows (see below).
msd_curve advances many paths at once as numpy arrays. Both
draw one uniform per step, move left when it is below the left-move
probability, and take each weight from WeightFn, as the occupation
sampler does (simulate's per-step line spells out its formula). So with
the same stream they give identical paths, and the same paths as the
one-step reference walker in the tests. Path i of seed s uses the
stream RngStream(s + i, 0), and both raise WeightFn.check's
ContractViolation once a visit count's weight is too large for
w(L) + w(R) to be a finite float.

With strong reinforcement the walk soon spends almost every step
bouncing between two sites: a, b, a, b. While it bounces, only the
counts of a and b change, each by one per visit, and the weights of the
two outer neighbours stay fixed. So over a window of steps, each site's
probability of moving on to the other one moves monotonically, and its
worst case sits at one end of the window. Once 64 scalar steps in a row
bounce, simulate takes the bounce in doubling windows (_bounce_run): it
computes each site's probability at the window's two ends from two
scalar weights, and when every uniform of the window lies on the staying
side of the worse end, with a margin that covers rounding, it accepts
the whole window with a few slice writes and no per-step weights. A
uniform that the ends cannot decide gets the scalar loop's own step;
the step that leaves the bounce goes back to the scalar loop. So the
paths stay bit-identical, and a run stops short of any weight that is
not a finite float, so the scalar loop reaches that count and raises.

At alpha = 0 every weight is 1 + c**0 = 2, so every left-move
probability is 2 / (2 + 2) = 0.5 exactly, for both kinds: the walk is the
simple random walk. simulate and msd_curve then keep no visit counts and
take each path as the running sum of -1 where its uniform is below 0.5
and +1 elsewhere (_simple_walk), in blocks of 4096 steps; msd_curve steps
16 paths at a time through two buffers it allocates once, so its memory
does not grow with n_paths. That is the same comparison of the same
uniforms, so the paths are the same bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ContractViolation, RngStream, one_blas_thread
from .occupation import WeightFn

WALK_KINDS = ("repelling", "reinforced")
MSD_FIT_LO_FRAC = 0.1  # msd_exponent fits t in [MSD_FIT_LO_FRAC * T, T]


# uniforms drawn at a time by the single-path loop, and the steps of a
# constant-weight block
_LOOP_CHUNK = 4096
# paths a constant-weight block steps at once: its buffers hold 9 bytes per
# path-step (a bool and an int64), 576 KiB whatever n_paths is
_SIMPLE_PATHS = 16
# scalar steps between simulate's bounce checks, and a bounce run's first
# window; windows double from there up to the end of the block
_BOUNCE_CHECK = 64
# relative and absolute widening of a bounce window's probability bounds
_P_MARGIN = 2.0 ** -44
_P_FLOOR = 2.0 ** -1064
_LOCKSTEP_CHUNK = 64  # lockstep steps per block of uniforms
_LATTICE_PAD = 256    # columns added past the needed range when the lattice grows
_DRAW_CHUNK = 4 * _LOCKSTEP_CHUNK  # uniforms each lattice path draws per call


def _simple_walk(rngs: Sequence[RngStream], z: np.ndarray, left: np.ndarray,
                 Z: np.ndarray) -> None:
    """Write the next k positions of constant-weight walks into Z, (paths, k) int64.

    When every weight is the same w, each left-move probability is
    w / (w + w) = 0.5 exactly, for both kinds, so row i continues from
    z[i] by -1 where the next uniform of rngs[i] is below 0.5 and by +1
    otherwise: the simple random walk, with no visit counts to keep.
    left is a bool array of Z's shape that the steps are drawn into.
    """
    k = Z.shape[1]
    for rng, row in zip(rngs, left):
        np.less(rng.uniforms(k), 0.5, out=row)
    np.multiply(left, -2, out=Z)
    Z += 1
    np.cumsum(Z, axis=1, out=Z)
    Z += z[:, None]


def _check_walk_args(kind: str, T: int) -> None:
    if kind not in WALK_KINDS:
        raise ContractViolation(f"unknown walk kind {kind!r}, expected one of {WALK_KINDS}")
    if T < 1:
        raise ContractViolation(f"T must be >= 1, got {T}")


def _first_unsure(u: np.ndarray, w_first: float, w_last: float, o: float,
                  inner_numerator: bool, left: bool) -> int:
    """Index of the first uniform in u that may end a bounce, or len(u).

    u holds the uniforms of the steps one bounce site takes in a window,
    in order. At those steps the inner neighbour weighs w_first, rising
    to w_last, and the outer one o; the left-move probability is
    w / (w + o) when the inner neighbour's weight is the numerator of
    the kind's rule and o / (w + o) otherwise, and a step stays in the
    bounce when (u < p) == left. Exactly, p is monotone in w, so every
    step's p lies between the end values; rounding can put it a few ulps
    past them, far less than the _P_MARGIN and _P_FLOOR by which the
    bound is widened. So each uniform before the returned index stays in
    the bounce for certain, with no per-step weights.
    """
    pa = (w_first if inner_numerator else o) / (w_first + o)
    pb = (w_last if inner_numerator else o) / (w_last + o)
    if left:
        bound = min(pa, pb) * (1.0 - _P_MARGIN) - _P_FLOOR
        return u.shape[0] if u.max() < bound else int(np.argmax(u >= bound))
    bound = max(pa, pb) * (1.0 + _P_MARGIN) + _P_FLOOR
    return u.shape[0] if u.min() >= bound else int(np.argmax(u < bound))


def _bounce_run(us: np.ndarray, q: int, i: int, j: int, counts: list, ws: list,
                s: int, weight: WeightFn, segment: np.ndarray) -> tuple[int, int]:
    """Step simulate's bounce between sites i and j = i +- 1 in windows.

    The walker sits at i and has just come from j. While it bounces, only
    the counts of i and j change, each by one per visit, and the weights
    of the two outer sites stay fixed. So within a window of uniforms
    us[q:], doubling from _BOUNCE_CHECK steps, the probability of each
    step from i moves monotonically between its values at the window's
    first and last step from i, and likewise from j. Two weight(c)
    calls per site give those end values and the weight after the
    window, and _first_unsure finds how many steps surely stay in the
    bounce. A window whose uniforms all do is accepted whole. Otherwise
    the steps before the first unsure uniform are accepted and that step
    is decided with the scalar loop's own arithmetic: if it stays in the
    bounce it is taken and the windows go on; if it leaves, it and the
    rest of the block go back to the scalar loop. So the accepted steps
    are the scalar loop's, bit for bit.

    A window that would reach a weight that is not a finite float is not
    stepped: the scalar loop reaches that count and the overflow check
    names it.

    Writes the accepted steps' sites to segment[q:], updates counts and ws
    in place, and returns (q, i) after those steps.
    """
    k = us.shape[0]
    d = j - i
    m = _BOUNCE_CHECK
    while q < k - 1:  # a window steps at least once from each site
        m = min(m, k - q)
        hi, hj = (m + 1) // 2, m // 2  # steps taken from i, from j
        ci, cj = counts[i], counts[j]
        # the inner neighbour's weight at the last step from i (from j),
        # and the weight j (i) has after the window
        wj_last, wj_end = weight(cj + hi - 1), weight(cj + hi)
        wi_last, wi_end = weight(ci + hj - 1), weight(ci + hj)
        if wj_end == math.inf or wi_end == math.inf:
            break
        # a step from i stays when it moves toward j: left when d < 0; the
        # outer sites i - d and j + d keep their weights
        n = min(2 * _first_unsure(us[q:q + m:2], ws[j], wj_last, ws[i - d], s == d, d < 0),
                2 * _first_unsure(us[q + 1:q + m:2], ws[i], wi_last, ws[j + d], s == -d,
                                  d > 0) + 1)
        if n < m:
            wj_end, wi_end = weight(cj + (n + 1) // 2), weight(ci + n // 2)
        counts[j], ws[j] = cj + (n + 1) // 2, wj_end
        counts[i], ws[i] = ci + n // 2, wi_end
        segment[q:q + n:2] = j
        segment[q + 1:q + n:2] = i
        if n % 2:
            i, j, d = j, i, -d
        q += n
        if n < m:
            # the unsure step, as the scalar loop takes it
            wn = ws[i + s]
            if (us[q] < wn / (wn + ws[i - s])) != (d < 0):
                break
            counts[j] += 1
            ws[j] = weight(counts[j])
            segment[q] = j
            i, j, d = j, i, -d
            q += 1
        m *= 2
    return q, i


def simulate(kind: str, weight: WeightFn, T: int, seed: int) -> np.ndarray:
    """Run one walk for T steps; returns the path (length T+1, starts at 0).

    Step t compares the t-th uniform of RngStream(seed, 0) with the
    left-move probability. The steps go through a scalar loop, except
    that once _BOUNCE_CHECK of them in a row bounce between two sites,
    the bounce is taken in windows (_bounce_run) until it ends.
    """
    _check_walk_args(kind, T)
    rng = RngStream(seed, 0)
    path = np.empty(T + 1, dtype=np.int64)
    path[0] = 0
    alpha = weight.alpha
    if alpha == 0:
        left = np.empty((1, min(_LOOP_CHUNK, T)), dtype=bool)
        for t in range(0, T, _LOOP_CHUNK):
            k = min(_LOOP_CHUNK, T - t)
            _simple_walk([rng], path[t:t + 1], left[:, :k], path[None, t + 1:t + 1 + k])
        return path
    # p_left = ws[n] / (ws[n] + ws[o]), where n is the neighbour in the
    # numerator of the kind's rule: the right one when repelling, the left
    # one when reinforced (float addition commutes, so this is wl + wr)
    s = 1 if kind == "repelling" else -1
    # counts[i] and ws[i] are the visit count and weight of site i - off;
    # both lists span the range visited so far plus one block of steps
    w0 = weight(0)
    counts = [0] * (2 * _LOOP_CHUNK + 3)
    ws = [w0] * len(counts)
    off = i = _LOOP_CHUNK + 1
    counts[i], ws[i] = 1, weight(1)
    cmax = 1  # the largest visit count so far
    h = _BOUNCE_CHECK
    half = h // 2
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
        us = rng.uniforms(k)
        segment = path[t + 1:t + 1 + k]
        chunk = []  # the scalar loop's sites since segment[q - len(chunk)]
        append = chunk.append
        q = 0
        try:
            while q < k:
                for u in us[q:q + h].tolist():
                    wn = ws[i + s]
                    if u < wn / (wn + ws[i - s]):
                        i -= 1
                    else:
                        i += 1
                    c = counts[i] + 1
                    counts[i] = c
                    # WeightFn's formula, inline because a call per step
                    # would slow the loop (int ** float is float(c) **
                    # alpha); the check at the block's end applies
                    # WeightFn's overflow rule
                    ws[i] = 1.0 + c ** alpha
                    append(i)
                q += h
                # the last h steps bounce when they alternate between i and
                # the site before it; chunk[-half - 1] rules most walks out
                if (q < k and chunk[-half - 1] == i and chunk[1 - h::2].count(i) == half
                        and chunk[-h::2].count(chunk[-2]) == half):
                    j = chunk[-2]
                    segment[q - len(chunk):q] = chunk
                    chunk.clear()
                    q, i = _bounce_run(us, q, i, j, counts, ws, s, weight, segment)
        except OverflowError:
            weight.check(c)  # raises: w(c) is not a finite float
        segment[k - len(chunk):] = chunk
        # only sites the block visited changed their counts
        cmax = max(cmax, max(counts[segment.min():segment.max() + 1]))
        weight.check(cmax)
        segment -= off
        t += k
    return path


@one_blas_thread()
def fit_msd_exponent(msd: np.ndarray, t_lo: int, t_hi: int) -> tuple[float, float]:
    """Least-squares slope of log msd[t] vs log t over t in [t_lo, t_hi].

    Returns (slope, stderr) with the stderr taken from the regression
    residuals. Entries with msd == 0 are skipped (log undefined). The dot
    products run on one BLAS thread, so a long window gives the same bits
    on any core count.
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
    # of the plain formulas, so (slope, stderr) match them, evaluated on one
    # BLAS thread, bit for bit
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

    Path i is simulate(kind, weight, T, seed + i). Paths advance together
    as arrays; path i draws its uniforms in blocks from its own
    RngStream(seed + i, 0), which yields the same numbers as one long
    draw. At alpha = 0 the paths are simple random walks (_simple_walk),
    stepped _SIMPLE_PATHS at a time; otherwise all paths advance in
    lockstep and the visit counts live in a (paths x sites) lattice that
    grows with the ensemble's range, not with T. Each step's sum of Z_t^2
    is exact, int64 sums added as floats, so the curve equals the float
    average of the per-path squares bit for bit: every partial sum is an
    integer below 2**53.
    """
    _check_walk_args(kind, T)
    if n_paths < 1:
        raise ContractViolation(f"n_paths must be >= 1, got {n_paths}")
    acc = np.zeros(T + 1, dtype=np.float64)
    if weight.alpha == 0:
        # groups of _SIMPLE_PATHS paths, each stepped to T in blocks of
        # _LOOP_CHUNK steps through the same two buffers; a group's streams
        # (about 10 kB each) exist only while it runs
        shape = (min(_SIMPLE_PATHS, n_paths), min(_LOOP_CHUNK, T))
        left = np.empty(shape, dtype=bool)
        Z = np.empty(shape, dtype=np.int64)
        for first in range(0, n_paths, shape[0]):
            group = [RngStream(seed + i, 0) for i in range(first, min(first + shape[0], n_paths))]
            z = np.zeros(len(group), dtype=np.int64)
            for t in range(0, T, shape[1]):
                k = min(shape[1], T - t)
                block = Z[:len(group), :k]
                _simple_walk(group, z, left[:len(group), :k], block)
                z[:] = block[:, -1]
                block *= block
                acc[t + 1:t + 1 + k] += block.sum(axis=0)
        acc /= n_paths
        return acc
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
    drawn = np.empty((min(_DRAW_CHUNK, T), n_paths))
    t = drawn_to = 0
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
            weights = weight.weights(np.arange(max(2 * weights.shape[0], cmax + k + 1)))
        if t == drawn_to:  # one call per path draws the next _DRAW_CHUNK uniforms
            m = min(drawn.shape[0], T - t)
            for i, rng in enumerate(rngs):
                drawn[:m, i] = rng.uniforms(m)
            drawn_from, drawn_to = t, t + m
        u = drawn[t - drawn_from:t - drawn_from + k]  # u[j, i]: path i, step t + j
        # G[j] holds each path's flat lattice index of its left (row 0) and
        # right (row 1) neighbour site before step j
        flat = counts.reshape(-1)
        centre = flat[1:]
        base = np.arange(n_paths, dtype=np.int64) * width + (off - 1)
        G = np.empty((k + 1, 2, n_paths), dtype=np.int64)
        np.add(base, z, out=G[0, 0])
        np.add(G[0, 0], 2, out=G[0, 1])
        with np.errstate(invalid="ignore"):  # inf weights: weight.check raises below
            for j in range(k):
                g = G[j]
                wl, wr = weights.take(flat.take(g))
                p = np.divide(wr if repelling else wl, wl + wr)
                g = np.add(g, moves.take(u[j] < p), out=G[j + 1])
                centre[g[0]] += 1
        cmax = int(counts.max())
        weight.check(cmax)
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
