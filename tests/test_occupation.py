"""Occupation counts, polynomial weights, and the two perturbation samplers."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otgrad.core import ContractViolation, RngStream
from otgrad.occupation import (
    UNWINDOWED_H,
    OccupationWindow,
    WeightFn,
    _left_probabilities,
    sample_ball_perturbation,
    sample_occupation_perturbation,
)


def left_probability(w, n_left, n_right) -> float:
    """Probability of perturbing LEFT for one coordinate: w(R) / (w(L) + w(R)).

    The scalar reference that the sampler's array probabilities must match
    bit for bit.
    """
    wl = w(n_left)
    wr = w(n_right)
    return wr / (wl + wr)


def window_counts(win, i, xi):
    """Left/right occupation counts of coordinate i around position xi.

    Left counts stored values in [xi - h, xi] (ties at xi count left),
    right counts values in (xi, xi + h]. The one-coordinate reference for
    OccupationWindow.counts_all.
    """
    col = win.samples()[:, i]
    if win.unwindowed:
        left = int(np.count_nonzero(col <= xi))
        return left, len(win) - left
    return (int(np.count_nonzero((col >= xi - win.h) & (col <= xi))),
            int(np.count_nonzero((col > xi) & (col <= xi + win.h))))


def counts_at(win, xi):
    """counts_all of a one-dimensional window at xi, as a pair of ints."""
    left, right = win.counts_all([xi])
    return int(left[0]), int(right[0])


def reference_occupation_perturbation(x, window, r, w, rng):
    """Scalar per-coordinate sampler: the draw-order contract written as a loop.

    The vectorized sampler must match it bit for bit.
    """
    v = np.asarray(x, dtype=np.float64)
    d = window.dim
    left, right = window.counts_all(v)
    amp = r / math.sqrt(d)
    out = v.copy()
    for i in range(d):
        p_left = left_probability(w, int(left[i]), int(right[i]))
        go_left = rng.bernoulli(p_left)
        mag = amp * rng.uniform()
        out[i] = v[i] - mag if go_left else v[i] + mag
    return out


def filled_window(dim, windowed):
    """Full-history window around a random point x, returned with x.

    Coordinate i holds c_i samples at x_i - 1 (left) and the rest at
    x_i + 1, plus three samples at x_i + 5 that only the unwindowed counts
    see.  The left counts include 7 and, for dim 4, 1553: the first counts
    at which array power (numpy 2.4 on AVX-512) rounds differently from
    scalar power at alpha 1.5 and alpha 5.
    """
    rng = RngStream(dim, 1)
    x = rng.normal(dim)
    if dim <= 4:
        n_near = 1600
        c = np.array([7, 1553, 1565, 40][:dim])
    else:
        n_near = 64
        c = rng.integers(0, n_near + 1, dim)
        c[0] = 7
    win = OccupationWindow(dim, rows=n_near + 3, h=2.0 if windowed else math.inf)
    for k in range(n_near):
        win.record(np.where(k < c, x - 1.0, x + 1.0))
    for _ in range(3):
        win.record(x + 5.0)
    return win, x


class _CountingWeight(WeightFn):
    """WeightFn that counts its scalar calls."""

    calls = 0

    def __call__(self, n):
        _CountingWeight.calls += 1
        return super().__call__(n)


class TestWeightFn:
    def test_zero_count_weight_is_one(self):
        assert WeightFn()(0) == 1.0

    def test_alpha_zero_is_constant_two(self):
        w = WeightFn(alpha=0.0)
        assert w(0) == 2.0 and w(7) == 2.0 and w(1000) == 2.0

    def test_default_alpha_five(self):
        w = WeightFn()
        assert w(2) == 33.0  # 1 + 2**5

    def test_negative_count_rejected(self):
        with pytest.raises(ContractViolation):
            WeightFn()(-1)
        with pytest.raises(ContractViolation):
            WeightFn().weights(np.array([3, -1]))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ContractViolation):
            WeightFn(alpha=-0.5)

    def test_nan_alpha_rejected_when_built(self):
        # it used to pass here and fail at the first weight, as an overflow
        with pytest.raises(ContractViolation, match="^weight exponent must be >= 0, got nan$"):
            WeightFn(alpha=math.nan)

    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_monotone_in_count(self, alpha, n1, n2):
        w = WeightFn(alpha=alpha)
        lo, hi = sorted((n1, n2))
        assert w(lo) <= w(hi)

    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=40),
    )
    def test_array_weights_are_the_scalar_weights(self, alpha, counts):
        w = WeightFn(alpha=alpha)
        ws = w.weights(np.array(counts)).tolist()
        assert ws == [w(c) for c in counts]
        assert all(x <= sys.float_info.max / 2 or x == math.inf for x in ws)

    @given(st.floats(min_value=0.0, max_value=1000.0), st.integers(min_value=0, max_value=2000))
    def test_check_names_the_first_overflow(self, alpha, cmax):
        w = WeightFn(alpha=alpha)
        first = next((c for c in range(cmax + 1) if w(c) == math.inf), None)
        if first is None:
            w.check(cmax)
        else:
            with pytest.raises(ContractViolation,
                               match=re.escape(f"alpha={alpha}, visit count c={first}") + "$"):
                w.check(cmax)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_check_bisects_large_counts(self, cmax):
        # at alpha 1000, w(2) = 1 + 2**1000 is finite and 3**1000 is not;
        # bisection finds count 3 in about log2(cmax) weights
        w = _CountingWeight(alpha=1000.0)
        _CountingWeight.calls = 0
        if cmax < 3:
            w.check(cmax)
        else:
            with pytest.raises(ContractViolation, match=r"alpha=1000.0, visit count c=3$"):
                w.check(cmax)
        assert _CountingWeight.calls <= 2 + cmax.bit_length()


class TestLeftProbability:
    def test_balanced_counts_give_half(self):
        w = WeightFn()
        assert left_probability(w, 0, 0) == 0.5
        assert left_probability(w, 13, 13) == 0.5

    def test_linear_weight_example(self):
        # w(n) = 1 + n, L = 3, R = 5: p_left = w(R)/(w(L)+w(R)) = 6/10.
        assert left_probability(WeightFn(alpha=1.0), 3, 5) == pytest.approx(0.6, abs=1e-15)

    def test_quintic_weight_example(self):
        # L = 1, R = 0: p_left = 1/(2+1) = 1/3, so the walk prefers fresh ground.
        assert left_probability(WeightFn(alpha=5.0), 1, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_heavy_history_pins_the_direction(self):
        w = WeightFn(alpha=5.0)
        assert left_probability(w, 200, 0) < 1e-6
        assert left_probability(w, 0, 200) > 1.0 - 1e-6

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_probability_bounds_and_symmetry(self, nl, nr):
        w = WeightFn(alpha=5.0)
        p = left_probability(w, nl, nr)
        assert 0.0 < p < 1.0
        assert p + left_probability(w, nr, nl) == pytest.approx(1.0, abs=1e-12)


class TestOccupationWindow:
    def test_empty_window(self):
        win = OccupationWindow(dim=1, rows=1)
        assert len(win) == 0
        assert window_counts(win, 0, 0.3) == counts_at(win, 0.3) == (0, 0)

    def test_counts_unwindowed_ties_go_left(self):
        win = OccupationWindow(dim=1, rows=3)
        for v in (0.1, 0.5, 0.3):
            win.record([v])
        # Query at 0.3: 0.1 and the tie at 0.3 count left, 0.5 counts right.
        assert window_counts(win, 0, 0.3) == counts_at(win, 0.3) == (2, 1)

    def test_counts_windowed(self):
        win = OccupationWindow(dim=1, rows=3, h=0.1)
        for v in (0.1, 0.5, 0.3):
            win.record([v])
        # Only [0.2, 0.3] counts left; (0.3, 0.4] holds nothing.
        assert window_counts(win, 0, 0.3) == counts_at(win, 0.3) == (1, 0)

    def test_ring_buffer_eviction(self):
        win = OccupationWindow(dim=1, rows=2)
        for v in (1.0, 2.0, 3.0):
            win.record([v])
        assert len(win) == 2
        assert set(win.samples()[:, 0].tolist()) == {2.0, 3.0}

    def test_counts_all_matches_per_coordinate_counts(self):
        rng = RngStream(3, 0)
        win = OccupationWindow(dim=3, rows=40, h=0.5)
        for _ in range(40):
            win.record(rng.normal(3))
        x = rng.normal(3)
        left, right = win.counts_all(x)
        for i in range(3):
            assert (int(left[i]), int(right[i])) == window_counts(win, i, float(x[i]))

    def test_huge_h_is_unwindowed(self):
        assert OccupationWindow(dim=1, rows=1, h=UNWINDOWED_H).unwindowed
        assert OccupationWindow(dim=1, rows=1, h=math.inf).unwindowed
        assert not OccupationWindow(dim=1, rows=1, h=1e11).unwindowed

    def test_record_rejects_wrong_dim(self):
        win = OccupationWindow(dim=2, rows=1)
        with pytest.raises(ContractViolation):
            win.record([1.0, 2.0, 3.0])

    def test_bad_construction_rejected(self):
        with pytest.raises(ContractViolation):
            OccupationWindow(dim=0, rows=1)
        with pytest.raises(ContractViolation):
            OccupationWindow(dim=1, rows=0)
        with pytest.raises(ContractViolation):
            OccupationWindow(dim=1, rows=1, h=-1.0)
        with pytest.raises(TypeError):
            OccupationWindow(dim=1)  # a window's length is the run's to give


class TestOccupationSampler:
    def test_zero_radius_is_identity(self):
        win = OccupationWindow(dim=3, rows=1)
        x = np.array([1.0, -2.0, 0.5])
        out = sample_occupation_perturbation(x, win, 0.0, WeightFn(), RngStream(0, 0))
        assert np.array_equal(out, x)

    def test_negative_radius_rejected(self):
        win = OccupationWindow(dim=1, rows=1)
        with pytest.raises(ContractViolation):
            sample_occupation_perturbation([0.0], win, -0.1, WeightFn(), RngStream(0, 0))

    def test_matches_manual_replay(self):
        # Two bit-exact draws per coordinate, ascending: sign then magnitude.
        rng_hist = RngStream(8, 0)
        win = OccupationWindow(dim=4, rows=25, h=0.3)
        for _ in range(25):
            win.record(rng_hist.normal(4))
        x = rng_hist.normal(4)
        w = WeightFn(alpha=5.0)
        r = 0.07

        out = sample_occupation_perturbation(x, win, r, w, RngStream(99, 0))
        expected = reference_occupation_perturbation(x, win, r, w, RngStream(99, 0))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dim", [1, 4, 3562])
    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 5.0])
    def test_matches_scalar_reference(self, alpha, windowed, dim):
        win, x = filled_window(dim, windowed)
        w = WeightFn(alpha=alpha)
        left, right = win.counts_all(x)
        p_scalar = [left_probability(w, int(nl), int(nr)) for nl, nr in zip(left, right)]
        assert np.array_equal(_left_probabilities(w, left, right), p_scalar)

        out = sample_occupation_perturbation(x, win, 0.3, w, RngStream(11, 0))
        expected = reference_occupation_perturbation(x, win, 0.3, w, RngStream(11, 0))
        assert np.array_equal(out, expected)

    @pytest.mark.filterwarnings("error")
    def test_weight_overflow_raises(self):
        # w(50) and w(60) are both inf at alpha 200; WeightFn catches the
        # OverflowError itself, so the sampler raises with numpy silent.
        win = OccupationWindow(dim=1, rows=110)
        for v in [-1.0] * 50 + [1.0] * 60:
            win.record([v])
        with pytest.raises(ContractViolation, match=r"alpha=200.0, visit count c=35$"):
            sample_occupation_perturbation([0.0], win, 0.1, WeightFn(alpha=200.0),
                                           RngStream(0, 0))

    def test_empty_window_signs_are_balanced(self):
        win = OccupationWindow(dim=10, rows=1)
        x = np.zeros(10)
        rng = RngStream(17, 0)
        lefts = 0
        total = 0
        for _ in range(10_000):
            out = sample_occupation_perturbation(x, win, 1.0, WeightFn(), rng)
            lefts += int(np.sum(out < 0.0))
            total += 10
        assert abs(lefts / total - 0.5) < 0.01

    def test_heavy_left_history_kicks_right(self):
        # Window saturated on the left of the query point: nearly every kick
        # must land right.
        win = OccupationWindow(dim=1, rows=200)
        for _ in range(200):
            win.record([-0.001])
        rng = RngStream(4, 0)
        rights = sum(
            float(sample_occupation_perturbation([0.0], win, 1.0, WeightFn(), rng)[0]) > 0
            for _ in range(200)
        )
        assert rights == 200

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_kick_bounded_by_amp(self, seed, dim):
        win = OccupationWindow(dim=dim, rows=1)
        x = np.zeros(dim)
        out = sample_occupation_perturbation(x, win, 0.5, WeightFn(), RngStream(seed, 0))
        assert np.all(np.abs(out - x) <= 0.5 / math.sqrt(dim))


class TestBallSampler:
    def test_zero_radius_is_identity(self):
        x = np.array([3.0, -1.0])
        assert np.array_equal(sample_ball_perturbation(x, 0.0, RngStream(0, 0)), x)

    def test_negative_radius_rejected(self):
        with pytest.raises(ContractViolation):
            sample_ball_perturbation(np.zeros(2), -1.0, RngStream(0, 0))

    def test_stays_inside_ball(self):
        rng = RngStream(5, 0)
        x = np.zeros(3)
        for _ in range(2000):
            assert np.linalg.norm(sample_ball_perturbation(x, 0.7, rng) - x) <= 0.7

    def test_second_moment_and_mean(self):
        # Uniform on the disk of radius 1: E||xi||^2 = d/(d+2) = 0.5 at d = 2.
        rng = RngStream(12, 0)
        kicks = np.array(
            [sample_ball_perturbation(np.zeros(2), 1.0, rng) for _ in range(100_000)]
        )
        sq = np.sum(kicks**2, axis=1)
        assert abs(float(np.mean(sq)) - 0.5) < 0.02
        assert np.all(np.abs(np.mean(kicks, axis=0)) < 0.02)
