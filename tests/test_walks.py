"""Self-interacting walk simulator: dynamics, MSD fitting, localization."""

import hashlib
import math
from dataclasses import dataclass
from typing import Dict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otgrad import walks
from otgrad.core import ContractViolation, RngStream
from otgrad.occupation import OccupationWindow, WeightFn, sample_occupation_perturbation
from otgrad.walks import (
    WALK_KINDS,
    fit_msd_exponent,
    localization_metric,
    msd_curve,
    msd_exponent,
    path_range,
    simulate,
)


@dataclass
class WalkState:
    """A walk as a position and a dict of visit counts: the reference walker."""

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
    """Advance the walk one step in place (one uniform draw per step).

    The reference that simulate and msd_curve must match bit for bit.
    """
    n_left, n_right = state.neighbor_counts()
    p_left = left_move_probability(state.kind, state.weight, n_left, n_right)
    if state.rng.uniform() < p_left:
        state.position -= 1
    else:
        state.position += 1
    state.counts[state.position] = state.counts.get(state.position, 0) + 1
    state.t += 1
    return state


class _ListStream:
    """Hands out the given uniforms in order, as RngStream.uniform would."""

    def __init__(self, us):
        self._us = iter(us.tolist())

    def uniform(self) -> float:
        return next(self._us)


def _fit_msd_exponent_reference(msd, t_lo, t_hi):
    """fit_msd_exponent as first written, one temporary per operation."""
    msd = np.asarray(msd, dtype=np.float64)
    t_lo = max(1, int(t_lo))
    t_hi = min(int(t_hi), msd.shape[0] - 1)
    ts = np.arange(t_lo, t_hi + 1)
    ys = msd[t_lo:t_hi + 1]
    keep = ys > 0
    ts, ys = ts[keep], ys[keep]
    lx = np.log(ts.astype(np.float64))
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    sxx = float(lx_c @ lx_c)
    slope = float(lx_c @ ly) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = ts.shape[0] - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    return slope, float(np.sqrt(sigma2 / sxx))


def _msd_reference(kind, weight, T, n_paths, seed):
    """The per-path accumulation msd_curve replaces: float sum of squares."""
    acc = np.zeros(T + 1, dtype=np.float64)
    for i in range(n_paths):
        acc += simulate(kind, weight, T, seed + i).astype(np.float64) ** 2
    return acc / n_paths


def _localization_reference(path):
    """localization_metric through np.unique."""
    second = np.asarray(path, dtype=np.int64)[len(path) // 2:]
    _, counts = np.unique(second, return_counts=True)
    return float(np.sort(counts)[::-1][:5].sum()) / second.shape[0]


class TestMoveProbabilities:
    def test_fresh_site_is_a_coin_flip(self):
        w = WeightFn(alpha=5.0)
        assert left_move_probability("repelling", w, 0, 0) == 0.5
        assert left_move_probability("reinforced", w, 0, 0) == 0.5

    def test_single_left_visit(self):
        # After one visit to the left neighbor (w = 1 + 1 = 2 vs 1), the
        # repelling walk moves left with probability 1/3, the reinforced
        # walk with probability 2/3.
        w = WeightFn(alpha=1.0)
        assert left_move_probability("repelling", w, 1, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert left_move_probability("reinforced", w, 1, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            left_move_probability("levy", WeightFn(), 0, 0)
        with pytest.raises(ContractViolation):
            make_walk_state("levy", WeightFn(), RngStream(0, 0))

    @given(st.sampled_from(WALK_KINDS), st.integers(0, 200), st.integers(0, 200))
    def test_probability_in_open_interval(self, kind, nl, nr):
        p = left_move_probability(kind, WeightFn(alpha=5.0), nl, nr)
        assert 0.0 < p < 1.0


class TestWalkStep:
    def test_first_step_lands_adjacent(self):
        for seed in range(8):
            state = make_walk_state("repelling", WeightFn(), RngStream(seed, 0))
            walk_step(state)
            assert state.position in (-1, 1)
            assert state.t == 1

    def test_one_uniform_per_step(self):
        state = make_walk_state("repelling", WeightFn(), RngStream(60, 0))
        walk_step(state)
        follow = state.rng.uniform()
        u1, u2 = RngStream(60, 0).uniforms(2)
        assert state.position == (-1 if u1 < 0.5 else 1)
        assert follow == u2

    def test_counts_track_total_time(self):
        state = make_walk_state("reinforced", WeightFn(), RngStream(3, 0))
        for _ in range(137):
            walk_step(state)
        assert sum(state.counts.values()) == 138  # start site plus one per step

    def test_walk_step_matches_batch_simulators(self):
        for kind in WALK_KINDS:
            T = 500
            state = make_walk_state(kind, WeightFn(alpha=5.0), RngStream(11, 0))
            stepped = [0]
            for _ in range(T):
                walk_step(state)
                stepped.append(state.position)
            stepped = np.array(stepped)
            assert np.array_equal(stepped, simulate(kind, WeightFn(alpha=5.0), T, 11))
            # a one-path ensemble is that path's squared displacement
            assert np.array_equal(stepped.astype(np.float64) ** 2,
                                  msd_curve(kind, WeightFn(alpha=5.0), T, 1, 11))


class TestSimulate:
    def test_path_anatomy(self):
        path = simulate("repelling", WeightFn(), 1000, 0)
        assert path.shape == (1001,)
        assert path[0] == 0
        assert np.all(np.abs(np.diff(path)) == 1)

    def test_replay_is_exact(self):
        a = simulate("reinforced", WeightFn(), 2000, 9)
        b = simulate("reinforced", WeightFn(), 2000, 9)
        assert np.array_equal(a, b)

    def test_constant_weight_reduces_to_simple_walk(self):
        T = 3000
        path = simulate("repelling", WeightFn(alpha=0.0), T, 4)
        uniforms = RngStream(4, 0).uniforms(T)
        steps = np.where(uniforms < 0.5, -1, 1)
        assert np.array_equal(path[1:], np.cumsum(steps))

    def test_bad_arguments(self):
        with pytest.raises(ContractViolation):
            simulate("levy", WeightFn(), 10, 0)
        with pytest.raises(ContractViolation):
            simulate("repelling", WeightFn(), 0, 0)

    @pytest.mark.parametrize("alpha, count", [(200.0, 35), (140.0, 159)])
    def test_weight_overflow_names_alpha_and_count(self, alpha, count):
        # 35**200 overflows outright; 159**140 is finite but w(L) + w(R)
        # would not be. Both engines stop at the same first bad count, and
        # so does the occupation sampler with `count` samples on each side
        # of its one coordinate, where w(L) = w(R) and p_left would be 1/2.
        window = OccupationWindow(dim=1, rows=2 * count)
        for v in [-1.0] * count + [1.0] * count:
            window.record([v])
        for run in (lambda: simulate("reinforced", WeightFn(alpha), 2000, 0),
                    lambda: msd_curve("reinforced", WeightFn(alpha), 2000, 3, 0),
                    lambda: sample_occupation_perturbation([0.0], window, 0.1, WeightFn(alpha),
                                                           RngStream(0, 0))):
            with pytest.raises(ContractViolation, match=rf"alpha={alpha}, visit count c={count}$"):
                run()

    def test_overflow_at_a_site_left_behind(self):
        # w(3) = 1 + 3**645.8 is finite but too large for w(L) + w(R); this
        # repelling walk visits a site a third time and has left it when its
        # 20 steps end, so the check must see more than the last site
        with pytest.raises(ContractViolation, match=r"alpha=645.8, visit count c=3$"):
            simulate("repelling", WeightFn(645.8), 20, 1)

    def test_weight_table_is_the_scalar_weight(self):
        # msd_curve's table [w(0), ..., w(n - 1)] is WeightFn.weights of
        # arange(n); counts 7, 10 and 1553 are where array np.power rounds
        # differently
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.5, 5.0):
            table = WeightFn(alpha).weights(np.arange(2000))
            assert table.tolist() == [WeightFn(alpha)(c) for c in range(2000)]
        # large counts, and tables past an overflow (159**140 is finite, 35**200 is not)
        for alpha, start, n in ((5.0, 2000, 60000), (140.0, 150, 170), (200.0, 0, 40),
                                (200.0, 30, 41)):
            table = WeightFn(alpha).weights(np.arange(n))
            assert table[start:].tolist() == [WeightFn(alpha)(c) for c in range(start, n)]

    def test_weight_overflow_only_when_reached(self):
        # alpha=200 is fine while no site is visited 35 times
        path = simulate("repelling", WeightFn(200.0), 60, 0)
        assert np.array_equal(msd_curve("repelling", WeightFn(200.0), 60, 1, 0),
                              path.astype(np.float64) ** 2)

    def test_non_finite_exponent_rejected(self):
        # a NaN exponent never gets here: WeightFn refuses it when it is built
        with pytest.raises(ContractViolation, match=r"visit count c=2$"):
            simulate("repelling", WeightFn(math.inf), 100, 0)
        with pytest.raises(ContractViolation, match=r"visit count c=2$"):
            msd_curve("repelling", WeightFn(math.inf), 100, 2, 0)


class TestMsd:
    def test_ballistic_curve_fits_slope_two(self):
        t = np.arange(201, dtype=np.float64)
        slope, stderr = fit_msd_exponent(t**2, 20, 200)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert stderr < 1e-9

    def test_known_power_law(self):
        t = np.arange(1001, dtype=np.float64)
        slope, _ = fit_msd_exponent(t**1.3, 100, 1000)
        assert slope == pytest.approx(1.3, abs=1e-9)

    def test_zero_entries_are_skipped(self):
        msd = np.arange(101, dtype=np.float64)
        msd[5] = 0.0  # a zero inside the window must not produce -inf
        slope, _ = fit_msd_exponent(msd, 1, 100)
        assert np.isfinite(slope)

    def test_fit_matches_reference_bit_for_bit(self):
        t = np.arange(1001, dtype=np.float64)
        noisy = t ** 1.1 * (1.0 + 0.1 * np.sin(t))
        with_zeros = t ** 1.3
        with_zeros[[120, 121, 500, 999]] = 0.0
        curves = [(t ** 2, 20, 200), (t ** 1.3, 100, 1000), (noisy, 1, 1000),
                  (with_zeros, 100, 1000), (np.arange(101, dtype=np.float64), 1, 100),
                  (msd_curve("repelling", WeightFn(1.0), 2000, 10, 4), 200, 2000),
                  (msd_curve("reinforced", WeightFn(5.0), 500, 10, 0), 0, 500)]
        for msd, lo, hi in curves:
            before = msd.copy()
            slope, stderr = fit_msd_exponent(msd, lo, hi)
            assert np.array_equal(msd, before)  # in-place steps leave the input alone
            ref_slope, ref_stderr = _fit_msd_exponent_reference(msd, lo, hi)
            assert slope == ref_slope and stderr == ref_stderr

    def test_window_validation(self):
        msd = np.arange(101, dtype=np.float64)
        with pytest.raises(ContractViolation):
            fit_msd_exponent(msd, 90, 91)  # too few points
        with pytest.raises(ContractViolation):
            fit_msd_exponent(msd, 50, 10)

    def test_msd_curve_shape_and_determinism(self):
        a = msd_curve("repelling", WeightFn(), 300, 20, 7)
        b = msd_curve("repelling", WeightFn(), 300, 20, 7)
        assert a.shape == (301,)
        assert a[0] == 0.0
        assert a[1] == 1.0  # first step is always +-1
        assert np.array_equal(a, b)

    def test_msd_curve_validates_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(walks, "RngStream", no_draws)
        for weight in (WeightFn(), WeightFn(0.0)):  # lattice engine, closed form
            for args in (("levy", weight, 10, 2, 0), ("repelling", weight, 0, 2, 0),
                         ("repelling", weight, 10, 0, 0)):
                with pytest.raises(ContractViolation):
                    msd_curve(*args)
            for args in (("levy", weight, 10, 0), ("repelling", weight, 0, 0)):
                with pytest.raises(ContractViolation):
                    simulate(*args)

    def test_msd_exponent_input_floors(self):
        with pytest.raises(ContractViolation):
            msd_exponent("repelling", WeightFn(), 999, 100, 0)
        with pytest.raises(ContractViolation):
            msd_exponent("repelling", WeightFn(), 1000, 99, 0)

    def test_fit_start_checked_before_drawing(self, monkeypatch):
        # a fit start outside [0, 1) of T, NaN included, is refused before
        # any path is drawn; 0 fits from t = 1
        def no_curve(*args):
            raise AssertionError("simulated before validating")

        monkeypatch.setattr(walks, "msd_curve", no_curve)
        for frac in (float("nan"), 1.5, 1.0, -0.5, -1e-300, float("inf"), float("-inf")):
            with pytest.raises(ContractViolation, match="fit_lo_frac"):
                msd_exponent("repelling", WeightFn(1.0), 20000, 100, 0, fit_lo_frac=frac)
        curve = np.arange(1001, dtype=np.float64) ** 1.5
        monkeypatch.setattr(walks, "msd_curve", lambda *args: curve)
        for frac, t_lo in ((0.0, 1), (0.5, 500), (0.99, 990)):
            assert msd_exponent("repelling", WeightFn(1.0), 1000, 100, 0, fit_lo_frac=frac) == \
                fit_msd_exponent(curve, t_lo, 1000)

    def test_short_fit_window_refused_before_drawing(self, monkeypatch):
        # a window [max(1, int(frac * T)), T] of fewer than 3 points is
        # refused before any path is drawn; 3 points are enough
        def no_curve(*args):
            raise AssertionError("simulated before validating")

        monkeypatch.setattr(walks, "msd_curve", no_curve)
        for T, frac in ((1000, 0.999), (1000, 0.9999), (20000, 0.99995), (20000, 0.99999)):
            with pytest.raises(ContractViolation, match="fewer than 3 points"):
                msd_exponent("repelling", WeightFn(1.0), T, 100, 0, fit_lo_frac=frac)
        curve = np.arange(1001, dtype=np.float64) ** 1.5
        monkeypatch.setattr(walks, "msd_curve", lambda *args: curve)
        assert msd_exponent("repelling", WeightFn(1.0), 1000, 100, 0, fit_lo_frac=0.998) == \
            fit_msd_exponent(curve, 998, 1000)


class TestEnsemble:
    @pytest.mark.parametrize("kind", WALK_KINDS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 5.0])
    def test_equals_mean_of_simulated_squares(self, kind, alpha):
        msd = msd_curve(kind, WeightFn(alpha), 1500, 6, 2)
        assert np.array_equal(msd, _msd_reference(kind, WeightFn(alpha), 1500, 6, 2))

    @pytest.mark.parametrize("kind", WALK_KINDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("n_paths", [1, 7])
    def test_pair_passes_equal_the_reference(self, kind, alpha, n_paths):
        # a pass takes two moves; T covers blocks shorter than a pair, a
        # trailing odd step, and the block length (128) and its neighbours
        expected = _msd_reference(kind, WeightFn(alpha), 1501, n_paths, 11)
        for T in (1, 2, 3, 127, 128, 129, 257, 1501):
            msd = msd_curve(kind, WeightFn(alpha), T, n_paths, 11)
            assert np.array_equal(msd, expected[:T + 1]), T

    @pytest.mark.parametrize("chunk", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 5])
    def test_exact_lattice_margin(self, chunk, n, monkeypatch):
        # with no pad the lattice grows to exactly the sites a block can
        # read, and in blocks this short a walker often runs to that edge.
        # A margin one site short would count a site in another path's row,
        # or read one there (a site no path has visited reads 0, as the
        # true count would); reading past the last row raises, and with one
        # path every right-hand edge is the last row's
        monkeypatch.setattr(walks, "_LATTICE_PAD", 0)
        monkeypatch.setattr(walks, "_LOCKSTEP_CHUNK", chunk)
        monkeypatch.setattr(walks, "_DRAW_CHUNK", 4 * chunk)
        T, seed, reach = 600, 1, walks._reach(chunk)
        for kind, alpha in (("repelling", 5.0), ("repelling", 1.0), ("reinforced", 0.2)):
            paths = [simulate(kind, WeightFn(alpha), T, seed + i) for i in range(n)]
            # the ensemble outgrows its first lattice on both sides
            assert min(p.min() for p in paths) < -reach and max(p.max() for p in paths) > reach
            assert np.array_equal(msd_curve(kind, WeightFn(alpha), T, n, seed),
                                  _msd_reference(kind, WeightFn(alpha), T, n, seed))

    def test_lattice_grows_several_times(self):
        T, n, seed = 20000, 4, 7
        paths = [simulate("repelling", WeightFn(2.5), T, seed + i) for i in range(n)]
        # the lattice starts with `step` sites left of 0, and each growth
        # adds at most `step` more there, so this forces three growths
        step = walks._reach(walks._LOCKSTEP_CHUNK) + walks._LATTICE_PAD
        assert min(p.min() for p in paths) < -4 * step
        assert np.array_equal(msd_curve("repelling", WeightFn(2.5), T, n, seed),
                              _msd_reference("repelling", WeightFn(2.5), T, n, seed))

    def test_site_count_past_uint16(self):
        T = 140000
        paths = [simulate("reinforced", WeightFn(5.0), T, i) for i in range(2)]
        assert max(np.bincount(p - p.min()).max() for p in paths) > 65535
        expected = (paths[0].astype(np.float64) ** 2 + paths[1].astype(np.float64) ** 2) / 2
        assert np.array_equal(msd_curve("reinforced", WeightFn(5.0), T, 2, 0), expected)

    @pytest.mark.parametrize("args, prefix", [
        (("repelling", WeightFn(1.0), 3000, 20, 5), "d226882389d6b469"),
        (("reinforced", WeightFn(5.0), 2000, 10, 3), "10e9aee73c0ea299"),
        (("repelling", WeightFn(2.5), 4000, 10, 1), "2cdde9aeca6e1e52"),
        (("repelling", WeightFn(0.0), 3000, 20, 5), "9eed6bf8b7074574"),
        (("reinforced", WeightFn(0.0), 2000, 10, 3), "c57f764b4accafdd"),
    ])
    def test_golden_digests(self, args, prefix):
        # digests of the curves of the per-path engine that msd_curve replaced;
        # the alpha = 0 rows are the lattice engine's, from before the closed form
        digest = hashlib.sha256(msd_curve(*args).tobytes()).hexdigest()
        assert digest[:16] == prefix


def _stepped_paths(kind, alpha, T, n_paths, seed):
    """Paths seed .. seed + n_paths - 1 of T steps each, from walk_step."""
    paths = []
    for i in range(n_paths):
        state = make_walk_state(kind, WeightFn(alpha), RngStream(seed + i, 0))
        path = [0]
        for _ in range(T):
            path.append(walk_step(state).position)
        paths.append(np.array(path))
    return paths


class TestConstantWeight:
    """At alpha = 0 both engines take the closed form; walk_step stays the reference."""

    @pytest.mark.parametrize("kind", WALK_KINDS)
    @pytest.mark.parametrize("alpha", [0.0, -0.0])
    def test_engines_equal_walk_step(self, kind, alpha):
        # T straddles the block length, 4096 steps in both engines; a path of
        # T steps is the first T steps of the 5000-step path
        seed = 21
        paths = _stepped_paths(kind, alpha, 5000, 7, seed)
        for T in (1, 63, 64, 65, 4095, 4096, 4097, 5000):
            for i in range(7):
                assert np.array_equal(simulate(kind, WeightFn(alpha), T, seed + i),
                                      paths[i][:T + 1])
            for n_paths in (1, 7):
                expected = sum(p[:T + 1].astype(np.float64) ** 2
                               for p in paths[:n_paths]) / n_paths
                assert np.array_equal(msd_curve(kind, WeightFn(alpha), T, n_paths, seed),
                                      expected)

    def test_path_groups_equal_the_simple_walk(self):
        # msd_curve steps 16 paths at a time: the second group of 17 or 33
        # paths, and a last group of one, must continue the curve exactly;
        # the closed form (pinned to walk_step above) is the reference here
        T, seed = 4097, 40
        squares = []
        for i in range(33):
            path = np.cumsum(np.where(RngStream(seed + i, 0).uniforms(T) < 0.5, -1, 1))
            squares.append(np.concatenate([[0], path]).astype(np.float64) ** 2)
        for n_paths in (15, 16, 17, 33):
            assert np.array_equal(msd_curve("repelling", WeightFn(0.0), T, n_paths, seed),
                                  sum(squares[:n_paths]) / n_paths)


class TestBounceRuns:
    """simulate steps two-site bounces as arrays; walk_step stays the reference."""

    @staticmethod
    def _spy_runs(monkeypatch):
        """Record (first uniform, uniform after the run, block length) per run."""
        runs = []
        bounce_run = walks._bounce_run

        def spy(us, q, *args):
            result = bounce_run(us, q, *args)
            runs.append((q, result[0], us.shape[0]))
            return result

        monkeypatch.setattr(walks, "_bounce_run", spy)
        return runs

    @pytest.mark.parametrize("kind", WALK_KINDS)
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    def test_simulate_equals_walk_step(self, kind, alpha):
        # T straddles the bounce check (64), its first window (128), the
        # block (4096) and, at reinforced alpha 2, a run that ends at step
        # 381, mid-block; a path of T steps is the first T of the longest
        path = _stepped_paths(kind, alpha, 9000, 1, 0)[0]
        for T in (1, 63, 64, 65, 127, 128, 129, 381, 382, 4095, 4096, 4097, 4161, 9000):
            assert np.array_equal(simulate(kind, WeightFn(alpha), T, 0), path[:T + 1])

    @pytest.mark.parametrize("alpha, seed", [(5.0, 758), (2.0, 0)])
    def test_bounce_breaks_and_reforms(self, alpha, seed, monkeypatch):
        runs = self._spy_runs(monkeypatch)
        path = simulate("reinforced", WeightFn(alpha), 5000, seed)
        assert np.array_equal(path, _stepped_paths("reinforced", alpha, 5000, 1, seed)[0])
        if alpha == 5.0:
            # it bounces on 1, 2, leaves for 0, bounces on 0, 1, leaves for
            # 2 and bounces on 0, 1 again: no run before the second check
            assert path[:16].tolist() == [0, 1, 2, 1, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1]
            assert runs[0] == (128, 4096, 4096)
        else:
            # the first run leaves its bounce at step 381, mid-block, and the
            # bounce forms again: a second run starts at step 509
            assert runs[:2] == [(128, 381, 4096), (509, 4096, 4096)]

    def test_overflow_reached_inside_a_run(self, monkeypatch):
        # the alpha = 140 walk bounces from its first steps, and one run of
        # 192 steps takes both counts past 128; it stops short of count
        # 159, whose weight 1 + 159**140 is finite but too large for
        # w(L) + w(R), and the scalar loop reaches that count and names it
        runs = self._spy_runs(monkeypatch)
        with pytest.raises(ContractViolation, match=r"alpha=140.0, visit count c=159$"):
            simulate("reinforced", WeightFn(140.0), 2000, 1)
        assert runs[0][:2] == (64, 256)

    @staticmethod
    def _scalar_bounce(us, q, i, j, counts, ws, s, alpha, segment):
        """simulate's scalar loop from uniform q, stopped before the first
        step that does not move to the other site of the i-j bounce."""
        while q < len(us):
            wn = ws[i + s]
            if (i - 1 if us[q] < wn / (wn + ws[i - s]) else i + 1) != j:
                break
            c = counts[j] + 1
            counts[j] = c
            ws[j] = 1.0 + c ** alpha
            segment[q] = j
            i, j = j, i
            q += 1
        return q, i

    @pytest.mark.parametrize("kind", WALK_KINDS)
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    def test_run_equals_scalar_steps(self, kind, alpha):
        # one 1000-step block from site 10 (last step from 10 + d), with
        # outer sites visited 0 to 5 times; the windows of 64, 128, 256 and
        # 512 steps leave 40 for the last one, so only a step that leaves
        # the bounce ends a run early, and that step may come from either site
        s = 1 if kind == "repelling" else -1
        exits = set()
        for seed in range(12):
            rng = RngStream(seed, 0)
            ci, cj, co_i, co_j = (int(c) for c in rng.uniforms(4) * (40, 40, 6, 6))
            d = 1 if seed % 2 else -1
            counts = [0] * 21
            counts[10], counts[10 + d], counts[10 - d], counts[10 + 2 * d] = ci + 1, cj, co_i, co_j
            ws = [WeightFn(alpha)(c) for c in counts]
            us = rng.uniforms(1000)
            ref_counts, ref_ws, ref_segment = list(counts), list(ws), np.zeros(1000, dtype=np.int64)
            ref = self._scalar_bounce(us, 0, 10, 10 + d, ref_counts, ref_ws, s, alpha, ref_segment)
            segment = np.zeros(1000, dtype=np.int64)
            assert walks._bounce_run(us, 0, 10, 10 + d, counts, ws, s, WeightFn(alpha),
                                     segment) == ref
            assert counts == ref_counts and ws == ref_ws
            assert np.array_equal(segment, ref_segment)
            exits.add(ref[0] % 2 if ref[0] < 1000 else None)
        if (kind, alpha) != ("repelling", 5.0):  # that walk leaves at once
            assert {0, 1} <= exits  # runs left from i and from j
        if kind == "reinforced" and alpha > 1.0:
            assert None in exits  # and ran to the end of the block

    @staticmethod
    def _crafted(kind, alpha, d, cij, outer, us):
        """_bounce_run and walk_step from one crafted bounce state.

        The walker sits at site 10, has just come from j = 10 + d, and the
        counts of 10, j, 10 - d and j + d are cij[0], cij[1], outer[0] and
        outer[1]. walk_step takes the uniforms us until a step does not move
        to the other site, which it leaves untaken. Asserts that both agree
        and returns (uniforms used, sites visited).
        """
        i, j = 10, 10 + d
        start = {i: cij[0], j: cij[1], i - d: outer[0], j + d: outer[1]}
        counts = [start.get(site, 0) for site in range(21)]
        ws = [WeightFn(alpha)(c) for c in counts]
        segment = np.zeros(us.shape[0], dtype=np.int64)
        s = 1 if kind == "repelling" else -1
        q, site = walks._bounce_run(us, 0, i, j, counts, ws, s, WeightFn(alpha), segment)

        state = WalkState(position=i, counts=start, t=0, kind=kind, weight=WeightFn(alpha),
                          rng=_ListStream(us))
        sites, other = [], j
        while len(sites) < us.shape[0]:
            here = state.position
            walk_step(state)
            if state.position != other:  # leaves the bounce: undo that step
                state.counts[state.position] -= 1
                state.position = here
                break
            sites.append(state.position)
            other = here
        assert (q, site) == (len(sites), state.position)
        assert segment[:q].tolist() == sites
        assert counts == [state.counts.get(c, 0) for c in range(21)]
        assert ws == [WeightFn(alpha)(c) for c in counts]
        return q, sites

    @staticmethod
    def _staying(kind, alpha, d, cij, outer, m):
        """m uniforms that keep the crafted bounce going at every step, and
        the left-move probability of each step."""
        us, ps = np.empty(m), []
        c_near, c_far = cij[1], cij[0]  # the counts of the step's target and origin
        toward = d  # the direction of the step's target
        for t in range(m):
            n_left, n_right = (c_near, outer[t % 2]) if toward < 0 else (outer[t % 2], c_near)
            ps.append(left_move_probability(kind, WeightFn(alpha), n_left, n_right))
            # the step stays when it moves toward the other site
            us[t] = 0.0 if toward < 0 else np.nextafter(1.0, 0.0)
            c_near, c_far = c_far, c_near + 1
            toward = -toward
        return us, ps

    @pytest.mark.parametrize("kind", WALK_KINDS)
    @pytest.mark.parametrize("d", [1, -1])
    @pytest.mark.parametrize("step", [20, 41])
    def test_uniform_between_the_window_ends(self, kind, d, step):
        # alpha = 1 with counts near 20: across the first 64-step window a
        # site's probability moves far, so a uniform at the step's own
        # probability lies between the window's end values, and only the
        # step itself decides. At u == p the move is right; one ulp below it
        # is left. Whichever of the two stays, the run goes on past it.
        alpha, cij, outer = 1.0, (20, 20), (3, 5)
        us, ps = self._staying(kind, alpha, d, cij, outer, 200)
        site_ps = ps[step % 2:64:2]
        assert min(site_ps) < ps[step] < max(site_ps)
        for u in (ps[step], np.nextafter(ps[step], 0.0)):
            us[step] = u
            q, _ = self._crafted(kind, alpha, d, cij, outer, us)
            target_left = (d < 0) == (step % 2 == 0)  # the other site is left
            stays = (u < ps[step]) == target_left
            assert q == (200 if stays else step)

    @pytest.mark.parametrize("d", [1, -1])
    def test_zero_uniform_ends_a_right_move(self, d):
        # reinforced alpha = 5 with counts of 2000: the right-moving site
        # leaves with probability about 6e-17, below the smallest positive
        # uniform 2**-53, so any such uniform stays and only u == 0.0 leaves
        alpha, cij, outer = 5.0, (2000, 2000), (1, 1)
        us, ps = self._staying("reinforced", alpha, d, cij, outer, 3000)
        right = 0 if d > 0 else 1  # parity of the steps that move right
        assert 0.0 < max(ps[right::2]) < 2.0 ** -53
        us[right::2] = 2.0 ** -53
        assert self._crafted("reinforced", alpha, d, cij, outer, us)[0] == 3000
        for step in (right + 2, right + 1000, right + 2998):
            us[step] = 0.0
            assert self._crafted("reinforced", alpha, d, cij, outer, us)[0] == step
            us[step] = 2.0 ** -53

    def test_overflow_inside_an_accepted_window(self):
        # alpha = 140 with counts of 100: the first window of 64 steps ends
        # at count 132; the next would end at 196, past count 159, whose
        # weight is too large for w(L) + w(R), although its uniforms all
        # stay. It is not stepped: the scalar loop reaches count 159 and
        # raises (test_overflow_reached_inside_a_run)
        alpha, cij, outer = 140.0, (100, 100), (0, 0)
        assert WeightFn(alpha)(158) < math.inf == WeightFn(alpha)(159)
        us, _ = self._staying("reinforced", alpha, 1, cij, outer, 1000)
        q, sites = self._crafted("reinforced", alpha, 1, cij, outer, us[:64])
        assert q == 64
        counts = [0] * 21
        counts[10], counts[11] = cij
        ws = [WeightFn(alpha)(c) for c in counts]
        segment = np.zeros(1000, dtype=np.int64)
        assert walks._bounce_run(us, 0, 10, 11, counts, ws, -1, WeightFn(alpha),
                                 segment) == (64, 10)
        assert counts[10:12] == [132, 132] and segment[:64].tolist() == sites

    @pytest.mark.parametrize("alpha", [5.0, 30.0])
    def test_runs_across_block_ends(self, alpha, monkeypatch):
        # once the bounce is settled, a run that reaches the end of its
        # 4096-uniform block goes on from the first uniform of the next,
        # with no scalar steps, and its last window is cut at the block's
        # end; the paths over three block ends are walk_step's
        runs = self._spy_runs(monkeypatch)
        T = 3 * 4096 + 100
        for seed in range(2):
            runs.clear()
            path = simulate("reinforced", WeightFn(alpha), T, seed)
            assert np.array_equal(path, _stepped_paths("reinforced", alpha, T, 1, seed)[0])
            assert runs[-3:] == [(0, 4096, 4096)] * 2 + [(0, 100, 100)]
        # a crafted run that starts 200 uniforms before the end of its block
        us, _ = self._staying("reinforced", alpha, 1, (3000, 3000), (1, 1), 200)
        assert self._crafted("reinforced", alpha, 1, (3000, 3000), (1, 1), us)[0] == 200

    def test_reinforced_paths_digest(self):
        # recorded with the scalar loop alone, before the bounce runs
        digest = hashlib.sha256()
        for seed in range(5):
            digest.update(simulate("reinforced", WeightFn(5.0), 20000, seed).tobytes())
        assert digest.hexdigest() == (
            "ee27e4273204510aef3190997a023c8bc03b16224cec6d8d6293555d4bd02a79")


class TestPathStatistics:
    def test_localization_of_alternating_path(self):
        path = [0 if i % 2 == 0 else 1 for i in range(200)]
        assert localization_metric(path) == 1.0

    def test_localization_of_ballistic_path(self):
        path = list(range(201))
        # Second half holds 101 distinct sites; the top five cover 5/101.
        assert localization_metric(path) == pytest.approx(5.0 / 101.0, rel=1e-12)

    @given(st.lists(st.sampled_from((-1, 1)), min_size=99, max_size=400), st.integers(-50, 50))
    def test_localization_matches_unique_counts(self, steps, start):
        path = np.concatenate([[start], start + np.cumsum(steps)])
        assert localization_metric(path) == _localization_reference(path)

    def test_localization_needs_history(self):
        with pytest.raises(ContractViolation):
            localization_metric(list(range(99)))

    def test_path_range(self):
        assert path_range([0, 1, 2, 1, 0, -1]) == 3
        assert path_range([0]) == 0
