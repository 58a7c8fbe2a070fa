"""Benchmark objectives: values, gradients, and registry behavior.

The airy_ai reference values below were computed with 50-digit arbitrary
precision arithmetic and frozen here; the implementation must reproduce
them to 1e-8 absolute.
"""

import itertools
import math

import numpy as np
import pytest

from otgrad.core import (
    STREAM_DATA,
    ContractViolation,
    NumericalDomainError,
    derive_stream,
    eval_objective,
)
from otgrad.analysis import fd_gradient
from otgrad.benchmarks import PROBLEM_NAMES, PROBLEMS, make_problem
from otgrad.benchmarks.airy import (
    AIRY_DIM,
    N_SAMPLES,
    airy_ai,
    airy_regression_objective,
    airy_sample_grid,
    airy_targets,
)
from otgrad.benchmarks.mlp import (
    N_INPUT,
    N_OUTPUT,
    MlpProblem,
    _sigmoid_in_place,
    mlp_param_count,
)
from otgrad.benchmarks.datasets import synthetic_blobs
from otgrad.benchmarks.quadratics import (
    REGLQ_DIM,
    phase_retrieval_init_std,
    phase_retrieval_objective,
    reglq_objective,
)
from otgrad.benchmarks import staircase
from otgrad.benchmarks.staircase import (
    _profile,
    staircase_objective,
    staircase_profile,
    staircase_saddle_init,
)
from otgrad.optimizers import AlgoConfig, run

# (argument, Ai(argument)) frozen from a 50-digit computation
AIRY_REFERENCE = [
    (0.0, 0.35502805388781723926),
    (1.0, 0.13529241631288141552),
    (2.0, 0.034924130423274379135),
    (4.5, 0.00033025032351430898366),
    (5.0, 0.00010834442813607441735),
    (10.0, 1.1047532552898685934e-10),
    (-1.0, 0.5355608832923521188),
    (-2.0, 0.22740742820168557599),
    (-4.0, -0.070265532949289515099),
    (-4.5, 0.29215278105595946688),
    (-6.0, -0.32914517362982310523),
    (-8.0, -0.052705050356386202622),
    (-9.6, 0.31465158331169332861),
    (-12.0, -0.066555175054373129474),
    (-15.0, 0.27821749087082892953),
    (0.5, 0.23169360648083348977),
    (-0.5, 0.4757280916105395888),
    (3.3, 0.0037872884268267545819),
    (-7.9, 0.041701883617386709387),
    (-8.1, -0.14290814709358112018),
    (6.08, 8.146152438602876613e-6),
]


def _old_staircase(x, n_plateaus=4, length=1.0):
    """(f, grad f) by the np.mean formula and the two separate branch
    lookups of the original staircase oracle, kept as the reference."""
    dim = x.shape[0]

    def branch(r):
        return min(math.floor(r / length + 0.5), n_plateaus)

    r = float(np.mean(x * x))
    n = branch(r)
    f = r ** 3 if n == 0 else (r - n * length) ** 3 + 0.25 * n * length ** 3
    r = float(np.mean(x * x))
    n = branch(r)
    slope = 3.0 * r * r if n == 0 else 3.0 * (r - n * length) ** 2
    return f, slope * (2.0 / dim) * x


def _assert_same_bits(fg, ref):
    (f, g), (f_ref, g_ref) = fg, ref
    assert np.float64(f).tobytes() == np.float64(f_ref).tobytes()
    assert np.asarray(g).dtype == np.float64
    assert np.asarray(g).tobytes() == np.asarray(g_ref).tobytes()


def _staircase_points():
    """Integer points in [-4, 4]^4: sums of squares 0..64 hit every ring nL
    and every branch edge nL +/- L/2 exactly, for L = 1 and L = 1/2."""
    return [np.array(p, dtype=np.float64)
            for p in itertools.product(range(-4, 5), repeat=4)]


class TestStaircase:
    @pytest.mark.parametrize("n_plateaus, length", [(4, 1.0), (4, 0.5), (2, 1.0)])
    def test_oracle_matches_mean_formula(self, n_plateaus, length):
        obj = staircase_objective(dim=4, n_plateaus=n_plateaus, length=length)
        points = _staircase_points()
        radii = {float(np.mean(x * x)) for x in points}
        for n in range(n_plateaus + 2):
            for r in (n * length, (n - 0.5) * length, (n + 0.5) * length):
                assert r < 0 or r in radii
        rng = np.random.default_rng(5)
        for scale in (1e-5, 1e-2, 1.0, 1.7, 30.0, 1e5):
            points.extend(scale * rng.standard_normal((50, 4)))
        for x in points:
            _assert_same_bits((obj.value(x), obj.gradient(x)),
                              _old_staircase(x, n_plateaus, length))

    @pytest.mark.parametrize("dim", [1, 3, 7, 16, 129, 3562])
    def test_oracle_matches_mean_formula_in_higher_dims(self, dim):
        obj = staircase_objective(dim=dim)
        rng = np.random.default_rng(dim)
        for scale in (1e-5, 1.0, 2.0, 1e5):
            x = scale * rng.standard_normal(dim)
            _assert_same_bits((obj.value(x), obj.gradient(x)), _old_staircase(x))

    # sums of squares 0..10, 12, 14, 16, 18 and 40: for L = 1 and L = 1/2
    # the radii (sum / 4) hit the origin, every ring nL and every branch
    # edge (n +/- 1/2) L exactly, and lie past the last plateau
    STACK16 = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [-1, 1, 0, 0], [1, 1, -1, 0],
                        [0, 2, 0, 0], [2, -1, 0, 0], [2, 1, 1, 0], [-2, 1, 1, 1],
                        [2, 2, 0, 0], [0, 0, 3, 0], [3, 1, 0, 0], [2, 2, -2, 0],
                        [3, -2, 1, 0], [2, 2, 2, 2], [4, 1, 1, 0], [6, 0, -2, 0]],
                       dtype=np.float64)

    @pytest.mark.parametrize("n_plateaus, length", [(4, 1.0), (4, 0.5), (2, 1.0)])
    def test_stack_rows_equal_each_row_alone_and_the_profile(self, n_plateaus, length,
                                                             monkeypatch):
        X = self.STACK16
        radii = [float(np.mean(x * x)) for x in X]
        edges = {k * length / 2 for k in range(2 * n_plateaus + 2)}
        assert edges <= set(radii) and max(radii) > (n_plateaus + 0.5) * length
        obj = staircase_objective(dim=4, n_plateaus=n_plateaus, length=length)
        calls = []
        profile = staircase._profile

        def counted(sums, *args):
            calls.append(len(sums))
            return profile(sums, *args)

        monkeypatch.setattr(staircase, "_profile", counted)
        F, G = obj.oracle(X)
        assert calls == [16]  # one profile pass per stack
        for i, (x, r) in enumerate(zip(X, radii)):
            alone = obj.oracle(X[i:i + 1])
            _assert_same_bits((F[i], G[i]), (alone[0][0], alone[1][0]))
            _assert_same_bits((F[i], G[i]), _old_staircase(x, n_plateaus, length))
            assert (np.float64(staircase_profile(r, n_plateaus, length)).tobytes()
                    == F[i].tobytes())
        X = X.copy()
        X[7, 2] = np.nan
        with pytest.raises(NumericalDomainError, match="squared-radius mean is nan"):
            obj.oracle(X)

    def test_profile_values(self):
        assert staircase_profile(0.0) == 0.0
        assert staircase_profile(0.5) == pytest.approx(0.125, abs=1e-15)
        assert staircase_profile(1.0) == pytest.approx(0.25, abs=1e-15)
        assert staircase_profile(2.0) == pytest.approx(0.5, abs=1e-15)

    def test_branch_formulas_agree_at_boundaries(self):
        # The cubic pieces meet with matching value and slope where the
        # branch index flips, at r = (n + 1/2) L.
        for n in range(3):
            r = n + 0.5
            lower = (r - n) ** 3 + 0.25 * n
            upper = (r - (n + 1)) ** 3 + 0.25 * (n + 1)
            assert lower == upper
            assert 3.0 * (r - n) ** 2 == 3.0 * (r - (n + 1)) ** 2
            assert staircase_profile(r) == pytest.approx(lower, abs=1e-15)
            assert _profile([r], 1, 1.0, 4, 1.0)[1][0] == pytest.approx(3.0 * (r - n) ** 2,
                                                                     abs=1e-15)

    def test_branch_clamps_past_last_plateau(self):
        assert staircase_profile(10.0, n_plateaus=4) == pytest.approx(
            (10.0 - 4.0) ** 3 + 1.0, abs=1e-12)

    def test_objective_at_origin_and_plateau(self):
        obj = staircase_objective(dim=4, n_plateaus=4, length=1.0)
        assert obj.value(np.zeros(4)) == 0.0
        assert np.array_equal(obj.gradient(np.zeros(4)), np.zeros(4))
        ones = np.ones(4)
        assert obj.value(ones) == pytest.approx(0.25, abs=1e-15)
        assert np.array_equal(obj.gradient(ones), np.zeros(4))

    def test_saddle_init_is_stationary(self):
        obj = staircase_objective(dim=4, n_plateaus=4, length=1.0)
        x0 = staircase_saddle_init(4, 4, 1.0)
        assert obj.value(x0) == pytest.approx(0.25 * 4.0, abs=1e-12)
        assert float(np.linalg.norm(obj.gradient(x0))) == 0.0

    def test_gradient_matches_finite_differences(self):
        obj = staircase_objective(dim=4)
        rng = derive_stream(31, 0)
        for _ in range(5):
            x = 2.0 * rng.normal(4)
            ga = obj.gradient(x)
            gf = fd_gradient(obj, x)
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(gf))

    def test_negative_radius_rejected(self):
        with pytest.raises(ContractViolation):
            staircase_profile(-0.1)
        with pytest.raises(ContractViolation):
            staircase_objective(dim=0)

    def test_nan_point_is_a_domain_error(self):
        obj = staircase_objective(dim=4)
        x = np.full(4, np.nan)
        for oracle in (obj.value, obj.gradient,
                       lambda x: obj.oracle(np.stack([np.ones(4), x]))):
            with pytest.raises(NumericalDomainError, match="squared-radius mean is nan"):
                oracle(x)
        with pytest.raises(NumericalDomainError):
            staircase_profile(math.nan)


class TestAiryFunction:
    @pytest.mark.parametrize("s,expected", AIRY_REFERENCE)
    def test_reference_values(self, s, expected):
        assert airy_ai(s) == pytest.approx(expected, abs=1e-8)

    def test_decay_on_positive_axis(self):
        assert airy_ai(0.0) > airy_ai(1.0) > airy_ai(2.0) > airy_ai(5.0) > 0.0

    def test_domain_errors(self):
        for bad in (-15.01, 10.01, float("nan")):
            with pytest.raises(NumericalDomainError):
                airy_ai(bad)

    def test_dense_grid_is_finite(self):
        for s in np.linspace(-15.0, 10.0, 501):
            assert math.isfinite(airy_ai(float(s)))


class TestAiryRegression:
    def test_grid_and_targets(self):
        grid = airy_sample_grid()
        assert grid.shape == (N_SAMPLES,)
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(4.9, abs=1e-12)
        targets = airy_targets()
        assert targets.shape == (N_SAMPLES,)
        assert np.all(np.isfinite(targets))

    def test_zero_parameters_give_mean_square_target(self):
        obj = airy_regression_objective()
        targets = airy_targets()
        assert obj.value(np.zeros(AIRY_DIM)) == pytest.approx(
            float(np.mean(targets**2)), rel=1e-12)
        g = obj.gradient(np.zeros(AIRY_DIM))
        # With all amplitudes zero, frequency and width directions are flat.
        assert np.array_equal(g[8:16], np.zeros(8))
        assert np.any(g[0:4] != 0.0)

    def test_gradient_matches_finite_differences(self):
        obj = airy_regression_objective()
        rng = derive_stream(77, 0)
        x = 0.3 * rng.normal(AIRY_DIM)
        ga = obj.gradient(x)
        gf = fd_gradient(obj, x)
        assert np.linalg.norm(ga - gf) <= 1e-5 * np.linalg.norm(gf)

    def test_long_perturbed_run_beats_zero_initialization(self):
        obj = airy_regression_objective()
        algo = AlgoConfig(name="pgdot", eta=0.1, t_thres=50, g_thres=0.1,
                          r=0.1, momentum=0.5, h=0.04, t_count=200)
        trace = run(obj, algo, 3000, seed=0, x0=np.zeros(AIRY_DIM), record_every=100)
        assert trace.fs[-1] < obj.value(np.zeros(AIRY_DIM))


def _random_points(dim, seed, scales=(1e-3, 0.3, 1.0, 2.5)):
    rng = np.random.default_rng(seed)
    return [scale * rng.standard_normal(dim) for scale in scales for _ in range(5)]


def _staircase_stacks(n_plateaus, length):
    """The integer grid and scaled Gaussian stacks in d = 4."""
    def stacks():
        grid = np.array(_staircase_points())
        rng = np.random.default_rng(6)
        return [grid, grid[::-1][:5], grid[:1]] + [
            scale * rng.standard_normal((50, 4)) for scale in (1e-5, 1e-2, 1.0, 1.7, 30.0, 1e5)]
    return lambda: (staircase_objective(dim=4, n_plateaus=n_plateaus, length=length), stacks())


def _staircase_in(dim):
    def make():
        rng = np.random.default_rng(dim)
        return staircase_objective(dim=dim), [np.concatenate(
            [scale * rng.standard_normal((3, dim)) for scale in (1e-5, 1.0, 2.0, 1e5)])]
    return make


def _closed_form(make, dim):
    def made():
        X = np.array([np.zeros(dim)] + _random_points(dim, dim))
        return make(), [X, X[::-1][:3], X[:1]]
    return made


def _mlp_batch():
    features, labels = synthetic_blobs(0, n_samples=100)
    prob = MlpProblem(features, labels, n_hidden=8)
    rng = derive_stream(3, 0)
    X = np.array([prob.init_params(rng, mean=mean, std=0.5) for mean in (-1.0, -0.2, 0.0, 0.3)])
    return prob.objective_for(derive_stream(4, 0).permutation(100)[:32]), [X, X[2:3]]


ORACLE_CASES = {
    **{f"staircase-N{n}-L{length}": _staircase_stacks(n, length)
       for n, length in ((4, 1.0), (4, 0.5), (2, 1.0))},
    **{f"staircase-d{dim}": _staircase_in(dim) for dim in (1, 3, 7, 16, 129, 3562)},
    "reglq": _closed_form(lambda: reglq_objective(data_seed=4), REGLQ_DIM),
    "phase_retrieval": _closed_form(lambda: phase_retrieval_objective(data_seed=2), 10),
    "phase_retrieval-37x6": _closed_form(
        lambda: phase_retrieval_objective(data_seed=1, n_measurements=37, dim=6), 6),
    "airy_regression": _closed_form(airy_regression_objective, AIRY_DIM),
    "mlp-batch": _mlp_batch,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_rows_equal_one_row_and_single_point_calls(case):
    """Row i of oracle(X) is oracle(X[i:i+1]) and (value, gradient) at
    X[i], bit for bit: no row depends on the others."""
    obj, stacks = ORACLE_CASES[case]()
    for X in stacks:
        F, G = obj.oracle(X)
        assert F.shape == (X.shape[0],) and G.shape == X.shape
        for i, x in enumerate(X):
            f_row, g_row = obj.oracle(X[i:i + 1])
            _assert_same_bits((F[i], G[i]), (f_row[0], g_row[0]))
            _assert_same_bits((F[i], G[i]), (obj.value(x), obj.gradient(x)))


def test_closed_form_gradients_match_their_original_formulas():
    """gradient() is the oracle's one-row case on airy and phase retrieval;
    pin both against the gradient formulas written apart from the value."""
    x_pr = _random_points(10, 3)
    pr = phase_retrieval_objective(data_seed=2)
    rng = derive_stream(2, STREAM_DATA)
    a = rng.normal(200 * 10).reshape(200, 10)
    y = (a @ (rng.normal(10) / math.sqrt(10))) ** 2
    for x in x_pr:
        z = a @ x
        g_ref = (4.0 / 200) * (a.T @ ((z * z - y) * z))
        assert pr.gradient(x).tobytes() == g_ref.tobytes()

    airy = airy_regression_objective()
    s = airy_sample_grid()
    for x in _random_points(AIRY_DIM, 8, scales=(1e-3, 0.1, 0.5)):
        a, b, lam, w = x[0:4], x[4:8], x[8:12], x[12:16]
        cos_p, sin_p = np.cos(np.outer(s, lam)), np.sin(np.outer(s, lam))
        damp = np.exp(np.outer(s, w))
        res = ((a * cos_p + b * sin_p) * damp).sum(axis=1) - airy_targets()
        g_ref = (2.0 / N_SAMPLES) * np.concatenate([
            res @ (damp * cos_p), res @ (damp * sin_p),
            res @ (damp * (-a * sin_p + b * cos_p) * s[:, None]),
            res @ (damp * (a * cos_p + b * sin_p) * s[:, None])])
        assert airy.gradient(x).tobytes() == g_ref.tobytes()


class TestReglq:
    def test_value_and_gradient_at_origin(self):
        obj = reglq_objective(data_seed=0)
        assert obj.value(np.zeros(REGLQ_DIM)) == 0.0
        rng = derive_stream(0, STREAM_DATA)
        std = np.sqrt(np.array([0.1, 0.001]))
        b_bar = np.mean([rng.normal(REGLQ_DIM) * std for _ in range(10)], axis=0)
        assert np.array_equal(obj.gradient(np.zeros(REGLQ_DIM)), b_bar)

    def test_seed_determinism(self):
        x = np.array([0.3, -0.7])
        a = reglq_objective(data_seed=5).value(x)
        b = reglq_objective(data_seed=5).value(x)
        c = reglq_objective(data_seed=6).value(x)
        assert a == b and a != c

    def test_gradient_matches_finite_differences(self):
        obj = reglq_objective(data_seed=0)
        rng = derive_stream(13, 0)
        for _ in range(5):
            x = rng.normal(REGLQ_DIM)
            ga = obj.gradient(x)
            gf = fd_gradient(obj, x)
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(gf))


class TestPhaseRetrieval:
    def test_planted_signal_is_global_minimum(self):
        obj = phase_retrieval_objective(data_seed=0)
        rng = derive_stream(0, STREAM_DATA)
        a = rng.normal((200, 10))
        x_star = rng.normal(10) / math.sqrt(10.0)
        assert obj.value(x_star) == 0.0
        assert obj.value(-x_star) == 0.0
        assert np.array_equal(obj.gradient(x_star), np.zeros(10))
        assert a.shape == (200, 10)

    def test_origin_is_stationary(self):
        obj = phase_retrieval_objective(data_seed=0)
        assert np.array_equal(obj.gradient(np.zeros(10)), np.zeros(10))

    def test_gradient_matches_finite_differences(self):
        obj = phase_retrieval_objective(data_seed=3)
        rng = derive_stream(9, 0)
        for _ in range(5):
            x = 0.5 * rng.normal(10)
            ga = obj.gradient(x)
            gf = fd_gradient(obj, x)
            assert np.linalg.norm(ga - gf) <= 1e-5 * np.linalg.norm(gf)

    def test_init_scale(self):
        assert phase_retrieval_init_std(10) == pytest.approx(
            math.sqrt(1.0 / 100000.0), rel=1e-15)


def _masked_sigmoid(z):
    """The logistic function on each half of z, selected by a mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_forward(prob, params, xb):
    """The MLP's forward pass on one parameter vector, with 2-D products
    and the masked sigmoid: (a1, da1, w2, max-shifted logits, their exp,
    log-partition)."""
    h = prob.n_hidden
    w1 = params[:N_INPUT * h].reshape(N_INPUT, h)
    b1 = params[N_INPUT * h:N_INPUT * h + h]
    w2 = params[N_INPUT * h + h:-N_OUTPUT].reshape(h, N_OUTPUT)
    b2 = params[-N_OUTPUT:]
    z1 = xb @ w1 + b1
    if prob.activation == "sigmoid":
        a1 = _masked_sigmoid(z1)
        da1 = a1 * (1.0 - a1)
    elif prob.activation == "tanh":
        a1 = np.tanh(z1)
        da1 = 1.0 - a1 * a1
    else:
        a1 = np.maximum(z1, 0.0)
        da1 = (z1 > 0.0).astype(np.float64)
    logits = a1 @ w2 + b2
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    return a1, da1, w2, shift, exp, np.log(exp.sum(axis=1))


def _reference_loss_and_gradient(prob, params, indices):
    """Loss and backpropagated gradient on one batch, the gradient joined
    from its four blocks by np.concatenate."""
    xb = prob.x[indices]
    yb = prob.y[indices]
    batch = xb.shape[0]
    a1, da1, w2, shift, exp, log_z = _reference_forward(prob, params, xb)
    loss = float((log_z - shift[np.arange(batch), yb]).mean())
    delta2 = exp / exp.sum(axis=1, keepdims=True)
    delta2[np.arange(batch), yb] -= 1.0
    delta2 /= batch
    g_w2 = a1.T @ delta2
    g_b2 = delta2.sum(axis=0)
    delta1 = (delta2 @ w2.T) * da1
    g_w1 = xb.T @ delta1
    g_b1 = delta1.sum(axis=0)
    return loss, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


class TestMlp:
    def make(self, n_hidden=8, n_samples=100, activation="sigmoid"):
        features, labels = synthetic_blobs(0, n_samples=n_samples)
        return MlpProblem(features, labels, n_hidden=n_hidden, activation=activation)

    def test_param_count(self):
        assert mlp_param_count(32) == 3562
        assert mlp_param_count(1) == 121

    def test_zero_readout_gives_uniform_class_loss(self):
        prob = self.make()
        params = np.zeros(prob.dim)
        params[:808] = derive_stream(5, 0).normal(808)  # hidden layer only
        assert prob.full_objective().value(params) == pytest.approx(
            math.log(10.0), abs=1e-15)

    def test_identical_batches_identical_outputs(self):
        prob = self.make()
        params = prob.init_params(derive_stream(1, 0))
        o1 = prob.objective_for(np.arange(20))
        o2 = prob.objective_for(np.arange(20))
        assert o1.value(params) == o2.value(params)
        assert np.array_equal(o1.gradient(params), o2.gradient(params))

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_gradient_matches_finite_differences(self, activation):
        prob = self.make(n_hidden=4, n_samples=50, activation=activation)
        obj = prob.full_objective()
        rng = derive_stream(2, 0)
        params = 0.5 * rng.normal(prob.dim)
        ga = obj.gradient(params)
        coords = rng.permutation(prob.dim)[:20]
        h = 1e-6
        for i in coords:
            e = np.zeros(prob.dim)
            e[i] = h
            fd = (obj.value(params + e) - obj.value(params - e)) / (2.0 * h)
            assert ga[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_fused_oracle_matches_the_reference(self, activation):
        prob = self.make(n_hidden=8, activation=activation)
        params = prob.init_params(derive_stream(3, 0), mean=-0.2, std=0.5)
        idx = derive_stream(4, 0).permutation(prob.n_samples)[:32]
        f, g = prob.loss_and_gradient(params, idx)
        assert f == prob.loss(params, idx)
        _assert_same_bits((f, g), _reference_loss_and_gradient(prob, params, idx))
        assert np.array_equal(prob.loss_gradient(params, idx), g)
        f_eval, g_eval = eval_objective(prob.objective_for(idx), params)
        assert f_eval == f and np.array_equal(g_eval, g)

    def test_validation_errors(self):
        features, labels = synthetic_blobs(0, n_samples=50)
        with pytest.raises(ContractViolation):
            MlpProblem(features[:, :50], labels)
        with pytest.raises(ContractViolation):
            MlpProblem(features, labels[:-1])
        with pytest.raises(ContractViolation):
            MlpProblem(features, labels + 10)
        with pytest.raises(ContractViolation):
            MlpProblem(features, labels, n_hidden=0)
        with pytest.raises(ContractViolation):
            MlpProblem(features, labels, activation="softsign")

    def test_init_params_mean_and_std(self):
        prob = self.make(n_hidden=32, n_samples=1280)
        params = prob.init_params(derive_stream(0, 0), mean=-1.0, std=0.1)
        assert abs(float(np.mean(params)) + 1.0) < 0.01
        assert abs(float(np.std(params)) - 0.1) < 0.01


# (n_samples, batch size, first index): the last batch of 100 samples in
# batches of 32 is ragged, 4 samples long, and of 150 samples 22 long, a
# batch size whose reciprocal is inexact
MLP_BATCHES = ((160, 1, 0), (160, 16, 0), (160, 128, 0), (100, 32, 96), (150, 32, 128))
PARAMETER_KINDS = ("plain", "saturated", "overflow", "nan", "signed_zero", "large")


def _parameter_stack(prob, lanes, kind):
    """lanes parameter rows of one kind.  Beside plain and saturated
    draws, they drive the hidden pre-activations z to +-inf ("overflow"),
    NaN ("nan"), signed zeros ("signed_zero", a first layer of -0.0) or
    |z| > 745, where exp(-|z|) underflows ("large")."""
    h = prob.n_hidden
    first = N_INPUT * h + h
    X = np.array([prob.init_params(derive_stream(r, 0), mean=-1.0 if kind == "saturated" else 0.0,
                                   std=0.5) for r in range(lanes)])
    if kind == "overflow":
        X[::2, :N_INPUT * h:7] = 1e308
        X[1::2, :N_INPUT * h:5] = -1e308
    elif kind == "nan":
        X[1::2, 3] = np.nan
    elif kind == "signed_zero":
        X[:, :first] = -0.0
    elif kind == "large":
        X[:, :first] *= 4000.0
    return X


class TestMlpBatchOracle:
    """batch_oracle answers row r of a parameter stack on index row r with
    the bytes of the masked-sigmoid, concatenating reference on that row
    alone, and loss, loss_and_gradient and objective_for are its one-row
    case."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n_hidden", [1, 8, 32, 100])
    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    def test_rows_equal_the_reference_bit_for_bit(self, activation, n_hidden):
        for n_samples, batch, first in MLP_BATCHES:
            features, labels = synthetic_blobs(0, n_samples=n_samples)
            prob = MlpProblem(features, labels, n_hidden=n_hidden, activation=activation)
            for lanes in range(1, 7):
                I = np.array([derive_stream(r, 1).permutation(n_samples)[first:first + batch]
                              for r in range(lanes)])
                for kind in PARAMETER_KINDS:
                    X = _parameter_stack(prob, lanes, kind)
                    F, G = prob.batch_oracle(X, I)
                    assert F.shape == (lanes,) and G.shape == X.shape
                    for r in range(lanes):
                        _assert_same_bits((F[r], G[r]),
                                          _reference_loss_and_gradient(prob, X[r], I[r]))
                    _assert_same_bits(prob.loss_and_gradient(X[0], I[0]), (F[0], G[0]))
                    assert np.float64(prob.loss(X[0], I[0])).tobytes() == F[0].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parameter_kinds_reach_their_regimes(self):
        features, labels = synthetic_blobs(0, n_samples=160)
        prob = MlpProblem(features, labels, n_hidden=8)
        xb = prob.x[:16]

        def z(X):
            h = prob.n_hidden
            w1 = X[:, :N_INPUT * h].reshape(-1, N_INPUT, h)
            return xb @ w1 + X[:, N_INPUT * h:N_INPUT * h + h][:, None, :]

        assert np.isinf(z(_parameter_stack(prob, 2, "overflow"))).any()
        assert np.isnan(z(_parameter_stack(prob, 2, "nan"))[1]).any()
        assert (z(_parameter_stack(prob, 2, "signed_zero")) == 0.0).all()
        large = np.abs(z(_parameter_stack(prob, 2, "large")))
        assert (large > 745).any() and np.isfinite(large).all()

    def test_mask_free_sigmoid_equals_the_masked_one(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.5, -745.5, 746.0,
                      -746.0, 1e4, -1e4, 5e-324, -5e-324, 0.5, -0.5, 36.0, -36.0] * 5)
        ref = _masked_sigmoid(z)
        a, da = _sigmoid_in_place(z.copy())
        assert a.tobytes() == ref.tobytes()
        assert da.tobytes() == (ref * (1.0 - ref)).tobytes()

    def test_objective_for_puts_its_batch_on_every_row(self):
        features, labels = synthetic_blobs(0, n_samples=100)
        prob = MlpProblem(features, labels, n_hidden=8)
        idx = derive_stream(4, 0).permutation(100)[:32]
        X = _parameter_stack(prob, 3, "plain")
        F, G = prob.objective_for(idx).oracle(X)
        for r in range(3):
            _assert_same_bits((F[r], G[r]), _reference_loss_and_gradient(prob, X[r], idx))


class TestMakeProblem:
    def test_all_problems_build(self):
        dims = {"staircase": 4, "airy_regression": 16, "reglq": 2,
                "phase_retrieval": 10, "mlp": 3562}
        for name in PROBLEM_NAMES:
            bundle = make_problem(name, data_seed=0)
            assert bundle.dim == dims[name]
            x0 = bundle.init_point(0)
            assert x0.shape == (bundle.dim,)

    def test_unknown_problem_rejected(self):
        with pytest.raises(ContractViolation):
            make_problem("rosenbrock")

    def test_registry_defaults_pass_their_rules(self):
        assert PROBLEM_NAMES == tuple(PROBLEMS)
        for name, entry in PROBLEMS.items():
            for key, opt in entry.options.items():
                if opt.default is not None:
                    assert type(opt.default) is opt.kind and opt.rule[1](opt.default), (name, key)

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_defaults_written_out_build_the_same_problem(self, name):
        written = {key: opt.default for key, opt in PROBLEMS[name].options.items()
                   if opt.default is not None}
        a, b = make_problem(name, data_seed=1), make_problem(name, data_seed=1, **written)
        x = a.init_point(0)
        assert a.name == b.name == name and a.dim == b.dim
        assert np.array_equal(x, b.init_point(0))
        assert a.objective.value(x) == b.objective.value(x)

    def test_only_dataset_backed_problems_have_a_batch_size(self):
        assert {name: entry.batch_size for name, entry in PROBLEMS.items()} == {
            "staircase": None, "airy_regression": None, "reglq": None,
            "phase_retrieval": None, "mlp": 128}

    @pytest.mark.parametrize("dataset", ["mnist_idx", "cifar10_binary"])
    def test_n_samples_rejected_for_file_datasets(self, tmp_path, dataset):
        # the files set the sample count; n_samples used to be ignored here
        with pytest.raises(ContractViolation, match=f"dataset {dataset} takes no n_samples"):
            make_problem("mlp", dataset=dataset, data_path=str(tmp_path), n_samples=10)

    def test_leftover_options_rejected(self):
        with pytest.raises(ContractViolation):
            make_problem("staircase", dim=4, wings=2)

    def test_staircase_options_respected(self):
        bundle = make_problem("staircase", dim=6, n_plateaus=3, length=0.5)
        assert bundle.dim == 6
        x0 = bundle.init_point(0)
        # sqrt(N L)**2 only reproduces N L up to roundoff, so the saddle-ring
        # gradient is tiny rather than exactly zero for non-square N L.
        assert float(np.linalg.norm(bundle.objective.gradient(x0))) < 1e-12

    def test_init_point_determinism(self):
        b = make_problem("phase_retrieval", data_seed=4)
        assert np.array_equal(b.init_point(11), b.init_point(11))
        assert not np.array_equal(b.init_point(11), b.init_point(12))

    def test_mlp_bundle_objective_is_full_data_loss(self):
        bundle = make_problem("mlp", data_seed=0, n_samples=100, n_hidden=4, data_path=None)
        assert bundle.problem is not None
        assert bundle.problem.n_samples == 100
        assert bundle.objective.name == "mlp" and bundle.dim == bundle.problem.dim
        x = bundle.init_point(0)
        assert bundle.objective.value(x) == bundle.problem.full_objective().value(x)
