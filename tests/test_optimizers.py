"""Parameter derivations, perturbed step operations, baselines, and run()."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otgrad
from otgrad.benchmarks import make_problem
from otgrad.core import (
    STREAM_ALGORITHM,
    STREAM_BATCH,
    STREAM_INIT,
    ContractViolation,
    NumericalDomainError,
    Objective,
    RngStream,
    derive_stream,
    eval_objective,
)
from otgrad.occupation import OccupationWindow, WeightFn, sample_occupation_perturbation
from otgrad.optimizers import (
    ALGORITHMS,
    BASELINE_ALGORITHMS,
    PERTURBED_ALGORITHMS,
    AlgoConfig,
    BaselineHyper,
    Batcher,
    PagdotParams,
    PgdotParams,
    RunError,
    RunTrace,
    _Lanes,
    _nce,
    _norm,
    _pagdot_rule,
    _pgdot_rule,
    _step,
    baseline_step,
    derive_pagdot_params,
    derive_pgdot_params,
    nce,
    run,
    run_lanes,
    steps_per_epoch,
)


def saddle_objective():
    return Objective(
        dim=2,
        value=lambda x: 0.5 * (x[0] ** 2 - x[1] ** 2),
        gradient=lambda x: np.array([x[0], -x[1]]),
        name="quadratic_saddle",
    )


def convex_objective(dim=2):
    return Objective(
        dim=dim,
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=np.float64),
        name="half_sq",
    )


class _OneLane:
    """One lane of the step engine driven by hand, for the step-rule tests.

    step(obj) values the incoming iterate with eval_objective and applies
    one _step of `rule`.  It returns the saved point when an
    improve-or-terminate check stops the lane (x and t then stay as they
    were), else None with t advanced.  The attributes read through to the
    lane; x and v are its rows, so a test may write them in place.  Its
    window holds 64 iterates, more than any test steps, and is there for
    the ball sampler too, so a test can see that it stays empty.
    """

    def __init__(self, rule, x0, rng):
        X = np.array(x0, dtype=np.float64)[None, :]
        self.rule = rule
        self.lanes = _Lanes(X, [rng], [OccupationWindow(X.shape[1], 64, rule.h)],
                            [-rule.cooldown], np.zeros_like(X) if rule.accelerated else None)

    def step(self, obj):
        lanes = self.lanes
        f, g = eval_objective(obj, lanes.X[0])
        saved = _step(self.rule, lanes, obj, [f], g[None, :], [_norm(g)])
        lanes.raise_failure()
        if saved:
            return saved[0]
        lanes.t += 1
        return None

    x = property(lambda self: self.lanes.X[0])
    v = property(lambda self: self.lanes.V[0])
    t = property(lambda self: self.lanes.t)
    window = property(lambda self: self.lanes.windows[0])
    perturbed_last = property(lambda self: bool(self.lanes.fired))
    nce_last = property(lambda self: bool(self.lanes.nce_hits))
    n_perturbations = property(lambda self: self.lanes.n_perturbations[0])
    n_nce = property(lambda self: self.lanes.n_nce[0])


def _pgdot_lane(x0, params, rng, sampler="occupation", weight=WeightFn()):
    return _OneLane(_pgdot_rule(params, sampler, weight), x0, rng)


def _pagdot_lane(x0, params, rng, sampler="occupation", weight=WeightFn(),
                 reset_velocity=False):
    return _OneLane(_pagdot_rule(params, sampler, weight, reset_velocity), x0, rng)


class TestPublicSurface:
    RETIRED = ("OptimizerState", "make_pgdot_state", "make_pagdot_state",
               "pgdot_step", "pagdot_step", "gd_step", "monotone_after")

    def test_all_names_exist_once(self):
        assert [name for name in otgrad.__all__ if not hasattr(otgrad, name)] == []
        assert len(otgrad.__all__) == len(set(otgrad.__all__))

    def test_single_state_step_api_is_gone(self):
        # run / run_lanes are the one way to step an optimizer
        for name in self.RETIRED:
            assert name not in otgrad.__all__
            assert not hasattr(otgrad, name)


class TestParameterDerivations:
    def test_pgdot_worked_example_exact(self):
        p = derive_pgdot_params(d=2, ell=1.0, rho=1.0, eps=1.0, c=1.0,
                                delta=0.1, delta_f=1.0)
        assert p.chi == 12.0
        assert p.eta == 1.0
        assert p.r == 1.0 / 144.0
        assert p.g_thres == 1.0 / 144.0
        assert p.f_thres == 1.0 / 1728.0
        assert p.t_thres == 12

    def test_pagdot_worked_example_exact(self):
        p = derive_pagdot_params(d=2, ell=1.0, rho=1.0, eps=1.0 / 16.0,
                                 c=2.0, delta=1.0, delta_f=math.e / 32.0)
        assert p.chi == 1.0
        assert p.kappa == 4.0
        assert p.eta == 0.25
        assert p.theta == 0.125
        assert p.gamma == 0.0625
        assert p.s == 0.015625
        assert p.script_t == 4
        assert p.r == 1.0 / 16384.0
        assert p.eps == 1.0 / 16.0

    def test_pgdot_threshold_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ell = 10.0 ** rng.uniform(-1, 1)
            rho = 10.0 ** rng.uniform(-1, 1)
            c = rng.uniform(0.5, 3.0)
            eps = rng.uniform(0.05, 0.9) * ell * ell / rho
            p = derive_pgdot_params(d=int(rng.integers(1, 100)), ell=ell, rho=rho,
                                    eps=eps, c=c, delta=rng.uniform(0.01, 1.0),
                                    delta_f=10.0 ** rng.uniform(-1, 2))
            assert p.g_thres * p.chi**2 / math.sqrt(c) == pytest.approx(eps, rel=1e-12)
            assert p.r * p.chi**2 * ell / math.sqrt(c) == pytest.approx(eps, rel=1e-12)
            assert p.eta == pytest.approx(c / ell, rel=1e-15)

    def test_pagdot_coupling_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ell = 10.0 ** rng.uniform(-1, 1)
            rho = 10.0 ** rng.uniform(-1, 1)
            eps = rng.uniform(0.05, 0.9) * ell * ell / rho
            p = derive_pagdot_params(d=int(rng.integers(1, 100)), ell=ell, rho=rho,
                                     eps=eps, c=rng.uniform(0.5, 3.0),
                                     delta=rng.uniform(0.01, 1.0),
                                     delta_f=10.0 ** rng.uniform(-1, 2))
            assert p.gamma * p.eta == pytest.approx(p.theta**2, rel=1e-12)
            assert 4.0 * rho * p.s == pytest.approx(p.gamma, rel=1e-12)
            assert p.kappa == pytest.approx(ell / math.sqrt(rho * eps), rel=1e-12)
            assert p.eta == pytest.approx(1.0 / (4.0 * ell), rel=1e-15)

    def test_invalid_inputs_rejected(self):
        good = dict(d=2, ell=1.0, rho=1.0, eps=0.1, c=1.0, delta=0.1, delta_f=1.0)
        for key in ("d", "ell", "rho", "eps", "c", "delta", "delta_f"):
            bad = dict(good)
            bad[key] = 0
            with pytest.raises(ContractViolation):
                derive_pgdot_params(**bad)
            with pytest.raises(ContractViolation):
                derive_pagdot_params(**bad)
        bad = dict(good)
        bad["delta"] = 1.5
        with pytest.raises(ContractViolation):
            derive_pgdot_params(**bad)

    def test_large_eps_warns(self):
        with pytest.warns(RuntimeWarning):
            derive_pgdot_params(d=2, ell=1.0, rho=1.0, eps=5.0, c=1.0,
                                delta=0.1, delta_f=1.0)


def gd_step(obj, x, eta):
    """One plain gradient step x - eta * grad f(x), as the engine takes it:
    the final iterate of a one-step gd run from x."""
    return run(obj, AlgoConfig(name="gd", eta=eta), 1, 0, x0=x).final_x


class TestGdStep:
    def test_hand_example(self):
        out = gd_step(convex_objective(), np.array([1.0, 1.0]), 0.5)
        assert np.array_equal(out, np.array([0.5, 0.5]))

    def test_fixed_point(self):
        out = gd_step(convex_objective(), np.zeros(2), 0.7)
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_contraction(self):
        obj = Objective(dim=1, value=lambda x: (x[0] - 1.0) ** 2,
                        gradient=lambda x: np.array([2.0 * (x[0] - 1.0)]))
        x = np.array([0.0])
        seen = [float(x[0])]
        for _ in range(3):
            x = gd_step(obj, x, 0.4)
            seen.append(float(x[0]))
        assert seen == pytest.approx([0.0, 0.8, 0.96, 0.992], abs=1e-15)

    def test_step_is_x_minus_eta_times_the_gradient(self):
        obj = make_problem("staircase").objective
        rng = RngStream(5, 0)
        for _ in range(20):
            x = 1.5 * rng.normal(4)
            expected = x - 0.3 * obj.gradient(x)
            assert gd_step(obj, x, 0.3).tobytes() == expected.tobytes()


class TestPgdotStep:
    def params(self):
        return PgdotParams(chi=1.0, eta=0.1, r=0.1, g_thres=0.01,
                           f_thres=1e-4, t_thres=5)

    def test_large_gradient_blocks_perturbation(self):
        obj = saddle_objective()
        state = _pgdot_lane(np.array([1.0, 0.0]), self.params(), RngStream(0, 0))
        out = state.step(obj)
        assert out is None
        assert not state.perturbed_last
        assert np.array_equal(state.x, np.array([0.9, 0.0]))
        assert len(state.window) == 1
        assert np.array_equal(state.window.samples()[0], np.array([1.0, 0.0]))

    def test_small_gradient_perturbs_and_records_pre_perturbation_point(self):
        obj = saddle_objective()
        x0 = np.array([1e-9, 0.0])
        state = _pgdot_lane(x0, self.params(), RngStream(0, 0))
        state.step(obj)
        assert state.perturbed_last and state.n_perturbations == 1
        # The window holds the incoming iterate, not the perturbed one.
        assert np.array_equal(state.window.samples()[0], x0)

    def test_cooldown_blocks_back_to_back_perturbations(self):
        obj = saddle_objective()
        state = _pgdot_lane(np.array([1e-9, 0.0]), self.params(), RngStream(0, 0))
        state.step(obj)
        assert state.perturbed_last
        state.x[:] = [1e-9, 0.0]
        state.step(obj)
        assert not state.perturbed_last
        assert state.n_perturbations == 1

    def test_improve_or_terminate_returns_saved_point_on_convex_bowl(self):
        # From the minimum of a convex bowl no perturbation can improve by
        # f_thres, so the run must hand back the pre-perturbation point.
        obj = convex_objective()
        params = self.params()
        state = _pgdot_lane(np.zeros(2), params, RngStream(3, 0))
        result = None
        for t in range(50):
            result = state.step(obj)
            if result is not None:
                break
        assert result is not None
        assert np.array_equal(result, np.zeros(2))
        assert state.t == params.t_thres  # fired exactly t_thres steps after t=0

    def test_perturbation_replay_with_empty_window(self):
        # First perturbation sees an empty window, so both coordinates kick
        # with sign probability 1/2 and magnitude (r/sqrt(d)) * U.
        obj = saddle_objective()
        params = self.params()
        x0 = np.array([1e-9, 0.0])
        state = _pgdot_lane(x0, params, RngStream(21, 0))
        state.step(obj)

        replay = RngStream(21, 0)
        expected = x0.copy()
        amp = params.r / math.sqrt(2)
        for i in range(2):
            go_left = replay.bernoulli(0.5)
            mag = amp * replay.uniform()
            expected[i] = x0[i] - mag if go_left else x0[i] + mag
        g = np.array([expected[0], -expected[1]])
        expected = expected - params.eta * g
        assert np.array_equal(state.x, expected)

    def test_theory_pgd_ball_sampler_leaves_window_empty(self):
        # The window feeds only the occupation sampler. A replay that also
        # records every incoming iterate, as the ball sampler once did,
        # must give the same iterates.
        obj = saddle_objective()
        params = self.params()
        x0 = np.array([1e-9, 0.0])
        state = _pgdot_lane(x0, params, RngStream(6, 0), sampler="ball")
        recorded = _pgdot_lane(x0, params, RngStream(6, 0), sampler="ball")
        for _ in range(40):
            x_in = recorded.x.copy()
            out = state.step(obj)
            out_recorded = recorded.step(obj)
            recorded.window.record(x_in)
            assert (out is None) == (out_recorded is None)
            assert np.array_equal(state.x, recorded.x)
            if out is not None:
                break
        assert state.n_perturbations >= 1
        assert len(state.window) == 0 and len(recorded.window) > 0


class TestNce:
    def test_momentum_above_s_freezes_iterate(self):
        obj = saddle_objective()
        x, v = nce(obj, np.array([0.3, 0.4]), np.array([2.0, 0.0]), 1.0, RngStream(0, 0))
        assert np.array_equal(x, np.array([0.3, 0.4]))
        assert np.array_equal(v, np.zeros(2))

    def test_tie_keeps_plus_delta(self):
        obj = saddle_objective()
        x, v = nce(obj, np.zeros(2), np.array([0.0, 0.5]), 1.0, RngStream(0, 0))
        assert np.array_equal(x, np.array([0.0, 1.0]))
        assert np.array_equal(v, np.zeros(2))

    def test_convex_bowl_probes_toward_origin(self):
        obj = convex_objective()
        x, v = nce(obj, np.array([1.0, 0.0]), np.array([0.5, 0.0]), 1.0, RngStream(0, 0))
        assert np.array_equal(x, np.zeros(2))
        assert np.array_equal(v, np.zeros(2))

    def test_zero_velocity_probes_at_distance_s(self):
        obj = saddle_objective()
        x0 = np.array([0.2, -0.1])
        x, v = nce(obj, x0, np.zeros(2), 0.05, RngStream(9, 0))
        assert float(np.linalg.norm(x - x0)) == pytest.approx(0.05, rel=1e-12)
        assert np.array_equal(v, np.zeros(2))


class TestPagdotStep:
    def params(self):
        return derive_pagdot_params(d=2, ell=1.0, rho=1.0, eps=1.0 / 16.0,
                                    c=2.0, delta=1.0, delta_f=math.e / 32.0)

    def test_zero_velocity_certificate_fires_nce(self):
        obj = saddle_objective()
        params = self.params()
        x0 = np.array([0.1, 0.1])  # gradient norm 0.141 > eps, no perturbation
        state = _pagdot_lane(x0, params, RngStream(2, 0))
        state.step(obj)
        assert not state.perturbed_last
        assert state.nce_last and state.n_nce == 1
        assert float(np.linalg.norm(state.x - x0)) == pytest.approx(params.s, rel=1e-12)
        assert np.array_equal(state.v, np.zeros(2))

    def test_certificate_fails_with_velocity_on_convex_bowl(self):
        obj = convex_objective()
        params = self.params()
        state = _pagdot_lane(np.array([1.0, 0.0]), params, RngStream(2, 0))
        state.v[:] = [-0.1, 0.0]
        state.step(obj)
        assert not state.nce_last
        y = 1.0 + (1.0 - params.theta) * (-0.1)
        x_next = y - params.eta * y
        assert state.x[0] == pytest.approx(x_next, rel=1e-12)
        assert state.v[0] == pytest.approx(x_next - 1.0, rel=1e-12)

    def test_gate_perturbs_and_keeps_velocity(self):
        obj = saddle_objective()
        state = _pagdot_lane(np.array([1e-9, 0.0]), self.params(), RngStream(5, 0))
        state.v[:] = [0.0, 0.001]
        state.step(obj)
        assert state.perturbed_last
        assert np.array_equal(state.window.samples()[0], np.array([1e-9, 0.0]))

    def test_reset_velocity_flag(self):
        obj = saddle_objective()
        state = _pagdot_lane(np.array([1e-9, 0.0]), self.params(), RngStream(5, 0),
                             reset_velocity=True)
        state.v[:] = [0.0, 0.001]
        state.step(obj)
        assert state.perturbed_last
        # nce() zeroes the velocity anyway; the flag zeroes it before the
        # accelerated update, so the probe starts from a dead stop.
        assert np.array_equal(state.v, np.zeros(2))

    def test_theory_pagd_ball_sampler_leaves_window_empty(self):
        obj = saddle_objective()
        params = self.params()
        x0 = np.array([1e-9, 0.0])
        state = _pagdot_lane(x0, params, RngStream(6, 0), sampler="ball")
        recorded = _pagdot_lane(x0, params, RngStream(6, 0), sampler="ball")
        for _ in range(40):
            x_in = recorded.x.copy()
            state.step(obj)
            recorded.step(obj)
            recorded.window.record(x_in)
            assert np.array_equal(state.x, recorded.x)
            assert np.array_equal(state.v, recorded.v)
        assert state.n_perturbations >= 1
        assert len(state.window) == 0 and len(recorded.window) == 40


class TestBaselines:
    def test_sgd_without_momentum_matches_gd(self):
        obj = convex_objective()
        hyper = BaselineHyper(kind="sgd_momentum", lr=0.1, momentum=0.0)
        x = np.array([1.0, -2.0])
        out = baseline_step(hyper, x, obj.gradient(x))
        assert np.array_equal(out, gd_step(obj, x, 0.1))

    def test_sgd_momentum_accumulates(self):
        hyper = BaselineHyper(kind="sgd_momentum", lr=0.1, momentum=0.9)
        x = np.array([1.0])
        x = baseline_step(hyper, x, np.array([1.0]))
        assert x[0] == pytest.approx(0.9, abs=1e-15)
        x = baseline_step(hyper, x, np.array([1.0]))
        assert x[0] == pytest.approx(0.71, abs=1e-15)

    def test_adam_zero_gradient_is_fixed_point(self):
        hyper = BaselineHyper(kind="adam", lr=0.1)
        x = np.array([2.0, -3.0])
        for _ in range(10):
            x = baseline_step(hyper, x, np.zeros(2))
        assert np.array_equal(x, np.array([2.0, -3.0]))

    def test_adam_matches_retyped_recurrence(self):
        hyper = BaselineHyper(kind="adam", lr=0.01)
        rng = RngStream(14, 0)
        grads = [rng.normal(3) for _ in range(5)]
        x = np.array([0.5, -0.5, 1.0])
        for g in grads:
            x = baseline_step(hyper, x, g)

        xe = np.array([0.5, -0.5, 1.0])
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            xe = xe - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(x, xe, rtol=1e-14, atol=0.0)

    def test_amsgrad_keeps_max_second_moment(self):
        hyper = BaselineHyper(kind="amsgrad", lr=0.01)
        x = np.array([1.0])
        x = baseline_step(hyper, x, np.array([1.0]))
        vmax_after_first = hyper.v_max.copy()
        x = baseline_step(hyper, x, np.array([0.0]))
        assert np.array_equal(hyper.v_max, vmax_after_first)

    def test_rmsprop_hand_step(self):
        hyper = BaselineHyper(kind="rmsprop", lr=0.1)
        out = baseline_step(hyper, np.array([1.0]), np.array([2.0]))
        expected = 1.0 - 0.1 * 2.0 / (math.sqrt(0.4) + 1e-8)
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ContractViolation):
            BaselineHyper(kind="newton")

    @staticmethod
    def _out_of_place_step(kind, acc, x, g, t, lr=0.01, momentum=0.9, beta1=0.9,
                           beta2=0.999, eps_num=1e-8, rms_decay=0.9):
        """The update as plain formulas, a fresh array per term."""
        if kind == "sgd_momentum":
            acc["v"] = momentum * acc["v"] - lr * g
            return x + acc["v"]
        if kind == "rmsprop":
            acc["v"] = rms_decay * acc["v"] + (1.0 - rms_decay) * g * g
            return x - lr * g / (np.sqrt(acc["v"]) + eps_num)
        acc["m"] = beta1 * acc["m"] + (1.0 - beta1) * g
        acc["v"] = beta2 * acc["v"] + (1.0 - beta2) * g * g
        m_hat = acc["m"] / (1.0 - beta1 ** t)
        v_hat = acc["v"] / (1.0 - beta2 ** t)
        if kind == "amsgrad":
            acc["v_max"] = np.maximum(acc["v_max"], v_hat)
            v_hat = acc["v_max"]
        return x - lr * m_hat / (np.sqrt(v_hat) + eps_num)

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam", "amsgrad", "rmsprop"])
    @pytest.mark.parametrize("shape", [(7,), (2, 7)])
    def test_in_place_update_matches_out_of_place_formulas_bit_for_bit(self, kind, shape):
        rng = np.random.default_rng(20)
        hyper = BaselineHyper(kind=kind, lr=0.01)
        x = xe = rng.standard_normal(shape)
        acc = {name: np.zeros(shape) for name in ("m", "v", "v_max")}
        for t in range(1, 13):
            # gradients shrink then grow, so amsgrad's running max both holds and moves
            g = rng.standard_normal(shape) * 10.0 ** (abs(t - 6) - 3)
            x = baseline_step(hyper, x, g)
            xe = self._out_of_place_step(kind, acc, xe, g, t)
            assert x.tobytes() == xe.tobytes()
            for name in ("m", "v", "v_max"):
                got = getattr(hyper, name)
                if got is not None:
                    assert got.tobytes() == acc[name].tobytes()


class TestAlgoConfig:
    def test_unknown_name_rejected(self):
        with pytest.raises(ContractViolation):
            AlgoConfig(name="newton")

    def test_bad_mode_rejected(self):
        with pytest.raises(ContractViolation):
            AlgoConfig(name="gd", mode="magic")

    def test_registry_contents(self):
        assert PERTURBED_ALGORITHMS == ("pgd", "pagd", "pgdot", "pagdot")
        assert BASELINE_ALGORITHMS == ("sgd_momentum", "adam", "amsgrad", "rmsprop")
        assert set(ALGORITHMS) == set(PERTURBED_ALGORITHMS) | set(BASELINE_ALGORITHMS) | {"gd", "agd"}


class TestRun:
    def test_gd_converges_on_bowl(self):
        trace = run(convex_objective(), AlgoConfig(name="gd", eta=1.0), 3, 0,
                    x0=np.array([1.0, 1.0]))
        assert trace.fs[0] == 1.0
        assert trace.fs[1] == 0.0
        assert np.array_equal(trace.final_x, np.zeros(2))

    def test_trace_rows_and_record_every(self):
        trace = run(convex_objective(), AlgoConfig(name="gd"), 50, 0,
                    x0=np.ones(2), record_every=10)
        assert trace.ts == [0, 10, 20, 30, 40, 50]
        assert trace.final_t == 50

    def test_deterministic_replay(self):
        obj = saddle_objective()
        algo = AlgoConfig(name="pgdot", eta=0.1, t_thres=5, g_thres=0.01, r=0.05)
        a = run(obj, algo, 120, seed=7, x0=np.array([1e-6, 0.0]))
        b = run(obj, algo, 120, seed=7, x0=np.array([1e-6, 0.0]))
        assert a.fs == b.fs
        assert np.array_equal(a.final_x, b.final_x)

    def test_seed_changes_perturbations(self):
        obj = saddle_objective()
        algo = AlgoConfig(name="pgdot", eta=0.1, t_thres=5, g_thres=0.01, r=0.05)
        a = run(obj, algo, 120, seed=0, x0=np.array([1e-6, 0.0]))
        b = run(obj, algo, 120, seed=1, x0=np.array([1e-6, 0.0]))
        assert a.n_perturbations > 0 and b.n_perturbations > 0
        assert not np.array_equal(a.final_x, b.final_x)

    def test_theory_pgdot_escapes_saddle(self):
        trace = run(saddle_objective(),
                    AlgoConfig(name="pgdot", mode="theory", ell=1.0, rho=1.0,
                               eps=1.0, c=1.0, delta=0.1, delta_f=1.0),
                    40, 0, x0=np.array([1e-6, 0.0]))
        assert trace.n_perturbations >= 1
        assert trace.best_f() < -0.01

    def test_theory_pagdot_escapes_saddle(self):
        trace = run(saddle_objective(),
                    AlgoConfig(name="pagdot", mode="theory", ell=1.0, rho=1.0,
                               eps=1.0, c=1.0, delta=0.1, delta_f=1.0),
                    40, 0, x0=np.array([1e-6, 0.0]))
        assert trace.best_f() < -0.01

    def test_divergence_raises_run_error_with_partial_trace(self):
        obj = Objective(dim=1, value=lambda x: 0.5 * float(x @ x),
                        gradient=lambda x: np.asarray(x, dtype=np.float64))
        with pytest.raises(RunError) as info:
            run(obj, AlgoConfig(name="gd", eta=3.0), 100, 0, x0=np.array([1e150]))
        trace = info.value.trace
        assert len(trace.ts) >= 1
        assert trace.final_t is not None

    def test_contract_errors(self):
        obj = convex_objective()
        with pytest.raises(ContractViolation):
            run(obj, AlgoConfig(name="gd"), -1, 0)
        with pytest.raises(ContractViolation):
            run(obj, AlgoConfig(name="gd"), 10, 0, record_every=0)
        with pytest.raises(ContractViolation):
            run("not an objective", AlgoConfig(name="gd"), 10, 0)

    def test_steps_to_threshold(self):
        trace = run(convex_objective(), AlgoConfig(name="gd", eta=0.5), 30, 0,
                    x0=np.array([2.0, 0.0]))
        hit = trace.steps_to_threshold(0.1)
        assert math.isfinite(hit)
        assert trace.fs[int(hit)] < 0.1
        assert all(f >= 0.1 for f in trace.fs[: int(hit)])
        assert trace.steps_to_threshold(-1.0) == math.inf

    @given(st.integers(min_value=0, max_value=50))
    def test_agd_runs_and_records(self, seed):
        trace = run(convex_objective(), AlgoConfig(name="agd", eta=0.1, momentum=0.5),
                    20, seed, x0=np.array([1.0, 1.0]), record_every=5)
        assert trace.ts[-1] == 20
        assert trace.fs[-1] < trace.fs[0]


def _practical_occupation_reference(kind, next_objective, x0, seed, steps, cfg,
                                    full=None):
    """Direct transcription of practical pgdot / pagdot.

    Gate on the step gradient (or on full.gradient at the incoming iterate),
    kick with the occupation sampler, record the incoming iterate, then a
    plain gradient step or a Nesterov step. Mirrors the trace layout of
    run(): one f per step plus a final row on a fresh objective.
    """
    rng = derive_stream(seed, STREAM_ALGORITHM)
    window = OccupationWindow(x0.shape[0], cfg.t_count or steps, cfg.h)  # None: every step
    weight = WeightFn(cfg.alpha)
    x = np.array(x0, dtype=np.float64)
    v = np.zeros_like(x)
    t_noise = -cfg.t_thres - 1
    fs, perturbed = [], []
    for t in range(steps):
        obj = next_objective()
        f, g = eval_objective(obj, x)
        fs.append(f)
        gate_g = g if full is None else full.gradient(x)
        kick = np.linalg.norm(gate_g) <= cfg.g_thres and t - t_noise > cfg.t_thres
        perturbed.append(int(kick))
        x_in = x
        if kick:
            t_noise = t
            x = sample_occupation_perturbation(x_in, window, cfg.r, weight, rng)
            if kind == "pgdot":
                g = obj.gradient(x)
            elif cfg.reset_velocity_on_perturb:
                v = np.zeros_like(x)
        window.record(x_in)
        if kind == "pgdot":
            x = x - cfg.eta * g
        else:
            y = x + cfg.momentum * v
            x_next = y - cfg.eta * obj.gradient(y)
            v = x_next - x
            x = x_next
    fs.append(eval_objective(next_objective(), x)[0])
    return fs, perturbed, x


class TestPracticalRunTranscription:
    @pytest.mark.parametrize("kind", ["pgdot", "pagdot"])
    @pytest.mark.parametrize("h, t_count, alpha", [(0.01, 7, 1.0), (math.inf, None, 5.0)])
    @pytest.mark.parametrize("reset", [False, True])
    def test_occupation_run_matches_transcription(self, kind, h, t_count, alpha, reset):
        # On a bowl with g_thres above the kick size the gate fires every
        # t_thres + 1 steps, so the window both fills and (t_count = 7) evicts.
        obj = convex_objective(3)
        cfg = AlgoConfig(name=kind, eta=0.1, t_thres=3, g_thres=0.05, r=0.04,
                         momentum=0.5, h=h, t_count=t_count, alpha=alpha,
                         reset_velocity_on_perturb=reset)
        x0 = np.array([0.01, -0.02, 0.0])
        tr = run(obj, cfg, 60, 4, x0=x0)
        fs, perturbed, x_final = _practical_occupation_reference(
            kind, lambda: obj, x0, 4, 60, cfg)
        assert sum(perturbed) >= 10
        assert tr.fs == fs
        assert tr.perturbed == perturbed + [0]
        assert np.array_equal(tr.final_x, x_final)
        assert tr.n_perturbations == sum(perturbed)

    @pytest.mark.parametrize("kind", ["pgdot", "pagdot"])
    def test_full_grad_gate_reads_full_gradient(self, kind):
        # From saturated init the full-data gradient norm (about 0.05) is
        # under g_thres while every 16-sample batch gradient is above it,
        # so only a gate that reads the full gradient can fire.
        bundle = make_problem("mlp", data_seed=0, dataset="synthetic_blobs",
                              n_samples=64, n_hidden=4)
        problem = bundle.problem
        full = problem.full_objective()
        x0 = problem.init_params(derive_stream(0, STREAM_INIT), mean=-1.0, std=0.1)
        cfg = AlgoConfig(name=kind, eta=0.01, t_thres=3, g_thres=0.1, r=0.5,
                         momentum=0.9, h=1e12, t_count=10, alpha=5.0,
                         full_grad_gate=True)

        tr = run(problem, cfg, 20, 2, x0=x0, batch_size=16)
        # the batches run() draws for seed 2
        reference_batcher = Batcher(problem, 16, derive_stream(2, STREAM_BATCH))
        fs, perturbed, x_final = _practical_occupation_reference(
            kind, reference_batcher.next_objective, x0, 2, 20, cfg, full=full)
        assert sum(perturbed) >= 2
        assert tr.fs == fs
        assert tr.perturbed == perturbed + [0]
        assert np.array_equal(tr.final_x, x_final)
        batch_gated = dataclasses.replace(cfg, full_grad_gate=False)
        assert run(problem, batch_gated, 20, 2, x0=x0, batch_size=16).n_perturbations == 0


THEORY_CONSTANTS = dict(ell=1.0, rho=1.0, eps=1.0, c=1.0, delta=0.1, delta_f=1.0)


class TestTheoryRunWiring:
    @pytest.mark.parametrize("name", ["pgd", "pgdot", "pagd", "pagdot"])
    @pytest.mark.parametrize("objective", [convex_objective, saddle_objective])
    def test_run_matches_hand_driven_steps(self, name, objective):
        obj = objective()
        x0 = np.array([1e-6, 0.0])
        steps, seed = 40, 3
        tr = run(obj, AlgoConfig(name=name, mode="theory", alpha=1.0, **THEORY_CONSTANTS),
                 steps, seed, x0=x0)

        rng = derive_stream(seed, STREAM_ALGORITHM)
        sampler = "ball" if name in ("pgd", "pagd") else "occupation"
        weight = WeightFn(1.0)
        args = (2, *THEORY_CONSTANTS.values())
        if name in ("pgd", "pgdot"):
            state = _pgdot_lane(x0, derive_pgdot_params(*args), rng, sampler, weight)
        else:
            state = _pagdot_lane(x0, derive_pagdot_params(*args), rng, sampler, weight)

        terminated_x = None
        for t in range(steps):
            f, g = eval_objective(obj, state.x)
            terminated_x = state.step(obj)
            row = (t, f, float(np.linalg.norm(g)), int(state.perturbed_last),
                   int(state.nce_last))
            if terminated_x is not None:
                break
        terminated = terminated_x is not None
        if name in ("pgd", "pgdot") and objective is convex_objective:
            assert terminated  # no kick can improve on the bottom of a bowl
        last = -1 if terminated else -2  # a full run ends with the final row
        assert (tr.ts[last], tr.fs[last], tr.grad_norms[last], tr.perturbed[last],
                tr.nce[last]) == row
        assert tr.terminated == terminated
        assert np.array_equal(tr.final_x, terminated_x if terminated else state.x)
        assert tr.final_t == (t if terminated else steps)
        assert tr.n_perturbations == state.n_perturbations >= 1
        assert tr.n_nce == state.n_nce

    @pytest.mark.parametrize("name", ["gd", "agd"])
    def test_theory_gd_agd_match_practical(self, name):
        obj = saddle_objective()
        x0 = np.array([0.3, 0.01])
        traces = [run(obj, AlgoConfig(name=name, mode=mode, eta=0.1, momentum=0.7,
                                      **THEORY_CONSTANTS), 50, 0, x0=x0)
                  for mode in ("theory", "practical")]
        theory, practical = traces
        assert theory.fs == practical.fs
        assert theory.grad_norms == practical.grad_norms
        assert np.array_equal(theory.final_x, practical.final_x)
        assert theory.fs[-1] < -0.01  # both left the saddle


class TestNorm:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=4000),
           st.floats(min_value=-300.0, max_value=150.0),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.booleans())
    def test_equals_linalg_norm(self, dim, log10_scale, seed, zeros):
        rng = np.random.default_rng(seed)
        v = np.zeros(dim) if zeros else rng.standard_normal(dim) * 10.0 ** log10_scale
        n = _norm(v)
        assert type(n) is float
        assert np.float64(n).tobytes() == np.linalg.norm(v).tobytes()

    def test_extreme_entries(self):
        for v in (np.array([1e-300, -1e-300]), np.array([1e150] * 4000),
                  np.array([1e200]), np.array([0.0, -0.0]), np.array([3.0, 4.0])):
            with np.errstate(over="ignore", under="ignore"):
                assert np.float64(_norm(v)).tobytes() == np.linalg.norm(v).tobytes()


def _counting(obj):
    """obj with its oracle, value and gradient counting their calls in
    `calls`, and the oracle the rows it was asked for."""
    calls = {"value": 0, "gradient": 0, "oracle": 0, "rows": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            if name == "oracle":
                calls["rows"] += x.shape[0]
            return fn(x)
        return wrapper

    wrapped = dataclasses.replace(
        obj, value=counted("value", obj.value), gradient=counted("gradient", obj.gradient),
        oracle=counted("oracle", obj.oracle))
    return wrapped, calls


class TestOracleUse:
    def test_practical_gd_makes_one_oracle_call_per_row(self):
        bundle = make_problem("staircase")
        obj, calls = _counting(bundle.objective)
        x0 = bundle.init_point(0) + 0.1
        run(obj, AlgoConfig(name="gd", eta=0.05), 25, 0, x0=x0)
        assert calls == {"value": 0, "gradient": 0, "oracle": 26, "rows": 26}

    def test_theory_pagdot_calls_only_the_oracle(self):
        bundle = make_problem("staircase")
        obj, calls = _counting(bundle.objective)
        steps = 30
        tr = run(obj, AlgoConfig(name="pagdot", mode="theory", **THEORY_CONSTANTS),
                 steps, 0, x0=bundle.init_point(0))
        assert tr.n_perturbations >= 1 and tr.n_nce >= 1
        # one call at each incoming x and one at each y, plus the final row;
        # one at a kicked x, and one for NCE's two probes
        assert calls == {"value": 0, "gradient": 0,
                         "oracle": 2 * steps + 1 + tr.n_perturbations + tr.n_nce,
                         "rows": 2 * steps + 1 + tr.n_perturbations + 2 * tr.n_nce}

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    @pytest.mark.parametrize("name", ["gd", "agd", "pgd", "pagd", "pgdot", "pagdot"])
    def test_stacked_and_row_by_row_oracles_give_the_same_traces(self, name, mode):
        stacked, seeds, x0s = _staircase_lanes()
        rows = Objective(dim=stacked.dim, value=stacked.value, gradient=stacked.gradient,
                         name=stacked.name)
        algo = AlgoConfig(name=name, mode=mode, eta=0.05, t_thres=10, g_thres=0.01,
                          r=0.3, h=0.04, t_count=200, alpha=5.0, **THEORY_CONSTANTS)
        a, b = (run_lanes(obj, algo, 300, seeds, x0s) for obj in (stacked, rows))
        assert [_trace_record(tr) for tr in a] == [_trace_record(tr) for tr in b]
        assert a[0].grad_norms[0] == float(np.linalg.norm(eval_objective(stacked, x0s[0])[1]))


class TestBatcher:
    def test_steps_per_epoch_and_determinism(self):
        from otgrad.benchmarks import make_problem

        bundle = make_problem("mlp", data_seed=0, dataset="synthetic_blobs",
                              n_samples=64, n_hidden=4)
        b1 = Batcher(bundle.problem, 16, derive_stream(3, 1))
        b2 = Batcher(bundle.problem, 16, derive_stream(3, 1))
        assert steps_per_epoch(bundle.problem, 16) == 4
        assert steps_per_epoch(bundle.problem, 48) == 2
        x = bundle.init_point(0)
        for _ in range(9):  # crosses an epoch boundary, reshuffling once
            o1 = b1.next_objective()
            o2 = b2.next_objective()
            assert o1.value(x) == o2.value(x)

    def test_bad_batch_size_rejected(self):
        from otgrad.benchmarks import make_problem

        bundle = make_problem("mlp", data_seed=0, dataset="synthetic_blobs",
                              n_samples=64, n_hidden=4)
        with pytest.raises(ContractViolation):
            Batcher(bundle.problem, 0, derive_stream(0, 1))


def _mlp_lanes(activation="sigmoid", mean=-1.0, std=0.1):
    """A small synthetic-blob MLP and a start drawn at the given mean."""
    problem = make_problem("mlp", data_seed=0, dataset="synthetic_blobs", n_samples=64,
                           n_hidden=4, activation=activation).problem
    return problem, problem.init_params(derive_stream(0, STREAM_INIT), mean=mean, std=std)


class TestMiniBatchLanes:
    """Mini-batch lanes answer every lane's batch in one stacked call of
    the problem's batch_oracle, and each lane still equals its run() alone."""

    def _run_alone(self, problem, algo, steps, seed, x0):
        try:
            return run(problem, algo, steps, seed, x0=x0, batch_size=16)
        except RunError as exc:
            return exc

    @pytest.mark.parametrize("name", ["adam", "pgd", "pgdot", "pagdot"])
    def test_one_oracle_call_per_step(self, name, monkeypatch):
        problem, x0 = _mlp_lanes()
        own, calls = problem.batch_oracle, []

        def spy(X, I):
            assert I.shape == (X.shape[0], 16)
            calls.append(X.shape[0])
            return own(X, I)

        monkeypatch.setattr(problem, "batch_oracle", spy)
        seeds, steps = [0, 1, 2], 30
        x0s = [x0, x0 + 0.01, x0 - 0.01]
        # gradient norms here read 0.1-0.3, so each kick takes some lanes
        algo = AlgoConfig(name=name, eta=0.01, t_thres=1, g_thres=0.2, r=0.5, momentum=0.9,
                          h=1e12, t_count=10)
        lanes = run_lanes(problem, algo, steps, seeds, x0s, batch_size=16)
        # one call per step and one for the final row; a step that kicks
        # adds one for the kicked lanes (pgd, pgdot), and pagdot one at y
        kicks = [sum(tr.perturbed[t] for tr in lanes) for t in range(steps)]
        expected = [3] * (steps + 1)
        if name in ("pgd", "pgdot"):
            expected += [k for k in kicks if k]
        if name == "pagdot":
            expected += [3] * steps
        assert sorted(calls) == sorted(expected)
        assert (name == "adam") == (sum(kicks) == 0)
        assert name == "adam" or {1, 2} <= set(kicks)
        monkeypatch.undo()
        for seed, start, result in zip(seeds, x0s, lanes):
            alone = self._run_alone(problem, algo, steps, seed, start)
            assert _trace_record(result) == _trace_record(alone)

    @pytest.mark.parametrize("name", ["gd", "pgdot", "pagdot"])
    def test_lane_that_turns_non_finite_ends_alone(self, name):
        # relu lets a first layer at 1e154 through: one step grows the
        # readout to match, and the next step's logits overflow
        problem, x0 = _mlp_lanes(activation="relu", mean=0.0, std=0.5)
        blown = x0.copy()
        blown[:101 * problem.n_hidden] *= 1e154
        seeds, steps = [1, 2, 3], 40
        x0s = [x0, blown, x0 + 0.01]
        algo = AlgoConfig(name=name, eta=0.5, t_thres=2, g_thres=0.1, r=0.5, momentum=0.9,
                          h=1e12, t_count=10)
        lanes = run_lanes(problem, algo, steps, seeds, x0s, batch_size=16)
        for seed, start, result in zip(seeds, x0s, lanes):
            alone = self._run_alone(problem, algo, steps, seed, start)
            assert _trace_record(result) == _trace_record(alone)
        assert isinstance(lanes[1], RunError) and lanes[1].trace.ts == [0]
        assert "mlp: non-finite value or gradient" in str(lanes[1])
        assert [isinstance(lane, RunError) for lane in (lanes[0], lanes[2])] == [False, False]
        assert [lane.final_t for lane in (lanes[0], lanes[2])] == [steps, steps]

    @pytest.mark.parametrize("shape", ["batch_size without batch_oracle",
                                       "a problem without batch_size",
                                       "full_grad_gate without batch_size"])
    def test_each_bad_shape_is_refused_before_a_step(self, shape, monkeypatch):
        # every oracle the call could reach counts, so a refusal after step 0 shows
        problem, x0 = _mlp_lanes()
        calls = []
        monkeypatch.setattr(problem, "batch_oracle", lambda X, I: calls.append(1))
        bowl = dataclasses.replace(convex_objective(problem.dim), oracle=lambda X: calls.append(1))

        class NoOracle:
            dim, n_samples = problem.dim, problem.n_samples

            def objective_for(self, idx):
                calls.append(1)
                return convex_objective(problem.dim)

        obj, batch_size, algo, cause = {
            "batch_size without batch_oracle":
                (NoOracle(), 16, AlgoConfig(name="adam"), r"NoOracle has none"),
            "a problem without batch_size":
                (problem, None, AlgoConfig(name="adam"), r"needs an Objective.*got a MlpProblem"),
            "full_grad_gate without batch_size":
                (bowl, None, AlgoConfig(name="pgdot", full_grad_gate=True),
                 r"full_grad_gate .* pass a batch_size"),
        }[shape]
        with pytest.raises(ContractViolation, match=cause):
            run_lanes(obj, algo, 5, [0, 1], [x0, x0], batch_size=batch_size)
        assert calls == []


def _trace_record(result):
    """Everything a run reports, RunError message included, for comparison."""
    error = None
    if isinstance(result, RunError):
        result, error = result.trace, str(result)
    return (error, result.algorithm, result.problem, result.seed, result.mode, result.ts,
            result.fs, result.grad_norms, result.perturbed, result.nce,
            result.final_x.tobytes(), result.final_t, result.terminated,
            result.n_perturbations, result.n_nce)


def _one_lane(obj, algo, steps, seed, x0, record_every=1):
    try:
        return run(obj, algo, steps, seed, x0=x0, record_every=record_every)
    except RunError as exc:
        return exc


def _assert_lanes_match_one_lane_runs(obj, algo, steps, seeds, x0s, record_every=1):
    lanes = run_lanes(obj, algo, steps, seeds, x0s, record_every=record_every)
    assert len(lanes) == len(seeds)
    for seed, x0, result in zip(seeds, x0s, lanes):
        alone = _one_lane(obj, algo, steps, seed, x0, record_every)
        assert _trace_record(result) == _trace_record(alone)
    return lanes


def _staircase_lanes():
    """Staircase lanes from the saddle ring and three offsets: their gates
    first fire at different steps, and theory pgd/pgdot stop at different
    steps (one never does)."""
    bundle = make_problem("staircase")
    saddle = bundle.init_point(0)
    return bundle.objective, [3, 0, 5, 1], [saddle + off for off in (0.0, 1e-3, -2e-3, 0.05)]


def _lane_algo(name, mode):
    return AlgoConfig(name=name, mode=mode, eta=0.05, t_thres=10, g_thres=0.01, r=0.3,
                      h=0.04, t_count=50, alpha=5.0, momentum=0.6,
                      **dict(THEORY_CONSTANTS, eps=0.1))


class TestLanes:
    """run_lanes against one-lane run() per seed.  TestPracticalRunTranscription
    and TestTheoryRunWiring stay the independent references for run()."""

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_k_lanes_equal_k_one_lane_runs(self, name, mode):
        obj, seeds, x0s = _staircase_lanes()
        algo = _lane_algo(name, mode)
        lanes = _assert_lanes_match_one_lane_runs(obj, algo, 300, seeds, x0s)
        if name in PERTURBED_ALGORITHMS:
            first_kicks = {tr.perturbed.index(1) if 1 in tr.perturbed else None for tr in lanes}
            assert len(first_kicks) > 1
        if mode == "theory" and name in ("pgd", "pgdot"):
            assert [tr.terminated for tr in lanes] == [True, True, True, False]
            assert len({tr.final_t for tr in lanes}) == 3
        reversed_lanes = run_lanes(obj, algo, 300, seeds[::-1], x0s[::-1])
        assert [_trace_record(tr) for tr in reversed_lanes[::-1]] == \
            [_trace_record(tr) for tr in lanes]

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    @pytest.mark.parametrize("name", ["gd", "agd", "pgd", "pagd", "pgdot", "pagdot", "adam"])
    @pytest.mark.parametrize("problem, knobs", [
        ("reglq", dict(eta=0.01, g_thres=0.1)),
        ("phase_retrieval", dict(eta=0.001, g_thres=1.0, ell=50.0)),
        ("airy_regression", dict(eta=0.1, g_thres=0.1))])
    def test_closed_form_lanes_equal_one_lane_runs(self, problem, knobs, name, mode):
        # these problems' oracles answer a stack of lanes row by row
        bundle = make_problem(problem)
        x0s = [bundle.init_point(0) + off for off in (0.0, 1e-3, -2e-3)]
        algo = dataclasses.replace(_lane_algo(name, mode), r=0.01, **knobs)
        _assert_lanes_match_one_lane_runs(bundle.objective, algo, 100, [3, 0, 5], x0s)

    @pytest.mark.parametrize("name", ["pgd", "pgdot", "pagdot"])
    def test_termination_rows_between_recorded_rows(self, name):
        obj, seeds, x0s = _staircase_lanes()
        lanes = _assert_lanes_match_one_lane_runs(obj, _lane_algo(name, "theory"), 300,
                                                  seeds, x0s, record_every=7)
        assert all(t % 7 == 0 for tr in lanes for t in tr.ts[:-1])
        for tr in lanes:
            assert tr.ts[-1] == tr.final_t
            if tr.terminated:
                assert tr.final_t % 7 != 0  # the stop row lies between recorded rows

    def test_certificate_and_nce_read_their_own_lane(self):
        # Lane 1 moves with velocity along a convex direction, so its
        # certificate fails; lanes 0 and 2 have zero velocity, so NCE probes
        # a random direction drawn from each one's own stream.
        obj = saddle_objective()
        params = TestPagdotStep().params()
        xs = np.array([[3.0, 0.1], [1.0, 0.0], [0.1, 0.1]])
        vs = np.array([[0.0, 0.0], [-0.1, 0.0], [0.0, 0.0]])
        states = []
        for k in range(3):
            state = _pagdot_lane(xs[k], params, RngStream(k + 4, 0))
            state.v[:] = vs[k]
            states.append(state)
        F, G = zip(*(eval_objective(obj, x) for x in xs))
        lanes = _Lanes(xs.copy(), [RngStream(k + 4, 0) for k in range(3)],
                       windows=[OccupationWindow(2, 1) for _ in range(3)],
                       t_noise=[-params.script_t] * 3, V=vs.copy())
        _step(_pagdot_rule(params, "occupation", WeightFn(), False), lanes, obj,
              list(F), np.array(G), [_norm(g) for g in G])
        for k, state in enumerate(states):
            state.step(obj)
            assert state.x.tobytes() == lanes.X[k].tobytes()
            assert state.v.tobytes() == lanes.V[k].tobytes()
        assert lanes.nce_hits == [0, 2] and lanes.n_nce == [1, 0, 1]

    @pytest.mark.parametrize("name", ["agd", "pgd", "pagd", "pgdot", "pagdot", "adam"])
    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_lanes_with_a_row_by_row_oracle(self, name, mode):
        # an Objective built from value and gradient calls them row by row
        x0s = [np.array([1e-6, 0.0]), np.array([0.3, 1e-3]), np.array([-1e-4, 2e-4])]
        _assert_lanes_match_one_lane_runs(saddle_objective(), _lane_algo(name, mode), 60,
                                          [2, 7, 2], x0s)

    def test_mini_batch_lanes_with_full_gradient_gate(self):
        bundle = make_problem("mlp", data_seed=0, dataset="synthetic_blobs",
                              n_samples=64, n_hidden=4)
        problem = bundle.problem
        x0 = problem.init_params(derive_stream(0, STREAM_INIT), mean=-1.0, std=0.1)
        algo = AlgoConfig(name="pagdot", eta=0.01, t_thres=3, g_thres=0.1, r=0.5,
                          momentum=0.9, h=1e12, t_count=10, full_grad_gate=True)
        seeds = [2, 4]
        lanes = run_lanes(problem, algo, 20, seeds, [x0, x0 + 0.01], batch_size=16)
        for seed, start, result in zip(seeds, [x0, x0 + 0.01], lanes):
            alone = run(problem, algo, 20, seed, x0=start, batch_size=16)
            assert _trace_record(result) == _trace_record(alone)
        assert all(tr.n_perturbations >= 2 for tr in lanes)

    @pytest.mark.parametrize("name", ["pgdot", "pagdot"])
    def test_t_count_past_max_steps_windows_hold_max_steps_rows(self, name, monkeypatch):
        # a window sized min(t_count, max_steps) never evicts in its run, so
        # the lanes equal those at t_count = max_steps; theory mode keeps
        # the whole history, max_steps rows too
        rows = []

        def window(dim, n, h):
            rows.append(n)
            return OccupationWindow(dim, n, h)

        monkeypatch.setattr(otgrad.optimizers, "OccupationWindow", window)
        obj, _, x0s = _staircase_lanes()
        huge, cut = (run_lanes(obj, dataclasses.replace(_lane_algo(name, "practical"), t_count=t),
                               50, [0, 1], x0s[:2]) for t in (10 ** 15, 50))
        assert [_trace_record(tr) for tr in huge] == [_trace_record(tr) for tr in cut]
        assert all(tr.n_perturbations > 0 for tr in huge)
        run_lanes(obj, _lane_algo(name, "theory"), 50, [0, 1], x0s[:2])
        assert rows == [50] * 6
        assert run_lanes(obj, _lane_algo(name, "theory"), 0, [0], x0s[:1])[0].ts == [0]
        assert rows == [50] * 6  # max_steps = 0 builds no window

    def test_oracle_of_the_wrong_shape_is_named(self):
        obj, seeds, x0s = _staircase_lanes()
        wide = dataclasses.replace(
            obj, name="wide", oracle=lambda X: (np.zeros(len(X)), np.zeros((len(X), X.shape[1] + 1))))
        with pytest.raises(ContractViolation, match="wide: oracle shapes"):
            run_lanes(wide, AlgoConfig(name="gd"), 10, seeds[:2], x0s[:2])

    def test_contract(self):
        obj, seeds, x0s = _staircase_lanes()
        assert run_lanes(obj, AlgoConfig(name="gd"), 10, []) == []
        with pytest.raises(ContractViolation, match="x0s"):
            run_lanes(obj, AlgoConfig(name="gd"), 10, seeds, x0s[:2])
        with pytest.raises(ContractViolation):
            run_lanes(obj, AlgoConfig(name="gd"), -1, seeds)
        zero = run_lanes(obj, AlgoConfig(name="gd"), 0, seeds, x0s)
        assert [tr.ts for tr in zero] == [[0]] * 4


def _plain_gd_agd(obj, name, eta, momentum, x0, steps, record_every):
    """gd or agd by hand, one eval_objective per incoming iterate: the trace
    rows (t, f, ||g||, 0, 0), the final row included, and the last iterate."""
    x, v = np.array(x0, dtype=np.float64), np.zeros(len(x0))
    rows = []
    for t in range(steps):
        f, g = eval_objective(obj, x)
        if t % record_every == 0:
            rows.append((t, f, float(np.linalg.norm(g)), 0, 0))
        if name == "gd":
            x = x - eta * g
        else:
            y = x + momentum * v
            x_next = y - eta * obj.gradient(y)
            v, x = x_next - x, x_next
    f, g = eval_objective(obj, x)
    rows.append((steps, f, float(np.linalg.norm(g)), 0, 0))
    return rows, x


class TestFixedPointRetirement:
    """A gd/agd lane that one step leaves bit for bit where it was (x and,
    for agd, v) gets its remaining rows at once; perturbed, baseline and
    mini-batch lanes step on."""

    @pytest.mark.parametrize("steps", [0, 1, 50])
    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("name,mode", [("gd", "practical"), ("agd", "practical"),
                                           ("gd", "theory")])
    def test_stalled_lane_next_to_a_moving_lane(self, name, mode, record_every, steps):
        bundle = make_problem("staircase")
        obj, ring = bundle.objective, bundle.init_point(0)
        algo = AlgoConfig(name=name, mode=mode, eta=0.1, momentum=0.5, **THEORY_CONSTANTS)
        x0s = [ring, ring + 0.05]
        lanes = run_lanes(obj, algo, steps, [0, 1], x0s, record_every=record_every)
        for x0, tr in zip(x0s, lanes):
            rows, x = _plain_gd_agd(obj, name, 0.1, 0.5, x0, steps, record_every)
            assert list(zip(tr.ts, tr.fs, tr.grad_norms, tr.perturbed, tr.nce)) == rows
            assert tr.final_x.tobytes() == x.tobytes()
            assert (tr.final_t, tr.terminated, tr.n_perturbations, tr.n_nce) == \
                (steps, False, 0, 0)
        assert lanes[0].final_x.tobytes() == ring.tobytes()
        assert (lanes[1].final_x.tobytes() == x0s[1].tobytes()) == (steps == 0)

    @pytest.mark.parametrize("name", ["gd", "agd"])
    def test_ring_lane_evaluates_only_its_first_step(self, name):
        bundle = make_problem("staircase")
        obj, calls = _counting(bundle.objective)
        tr = run(obj, AlgoConfig(name=name, eta=0.1, momentum=0.5), 50, 0,
                 x0=bundle.init_point(0))
        assert tr.ts == list(range(51))
        assert calls["oracle"] == 1 + (name == "agd")  # agd's y at step 0

    def test_agd_lane_whose_x_holds_but_v_does_not_steps_on(self):
        # g(y) = y^2/2 + y/4 - 1 with eta = 1, momentum 1/2, from 0: x goes
        # 0 -> 1 (v = 1), then y = 1.5 lands back on x = 1 with v = 0, and
        # from there g(1) = -1/4 moves x on to 1.25
        obj = Objective(dim=1, value=lambda x: float(x[0] ** 3 / 6 + x[0] ** 2 / 8 - x[0]),
                        gradient=lambda x: 0.5 * x * x + 0.25 * x - 1.0)
        tr = run(obj, AlgoConfig(name="agd", eta=1.0, momentum=0.5), 6, 0, x0=np.zeros(1))
        rows, x = _plain_gd_agd(obj, "agd", 1.0, 0.5, np.zeros(1), 6, 1)
        assert list(zip(tr.ts, tr.fs, tr.grad_norms, tr.perturbed, tr.nce)) == rows
        assert tr.final_x.tobytes() == x.tobytes()
        assert tr.fs[1] == tr.fs[2] != tr.fs[3]

    @pytest.mark.parametrize("name", ["pgd", "pgdot", "pagdot", "sgd_momentum", "adam"])
    def test_perturbed_and_baseline_lanes_at_the_ring_step_on(self, name):
        bundle = make_problem("staircase")
        obj, calls = _counting(bundle.objective)
        steps = 40
        tr = run(obj, _lane_algo(name, "practical"), steps, 0, x0=bundle.init_point(0))
        # one checked call per row, plus the gradients at kicked iterates
        # (pgd, pgdot) or at each y (pagdot)
        extra = {"pgd": tr.n_perturbations, "pgdot": tr.n_perturbations, "pagdot": steps}
        assert calls["oracle"] == steps + 1 + extra.get(name, 0)

    def test_kicks_on_a_flat_landscape_keep_coming(self):
        # between kicks pgd's step leaves x where it is, and the next kick
        # still comes t_thres + 1 steps after the last
        flat = Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        tr = run(flat, AlgoConfig(name="pgd", t_thres=4, g_thres=0.1, r=0.5), 23, 0,
                 x0=np.zeros(2))
        assert [t for t, p in zip(tr.ts, tr.perturbed) if p] == [0, 5, 10, 15, 20]
        assert tr.n_perturbations == 5

    def test_mini_batch_lane_steps_on_after_a_still_step(self):
        # batch [0] is flat, so gd's step on it leaves x where it is; batch
        # [1] is a bowl that moves x again
        class Problem:
            dim, n_samples = 2, 2

            def objective_for(self, idx):
                if list(idx) == [0]:
                    return Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
                return convex_objective()

            def batch_oracle(self, X, I):
                F, G = zip(*(self.objective_for(idx).oracle(x[None, :]) for x, idx in zip(X, I)))
                return np.concatenate(F), np.concatenate(G)

        problem = Problem()
        seeds, steps, x0 = [0, 1], 12, np.array([1.0, -0.5])
        lanes = run_lanes(problem, AlgoConfig(name="gd", eta=0.25), steps, seeds, [x0, x0],
                          batch_size=1)
        for seed, tr in zip(seeds, lanes):
            # the batches the lane of this seed draws
            batcher = Batcher(problem, 1, derive_stream(seed, STREAM_BATCH))
            x, fs = x0.copy(), []
            for _ in range(steps + 1):
                f, g = eval_objective(batcher.next_objective(), x)
                fs.append(f)
                x = x - 0.25 * g
            assert tr.fs == fs and tr.final_t == steps
            still = tr.fs.index(0.0)  # a flat batch's step
            assert any(f != 0.0 for f in tr.fs[still + 1:])


def _probe_objective():
    """The quadratic saddle, whose value() overflows once x[1] passes 1, so
    a stack holding such a row fails as a whole."""
    def value(x):
        if x[1] > 1.0:
            raise OverflowError("value out of range")
        return 0.5 * (x[0] ** 2 - x[1] ** 2)

    return Objective(dim=2, value=value, gradient=lambda x: np.array([x[0], -x[1]]))


class TestNceOverLanes:
    """_nce on a stack of certified lanes equals nce lane by lane."""

    S = 0.5

    def _stack(self, centre):
        X = centre + np.array([[0.01, -0.02], [0.03, 0.0], [-0.01, 0.05]])
        V = np.array([[0.6, 0.0], [0.0, 0.0], [0.01, -0.02]])
        return X, V

    @pytest.mark.parametrize("problem", ["staircase", "saddle"])
    def test_mixed_stack_equals_per_lane_nce(self, problem):
        if problem == "staircase":
            obj, calls = _counting(make_problem("staircase", dim=2).objective)
            centre = np.full(2, 2.0)
        else:
            obj, centre = saddle_objective(), np.array([0.2, 0.1])
        X, V = self._stack(centre)
        assert _norm(V[0]) >= self.S and _norm(V[1]) == 0.0 and 0.0 < _norm(V[2]) < self.S
        lanes = _Lanes(X.copy(), [RngStream(k + 4, 0) for k in range(3)], V=V.copy())
        _nce(lanes, obj, X, V, [0, 1, 2], self.S)
        assert not lanes.failed and lanes.n_nce == [1, 1, 1]
        if problem == "staircase":
            assert calls == {"value": 0, "gradient": 0, "oracle": 1, "rows": 4}
        for k in range(3):
            x, v = nce(obj, X[k], V[k], self.S, RngStream(k + 4, 0))
            assert lanes.X[k].tobytes() == x.tobytes()
            assert lanes.V[k].tobytes() == v.tobytes() == np.zeros(2).tobytes()
        assert lanes.X[0].tobytes() == X[0].tobytes()  # frozen
        # the probed lanes by hand, valued by value() one point at a time
        direction = RngStream(5, 0).normal(2)
        for k, delta in ((1, (self.S / np.linalg.norm(direction)) * direction),
                         (2, (self.S / np.linalg.norm(V[2])) * V[2])):
            plus, minus = X[k] + delta, X[k] - delta
            best = plus if obj.value(plus) <= obj.value(minus) else minus
            assert lanes.X[k].tobytes() == best.tobytes()

    def test_uncertified_lanes_are_left_alone(self):
        obj = saddle_objective()
        X, V = self._stack(np.array([0.2, 0.1]))
        after = X + 1.0
        lanes = _Lanes(after.copy(), [RngStream(k, 0) for k in range(3)], V=V.copy())
        _nce(lanes, obj, X, V, [2], self.S)
        assert lanes.X[:2].tobytes() == after[:2].tobytes()
        assert lanes.V[:2].tobytes() == V[:2].tobytes()
        assert lanes.n_nce == [0, 0, 1]

    def test_overflowing_probe_fails_only_its_lane(self):
        obj = _probe_objective()
        X = np.array([[0.1, 0.2], [0.0, 0.9], [0.3, -0.1]])
        V = np.array([[0.01, 0.0], [0.0, 0.1], [0.0, -0.02]])
        lanes = _Lanes(X + 1.0, [RngStream(k, 0) for k in range(3)], V=V.copy())
        _nce(lanes, obj, X, V, [0, 1, 2], self.S)
        assert list(lanes.failed) == [1]
        assert "value out of range" in str(lanes.failed[1][0])
        assert lanes.X[1].tobytes() == (X[1] + 1.0).tobytes() and lanes.n_nce == [1, 0, 1]
        for k in (0, 2):
            assert lanes.X[k].tobytes() == nce(obj, X[k], V[k], self.S, RngStream(k, 0))[0].tobytes()
        with pytest.raises(NumericalDomainError, match="value out of range"):
            nce(obj, X[1], V[1], self.S, RngStream(1, 0))


class TestDivergence:
    """A float overflow in an oracle call ends the run as a RunError with
    its partial trace, and in a group of lanes it ends only its own lane."""

    @pytest.mark.parametrize("name", ["gd", "pgdot"])
    def test_overflow_is_a_run_error(self, name):
        bundle = make_problem("staircase")
        x0 = bundle.init_point(0) + 0.5
        with pytest.raises(RunError) as info:
            run(bundle.objective, AlgoConfig(name=name, eta=50.0), 100, 0, x0=x0)
        trace = info.value.trace
        assert isinstance(info.value.__cause__, NumericalDomainError)
        assert "float overflow" in str(info.value)
        assert str(info.value).startswith(f"run aborted at step {len(trace.ts)}: ")
        assert 1 <= len(trace.ts) == trace.final_t < 100
        assert trace.fs[0] == float(bundle.objective.value(x0))
        assert np.isfinite(trace.final_x).all()

    def test_runs_keep_numpy_float_warnings_to_themselves(self):
        # each RunError names what numpy would have warned of: the
        # staircase's overflow in X * X, phase retrieval's in its residual
        staircase, phase = make_problem("staircase"), make_problem("phase_retrieval")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stair = run_lanes(staircase.objective, AlgoConfig(name="pgdot"), 10, [0],
                              [np.full(4, 1e200)])[0]
            blown = run_lanes(phase.objective, AlgoConfig(name="gd", eta=10.0), 10, [0],
                              [np.full(10, 10.0)])[0]
        assert str(stair) == ("run aborted at step 0: staircase: float overflow: "
                              "cannot convert float infinity to integer")
        assert stair.trace.ts == [] and (stair.trace.final_x == 1e200).all()
        assert str(blown) == "run aborted at step 4: phase_retrieval: non-finite value or gradient"
        assert blown.trace.ts == [0, 1, 2, 3]
        assert blown.trace.fs == [3607469.901245946, 1.9218077625126862e+27,
                                  4.141829451832121e+89, 6.930051582181582e+276]
        assert blown.trace.grad_norms[-1] == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a direct call keeps numpy's default
            with pytest.raises(RuntimeWarning, match="overflow"):
                eval_objective(staircase.objective, np.full(4, 1e200))

    @pytest.mark.parametrize("name", ["gd", "pgdot", "pagdot", "sgd_momentum"])
    def test_diverging_lane_leaves_the_others_alone(self, name):
        bundle = make_problem("staircase")
        saddle = bundle.init_point(0)
        x0s = [saddle + off for off in (0.0, 0.5, 1e-3, -0.01)]
        algo = AlgoConfig(name=name, eta=5.0, t_thres=10, g_thres=0.01, r=0.04)
        lanes = _assert_lanes_match_one_lane_runs(bundle.objective, algo, 100,
                                                  [0, 1, 2, 3], x0s)
        assert isinstance(lanes[1], RunError)
        assert not isinstance(lanes[0], RunError) and lanes[0].final_t == 100

    @pytest.mark.parametrize("name", ["adam", "sgd_momentum", "pgdot", "pagdot"])
    def test_mlp_takes_a_huge_step_and_stays_finite(self, name):
        # at eta = 1e12 the sigmoids and the softmax saturate: the batch
        # loss grows (adam) or reaches 0, but no value or gradient leaves
        # the floats and numpy warns of nothing
        bundle = make_problem("mlp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = run_lanes(bundle.problem, AlgoConfig(name=name, eta=1e12), 30, [0, 1],
                              [bundle.init_point(seed) for seed in (0, 1)], batch_size=128)
        for lane in lanes:
            assert isinstance(lane, RunTrace) and lane.final_t == 30 and len(lane.fs) == 31
            assert all(map(math.isfinite, lane.fs + lane.grad_norms))

    def test_failure_in_a_step_ends_only_that_lane(self):
        # the gradient overflows right of 1; lane 1 comes from the left with
        # enough momentum that its y passes 1 while its x has not
        def gradient(x):
            if x[0] > 1.0:
                raise OverflowError("gradient out of range")
            return np.array([x[0] - 0.5, x[1]])

        obj = Objective(dim=2, value=lambda x: 0.5 * float((x[0] - 0.5) ** 2 + x[1] ** 2),
                        gradient=gradient)
        x0s = [np.array([0.4, 0.1]), np.array([-2.0, 0.1]), np.array([0.6, 0.2])]
        lanes = _assert_lanes_match_one_lane_runs(
            obj, AlgoConfig(name="agd", eta=0.1, momentum=0.9), 40, [0, 1, 2], x0s)
        assert isinstance(lanes[1], RunError) and lanes[1].trace.ts == list(range(6))
        assert "float overflow: gradient out of range" in str(lanes[1])
        assert lanes[1].trace.final_x[0] <= 1.0  # its x at step 6 was valued
        assert [lane.final_t for lane in (lanes[0], lanes[2])] == [40, 40]

    def test_failure_in_an_nce_probe_ends_only_that_lane(self):
        # theory pagdot probes on every certified step; lane 1's x and y
        # stay below 1 at step 0, but a probe passes it and overflows
        obj = _probe_objective()
        x0s = [np.array([0.5, 0.1]), np.array([0.3, 0.99]), np.array([-0.5, 0.2])]
        eval_objective(obj, x0s[1])
        lanes = _assert_lanes_match_one_lane_runs(obj, _lane_algo("pagdot", "theory"), 40,
                                                  [0, 1, 2], x0s)
        assert isinstance(lanes[1], RunError) and lanes[1].trace.ts == []
        assert "float overflow: value out of range" in str(lanes[1])
        assert lanes[1].trace.n_nce == 0
        assert not isinstance(lanes[0], RunError) and lanes[0].n_nce > 0
