"""Seeded RNG streams, vector coercion, and objective evaluation contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from otgrad.benchmarks.staircase import staircase_objective
from otgrad.core import (
    STREAM_ALGORITHM,
    STREAM_BATCH,
    STREAM_DATA,
    STREAM_INIT,
    ContractViolation,
    NumericalDomainError,
    Objective,
    RngStream,
    as_vector,
    derive_stream,
    eval_objective,
)


def quad():
    return Objective(
        dim=2,
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=np.float64),
        name="half_sq",
    )


class TestRngStream:
    def test_same_seed_same_stream_replays(self):
        a = RngStream(42, 0).uniforms(1000)
        b = RngStream(42, 0).uniforms(1000)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngStream(42, 0).uniforms(1000)
        b = RngStream(42, 1).uniforms(1000)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(42, 0).uniforms(1000)
        b = RngStream(43, 0).uniforms(1000)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        draws = RngStream(42, 7).uniforms(100_000)
        assert abs(float(np.mean(draws)) - 0.5) < 0.01

    def test_uniform_range(self):
        draws = RngStream(3, 2).uniforms(10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)

    def test_bernoulli_degenerate_probabilities(self):
        rng = RngStream(7, 0)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))

    def test_bernoulli_consumes_one_uniform(self):
        s1 = RngStream(9, 0)
        hit = s1.bernoulli(0.3)
        follow = s1.uniform()
        u1, u2 = RngStream(9, 0).uniforms(2)
        assert hit == (u1 < 0.3)
        assert follow == u2

    def test_bernoulli_rejects_bad_probability(self):
        rng = RngStream(1, 0)
        with pytest.raises(ContractViolation):
            rng.bernoulli(-0.1)
        with pytest.raises(ContractViolation):
            rng.bernoulli(1.5)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ContractViolation):
            RngStream(-1, 0)
        with pytest.raises(ContractViolation):
            RngStream(0, -2)

    def test_normal_shape_and_determinism(self):
        a = RngStream(11, 1).normal((3, 4))
        assert a.shape == (3, 4)
        assert np.array_equal(a, RngStream(11, 1).normal((3, 4)))

    def test_permutation_is_a_permutation(self):
        p = RngStream(5, 0).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_derive_stream_matches_manual_construction(self):
        a = derive_stream(21, STREAM_BATCH).uniforms(16)
        b = RngStream(21, STREAM_BATCH).uniforms(16)
        assert np.array_equal(a, b)

    def test_stream_ids_are_distinct(self):
        ids = {STREAM_ALGORITHM, STREAM_BATCH, STREAM_INIT, STREAM_DATA}
        assert ids == {0, 1, 2, 3}

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
    def test_uniforms_length_and_bounds(self, seed, n):
        draws = RngStream(seed, 0).uniforms(n)
        assert draws.shape == (n,)
        assert np.all((draws >= 0.0) & (draws < 1.0))


class TestAsVector:
    def test_list_coerced_to_float64(self):
        v = as_vector([1, 2, 3], 3)
        assert v.dtype == np.float64 and v.shape == (3,)

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractViolation):
            as_vector([1.0, 2.0], 3)

    def test_matrix_rejected(self):
        with pytest.raises(ContractViolation):
            as_vector(np.zeros((2, 2)), 4)


class TestEvalObjective:
    def test_value_and_gradient(self):
        f, g = eval_objective(quad(), np.array([3.0, 4.0]))
        assert f == 12.5
        assert np.array_equal(g, np.array([3.0, 4.0]))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericalDomainError):
            eval_objective(quad(), np.array([np.nan, 0.0]))

    def test_nonfinite_value_rejected(self):
        bad = Objective(dim=1, value=lambda x: float("inf"), gradient=lambda x: x)
        with pytest.raises(NumericalDomainError):
            eval_objective(bad, np.array([1.0]))

    def test_wrong_gradient_shape_rejected(self):
        bad = Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(3))
        with pytest.raises(ContractViolation):
            eval_objective(bad, np.zeros(2))

    def test_nonfinite_gradient_rejected(self):
        bad = Objective(
            dim=1, value=lambda x: 0.0, gradient=lambda x: np.array([np.inf])
        )
        with pytest.raises(NumericalDomainError):
            eval_objective(bad, np.zeros(1))

    def test_oracle_replaces_separate_calls(self):
        def unused(_x):
            raise AssertionError("separate oracle called despite the stacked oracle")

        obj = Objective(dim=2, value=unused, gradient=unused,
                        oracle=lambda X: (0.5 * (X * X).sum(axis=1), X.copy()))
        f, g = eval_objective(obj, np.array([3.0, 4.0]))
        assert f == 12.5
        assert np.array_equal(g, np.array([3.0, 4.0]))

    def test_oracle_is_checked(self):
        def stacked(F, G):
            return Objective(dim=2, oracle=lambda X: (np.array(F), np.array(G)))

        with pytest.raises(ContractViolation, match="oracle shapes"):
            eval_objective(stacked([0.0], [np.zeros(3)]), np.zeros(2))
        with pytest.raises(ContractViolation, match="oracle shapes"):
            eval_objective(stacked([0.0, 0.0], [np.zeros(2)]), np.zeros(2))
        with pytest.raises(NumericalDomainError):
            eval_objective(stacked([float("nan")], [np.zeros(2)]), np.zeros(2))
        with pytest.raises(NumericalDomainError):
            eval_objective(stacked([0.0], [[np.inf, 0.0]]), np.zeros(2))

    def test_missing_calls_are_derived(self):
        stacked = Objective(dim=2, oracle=lambda X: (0.5 * (X * X).sum(axis=1), 2.0 * X))
        x = np.array([3.0, 4.0])
        assert stacked.value(x) == 12.5 and type(stacked.value(x)) is float
        assert np.array_equal(stacked.gradient(x), 2.0 * x)
        F, G = quad().oracle(np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert F.tolist() == [12.5, 0.5] and G.tolist() == [[3.0, 4.0], [1.0, 0.0]]
        with pytest.raises(ContractViolation):
            Objective(dim=2, value=lambda x: 0.0)

    def test_float_overflow_is_a_domain_error(self):
        # finite input whose squared radius overflows: math.floor(inf) in the
        # staircase's branch lookup raises OverflowError inside the objective
        obj = staircase_objective(4)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalDomainError, match="float overflow"):
                eval_objective(obj, np.full(4, 1e200))
