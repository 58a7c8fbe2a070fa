"""Finite differences, minimum Hessian eigenvalue, stationarity labels, trace analytics."""

import math

import numpy as np
import pytest

from otgrad.analysis import (
    LABELS,
    MAX_HESSIAN_DIM,
    classify_point,
    escape_summary,
    fd_gradient,
    fd_hessian,
    min_hessian_eig,
    monotone_after,
)
from otgrad.benchmarks import make_problem
from otgrad.core import ContractViolation, NumericalDomainError, Objective
from otgrad.optimizers import RunTrace


def quadratic_form(A):
    """0.5 * x @ A @ x for a symmetric A, whose Hessian is A."""
    return Objective(dim=A.shape[0],
                     value=lambda x: 0.5 * float(x @ A @ x),
                     gradient=lambda x: A @ np.asarray(x, dtype=np.float64))


def quad(dim=2, scale=None):
    s = np.ones(dim) if scale is None else np.asarray(scale, dtype=np.float64)
    return Objective(
        dim=dim,
        value=lambda x: 0.5 * float(x @ (s * x)),
        gradient=lambda x: s * np.asarray(x, dtype=np.float64),
    )


def saddle():
    return quad(2, scale=[1.0, -1.0])


class TestFdGradient:
    def test_quadratic_is_exact_for_any_h(self):
        # Central differences are exact on quadratics, up to rounding.
        g = fd_gradient(quad(), np.array([3.0, 4.0]), h_fd=0.5)
        assert g[0] == pytest.approx(3.0, abs=1e-12)
        assert g[1] == pytest.approx(4.0, abs=1e-12)

    def test_scalar_square(self):
        obj = Objective(dim=1, value=lambda x: float(x[0] ** 2),
                        gradient=lambda x: 2.0 * x)
        assert fd_gradient(obj, np.array([1.0]), h_fd=0.5)[0] == pytest.approx(2.0, abs=1e-14)

    def test_default_h_on_smooth_function(self):
        obj = Objective(dim=1, value=lambda x: math.sin(x[0]),
                        gradient=lambda x: np.array([math.cos(x[0])]))
        g = fd_gradient(obj, np.array([0.7]))
        assert g[0] == pytest.approx(math.cos(0.7), abs=1e-9)

    def test_bad_h_rejected(self):
        with pytest.raises(ContractViolation):
            fd_gradient(quad(), np.zeros(2), h_fd=0.0)

    def test_nonfinite_probe_rejected(self):
        obj = Objective(dim=1,
                        value=lambda x: float("inf") if x[0] > 1.0 else float(x[0]),
                        gradient=lambda x: np.ones(1))
        with pytest.raises(NumericalDomainError):
            fd_gradient(obj, np.array([1.0]), h_fd=0.5)


class TestFdHessian:
    def test_quadratic_recovers_matrix(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        A = 0.5 * (A + A.T)
        obj = Objective(dim=4,
                        value=lambda x: 0.5 * float(x @ (A @ x)),
                        gradient=lambda x: A @ x)
        H = fd_hessian(obj, rng.normal(size=4))
        assert np.allclose(H, A, atol=1e-8)
        assert np.array_equal(H, H.T)

    def test_dim_cap(self):
        big = Objective(dim=MAX_HESSIAN_DIM + 1,
                        value=lambda x: 0.0,
                        gradient=lambda x: np.zeros(MAX_HESSIAN_DIM + 1))
        with pytest.raises(ContractViolation):
            fd_hessian(big, np.zeros(MAX_HESSIAN_DIM + 1))


class TestMinHessianEig:
    def test_saddle_curvature(self):
        assert min_hessian_eig(saddle(), np.zeros(2)) == pytest.approx(-1.0, abs=1e-6)

    def test_bowl_curvature(self):
        assert min_hessian_eig(quad(), np.zeros(2)) == pytest.approx(1.0, abs=1e-6)

    def test_regularized_quadratic_soft_direction(self):
        obj = make_problem("reglq", data_seed=0).objective
        assert min_hessian_eig(obj, np.zeros(2)) == pytest.approx(-0.1, abs=1e-4)

    # known spectra, as the Hessians of quadratics 0.5 * x @ A @ x: their
    # gradients are linear, so the finite-difference Hessian is A up to
    # rounding

    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5, 8, 13, 16):
            A = rng.normal(size=(n, n))
            A = 0.5 * (A + A.T)
            lam = min_hessian_eig(quadratic_form(A), np.zeros(n))
            assert lam == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-9)

    def test_two_by_two_exact_spectrum(self):
        lam = min_hessian_eig(quadratic_form(np.array([[2.0, 1.0], [1.0, 2.0]])), np.zeros(2))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_input_passthrough(self):
        assert min_hessian_eig(quad(3, scale=[3.0, -1.0, 2.0]), np.zeros(3)) == -1.0


class TestClassifyPoint:
    def test_saddle_is_first_order_only(self):
        report = classify_point(saddle(), np.zeros(2), eps=0.1, rho=1.0)
        assert report.label == "eps_first_order"
        assert report.grad_norm == 0.0
        assert report.lambda_min == pytest.approx(-1.0, abs=1e-6)

    def test_bowl_is_second_order(self):
        report = classify_point(quad(), np.zeros(2), eps=0.1, rho=1.0)
        assert report.label == "eps_second_order"

    def test_large_gradient_is_neither(self):
        report = classify_point(quad(), np.array([5.0, 0.0]), eps=0.1, rho=1.0)
        assert report.label == "neither"

    def test_curvature_threshold_boundary(self):
        # Threshold is -sqrt(rho * eps) = -0.2; inclusive just inside,
        # first-order just outside.
        inside = classify_point(quad(2, scale=[1.0, -0.19999]), np.zeros(2),
                                eps=0.04, rho=1.0)
        outside = classify_point(quad(2, scale=[1.0, -0.20001]), np.zeros(2),
                                 eps=0.04, rho=1.0)
        assert inside.label == "eps_second_order"
        assert outside.label == "eps_first_order"
        assert inside.curv_threshold == pytest.approx(-0.2, rel=1e-12)

    def test_staircase_ring_is_degenerate_stationary(self):
        # The plateau-ring start point has zero gradient and an exactly
        # flat Hessian (the cubic profile has f' = f'' = 0 there), so it
        # classifies as second-order at any reasonable tolerance.
        bundle = make_problem("staircase", data_seed=0)
        x0 = bundle.init_point(0)
        report = classify_point(bundle.objective, x0, eps=0.01, rho=1.0)
        assert report.grad_norm == 0.0
        assert abs(report.lambda_min) <= 1e-6
        assert report.label == "eps_second_order"

    def test_float_overflow_is_a_domain_error(self):
        # the squared radius of this finite point overflows to inf, and the
        # staircase's branch lookup cannot floor it
        bundle = make_problem("staircase", data_seed=0)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalDomainError, match="float overflow"):
                classify_point(bundle.objective, np.full(4, 1e200), eps=0.1, rho=1.0)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ContractViolation):
            classify_point(quad(), np.zeros(2), eps=0.0, rho=1.0)
        with pytest.raises(ContractViolation):
            classify_point(quad(), np.zeros(2), eps=0.1, rho=-1.0)

    def test_labels_registry(self):
        assert LABELS == ("eps_second_order", "eps_first_order", "neither")


class TestMonotoneAfter:
    def test_gd_contraction_is_monotone(self):
        xs = [0.0]
        for _ in range(19):
            xs.append(xs[-1] - 0.4 * 2.0 * (xs[-1] - 1.0))
        assert xs[:4] == pytest.approx([0.0, 0.8, 0.96, 0.992], abs=1e-15)
        assert monotone_after(xs)

    def test_overshoot_oscillation_is_not_monotone(self):
        xs = [0.0]
        for _ in range(19):
            xs.append(xs[-1] - 0.9 * 2.0 * (xs[-1] - 1.0))
        assert not monotone_after(xs)

    def test_constant_trace_is_monotone(self):
        assert monotone_after([1.0] * 12)

    def test_burn_in_skips_initial_transient(self):
        values = [5.0] + list(range(11))
        assert not monotone_after(values)
        assert monotone_after(values, burn_in=0.2)

    def test_contract_errors(self):
        with pytest.raises(ContractViolation):
            monotone_after([1.0] * 9)
        with pytest.raises(ContractViolation):
            monotone_after([1.0] * 12, burn_in=1.0)


def trace_with(algorithm, seed, fs, problem="staircase"):
    tr = RunTrace(algorithm=algorithm, problem=problem, seed=seed, mode="practical")
    for t, f in enumerate(fs):
        tr.add_row(t, f, 1.0, False, False)
    return tr


class TestEscapeSummary:
    def test_threshold_crossing_step(self):
        tr = trace_with("pgdot", 0, [1.0] * 312 + [0.05, 0.01])
        rows = escape_summary([tr], threshold=0.1)
        assert rows[0]["steps_to_threshold"] == 312
        assert rows[0]["best_f"] == 0.01

    def test_plateau_never_crosses(self):
        tr = trace_with("gd", 0, [1.0] * 50)
        rows = escape_summary([tr], threshold=0.1)
        assert rows[0]["steps_to_threshold"] == math.inf

    def test_rows_sorted_by_algorithm_then_seed(self):
        traces = [
            trace_with("pgdot", 1, [1.0, 0.0]),
            trace_with("gd", 2, [1.0, 0.0]),
            trace_with("gd", 0, [1.0, 0.0]),
        ]
        rows = escape_summary(traces, threshold=0.5)
        assert [(r["algorithm"], r["seed"]) for r in rows] == [
            ("gd", 0), ("gd", 2), ("pgdot", 1)]

    def test_identical_traces_identical_rows(self):
        a = trace_with("gd", 3, [2.0, 1.0, 0.2])
        b = trace_with("gd", 3, [2.0, 1.0, 0.2])
        ra = escape_summary([a], threshold=0.5)[0]
        rb = escape_summary([b], threshold=0.5)[0]
        assert ra == rb

    def test_mixed_objectives_rejected(self):
        traces = [
            trace_with("gd", 0, [1.0], problem="staircase"),
            trace_with("gd", 1, [1.0], problem="reglq"),
        ]
        with pytest.raises(ContractViolation):
            escape_summary(traces, threshold=0.5)

    def test_empty_input(self):
        assert escape_summary([], threshold=0.5) == []
