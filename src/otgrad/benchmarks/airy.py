"""Airy-function regression: fit damped/driven oscillations to Ai samples.

The target is y*(s) = Ai(omega * (s - s0)) sampled at s_i = i/10 for
i = 0..49, and the model is a sum of four exponentially weighted sinusoids

    yhat(s) = sum_m (a_m cos(lambda_m s) + b_m sin(lambda_m s)) exp(w_m s)

with 16 parameters laid out as [a_1..a_4, b_1..b_4, lambda_1..lambda_4,
w_1..w_4].  The loss is the mean squared error over the 50 samples.

Ai itself is evaluated to 1e-8 absolute accuracy on [-15, 10] with the
Maclaurin series near the origin and the standard asymptotic expansions
farther out.  The oscillatory (negative-axis) expansion only reaches that
accuracy once the series variable is large enough, so the series region
extends to -8 on the left before handing over.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ContractViolation, NumericalDomainError, Objective, row_oracle

AIRY_MIN_ARG = -15.0
AIRY_MAX_ARG = 10.0

# Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_AI0 = 0.3550280538878172
_NEG_AIP0 = 0.2588194037928068

_SERIES_LO = -8.0
_SERIES_HI = 4.5


def _u_coefficients(count: int) -> list:
    u = [1.0]
    for k in range(1, count):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1)))
    return u


_U = _u_coefficients(26)


def _ai_series(s: float) -> float:
    s3 = s * s * s
    f_term = 1.0
    g_term = s
    f_sum = f_term
    g_sum = g_term
    for k in range(0, 260):
        f_term *= s3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= s3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-25 and abs(g_term) < 1e-25:
            break
    return _AI0 * f_sum - _NEG_AIP0 * g_sum


def _ai_asymptotic_positive(s: float) -> float:
    zeta = (2.0 / 3.0) * s ** 1.5
    total = 0.0
    prev = math.inf
    sign = 1.0
    zpow = 1.0
    for u_k in _U:
        term = u_k / zpow
        if term >= prev:
            break
        total += sign * term
        if term < 1e-18:
            break
        prev = term
        sign = -sign
        zpow *= zeta
    return math.exp(-zeta) * total / (2.0 * math.sqrt(math.pi) * s ** 0.25)


def _ai_asymptotic_negative(s: float) -> float:
    z = -s
    zeta = (2.0 / 3.0) * z ** 1.5
    p_sum = 0.0
    q_sum = 0.0
    sign = 1.0
    prev = math.inf
    for j in range(0, len(_U) // 2):
        even = _U[2 * j] / zeta ** (2 * j)
        odd = _U[2 * j + 1] / zeta ** (2 * j + 1)
        if even >= prev:
            break
        p_sum += sign * even
        q_sum += sign * odd
        prev = even
        sign = -sign
        if even < 1e-18:
            break
    phase = zeta - 0.25 * math.pi
    return (math.cos(phase) * p_sum + math.sin(phase) * q_sum) / (
        math.sqrt(math.pi) * z ** 0.25)


def airy_ai(s: float) -> float:
    """Airy function Ai(s) on [-15, 10], absolute error below 1e-8."""
    s = float(s)
    if math.isnan(s) or s < AIRY_MIN_ARG or s > AIRY_MAX_ARG:
        raise NumericalDomainError(
            f"airy_ai supports arguments in [{AIRY_MIN_ARG}, {AIRY_MAX_ARG}], got {s}")
    if s > _SERIES_HI:
        return _ai_asymptotic_positive(s)
    if s < _SERIES_LO:
        return _ai_asymptotic_negative(s)
    return _ai_series(s)


N_SAMPLES = 50
N_MODES = 4
OMEGA = 3.2
S_SHIFT = 3.0
AIRY_DIM = 4 * N_MODES


def airy_sample_grid() -> np.ndarray:
    return np.arange(N_SAMPLES, dtype=np.float64) / 10.0


def airy_targets() -> np.ndarray:
    s = airy_sample_grid()
    return np.array([airy_ai(OMEGA * (si - S_SHIFT)) for si in s])


def airy_regression_objective() -> Objective:
    """MSE of the 4-mode damped-sinusoid model against the Ai samples."""
    s = airy_sample_grid()
    y = airy_targets()
    n = N_SAMPLES

    def _parts(x: np.ndarray):
        a = x[0:4]
        b = x[4:8]
        lam = x[8:12]
        w = x[12:16]
        phase = np.outer(s, lam)
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)
        damp = np.exp(np.outer(s, w))
        yhat = ((a * cos_p + b * sin_p) * damp).sum(axis=1)
        return a, b, cos_p, sin_p, damp, yhat

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        a, b, cos_p, sin_p, damp, yhat = _parts(x)
        res = yhat - y
        scale = 2.0 / n
        d_a = damp * cos_p
        d_b = damp * sin_p
        d_lam = damp * (-a * sin_p + b * cos_p) * s[:, None]
        d_w = damp * (a * cos_p + b * sin_p) * s[:, None]
        return float(res @ res) / n, scale * np.concatenate(
            [res @ d_a, res @ d_b, res @ d_lam, res @ d_w])

    return Objective(dim=AIRY_DIM, name="airy_regression",
                     oracle=row_oracle(value_and_gradient))
