"""Perturbed first-order optimizers with occupation-time-adapted noise.

Two families are implemented, each in two modes.

Theory mode reproduces the analyzed algorithms verbatim: perturbed gradient
descent (pgd, pgdot) with its improve-or-terminate rule, and the perturbed
accelerated method (pagd, pagdot) with negative-curvature exploitation
(NCE).  All constants are derived from the smoothness inputs by
derive_pgdot_params / derive_pagdot_params.

Practical mode is the configuration used by the experiment presets: the same
perturbation gate driven by explicit (eta, t_thres, g_thres, r) knobs, a
windowed occupation count, no termination rule, and for the accelerated
variants a plain Nesterov update y = x + momentum * v in place of the
theory-mode coupling (no NCE).

Every algorithm and mode steps through one engine, run_lanes, which
advances the seeds of one algorithm in lockstep as lanes: iterates,
velocities and gradients are stacked (lanes x dim) arrays, while each lane
keeps its own random stream, occupation window, gate clock, termination
state and trace.  A lane that terminates or fails drops out; the others go
on, and each lane's trace equals its run alone bit for bit.  So does a
gd/agd lane that one step leaves exactly where it was: every later step
would repeat that step, so it gets its remaining rows at once and
retires.  run() is the one-lane call; there is no other way to step an
optimizer.  The engine evaluates the objective
through one oracle path, _evaluate: each call (the step rows, the
gradients of kicked lanes, certificate values, NCE probes) is one call of
the Objective's stacked oracle over the rows of all its lanes, or, on
mini-batches, one call of the problem's batch_oracle with each lane's row
on that lane's batch.  Only when a call fails do the rows go one by one,
to find the lanes that failed: a NumericalDomainError or a float overflow
ends that lane as a RunError.

Each rule is written once, over lanes, and _step applies the rule of an
algorithm, a _Rule that the method table _rule derives from its config.
_gate is the perturbation gate of every perturbed method: perturb when the
gradient norm is at most the threshold and at least `cooldown` steps have
passed since the last kick (t - t_noise >= cooldown).  The cooldown is
t_thres + 1 for theory pgd/pgdot and for practical mode, and script_t for
theory pagd/pagdot; a lane starts at t_noise = -cooldown so a kick may
fire at t = 0.  _terminations is the improve-or-terminate rule, _descend
the gradient step, and _accelerate the Nesterov update with the curvature
certificate, which hands every certified lane to _nce,
negative-curvature exploitation, whose probes of all those lanes are one
oracle call.  baseline_step takes a stack of lanes as it takes one
iterate.

Swapping the occupation sampler for a uniform ball sampler turns the adapted
methods into the classical perturbed baselines (pgd, pagd) step for step.

run() and run_lanes drive any algorithm (including sgd/adam/amsgrad/rmsprop
baselines) for a step budget and return RunTraces of per-step f, gradient
norm, and event flags.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    STREAM_ALGORITHM,
    ContractViolation,
    NumericalDomainError,
    Objective,
    RngStream,
    as_vector,
    derive_stream,
    eval_rows,
    one_blas_thread,
)
# The benchmark's tracer rebinds optimizers.eval_objective when it installs.
from .core import eval_objective  # noqa: F401
from .occupation import (
    OccupationWindow,
    WeightFn,
    sample_ball_perturbation,
    sample_occupation_perturbation,
)

PERTURBED_ALGORITHMS = ("pgd", "pagd", "pgdot", "pagdot")
BASELINE_ALGORITHMS = ("sgd_momentum", "adam", "amsgrad", "rmsprop")
ALGORITHMS = ("gd", "agd") + PERTURBED_ALGORITHMS + BASELINE_ALGORITHMS


# ---------------------------------------------------------------------------
# Parameter derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PgdotParams:
    chi: float
    eta: float
    r: float
    g_thres: float
    f_thres: float
    t_thres: int


@dataclass(frozen=True)
class PagdotParams:
    chi: float
    kappa: float
    eta: float
    theta: float
    gamma: float
    s: float
    r: float
    script_t: int
    eps: float


def _check_inputs(d, ell, rho, eps, c, delta, delta_f):
    for name, val in (("d", d), ("ell", ell), ("rho", rho), ("eps", eps),
                      ("c", c), ("delta_f", delta_f)):
        if val <= 0:
            raise ContractViolation(f"{name} must be positive, got {val}")
    if not 0 < delta <= 1:
        raise ContractViolation(f"delta must lie in (0, 1], got {delta}")
    if eps > ell * ell / rho:
        warnings.warn(
            f"eps={eps} exceeds ell^2/rho={ell * ell / rho}: outside the regime "
            "the convergence guarantees assume",
            RuntimeWarning,
            stacklevel=3,
        )


def derive_pgdot_params(d: int, ell: float, rho: float, eps: float,
                        c: float, delta: float, delta_f: float) -> PgdotParams:
    """Constants for the perturbed gradient method from smoothness inputs.

    chi = 3 * max(log(d*ell*delta_f / (c*eps^2*delta)), 4), natural log.
    """
    _check_inputs(d, ell, rho, eps, c, delta, delta_f)
    chi = 3.0 * max(math.log(d * ell * delta_f / (c * eps * eps * delta)), 4.0)
    eta = c / ell
    r = math.sqrt(c) * eps / (chi * chi * ell)
    g_thres = math.sqrt(c) * eps / (chi * chi)
    f_thres = (c / chi ** 3) * math.sqrt(eps ** 3 / rho)
    t_thres = math.ceil(chi * ell / (c * c * math.sqrt(rho * eps)))
    return PgdotParams(chi=chi, eta=eta, r=r, g_thres=g_thres,
                       f_thres=f_thres, t_thres=int(t_thres))


def derive_pagdot_params(d: int, ell: float, rho: float, eps: float,
                         c: float, delta: float, delta_f: float) -> PagdotParams:
    """Constants for the perturbed accelerated method from smoothness inputs.

    chi = max(log(d*ell*delta_f / (rho*eps*delta)), 1), natural log.
    """
    _check_inputs(d, ell, rho, eps, c, delta, delta_f)
    chi = max(math.log(d * ell * delta_f / (rho * eps * delta)), 1.0)
    kappa = ell / math.sqrt(rho * eps)
    eta = 1.0 / (4.0 * ell)
    theta = 1.0 / (4.0 * math.sqrt(kappa))
    gamma = theta * theta / eta
    s = gamma / (4.0 * rho)
    r = eta * eps / (chi ** 5 * c ** 8)
    script_t = math.ceil(chi * c * math.sqrt(kappa))
    return PagdotParams(chi=chi, kappa=kappa, eta=eta, theta=theta, gamma=gamma,
                        s=s, r=r, script_t=int(script_t), eps=eps)


# ---------------------------------------------------------------------------
# Step operations
# ---------------------------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array: what np.linalg.norm computes for
    one, sqrt(v.dot(v)), bit for bit, without its dispatch."""
    return math.sqrt(float(v.dot(v)))


def gd_step(obj: Objective, x, eta: float, grad: Optional[np.ndarray] = None) -> np.ndarray:
    """One plain gradient descent step x - eta * grad f(x)."""
    v = as_vector(x, obj.dim)
    g = obj.gradient(v) if grad is None else grad
    return v - eta * g


# ---------------------------------------------------------------------------
# Lanes and the oracle path
# ---------------------------------------------------------------------------


class _Lanes:
    """Loop state of lanes that step in lockstep.

    X and V (None for unaccelerated methods) are stacked (lanes x dim)
    arrays; every other field holds one entry per lane.  `fired` and
    `nce_hits` list the lanes on which the last step kicked or ran NCE.
    `failed` maps a lane whose oracle call failed during the current step
    to (the NumericalDomainError, its iterate at that moment).
    """

    def __init__(self, X: np.ndarray, rngs: list, windows=None, t_noise=None,
                 V: Optional[np.ndarray] = None, hyper=None):
        n = X.shape[0]
        self.X = X
        self.V = V
        self.rngs = rngs
        self.windows = [None] * n if windows is None else windows
        self.t_noise = [0] * n if t_noise is None else t_noise
        self.x_tilde = [None] * n
        self.f_tilde = [None] * n
        self.n_perturbations = [0] * n
        self.n_nce = [0] * n
        self.hyper = hyper
        self.t = 0
        self.fired = []
        self.nce_hits = []
        self.failed = {}

    def fail(self, lane: int, exc: NumericalDomainError) -> None:
        self.failed.setdefault(lane, (exc, self.X[lane].copy()))

    def raise_failure(self) -> None:
        """Re-raise the failure of a one-lane call, if it had one."""
        if self.failed:
            raise self.failed[0][0]

    def keep(self, positions: list) -> None:
        """Drop every lane not in `positions`."""
        self.X = self.X[positions]
        if self.V is not None:
            self.V = self.V[positions]
        for name in ("rngs", "windows", "t_noise", "x_tilde", "f_tilde",
                     "n_perturbations", "n_nce"):
            values = getattr(self, name)
            setattr(self, name, [values[p] for p in positions])
        if self.hyper is not None:
            for name in ("m", "v", "v_max"):
                acc = getattr(self.hyper, name)
                if acc is not None:
                    setattr(self.hyper, name, acc[positions])
        self.fired, self.nce_hits, self.failed = [], [], {}


class _Batches(NamedTuple):
    """A step's mini-batches: one index row per lane, and the problem's
    stacked oracle on them.  Its `oracle` answers row r of a parameter
    stack on index row r, so eval_rows takes it as it takes an Objective."""

    batch_oracle: Callable[[np.ndarray, np.ndarray], tuple]
    indices: np.ndarray      # (lanes x batch)
    name: str

    def oracle(self, X: np.ndarray) -> tuple:
        return self.batch_oracle(X, self.indices)


def _on(obj, rows):
    """obj for the lanes in rows: a shared Objective as it is, _Batches
    cut to those lanes' index rows."""
    if rows is None or isinstance(obj, Objective):
        return obj
    return obj._replace(indices=obj.indices[rows])


def _evaluate(lanes: _Lanes, obj, X: np.ndarray, checked: bool = False,
              rows: Optional[list] = None) -> tuple:
    """The oracle at the rows of X, the one path the engine's oracle calls take.

    obj is one Objective for every lane, or the step's _Batches; rows
    names the lane of each row of X (default: row i is lane i), and picks
    those lanes' index rows from _Batches.  checked adds eval_objective's
    finiteness checks (see eval_rows).  Returns (F, G): F a list of
    floats, G a (rows x dim) array.

    Every row goes into one oracle call.  When that call fails, each row
    makes its own call, as a one-lane run would.  A row whose call raises
    NumericalDomainError marks its lane failed and reads NaN; a lane that
    already failed is not called.
    """
    if not lanes.failed:
        try:
            return eval_rows(_on(obj, rows), X, checked)
        except NumericalDomainError:
            pass  # the rows below find the lanes that failed
    F, G = [math.nan] * X.shape[0], np.full(X.shape, math.nan)
    for j, lane in enumerate(range(X.shape[0]) if rows is None else rows):
        if lane in lanes.failed:
            continue
        try:
            f, g = eval_rows(_on(obj, [lane]), X[j:j + 1], checked)
            F[j], G[j] = f[0], g[0]
        except NumericalDomainError as exc:
            lanes.fail(lane, exc)
    return F, G


def _unchanged(A: np.ndarray, B: np.ndarray, rows) -> list:
    """Those of `rows` in which two (lanes x dim) arrays are equal bit for
    bit (so 0.0 and -0.0 differ).  Compares bytes: on a few short rows
    that is several times cheaper than numpy's row reductions."""
    a, b = A.tobytes(), B.tobytes()
    n = len(a) // len(A)
    return [p for p in rows if a[p * n:(p + 1) * n] == b[p * n:(p + 1) * n]]


# ---------------------------------------------------------------------------
# Step rules, written once over lanes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    """What one step of an algorithm does; _step reads it for every
    algorithm and mode.

    sampler None means unperturbed.  `terminate` carries the theory-mode
    pgd/pgdot constants (improve-or-terminate), `certify` the theory-mode
    pagd/pagdot constants (curvature certificate and NCE), and `baseline`
    names a stochastic baseline.  t_count and h size the occupation windows.
    """

    eta: float
    accelerated: bool = False
    momentum: float = 0.0
    sampler: Optional[str] = None
    weight: WeightFn = WeightFn()
    g_thres: float = 0.0
    cooldown: int = 0
    r: float = 0.0
    reset_velocity: bool = False
    terminate: Optional[PgdotParams] = None
    certify: Optional[PagdotParams] = None
    baseline: Optional[str] = None
    t_count: Optional[int] = None
    h: float = math.inf

    def __post_init__(self):
        if self.sampler not in (None, "occupation", "ball"):
            raise ContractViolation(
                f"unknown sampler {self.sampler!r}, expected 'occupation' or 'ball'")

    @property
    def deterministic(self) -> bool:
        """Whether a step depends on (x, v) and the objective alone: no
        kicks, no baseline accumulators, no termination or certificate."""
        return (self.sampler is None and self.baseline is None
                and self.terminate is None and self.certify is None)


def _pgdot_rule(params: PgdotParams, sampler: str, weight: WeightFn) -> _Rule:
    """Theory-mode pgd/pgdot: cooldown t_thres + 1, full-history window."""
    return _Rule(eta=params.eta, sampler=sampler, weight=weight, g_thres=params.g_thres,
                 cooldown=params.t_thres + 1, r=params.r, terminate=params)


def _pagdot_rule(params: PagdotParams, sampler: str, weight: WeightFn,
                 reset_velocity: bool) -> _Rule:
    """Theory-mode pagd/pagdot: gate at eps with cooldown script_t, momentum
    1 - theta, then the curvature certificate."""
    return _Rule(eta=params.eta, accelerated=True, momentum=1.0 - params.theta,
                 sampler=sampler, weight=weight, g_thres=params.eps,
                 cooldown=params.script_t, r=params.r, reset_velocity=reset_velocity,
                 certify=params)


def _gate(rule: _Rule, lanes: _Lanes, F: list, norms: list) -> list:
    """The perturbation gate of every perturbed method; returns the lanes it fired on.

    A lane fires when its gate norm is at most g_thres and
    t - t_noise >= cooldown.  Firing saves the incoming iterate and value
    as (x_tilde, f_tilde), stamps t_noise, and replaces the iterate by a
    kick from the rule's sampler.  The incoming (pre-perturbation)
    iterates are then recorded into the windows, with the occupation
    sampler only (the ball sampler never reads them), so the counts behind
    a kick at step t cover strictly earlier iterates.
    """
    t, t_noise = lanes.t, lanes.t_noise
    fired = [i for i, g_norm in enumerate(norms)
             if g_norm <= rule.g_thres and t - t_noise[i] >= rule.cooldown]
    X_in = lanes.X
    occupation = rule.sampler == "occupation"
    if fired:
        X = X_in.copy()
        for i in fired:
            x_in = X_in[i]
            lanes.x_tilde[i] = x_in.copy()
            lanes.f_tilde[i] = F[i]
            t_noise[i] = t
            if occupation:
                X[i] = sample_occupation_perturbation(x_in, lanes.windows[i], rule.r,
                                                      rule.weight, lanes.rngs[i])
            else:
                X[i] = sample_ball_perturbation(x_in, rule.r, lanes.rngs[i])
            lanes.n_perturbations[i] += 1
        lanes.X = X
    if occupation:
        for window, x_in in zip(lanes.windows, X_in):
            window.record(x_in)
    lanes.fired = fired
    return fired


def _terminations(rule: _Rule, lanes: _Lanes, F: list, fired: list) -> dict:
    """Improve-or-terminate: {lane: saved point} for each lane that was
    kicked exactly t_thres steps ago, did not fire now, and has not lowered
    f by more than f_thres since."""
    p = rule.terminate
    t = lanes.t
    return {i: lanes.x_tilde[i] for i, t_noise in enumerate(lanes.t_noise)
            if t - t_noise == p.t_thres and lanes.x_tilde[i] is not None
            and i not in fired and F[i] - lanes.f_tilde[i] > -p.f_thres}


def _descend(rule: _Rule, lanes: _Lanes, obj, G: np.ndarray, fired: list) -> None:
    """Gradient step; a kicked lane needs the gradient at its kicked iterate."""
    if fired:
        G = G.copy()
        G[fired] = _evaluate(lanes, obj, lanes.X[fired], rows=fired)[1]
    lanes.X = lanes.X - rule.eta * G


def _accelerate(rule: _Rule, lanes: _Lanes, obj, F: list, fired: list) -> None:
    """Nesterov update y = x + momentum*v, x' = y - eta*grad f(y), v' = x' - x.

    A kicked lane's velocity is zeroed first when the rule resets it.  With
    `certify` (theory pagd/pagdot), each lane whose segment certifies
    negative curvature,
        f(x) <= f(y) + <grad f(y), x - y> - (gamma/2) ||x - y||^2,
    with x its (possibly kicked) iterate, replaces (x', v') by
    negative-curvature exploitation from (x, v) at distance s, which _nce
    runs for all certified lanes together.  A zero velocity makes the
    certificate 0 <= 0, which counts as certified.
    """
    X, V = lanes.X, lanes.V
    if fired and rule.reset_velocity:
        V = V.copy()
        V[fired] = 0.0
    cert = rule.certify
    if cert is not None:
        f_x = list(F)
        if fired:
            for i, f in zip(fired, _evaluate(lanes, obj, X[fired], rows=fired)[0]):
                f_x[i] = f
    Y = X + rule.momentum * V
    f_y, g_y = _evaluate(lanes, obj, Y)
    lanes.X = Y - rule.eta * g_y
    lanes.V = lanes.X - X
    if cert is None:
        return
    D = X - Y
    hits = [i for i, f in enumerate(f_x)
            if f <= f_y[i] + float(g_y[i].dot(D[i])) - 0.5 * cert.gamma * float(D[i].dot(D[i]))]
    if hits:
        _nce(lanes, obj, X, V, hits, cert.s)
    lanes.nce_hits = hits


def _nce(lanes: _Lanes, obj, X: np.ndarray, V: np.ndarray, hits: list, s: float) -> None:
    """Negative-curvature exploitation on the lanes in `hits`, from their
    iterates X and velocities V (one row per lane); nce states the rule.

    Each lane's new iterate goes into lanes.X and a zero velocity into
    lanes.V, and n_nce counts it.  The probes of every lane are valued in
    one _evaluate call, plus points before minus points; a lane whose probe
    fails is marked failed and left as it is.
    """
    deltas = {}
    for i in hits:
        v = V[i]
        vnorm = _norm(v)
        if vnorm >= s:
            continue
        if vnorm == 0.0:
            rng, dim = lanes.rngs[i], v.shape[0]
            direction = rng.normal(dim)
            dnorm = _norm(direction)
            while dnorm == 0.0:
                direction = rng.normal(dim)
                dnorm = _norm(direction)
            deltas[i] = (s / dnorm) * direction
        else:
            deltas[i] = (s / vnorm) * v
    ends = {i: X[i] for i in hits if i not in deltas}
    if deltas:
        probed = list(deltas)
        delta = np.array(list(deltas.values()))
        k = len(probed)
        P = X[probed]
        probes = np.concatenate((P + delta, P - delta))
        plus, minus = probes[:k], probes[k:]
        f = _evaluate(lanes, obj, probes, rows=probed + probed)[0]
        ends.update((i, plus[j] if f[j] <= f[k + j] else minus[j]) for j, i in enumerate(probed))
    for i, x in ends.items():
        if i not in lanes.failed:
            lanes.X[i] = x
            lanes.V[i] = 0.0
            lanes.n_nce[i] += 1


def _step(rule: _Rule, lanes: _Lanes, obj, F: list, G: np.ndarray, norms: list,
          gate_obj: Optional[Objective] = None) -> dict:
    """Advance every lane by one step of `rule`, given f, the gradient and
    its norm at the incoming iterates.

    The gate reads the norm of gate_obj's gradient when gate_obj is given.
    Returns {lane: saved point} for the lanes that a theory-mode pgd/pgdot
    termination stops; their new iterate is to be discarded.
    """
    fired = []
    if rule.sampler is not None:
        if gate_obj is not None:
            norms = [_norm(g) for g in _evaluate(lanes, gate_obj, lanes.X)[1]]
        fired = _gate(rule, lanes, F, norms)
    saved = _terminations(rule, lanes, F, fired) if rule.terminate is not None else {}
    if rule.baseline is not None:
        lanes.X = baseline_step(lanes.hyper, lanes.X, G)
    elif rule.accelerated:
        _accelerate(rule, lanes, obj, F, fired)
    else:
        _descend(rule, lanes, obj, G, fired)
    return saved


# The benchmark's tracer rebinds optimizers.nce when it installs.
def nce(obj: Objective, x, v, s: float, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Negative-curvature exploitation.

    With enough momentum (||v|| >= s) the iterate is frozen and only the
    velocity is reset.  Otherwise the method probes distance s along +-v
    and keeps the better endpoint; a zero velocity probes s along a
    uniformly random unit direction instead.  Ties keep x + delta.
    The returned velocity is always zero.  A float overflow in a probe
    raises NumericalDomainError.  This is _nce on one lane; run_lanes
    calls _nce for theory pagd/pagdot, on all certified lanes at once.
    The two probes are valued by one oracle call.
    """
    X = as_vector(x, obj.dim)[None, :]
    V = as_vector(v, obj.dim)[None, :]
    lanes = _Lanes(X.copy(), [rng], V=V.copy())
    _nce(lanes, obj, X, V, [0], s)
    lanes.raise_failure()
    return lanes.X[0], lanes.V[0]


# ---------------------------------------------------------------------------
# Stochastic baselines
# ---------------------------------------------------------------------------


@dataclass
class BaselineHyper:
    """Hyperparameters plus accumulator state for the stochastic baselines."""

    kind: str
    lr: float = 0.01
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps_num: float = 1e-8
    rms_decay: float = 0.9
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    v_max: Optional[np.ndarray] = None
    step_count: int = 0

    def __post_init__(self):
        if self.kind not in BASELINE_ALGORITHMS:
            raise ContractViolation(
                f"unknown baseline {self.kind!r}, expected one of {BASELINE_ALGORITHMS}")


def baseline_step(hyper: BaselineHyper, x, grad) -> np.ndarray:
    """One update of sgd_momentum / adam / amsgrad / rmsprop.

    x is one iterate, or a (lanes x dim) stack of them stepping together,
    and grad has the same shape.  Accumulators live on `hyper` and are
    updated in place; adam and amsgrad use bias-corrected moment
    estimates, rmsprop does not.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim not in (1, 2):
        raise ContractViolation(f"expected a vector or a stack of vectors, got shape {xv.shape}")
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != xv.shape:
        raise ContractViolation(f"gradient shape {g.shape} != iterate shape {xv.shape}")
    if hyper.kind == "sgd_momentum":
        if hyper.v is None:
            hyper.v = np.zeros_like(xv)
        hyper.v = hyper.momentum * hyper.v - hyper.lr * g
        return xv + hyper.v
    if hyper.kind == "rmsprop":
        if hyper.v is None:
            hyper.v = np.zeros_like(xv)
        hyper.v = hyper.rms_decay * hyper.v + (1.0 - hyper.rms_decay) * g * g
        return xv - hyper.lr * g / (np.sqrt(hyper.v) + hyper.eps_num)
    # adam / amsgrad
    if hyper.m is None:
        hyper.m = np.zeros_like(xv)
        hyper.v = np.zeros_like(xv)
        hyper.v_max = np.zeros_like(xv)
    hyper.step_count += 1
    t = hyper.step_count
    hyper.m = hyper.beta1 * hyper.m + (1.0 - hyper.beta1) * g
    hyper.v = hyper.beta2 * hyper.v + (1.0 - hyper.beta2) * g * g
    m_hat = hyper.m / (1.0 - hyper.beta1 ** t)
    v_hat = hyper.v / (1.0 - hyper.beta2 ** t)
    if hyper.kind == "amsgrad":
        hyper.v_max = np.maximum(hyper.v_max, v_hat)
        v_hat = hyper.v_max
    return xv - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps_num)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


@dataclass
class AlgoConfig:
    """Which algorithm to run and with what knobs.

    Practical mode reads (eta, t_thres, g_thres, r, momentum, h, t_count)
    directly; theory mode derives its constants from
    (ell, rho, eps, c, delta, delta_f) and ignores the practical knobs
    except eta for the plain gd/agd baselines.
    """

    name: str
    mode: str = "practical"
    eta: float = 0.1
    t_thres: int = 10
    g_thres: float = 0.01
    r: float = 0.04
    momentum: float = 0.5
    h: float = math.inf
    t_count: Optional[int] = 200
    alpha: float = 5.0
    ell: float = 1.0
    rho: float = 1.0
    eps: float = 0.1
    c: float = 1.0
    delta: float = 0.1
    delta_f: float = 1.0
    reset_velocity_on_perturb: bool = False
    full_grad_gate: bool = False

    def __post_init__(self):
        if self.name not in ALGORITHMS:
            raise ContractViolation(f"unknown algorithm {self.name!r}, expected one of {ALGORITHMS}")
        if self.mode not in ("practical", "theory"):
            raise ContractViolation(f"mode must be 'practical' or 'theory', got {self.mode!r}")


@dataclass
class RunTrace:
    """Per-step record of a run: f, gradient norm, and event flags.

    Row t describes the iterate entering step t (before any perturbation at
    that step); the flags mark events that occurred during step t.  A final
    row records the last iterate.  For mini-batch runs f and the gradient
    are evaluated on that step's batch.
    """

    algorithm: str
    problem: str
    seed: int
    mode: str
    ts: list = field(default_factory=list)
    fs: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    perturbed: list = field(default_factory=list)
    nce: list = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    final_t: int = 0
    terminated: bool = False
    n_perturbations: int = 0
    n_nce: int = 0

    def add_row(self, t, f, grad_norm, perturbed, nce_flag):
        self.ts.append(int(t))
        self.fs.append(float(f))
        self.grad_norms.append(float(grad_norm))
        self.perturbed.append(int(perturbed))
        self.nce.append(int(nce_flag))

    def add_rows(self, ts, f, grad_norm):
        """One row (t, f, grad_norm) without events for each t in ts."""
        k = len(ts)
        self.ts.extend(ts)
        self.fs.extend([float(f)] * k)
        self.grad_norms.extend([float(grad_norm)] * k)
        self.perturbed.extend([0] * k)
        self.nce.extend([0] * k)

    def best_f(self) -> float:
        return min(self.fs) if self.fs else math.inf

    def steps_to_threshold(self, threshold: float) -> float:
        for t, f in zip(self.ts, self.fs):
            if f < threshold:
                return float(t)
        return math.inf


class RunError(RuntimeError):
    """A run aborted mid-flight; .trace holds everything recorded so far."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


class Batcher:
    """Hands out one mini-batch per step from a dataset-backed problem.

    `problem` must expose dim, n_samples, and batch_oracle(X, I), which
    answers row r of a parameter stack on index row r of I: run_lanes
    puts every lane's batch in one such call.  next_indices() gives the
    next batch's sample indices.  Batches walk a per-epoch shuffle drawn
    from the given stream, so a run is reproducible from (seed,
    batch_size) alone.  next_objective() also needs objective_for(indices),
    the loss on one batch.
    """

    def __init__(self, problem, batch_size: int, rng: RngStream):
        if int(batch_size) < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")
        self.problem = problem
        self.batch_size = int(batch_size)
        self.rng = rng
        self._order = None
        self._cursor = 0

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.problem.n_samples / self.batch_size)

    def next_indices(self) -> np.ndarray:
        n = self.problem.n_samples
        if self._order is None or self._cursor >= n:
            self._order = self.rng.permutation(n)
            self._cursor = 0
        idx = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return idx

    # The benchmark's tracer rebinds Batcher.next_objective when it installs.
    def next_objective(self) -> Objective:
        """The loss on the next batch."""
        return self.problem.objective_for(self.next_indices())


def _rule(algo: AlgoConfig, dim: int) -> _Rule:
    """Method table: the step rule of `algo` on a problem of dimension dim."""
    name = algo.name
    if name in BASELINE_ALGORITHMS:
        return _Rule(eta=algo.eta, baseline=name)
    sampler = None
    if name in PERTURBED_ALGORITHMS:
        sampler = "ball" if name in ("pgd", "pagd") else "occupation"
    weight = WeightFn(algo.alpha)
    if algo.mode == "theory" and sampler is not None:
        inputs = (dim, algo.ell, algo.rho, algo.eps, algo.c, algo.delta, algo.delta_f)
        if name in ("pgd", "pgdot"):
            return _pgdot_rule(derive_pgdot_params(*inputs), sampler, weight)
        return _pagdot_rule(derive_pagdot_params(*inputs), sampler, weight,
                            algo.reset_velocity_on_perturb)
    # practical mode, and gd/agd in either mode: explicit knobs, no
    # termination rule, no NCE
    return _Rule(eta=algo.eta, accelerated=name in ("agd", "pagd", "pagdot"),
                 momentum=algo.momentum, sampler=sampler, weight=weight,
                 g_thres=algo.g_thres, cooldown=algo.t_thres + 1, r=algo.r,
                 reset_velocity=algo.reset_velocity_on_perturb,
                 t_count=algo.t_count, h=algo.h)


@one_blas_thread()
def run_lanes(obj, algo: AlgoConfig, max_steps: int, seeds, x0s=None,
              record_every: int = 1, batchers=None, problem_name: str = "") -> list:
    """Run one algorithm from several seeds in lockstep, one lane per seed.

    Returns, in seed order, one RunTrace per lane, or a RunError holding
    the partial trace of a lane that failed.  Each lane's result equals
    run() on that seed alone, bit for bit: iterates, velocities and
    gradients are stacked (lanes x dim) arrays, while each lane keeps its
    own stream (seed, STREAM_ALGORITHM), occupation window, gate clock,
    termination state and trace.  A lane that terminates (theory-mode
    pgd/pgdot) or fails (NumericalDomainError or float overflow in an
    oracle call) drops out and the others go on.  Every product, in the
    oracle and in the step, runs on one BLAS thread (one_blas_thread).

    A lane whose rule is deterministic (gd or agd, either mode) on a
    shared Objective (no batchers) also retires early, when one step
    leaves its iterate, and for agd its velocity, unchanged bit for bit:
    every later step would repeat that step, so the lane gets each
    remaining recorded row (t, f, ||g||, 0, 0) and its final row
    (max_steps, f, ||g||) at once, with final_t = max_steps and
    terminated False, as if it had run to the end.

    x0s holds one start per lane (default zeros); batchers, when given,
    one Batcher per lane, with `obj` then the full objective or the
    dataset-backed problem (see run).  The batchers must share one problem
    and one batch size, and the problem must have batch_oracle(X, I):
    each oracle call of a step puts every lane's row on that lane's batch
    in one call of it (see Batcher).
    """
    if max_steps < 0:
        raise ContractViolation(f"max_steps must be >= 0, got {max_steps}")
    if record_every < 1:
        raise ContractViolation(f"record_every must be >= 1, got {record_every}")
    full_obj = obj if isinstance(obj, Objective) else None
    if batchers is None and full_obj is None:
        raise ContractViolation("run() needs an Objective, or a problem plus a Batcher")
    seeds = list(seeds)
    n = len(seeds)
    for name, per_lane in (("x0s", x0s), ("batchers", batchers)):
        if per_lane is not None and len(per_lane) != n:
            raise ContractViolation(f"{name} has {len(per_lane)} entries for {n} seeds")
    if n == 0:
        return []
    if batchers is not None:
        data = batchers[0].problem
        if any(b.problem is not data or b.batch_size != batchers[0].batch_size
               for b in batchers):
            raise ContractViolation("batchers must share one problem and one batch size")
        oracle, data_name = getattr(data, "batch_oracle", None), getattr(data, "name", "")
        if not callable(oracle):
            raise ContractViolation(
                "mini-batch runs need the problem's batch_oracle(X, I); "
                f"{type(data).__name__} has none")
    dim = obj.dim
    X = np.zeros((n, dim)) if x0s is None else np.array([as_vector(x0, dim) for x0 in x0s])
    rule = _rule(algo, dim)
    lanes = _Lanes(
        X, [derive_stream(seed, STREAM_ALGORITHM) for seed in seeds],
        windows=[OccupationWindow(dim, t_count=rule.t_count, h=rule.h)
                 if rule.sampler == "occupation" else None for _ in seeds],
        t_noise=[-rule.cooldown] * n,
        V=np.zeros_like(X) if rule.accelerated else None,
        hyper=None if rule.baseline is None else
        BaselineHyper(kind=rule.baseline, lr=algo.eta, momentum=algo.momentum))
    gate_obj = full_obj if algo.full_grad_gate and batchers is not None else None
    settles = rule.deterministic and batchers is None
    problem = problem_name or getattr(obj, "name", "")
    results = [RunTrace(algorithm=algo.name, problem=problem, seed=seed, mode=algo.mode)
               for seed in seeds]
    live = list(range(n))      # the seed index of each lane

    def step_objective():
        if batchers is None:
            return obj
        return _Batches(oracle, np.array([batchers[i].next_indices() for i in live]), data_name)

    def retire(done: dict, t: int) -> list:
        """Finish the lanes in done, {lane: (final_x, terminated)}, plus the
        failed ones; returns the positions of the lanes that go on."""
        done.update((p, (x, False)) for p, (_, x) in lanes.failed.items())
        for p, (x, terminated) in done.items():
            i = live[p]
            trace = results[i]
            trace.final_x = np.array(x, dtype=np.float64)
            trace.final_t = t
            trace.terminated = terminated
            trace.n_perturbations = lanes.n_perturbations[p]
            trace.n_nce = lanes.n_nce[p]
            if p in lanes.failed:
                exc = lanes.failed[p][0]
                results[i] = RunError(f"run aborted at step {len(trace.ts)}: {exc}", trace)
                results[i].__cause__ = exc
        keep = [p for p in range(len(live)) if p not in done]
        lanes.keep(keep)
        live[:] = [live[p] for p in keep]
        return keep

    t = 0
    for t in range(max_steps):
        lanes.t = t
        step_obj = step_objective()
        F, G = _evaluate(lanes, step_obj, lanes.X, checked=True)
        if lanes.failed:
            keep = retire({}, t)
            if not live:
                break
            F, G, step_obj = [F[p] for p in keep], G[keep], _on(step_obj, keep)
        norms = [math.sqrt(float(g.dot(g))) for g in G]
        X_in, V_in = lanes.X, lanes.V
        saved = _step(rule, lanes, step_obj, F, G, norms, gate_obj)
        recorded = t % record_every == 0
        if recorded or saved:
            for p, i in enumerate(live):
                if (recorded or p in saved) and p not in lanes.failed:
                    results[i].add_row(t, F[p], norms[p], p in lanes.fired, p in lanes.nce_hits)
        if saved or lanes.failed:
            retire({p: (x, True) for p, x in saved.items()}, t)
        elif settles:
            stalled = _unchanged(lanes.X, X_in, range(len(live)))
            if stalled and V_in is not None:
                stalled = _unchanged(lanes.V, V_in, stalled)
            if stalled:
                # every later step would repeat this one: give each such
                # lane its remaining rows and its final row now
                later = range((t // record_every + 1) * record_every, max_steps, record_every)
                for p in stalled:
                    results[live[p]].add_rows([*later, max_steps], F[p], norms[p])
                retire({p: (lanes.X[p], False) for p in stalled}, max_steps)
        if not live:
            break
    else:
        t = max_steps
        F, G = _evaluate(lanes, step_objective(), lanes.X, checked=True)
        keep = retire({}, t) if lanes.failed else range(len(live))
        for i, p in zip(live, keep):
            results[i].add_row(t, F[p], _norm(G[p]), 0, 0)
    retire({p: (x, False) for p, x in enumerate(lanes.X)}, t)
    return results


def run(obj, algo: AlgoConfig, max_steps: int, seed: int,
        x0=None, record_every: int = 1, batcher: Optional[Batcher] = None,
        problem_name: str = "") -> RunTrace:
    """Run one algorithm for max_steps (or until theory-mode termination).

    `obj` is an Objective, or a dataset-backed problem when `batcher` is
    given (each step then evaluates on that step's mini-batch).  All
    algorithm randomness comes from stream (seed, STREAM_ALGORITHM).  This
    is run_lanes with one lane; a failed run raises its RunError.
    """
    result = run_lanes(obj, algo, max_steps, [seed], None if x0 is None else [x0],
                       record_every, None if batcher is None else [batcher],
                       problem_name)[0]
    if isinstance(result, RunError):
        raise result
    return result
