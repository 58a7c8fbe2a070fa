"""Perturbed first-order optimizers with occupation-time-adapted noise.

Two families are implemented, each in two modes.

Theory mode reproduces the analyzed algorithms verbatim: perturbed gradient
descent (pgdot_step) with its improve-or-terminate rule, and the perturbed
accelerated method (pagdot_step) with negative-curvature exploitation (nce).
All constants are derived from the smoothness inputs by derive_pgdot_params /
derive_pagdot_params.

Practical mode is the configuration used by the experiment presets: the same
perturbation gate driven by explicit (eta, t_thres, g_thres, r) knobs, a
windowed occupation count, no termination rule, and for the accelerated
variants a plain Nesterov update y = x + momentum * v in place of the
theory-mode coupling (no NCE).

Every perturbed method passes through one gate, _gate: perturb when the
gradient norm is at most the threshold and at least `cooldown` steps have
passed since the last kick (t - t_noise >= cooldown).  The cooldown is
t_thres + 1 for theory pgd/pgdot and for practical mode, and script_t for
theory pagd/pagdot; a state starts at t_noise = -cooldown so a kick may
fire at t = 0.  The gradient step is _descend and the Nesterov update is
_accelerate, whichever mode calls them.

Swapping the occupation sampler for a uniform ball sampler turns the adapted
methods into the classical perturbed baselines (pgd, pagd) step for step.

run() drives any algorithm (including sgd/adam/amsgrad/rmsprop baselines)
for a step budget and returns a RunTrace of per-step f, gradient norm, and
event flags.  A method table, _stepper, maps each algorithm and mode to its
initial state and step; every step reports its events on that state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    STREAM_ALGORITHM,
    ContractViolation,
    NumericalDomainError,
    Objective,
    RngStream,
    as_vector,
    derive_stream,
    eval_objective,
)
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


@dataclass
class OptimizerState:
    """Mutable loop state shared by the step operations.

    perturbed_last, nce_last and the two counters are the event record:
    a driver reads them the same way after a step of any algorithm (they
    stay False and 0 where an event cannot happen).  `window` is None for
    methods that never read occupation counts.
    """

    x: np.ndarray
    rng: RngStream
    window: Optional[OccupationWindow] = None
    t: int = 0
    v: Optional[np.ndarray] = None
    t_noise: int = 0
    x_tilde: Optional[np.ndarray] = None
    f_tilde: Optional[float] = None
    perturbed_last: bool = False
    nce_last: bool = False
    n_perturbations: int = 0
    n_nce: int = 0


def make_pgdot_state(x0, params: PgdotParams, rng: RngStream,
                     t_count: Optional[int] = None, h: float = math.inf) -> OptimizerState:
    x = as_vector(x0)
    window = OccupationWindow(x.shape[0], t_count=t_count, h=h)
    # t_noise starts one cooldown back so a perturbation may fire at t=0
    return OptimizerState(x=x.copy(), rng=rng, window=window,
                          t_noise=-(params.t_thres + 1))


def make_pagdot_state(x0, params: PagdotParams, rng: RngStream,
                      t_count: Optional[int] = None, h: float = math.inf) -> OptimizerState:
    x = as_vector(x0)
    window = OccupationWindow(x.shape[0], t_count=t_count, h=h)
    return OptimizerState(x=x.copy(), rng=rng, window=window,
                          v=np.zeros_like(x), t_noise=-params.script_t)


def gd_step(obj: Objective, x, eta: float, grad: Optional[np.ndarray] = None) -> np.ndarray:
    """One plain gradient descent step x - eta * grad f(x)."""
    v = as_vector(x, obj.dim)
    g = obj.gradient(v) if grad is None else grad
    return v - eta * g


def _gate(state: OptimizerState, f_t: float, g: np.ndarray, g_thres: float,
          cooldown: int, r: float, sampler: str, weight: WeightFn) -> bool:
    """The perturbation gate of every perturbed method; True when it fired.

    Fires when ||g|| <= g_thres and t - t_noise >= cooldown.  Firing saves
    the incoming iterate and value as (x_tilde, f_tilde), stamps t_noise,
    and replaces state.x by a kick from `sampler`.  The incoming
    (pre-perturbation) iterate is then recorded into the window, with the
    occupation sampler only (the ball sampler never reads it), so the counts
    behind a kick at step t cover strictly earlier iterates.
    """
    if sampler not in ("occupation", "ball"):
        raise ContractViolation(f"unknown sampler {sampler!r}, expected 'occupation' or 'ball'")
    x_in = state.x
    fired = (float(np.linalg.norm(g)) <= g_thres
             and state.t - state.t_noise >= cooldown)
    if fired:
        state.x_tilde = x_in.copy()
        state.f_tilde = f_t
        state.t_noise = state.t
        if sampler == "occupation":
            state.x = sample_occupation_perturbation(x_in, state.window, r, weight, state.rng)
        else:
            state.x = sample_ball_perturbation(x_in, r, state.rng)
        state.n_perturbations += 1
    if sampler == "occupation":
        state.window.record(x_in)
    state.perturbed_last = fired
    return fired


def _descend(obj: Objective, state: OptimizerState, g_t: np.ndarray, eta: float) -> None:
    """Gradient step from state.x; a kicked iterate needs its own gradient."""
    g = np.asarray(obj.gradient(state.x), dtype=np.float64) if state.perturbed_last else g_t
    state.x = state.x - eta * g


def _accelerate(obj: Objective, state: OptimizerState, momentum: float,
                eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nesterov update y = x + momentum*v, x' = y - eta*grad f(y), v' = x' - x.

    Returns (y, grad f(y)) for the theory-mode curvature certificate.
    """
    x = state.x
    y = x + momentum * state.v
    g_y = np.asarray(obj.gradient(y), dtype=np.float64)
    state.x = y - eta * g_y
    state.v = state.x - x
    return y, g_y


def pgdot_step(obj: Objective, state: OptimizerState, params: PgdotParams,
               sampler: str = "occupation", weight: Optional[WeightFn] = None,
               fg: Optional[tuple[float, np.ndarray]] = None) -> Optional[np.ndarray]:
    """One step of the perturbed gradient method.

    Order of events at step t: the perturbation gate at the incoming iterate
    (cooldown t_thres + 1, see _gate), the improve-or-terminate check
    t_thres steps after a perturbation, then the gradient step from the
    (possibly perturbed) iterate.

    Returns the saved pre-perturbation point when the run terminates
    (insufficient decrease t_thres steps after a perturbation), else None.
    """
    weight = weight or WeightFn()
    f_t, g_t = eval_objective(obj, state.x) if fg is None else fg
    fired = _gate(state, f_t, g_t, params.g_thres, params.t_thres + 1, params.r,
                  sampler, weight)
    if (state.x_tilde is not None and not fired
            and state.t - state.t_noise == params.t_thres
            and f_t - state.f_tilde > -params.f_thres):
        return state.x_tilde
    _descend(obj, state, g_t, params.eta)
    state.t += 1
    return None


def nce(obj: Objective, x, v, s: float, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Negative-curvature exploitation.

    With enough momentum (||v|| >= s) the iterate is frozen and only the
    velocity is reset.  Otherwise the method probes distance s along +-v
    and keeps the better endpoint; a zero velocity probes s along a
    uniformly random unit direction instead.  Ties keep x + delta.
    The returned velocity is always zero.
    """
    xv = as_vector(x, obj.dim)
    vv = as_vector(v, obj.dim)
    zero = np.zeros_like(xv)
    vnorm = float(np.linalg.norm(vv))
    if vnorm >= s:
        return xv.copy(), zero
    if vnorm == 0.0:
        direction = rng.normal(obj.dim)
        dnorm = float(np.linalg.norm(direction))
        while dnorm == 0.0:
            direction = rng.normal(obj.dim)
            dnorm = float(np.linalg.norm(direction))
        delta = (s / dnorm) * direction
    else:
        delta = (s / vnorm) * vv
    f_plus = float(obj.value(xv + delta))
    f_minus = float(obj.value(xv - delta))
    x_next = xv + delta if f_plus <= f_minus else xv - delta
    return x_next, zero


def pagdot_step(obj: Objective, state: OptimizerState, params: PagdotParams,
                sampler: str = "occupation", weight: Optional[WeightFn] = None,
                reset_velocity: bool = False,
                fg: Optional[tuple[float, np.ndarray]] = None) -> None:
    """One step of the perturbed accelerated method.

    Gate: perturb when the gradient norm is at most eps and at least
    script_t steps have passed since the last perturbation (see _gate; the
    velocity is kept unless reset_velocity is set).  Then the accelerated
    update y = x + (1-theta) v, x' = y - eta * grad f(y), v' = x' - x,
    followed by the negative-curvature certificate
        f(x) <= f(y) + <grad f(y), x - y> - (gamma/2) ||x - y||^2
    which, when it holds, replaces (x', v') with nce(x, v, s).  A zero
    velocity makes the certificate 0 <= 0, which counts as triggered.
    """
    weight = weight or WeightFn()
    f_t, g_t = eval_objective(obj, state.x) if fg is None else fg
    state.nce_last = False
    f_x = f_t
    if _gate(state, f_t, g_t, params.eps, params.script_t, params.r, sampler, weight):
        f_x = float(obj.value(state.x))
        if reset_velocity:
            state.v = np.zeros_like(state.x)
    x, v = state.x, state.v
    y, g_y = _accelerate(obj, state, 1.0 - params.theta, params.eta)
    diff = x - y
    f_y = float(obj.value(y))
    if f_x <= f_y + float(g_y @ diff) - 0.5 * params.gamma * float(diff @ diff):
        state.x, state.v = nce(obj, x, v, params.s, state.rng)
        state.nce_last = True
        state.n_nce += 1
    state.t += 1


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

    Accumulators live on `hyper` and are updated in place; adam and amsgrad
    use bias-corrected moment estimates, rmsprop does not.
    """
    xv = as_vector(x)
    g = as_vector(grad, xv.shape[0])
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
    """Produces one objective per step from a dataset-backed problem.

    `problem` must expose dim, n_samples, and objective_for(indices).
    Batches walk a per-epoch shuffle drawn from the given stream, so a run
    is reproducible from (seed, batch_size) alone.
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

    def next_objective(self) -> Objective:
        n = self.problem.n_samples
        if self._order is None or self._cursor >= n:
            self._order = self.rng.permutation(n)
            self._cursor = 0
        idx = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.problem.objective_for(idx)


def _stepper(algo: AlgoConfig, x: np.ndarray, rng: RngStream,
             gate_obj: Optional[Objective]):
    """Method table: the initial state and the step function for `algo`.

    step(obj, f_t, g_t) advances the state by one step on `obj`, given f
    and the gradient at the incoming iterate.  It returns the saved point
    when a theory-mode pgd/pgdot run terminates, else None.  The practical
    gate reads gate_obj's gradient at the incoming iterate when gate_obj is
    given, else g_t.
    """
    name = algo.name
    sampler = "ball" if name in ("pgd", "pagd") else "occupation"
    weight = WeightFn(algo.alpha)
    if name in BASELINE_ALGORITHMS:
        hyper = BaselineHyper(kind=name, lr=algo.eta, momentum=algo.momentum)
        state = OptimizerState(x=x, rng=rng)

        def step(obj, f_t, g_t):
            state.x = baseline_step(hyper, state.x, g_t)
        return state, step

    if algo.mode == "theory" and name in PERTURBED_ALGORITHMS:
        inputs = (x.shape[0], algo.ell, algo.rho, algo.eps, algo.c, algo.delta, algo.delta_f)
        if name in ("pgd", "pgdot"):
            pg_params = derive_pgdot_params(*inputs)
            state = make_pgdot_state(x, pg_params, rng)

            def step(obj, f_t, g_t):
                return pgdot_step(obj, state, pg_params, sampler, weight, fg=(f_t, g_t))
            return state, step
        pa_params = derive_pagdot_params(*inputs)
        state = make_pagdot_state(x, pa_params, rng)

        def step(obj, f_t, g_t):
            pagdot_step(obj, state, pa_params, sampler, weight,
                        algo.reset_velocity_on_perturb, fg=(f_t, g_t))
        return state, step

    # practical mode, and gd/agd in either mode: explicit knobs, no
    # termination rule, no NCE
    perturbed = name in PERTURBED_ALGORITHMS
    accelerated = name in ("agd", "pagd", "pagdot")
    cooldown = algo.t_thres + 1
    window = (OccupationWindow(x.shape[0], t_count=algo.t_count, h=algo.h)
              if perturbed and sampler == "occupation" else None)
    state = OptimizerState(x=x, rng=rng, window=window, t_noise=-cooldown,
                           v=np.zeros_like(x) if accelerated else None)

    def step(obj, f_t, g_t):
        if perturbed:
            gate_g = g_t if gate_obj is None else gate_obj.gradient(state.x)
            _gate(state, f_t, gate_g, algo.g_thres, cooldown, algo.r, sampler, weight)
        if not accelerated:
            _descend(obj, state, g_t, algo.eta)
        else:
            if state.perturbed_last and algo.reset_velocity_on_perturb:
                state.v = np.zeros_like(state.x)
            _accelerate(obj, state, algo.momentum, algo.eta)
        state.t += 1
    return state, step


def run(obj, algo: AlgoConfig, max_steps: int, seed: int,
        x0=None, record_every: int = 1, batcher: Optional[Batcher] = None,
        problem_name: str = "") -> RunTrace:
    """Run one algorithm for max_steps (or until theory-mode termination).

    `obj` is an Objective, or a dataset-backed problem when `batcher` is
    given (each step then evaluates on that step's mini-batch).  All
    algorithm randomness comes from stream (seed, STREAM_ALGORITHM).
    """
    if max_steps < 0:
        raise ContractViolation(f"max_steps must be >= 0, got {max_steps}")
    if record_every < 1:
        raise ContractViolation(f"record_every must be >= 1, got {record_every}")
    full_obj = obj if isinstance(obj, Objective) else None
    if batcher is None and full_obj is None:
        raise ContractViolation("run() needs an Objective, or a problem plus a Batcher")
    dim = obj.dim
    x = np.zeros(dim) if x0 is None else as_vector(x0, dim).copy()
    gate_obj = full_obj if algo.full_grad_gate and batcher is not None else None
    state, step = _stepper(algo, x, derive_stream(seed, STREAM_ALGORITHM), gate_obj)
    trace = RunTrace(algorithm=algo.name, problem=problem_name or getattr(obj, "name", ""),
                     seed=seed, mode=algo.mode)

    def objective_for_step() -> Objective:
        return batcher.next_objective() if batcher is not None else full_obj

    t = 0
    saved = None
    try:
        for t in range(max_steps):
            step_obj = objective_for_step()
            f_t, g_t = eval_objective(step_obj, state.x)
            saved = step(step_obj, f_t, g_t)
            if saved is not None or t % record_every == 0:
                trace.add_row(t, f_t, np.linalg.norm(g_t), state.perturbed_last,
                              state.nce_last)
            if saved is not None:
                trace.terminated = True
                break
        else:
            t = max_steps
            f_fin, g_fin = eval_objective(objective_for_step(), state.x)
            trace.add_row(max_steps, f_fin, np.linalg.norm(g_fin), 0, 0)
    except NumericalDomainError as exc:
        raise RunError(f"run aborted at step {len(trace.ts)}: {exc}", trace) from exc
    finally:
        # every exit, RunError included, leaves the trace complete up to t
        trace.final_x = np.asarray(state.x if saved is None else saved, dtype=np.float64)
        trace.final_t = t
        trace.n_perturbations = state.n_perturbations
        trace.n_nce = state.n_nce
    return trace
