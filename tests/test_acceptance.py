"""End-to-end acceptance gates for the toolkit.

Thirteen checks, each with a stated tolerance and a runtime budget. Every
test finishes with a single printed PASS line carrying the measured
quantities, so `pytest -s tests/test_acceptance.py` doubles as a health
report. The checks cover analytic gradients against finite differences,
the closed-form parameter derivations, reduction of the occupation-time
methods to their ball-noise baselines, saddle escape at desk scale, the
bundled experiment presets, random-walk behavior, classical descent
properties, the mini-batch network benchmark, artifact determinism, and
the adapted methods against their own controls, on the staircase, phase
retrieval and the network plateau.
"""

import dataclasses
import hashlib
import json
import math
import os
import time
from typing import Optional

import numpy as np
import pytest

from otgrad.analysis import fd_gradient
from otgrad.benchmarks import make_problem
from otgrad.core import (
    Objective,
    RngStream,
    STREAM_ALGORITHM,
    STREAM_INIT,
    derive_stream,
)
from otgrad.harness import (
    OUTPUT_ENV_VAR,
    PRESETS,
    initial_point,
    parse_config,
    read_trace_csv,
    run_experiment,
)
from otgrad.optimizers import (
    AlgoConfig,
    PagdotParams,
    PgdotParams,
    RunError,
    derive_pagdot_params,
    derive_pgdot_params,
    run,
    run_lanes,
    steps_per_epoch,
)
from otgrad.walks import (
    WeightFn,
    localization_metric,
    msd_exponent,
    path_range,
    simulate,
)

LN10 = float(np.log(10.0))


def saddle_objective() -> Objective:
    """f(x) = (x1^2 - x2^2) / 2, the minimal strict saddle."""
    return Objective(
        dim=2,
        value=lambda x: 0.5 * (x[0] * x[0] - x[1] * x[1]),
        gradient=lambda x: np.array([x[0], -x[1]]),
        name="quadratic_saddle",
    )


def _run_preset(name: str, out_root) -> tuple:
    """Run a bundled preset widened to five seeds; returns (dir, seconds)."""
    text = PRESETS[name].replace("seeds = 0 1 2", "seeds = 0 1 2 3 4")
    assert "seeds = 0 1 2 3 4" in text
    config = parse_config(text)
    prev = os.environ.get(OUTPUT_ENV_VAR)
    os.environ[OUTPUT_ENV_VAR] = str(out_root)
    t0 = time.perf_counter()
    try:
        out_dir = run_experiment(config)
    finally:
        if prev is None:
            del os.environ[OUTPUT_ENV_VAR]
        else:
            os.environ[OUTPUT_ENV_VAR] = prev
    return out_dir, time.perf_counter() - t0


@pytest.fixture(scope="module")
def example1_run(tmp_path_factory):
    return _run_preset("example1", tmp_path_factory.mktemp("accept_ex1"))


@pytest.fixture(scope="module")
def example3_run(tmp_path_factory):
    return _run_preset("example3_pr", tmp_path_factory.mktemp("accept_ex3"))


@pytest.fixture(scope="module")
def saddle_gd_trace():
    """Plain GD, eta = 1.0, 2000 steps from the near-saddle start."""
    obj = saddle_objective()
    cfg = AlgoConfig(name="gd", mode="practical", eta=1.0)
    return run(obj, cfg, 2000, 0, x0=np.array([1e-6, 0.0]))


def test_criterion_01_gradient_correctness():
    """Analytic gradients match central differences on every family."""
    t0 = time.perf_counter()
    families = [
        ("staircase", {}, 1e-5),
        ("airy_regression", {}, 1e-5),
        ("reglq", {}, 1e-5),
        ("phase_retrieval", {}, 1e-5),
        ("mlp", {"dataset": "synthetic_blobs", "n_samples": 50, "n_hidden": 4}, 1e-4),
    ]
    rng = derive_stream(0, STREAM_INIT)
    worst = {}
    for name, options, tol in families:
        bundle = make_problem(name, data_seed=0, **options)
        obj = bundle.objective
        worst[name] = 0.0
        for _ in range(20):
            x = bundle.default_init(rng) + 0.5 * rng.normal(bundle.dim)
            ga = obj.gradient(x)
            gfd = fd_gradient(obj, x)
            rel = np.linalg.norm(ga - gfd) / max(np.linalg.norm(gfd), 1e-8)
            worst[name] = max(worst[name], float(rel))
            assert rel < tol, f"{name}: relative gradient error {rel:.3e} >= {tol}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f} s, budget 10 s"
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    print(f"criterion 01 PASS: max relative gradient errors {detail} "
          f"({elapsed:.1f} s)")


def _reference_pgdot_params(d, ell, rho, eps, c, delta, delta_f):
    """Independent restatement of the perturbed-descent constants."""
    chi = 3.0 * max(math.log(d * ell * delta_f / (c * eps * eps * delta)), 4.0)
    eta = c / ell
    r = math.sqrt(c) * eps / (chi * chi * ell)
    g_thres = math.sqrt(c) * eps / (chi * chi)
    f_thres = (c / chi ** 3) * math.sqrt(eps ** 3 / rho)
    t_thres = int(math.ceil(chi * ell / (c * c * math.sqrt(rho * eps))))
    return chi, eta, r, g_thres, f_thres, t_thres


def _reference_pagdot_params(d, ell, rho, eps, c, delta, delta_f):
    """Independent restatement of the accelerated-method constants."""
    chi = max(math.log(d * ell * delta_f / (rho * eps * delta)), 1.0)
    kappa = ell / math.sqrt(rho * eps)
    eta = 1.0 / (4.0 * ell)
    theta = 1.0 / (4.0 * math.sqrt(kappa))
    gamma = theta * theta / eta
    s = gamma / (4.0 * rho)
    r = eta * eps / (chi ** 5 * c ** 8)
    script_t = int(math.ceil(chi * c * math.sqrt(kappa)))
    return chi, kappa, eta, theta, gamma, s, r, script_t


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_criterion_02_parameter_formulas():
    """Derivations reproduce worked examples exactly and match an
    independent restatement on random admissible inputs."""
    t0 = time.perf_counter()

    got = derive_pgdot_params(d=2, ell=1.0, rho=1.0, eps=1.0, c=1.0,
                              delta=0.1, delta_f=1.0)
    assert got == PgdotParams(chi=12.0, eta=1.0, r=1.0 / 144.0,
                              g_thres=1.0 / 144.0, f_thres=1.0 / 1728.0,
                              t_thres=12)

    got = derive_pagdot_params(d=2, ell=1.0, rho=1.0, eps=1.0 / 16.0, c=2.0,
                               delta=1.0, delta_f=math.e / 32.0)
    assert got == PagdotParams(chi=1.0, kappa=4.0, eta=0.25, theta=0.125,
                               gamma=0.0625, s=0.015625, r=1.0 / 16384.0,
                               script_t=4, eps=1.0 / 16.0)

    rng = RngStream(777, 0)
    for _ in range(100):
        d = 1 + int(rng.uniform() * 50)
        ell = math.exp((rng.uniform() - 0.5) * 4.0)
        rho = math.exp((rng.uniform() - 0.5) * 4.0)
        c = math.exp((rng.uniform() - 0.5) * 2.0)
        delta = 0.01 + 0.98 * rng.uniform()
        delta_f = math.exp((rng.uniform() - 0.5) * 4.0)
        # keep eps <= 0.9 * ell^2 / rho so the inputs stay in the
        # regime the derivations are meant for
        eps = (0.01 + 0.89 * rng.uniform()) * ell * ell / rho

        p = derive_pgdot_params(d, ell, rho, eps, c, delta, delta_f)
        chi, eta, r, g_thres, f_thres, t_thres = _reference_pgdot_params(
            d, ell, rho, eps, c, delta, delta_f)
        assert _rel(p.chi, chi) <= 1e-12
        assert _rel(p.eta, eta) <= 1e-12
        assert _rel(p.r, r) <= 1e-12
        assert _rel(p.g_thres, g_thres) <= 1e-12
        assert _rel(p.f_thres, f_thres) <= 1e-12
        assert p.t_thres == t_thres

        q = derive_pagdot_params(d, ell, rho, eps, c, delta, delta_f)
        chi, kappa, eta, theta, gamma, s, r, script_t = _reference_pagdot_params(
            d, ell, rho, eps, c, delta, delta_f)
        assert _rel(q.chi, chi) <= 1e-12
        assert _rel(q.kappa, kappa) <= 1e-12
        assert _rel(q.eta, eta) <= 1e-12
        assert _rel(q.theta, theta) <= 1e-12
        assert _rel(q.gamma, gamma) <= 1e-12
        assert _rel(q.s, s) <= 1e-12
        assert _rel(q.r, r) <= 1e-12
        assert q.script_t == script_t
        assert q.eps == eps

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"parameter check took {elapsed:.2f} s, budget 1 s"
    print(f"criterion 02 PASS: worked examples exact, 100 random inputs "
          f"within 1e-12 ({elapsed:.2f} s)")


def _reference_perturbed_descent(kind, obj, x0, seed, steps, eta, t_thres,
                                 g_thres, r, momentum):
    """Direct transcription of PGD / PAGD with uniform-ball noise."""
    rng = derive_stream(seed, STREAM_ALGORITHM)
    x = np.array(x0, dtype=np.float64)
    v = np.zeros_like(x)
    t_noise = -t_thres - 1
    fs = []
    for t in range(steps):
        g = obj.gradient(x)
        fs.append(float(obj.value(x)))
        if np.linalg.norm(g) <= g_thres and t - t_noise > t_thres:
            t_noise = t
            direction = rng.normal(obj.dim)
            radius = r * rng.uniform() ** (1.0 / obj.dim)
            x = x + direction * (radius / np.linalg.norm(direction))
            if kind == "pgd":
                g = obj.gradient(x)
        if kind == "pgd":
            x = x - eta * g
        else:
            y = x + momentum * v
            x_next = y - eta * obj.gradient(y)
            v = x_next - x
            x = x_next
    fs.append(float(obj.value(x)))
    return fs, x


def test_criterion_03_baseline_reduction():
    """With the ball sampler the adapted methods reproduce plain PGD and
    PAGD step for step."""
    t0 = time.perf_counter()
    obj = saddle_objective()
    x0 = np.array([1e-6, 0.0])
    for kind in ("pgd", "pagd"):
        for seed in (0, 1, 2):
            cfg = AlgoConfig(name=kind, mode="practical", eta=0.1, t_thres=5,
                             g_thres=0.01, r=0.01, momentum=0.5)
            tr = run(obj, cfg, 60, seed, x0=x0)
            fs, x_final = _reference_perturbed_descent(
                kind, obj, x0, seed, 60, eta=0.1, t_thres=5, g_thres=0.01,
                r=0.01, momentum=0.5)
            assert tr.perturbed[0] == 1, "expected a perturbation at step 0"
            assert tr.fs == fs, f"{kind} seed {seed}: f trace differs"
            assert np.array_equal(tr.final_x, x_final), \
                f"{kind} seed {seed}: final iterate differs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"reduction check took {elapsed:.1f} s, budget 5 s"
    print(f"criterion 03 PASS: pgd and pagd traces bit-identical to direct "
          f"transcriptions, 3 seeds each ({elapsed:.2f} s)")


def test_criterion_04_saddle_escape(saddle_gd_trace):
    """Theory-mode perturbed descent leaves the quadratic saddle within
    t_thres steps of the first perturbation; plain GD stays parked."""
    t0 = time.perf_counter()
    obj = saddle_objective()
    # with d=2 and unit smoothness constants: t_thres = 12, f_thres = 1/1728
    cfg = AlgoConfig(name="pgdot", mode="theory", ell=1.0, rho=1.0, eps=1.0,
                     c=1.0, delta=0.1, delta_f=1.0)
    t_thres, f_thres = 12, 1.0 / 1728.0
    escapes = 0
    for seed in range(30):
        tr = run(obj, cfg, 40, seed, x0=np.array([1e-6, 0.0]))
        pert = np.nonzero(np.asarray(tr.perturbed) == 1)[0]
        ok = False
        if pert.size:
            i0 = int(pert[0])
            # row i0 records the pre-perturbation iterate; rows are per step
            if i0 + t_thres < len(tr.fs):
                ok = tr.fs[i0 + t_thres] - tr.fs[i0] <= -f_thres
        escapes += int(ok)
    assert escapes >= 27, f"only {escapes}/30 seeds escaped"

    drift = max(abs(f - saddle_gd_trace.fs[0]) for f in saddle_gd_trace.fs)
    assert drift < 1e-6, f"plain GD drifted {drift:.2e} from its start"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"escape check took {elapsed:.1f} s, budget 30 s"
    print(f"criterion 04 PASS: {escapes}/30 seeds escaped by f_thres within "
          f"{t_thres} steps; GD drift {drift:.1e} over 2000 steps "
          f"({elapsed:.1f} s)")


def _first_step_below(cols, level):
    hits = np.nonzero(cols["f"] < level)[0]
    return float(cols["t"][hits[0]]) if hits.size else math.inf


def test_criterion_05_staircase_preset(example1_run):
    """On the plateau benchmark the adapted methods descend well below
    GD, and the accelerated variant is no slower to reach f < 0.3."""
    out_dir, build_s = example1_run
    t0 = time.perf_counter()
    finals = {}
    steps03 = {}
    for algo in ("gd", "pgdot", "pagdot"):
        finals[algo] = []
        steps03[algo] = []
        for seed in range(5):
            cols = read_trace_csv(out_dir / f"trace_{algo}_seed{seed}.csv")
            finals[algo].append(float(cols["f"][-1]))
            steps03[algo].append(_first_step_below(cols, 0.3))
    med = {k: float(np.median(v)) for k, v in finals.items()}
    assert med["pgdot"] < med["gd"] - 0.1, \
        f"median pgdot {med['pgdot']:.3g} not below gd {med['gd']:.3g} - 0.1"
    assert med["pagdot"] < med["gd"] - 0.1, \
        f"median pagdot {med['pagdot']:.3g} not below gd {med['gd']:.3g} - 0.1"
    med_steps = {k: float(np.median(v)) for k, v in steps03.items()}
    assert med_steps["pagdot"] <= med_steps["pgdot"], \
        f"pagdot median {med_steps['pagdot']} slower than pgdot {med_steps['pgdot']}"
    elapsed = build_s + (time.perf_counter() - t0)
    assert elapsed < 120.0, f"preset check took {elapsed:.0f} s, budget 120 s"
    print(f"criterion 05 PASS: median finals gd={med['gd']:.3g} "
          f"pgdot={med['pgdot']:.3g} pagdot={med['pagdot']:.3g}; median "
          f"steps to f<0.3 pagdot={med_steps['pagdot']:.0f} <= "
          f"pgdot={med_steps['pgdot']:.0f} ({elapsed:.1f} s)")


def test_criterion_06_phase_retrieval_preset(example3_run):
    """On phase retrieval the adapted method halves the starting loss
    within the step budget while GD does not, in at least 4 of 5 seeds."""
    out_dir, build_s = example3_run
    t0 = time.perf_counter()
    summary = json.loads((out_dir / "summary.json").read_text())
    rows = {(r["algorithm"], r["seed"]): r for r in summary["runs"]}

    def steps(algo, seed):
        v = rows[(algo, seed)]["steps_to_threshold"]
        return math.inf if v == "inf" else float(v)

    wins = 0
    detail = []
    for seed in range(5):
        pg, gd = steps("pgdot", seed), steps("gd", seed)
        wins += int(math.isfinite(pg) and math.isinf(gd))
        detail.append(f"seed{seed}:pgdot={pg:.0f},gd={gd:.0f}")
    assert wins >= 4, f"pgdot beat gd to half the starting loss in only {wins}/5 seeds"
    elapsed = build_s + (time.perf_counter() - t0)
    assert elapsed < 120.0, f"preset check took {elapsed:.0f} s, budget 120 s"
    print(f"criterion 06 PASS: {wins}/5 seeds [{' '.join(detail)}] "
          f"({elapsed:.1f} s)")


def test_criterion_07_walk_non_localization():
    """The repelling walk spreads out in every seed; the reinforced walk
    localizes by comparison."""
    t0 = time.perf_counter()
    weight = WeightFn(5.0)
    rep_loc, reinf_loc, ranges = [], [], []
    for seed in range(50):
        path = simulate("repelling", weight, 100000, seed)
        r, loc = path_range(path), localization_metric(path)
        assert r > 20, f"seed {seed}: repelling range {r} <= 20"
        assert loc < 0.9, f"seed {seed}: repelling localization {loc:.3f} >= 0.9"
        ranges.append(r)
        rep_loc.append(loc)
    for seed in range(50):
        reinf_loc.append(localization_metric(
            simulate("reinforced", weight, 100000, seed)))
    med_rep = float(np.median(rep_loc))
    med_reinf = float(np.median(reinf_loc))
    assert med_reinf > med_rep, \
        f"reinforced median {med_reinf:.3f} not above repelling {med_rep:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"walk check took {elapsed:.0f} s, budget 60 s"
    print(f"criterion 07 PASS: repelling range >= {min(ranges)}, localization "
          f"<= {max(rep_loc):.4f} in all 50 seeds; medians reinforced "
          f"{med_reinf:.3f} > repelling {med_rep:.3f} ({elapsed:.1f} s)")


def test_criterion_08_msd_exponents():
    """Constant weights give diffusive scaling (hard); linear repelling
    weights look super-diffusive (soft, logged only)."""
    t0 = time.perf_counter()
    slope0, se0 = msd_exponent("repelling", WeightFn(0.0), 100000, 500, 5000)
    assert abs(slope0 - 1.0) <= 0.05, \
        f"constant-weight MSD exponent {slope0:.4f} outside 1.00 +/- 0.05"

    slope1, se1 = msd_exponent("repelling", WeightFn(1.0), 100000, 500, 5000)
    soft_ok = 1.1 < slope1 < 1.5
    if not soft_ok:
        # the super-diffusive rate is conjectural, so this half of the
        # check reports but never fails the build
        print(f"criterion 08 SOFT-CHECK NOTE: linear-weight MSD exponent "
              f"{slope1:.4f} (stderr {se1:.4f}) outside (1.1, 1.5)")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"MSD check took {elapsed:.0f} s, budget 120 s"
    soft_msg = "in" if soft_ok else "OUTSIDE (soft, not enforced)"
    print(f"criterion 08 PASS: constant-weight exponent {slope0:.4f} "
          f"(hard band 1.00 +/- 0.05); linear-weight exponent {slope1:.4f} "
          f"{soft_msg} (1.1, 1.5) ({elapsed:.1f} s)")


def gd_iterates(obj, x0, eta, steps):
    """x_0, ..., x_steps of the engine's gd, each a one-step run from the last."""
    xs = [np.asarray(x0, dtype=np.float64)]
    algo = AlgoConfig(name="gd", eta=eta)
    for _ in range(steps):
        xs.append(run(obj, algo, 1, 0, x0=xs[-1]).final_x)
    return xs


def test_criterion_09_descent_properties(saddle_gd_trace, example1_run,
                                         example3_run):
    """Classical descent facts hold on the implementation's own GD."""
    t0 = time.perf_counter()

    # (a) monotone approach on six smooth one-dimensional instances
    instances = [
        (lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0), 0.0, 0.4),
        (lambda x: x * x, lambda x: 2.0 * x, 3.0, 0.45),
        (lambda x: (x - 2.0) ** 4, lambda x: 4.0 * (x - 2.0) ** 3, 0.0, 0.02),
        (np.cosh, np.sinh, 2.0, 0.2),
        (lambda x: np.logaddexp(0.0, x), lambda x: 1.0 / (1.0 + np.exp(-x)),
         3.0, 1.0),
        (lambda x: x * x + 0.1 * np.sin(5.0 * x),
         lambda x: 2.0 * x + 0.5 * np.cos(5.0 * x), 1.5, 0.2),
    ]
    for fv, fg, x0, eta in instances:
        obj = Objective(dim=1,
                        value=lambda x, fv=fv: float(fv(x[0])),
                        gradient=lambda x, fg=fg: np.array([fg(x[0])]))
        steps = np.diff([float(x[0]) for x in gd_iterates(obj, [x0], eta, 60)])
        assert not (np.any(steps > 0) and np.any(steps < 0)), \
            f"iterates not monotone from x0={x0}"

    # (b) linear convergence rate on random strongly convex quadratics
    for k in range(5):
        rng = RngStream(100 + k, 0)
        d = 2 + k
        eigs = np.array([0.5 + 3.5 * rng.uniform() for _ in range(d)])
        alpha, ell = float(eigs.min()), float(eigs.max())
        q, _ = np.linalg.qr(np.stack([rng.normal(d) for _ in range(d)]))
        a_mat = q @ np.diag(eigs) @ q.T
        x_star = rng.normal(d)
        obj = Objective(
            dim=d,
            value=lambda x, A=a_mat, s=x_star: float(0.5 * (x - s) @ A @ (x - s)),
            gradient=lambda x, A=a_mat, s=x_star: A @ (x - s))
        xs = gd_iterates(obj, x_star + rng.normal(d), 1.0 / ell, 200)
        r0 = np.linalg.norm(xs[0] - x_star)
        rate = 1.0 - alpha / ell
        for t, x in enumerate(xs[1:], start=1):
            bound = rate ** t * r0 + 1e-12 * r0
            dist = np.linalg.norm(x - x_star)
            assert dist <= bound, \
                f"instance {k} step {t}: {dist:.3e} above bound {bound:.3e}"

    # (c) per-step sufficient decrease on every recorded GD trajectory
    def check_decrease(fs, gs, ts, eta, label):
        fs, gs, ts = np.asarray(fs), np.asarray(gs), np.asarray(ts)
        assert np.all(np.diff(ts) == 1), f"{label}: rows are not consecutive"
        lhs = np.diff(fs)
        rhs = -(eta / 2.0) * gs[:-1] ** 2 + 1e-10
        worst = float(np.max(lhs - rhs))
        assert worst <= 0.0, f"{label}: decrease violated by {worst:.3e}"

    check_decrease(saddle_gd_trace.fs, saddle_gd_trace.grad_norms,
                   saddle_gd_trace.ts, 1.0, "saddle gd")
    for seed in range(5):
        cols = read_trace_csv(example1_run[0] / f"trace_gd_seed{seed}.csv")
        check_decrease(cols["f"], cols["grad_norm"], cols["t"], 0.1,
                       f"staircase gd seed {seed}")
        cols = read_trace_csv(example3_run[0] / f"trace_gd_seed{seed}.csv")
        check_decrease(cols["f"], cols["grad_norm"], cols["t"], 0.001,
                       f"phase retrieval gd seed {seed}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"property suite took {elapsed:.1f} s, budget 10 s"
    print(f"criterion 09 PASS: 6 monotone instances, 5 linear-rate quadratics "
          f"over 200 steps, per-step decrease on 11 GD traces ({elapsed:.1f} s)")


PLATEAU_SEEDS = (0, 1, 2)
PLATEAU_BATCH = 128
PLATEAU_KNOBS = dict(mode="practical", eta=0.01, t_thres=10, g_thres=0.1, r=0.5,
                     momentum=0.9, h=1e12, t_count=50)


@pytest.fixture(scope="module")
def plateau_problem():
    """Criterion 10's network: 32 sigmoid units on the synthetic blobs."""
    return make_problem("mlp", data_seed=0, dataset="synthetic_blobs", n_hidden=32).problem


def _plateau_finals(problem, cfg: AlgoConfig, cells: list) -> list:
    """Full-data loss after 800 epochs of cfg on each (init_mean, seed)
    cell, the cells one lane group on mini-batches of PLATEAU_BATCH."""
    steps_per = steps_per_epoch(problem, PLATEAU_BATCH)
    x0s = [problem.init_params(derive_stream(seed, STREAM_INIT), mean=init_mean, std=0.1)
           for init_mean, seed in cells]
    traces = run_lanes(problem, cfg, 800 * steps_per, [seed for _, seed in cells], x0s,
                       record_every=steps_per, batch_size=PLATEAU_BATCH)
    for cell, tr in zip(cells, traces):
        assert not isinstance(tr, RunError), f"{cfg.name} {cell}: {tr}"
    full = problem.full_objective()
    return [float(full.value(tr.final_x)) for tr in traces]


def test_criterion_10_network_plateau(plateau_problem):
    """On the synthetic-blob network, saturated initialization strands
    the classical optimizers at the uniform-prediction plateau while the
    occupation-time methods break out; centered initialization frees
    everyone.  Each algorithm's six cells (two inits x three seeds) run as
    one lane group, each lane equal to its run alone."""
    t0 = time.perf_counter()
    baselines = ("sgd_momentum", "adam", "amsgrad", "rmsprop")
    adapted = ("pgdot", "pagdot")
    cells = [(init_mean, seed) for init_mean in (-1.0, 0.0) for seed in PLATEAU_SEEDS]

    finals = {}
    for name in baselines + adapted:
        losses = _plateau_finals(plateau_problem, AlgoConfig(name=name, **PLATEAU_KNOBS), cells)
        finals.update(((init_mean, seed, name), loss)
                      for (init_mean, seed), loss in zip(cells, losses))

    for name in baselines:
        for seed in PLATEAU_SEEDS:
            loss = finals[(-1.0, seed, name)]
            assert loss > LN10 - 0.2, \
                f"{name} seed {seed} left the plateau: loss {loss:.4f}"
    for name in adapted:
        escaped = sum(finals[(-1.0, seed, name)] < LN10 - 0.5
                      for seed in PLATEAU_SEEDS)
        assert escaped >= 2, f"{name} escaped in only {escaped}/3 seeds"
    for (init_mean, seed, name), loss in finals.items():
        if init_mean == 0.0:
            assert loss < LN10 - 0.5, \
                f"{name} seed {seed} stuck from centered init: loss {loss:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"network check took {elapsed:.0f} s, budget 600 s"
    stuck = max(finals[(-1.0, s, n)] for n in baselines for s in PLATEAU_SEEDS)
    pg = [finals[(-1.0, s, "pgdot")] for s in PLATEAU_SEEDS]
    pa = [finals[(-1.0, s, "pagdot")] for s in PLATEAU_SEEDS]
    print(f"criterion 10 PASS: saturated init keeps baselines at "
          f"loss <= {stuck:.4f} (plateau ln10 = {LN10:.4f}); pgdot finals "
          f"{[f'{v:.3f}' for v in pg]}, pagdot {[f'{v:.4f}' for v in pa]}; "
          f"centered init frees all six ({elapsed:.0f} s)")


_DETERMINISM_CONFIG = """
[problem]
name = staircase
dim = 2
n_plateaus = 2
data_seed = 0

[run]
seeds = 0 1
max_steps = 40
record_every = 1

[optimizer]
mode = practical
eta = 0.1
t_thres = 5
g_thres = 0.01
r = 0.04
momentum = 0.5
h = 0.04
t_count = 50

[algorithm gd]

[algorithm pgdot]
"""


def _digest_dir(out_dir):
    digests = {}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_11_determinism(tmp_path):
    """Reruns are byte-identical and grid order does not matter."""
    t0 = time.perf_counter()
    prev = os.environ.get(OUTPUT_ENV_VAR)
    os.environ[OUTPUT_ENV_VAR] = str(tmp_path)
    try:
        config = parse_config(_DETERMINISM_CONFIG)
        dir1 = run_experiment(config)
        first = _digest_dir(dir1)
        dir2 = run_experiment(parse_config(_DETERMINISM_CONFIG))
        assert dir2 == dir1
        assert _digest_dir(dir2) == first, "rerun produced different bytes"

        swapped = _DETERMINISM_CONFIG.replace(
            "[algorithm gd]\n\n[algorithm pgdot]",
            "[algorithm pgdot]\n\n[algorithm gd]")
        assert swapped != _DETERMINISM_CONFIG
        config_swapped = parse_config(swapped)
        assert config_swapped.config_hash == config.config_hash
        dir3 = run_experiment(config_swapped)
        assert dir3 == dir1
        assert _digest_dir(dir3) == first, "grid order changed the artifacts"
    finally:
        if prev is None:
            del os.environ[OUTPUT_ENV_VAR]
        else:
            os.environ[OUTPUT_ENV_VAR] = prev
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"determinism check took {elapsed:.0f} s, budget 60 s"
    print(f"criterion 11 PASS: {len(first)} artifacts byte-identical across "
          f"rerun and permuted grid ({elapsed:.1f} s)")


# Fixed before any run of criterion 12, and never to be re-picked: the
# seeds at which the adapted methods were first compared with their controls.
PAIRED_SEEDS = list(range(10))


def _steps_to_threshold_per_cell(preset: str, threshold: Optional[float]) -> dict:
    """Per-seed steps to the threshold of each adapted method and its two
    controls on a preset's problem, knobs, default init and step budget.
    threshold None means half the objective at each seed's start."""
    config = parse_config(PRESETS[preset])
    bundle = make_problem(config.problem_name, data_seed=config.data_seed,
                          **config.problem_options)
    x0s = [initial_point(bundle, config, seed) for seed in PAIRED_SEEDS]
    levels = [threshold if threshold is not None else 0.5 * bundle.objective.value(x0)
              for x0 in x0s]
    knobs = {algo.name: algo for algo in config.algorithms}
    assert knobs["pgdot"].alpha == knobs["pagdot"].alpha == 5.0
    cells = {}
    for adapted, ball in (("pgdot", "pgd"), ("pagdot", "pagd")):
        cells[ball] = knobs[ball]
        cells[f"{adapted} a0"] = dataclasses.replace(knobs[adapted], alpha=0.0)
        cells[f"{adapted} a5"] = knobs[adapted]
    steps = {}
    for label, algo in cells.items():
        traces = run_lanes(bundle.objective, algo, config.max_steps, PAIRED_SEEDS, x0s)
        steps[label] = [trace.steps_to_threshold(level) for trace, level in zip(traces, levels)]
    return steps


def test_criterion_12_adaptation_beats_its_controls():
    """On example1 (f < 0.3) and example3_pr (half the starting f), pgdot
    and pagdot at alpha = 5 reach the threshold in fewer median steps,
    over seeds 0-9, than their ball-kick counterparts (pgd, pagd) and than
    themselves at alpha = 0, which keeps the kick shape and sets every
    p_left to 1/2."""
    t0 = time.perf_counter()
    report = []
    for preset, threshold in (("example1", 0.3), ("example3_pr", None)):
        steps = _steps_to_threshold_per_cell(preset, threshold)
        for adapted, ball in (("pgdot", "pgd"), ("pagdot", "pagd")):
            method = steps[f"{adapted} a5"]
            median = float(np.median(method))
            line = [f"{preset} {adapted} a5 median {median:g}"]
            for control in (ball, f"{adapted} a0"):
                against = float(np.median(steps[control]))
                wins = sum(a < b for a, b in zip(method, steps[control]))
                assert median < against, \
                    f"{preset}: {adapted} a5 median {median:g} not below {control} {against:g}"
                line.append(f"vs {control} {against:g} (wins {wins}/{len(PAIRED_SEEDS)})")
            report.append(" ".join(line))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"paired check took {elapsed:.0f} s, budget 30 s"
    print(f"criterion 12 PASS: {'; '.join(report)} ({elapsed:.1f} s)")


def test_criterion_13_network_plateau_controls(plateau_problem):
    """From criterion 10's saturated start, the kicks without the
    adaptation stay on the plateau: pgd, pagd, and pgdot and pagdot at
    alpha = 0 (the kick shape, every p_left 1/2) each end within 0.2 of
    ln 10 on every seed, while criterion 10 sees the alpha = 5 methods
    escape."""
    t0 = time.perf_counter()
    cells = [(-1.0, seed) for seed in PLATEAU_SEEDS]
    report = []
    for label, cfg in (("pgd", AlgoConfig(name="pgd", **PLATEAU_KNOBS)),
                       ("pagd", AlgoConfig(name="pagd", **PLATEAU_KNOBS)),
                       ("pgdot a0", AlgoConfig(name="pgdot", alpha=0.0, **PLATEAU_KNOBS)),
                       ("pagdot a0", AlgoConfig(name="pagdot", alpha=0.0, **PLATEAU_KNOBS))):
        losses = _plateau_finals(plateau_problem, cfg, cells)
        for seed, loss in zip(PLATEAU_SEEDS, losses):
            assert loss > LN10 - 0.2, \
                f"{label} seed {seed} left the plateau: loss {loss:.4f}"
        report.append(f"{label} {[f'{v:.4f}' for v in losses]}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"plateau controls took {elapsed:.0f} s, budget 120 s"
    print(f"criterion 13 PASS: final full-data losses above ln10 - 0.2 = {LN10 - 0.2:.4f}: "
          f"{'; '.join(report)} ({elapsed:.1f} s)")
