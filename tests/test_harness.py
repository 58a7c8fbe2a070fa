"""Config grammar, artifact layout, reproducibility, and the CLI."""

import dataclasses
import hashlib
import json
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from otgrad import optimizers
from otgrad.benchmarks import make_problem, mlp_param_count
from otgrad.core import ContractViolation, Objective
from otgrad.harness import (
    OUTPUT_ENV_VAR,
    PRESETS,
    TRACE_HEADER,
    ConfigError,
    experiment,
    parse_config,
    read_trace_csv,
    resolve_output_dir,
    run_experiment,
)
from otgrad.harness.cli import main
from otgrad.harness.config import (
    _RUN_KEYS,
    ExperimentConfig,
    check_window_budget,
    config_hash,
)
from otgrad.harness.experiment import initial_point, trace_csv_text, write_trace_csv
from otgrad.occupation import OccupationWindow
from otgrad.optimizers import ALGORITHMS, AlgoConfig, RunError, RunTrace, run, run_lanes

SMALL_CONFIG = """
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
eta = 0.1
t_thres = 5
g_thres = 0.01
r = 0.04
h = 0.04
t_count = 50

[algorithm gd]

[algorithm pgdot]
"""


def digest_dir(path):
    out = {}
    for p in sorted(path.iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestPresetParsing:
    def test_example1_grid(self):
        cfg = parse_config(PRESETS["example1"])
        assert cfg.problem_name == "staircase"
        assert cfg.problem_options == {"dim": 4, "n_plateaus": 4, "length": 1.0}
        assert cfg.seeds == [0, 1, 2]
        assert cfg.max_steps == 2000
        assert cfg.record_every == 1
        names = [a.name for a in cfg.algorithms]
        assert names == ["gd", "agd", "pgd", "pagd", "pgdot", "pagdot"]
        for algo in cfg.algorithms:
            assert algo.mode == "practical"
            assert algo.eta == 0.1
            assert algo.t_thres == 10
            assert algo.g_thres == 0.01
            assert algo.r == 0.04
            assert algo.momentum == 0.5
            assert algo.h == 0.04
            assert algo.t_count == 200

    def test_example3_pr_settings(self):
        cfg = parse_config(PRESETS["example3_pr"])
        assert cfg.problem_name == "phase_retrieval"
        assert cfg.data_seed == 173
        assert cfg.max_steps == 1200
        for algo in cfg.algorithms:
            assert algo.eta == 0.001
            assert algo.g_thres == 1.0

    def test_example4_settings(self):
        cfg = parse_config(PRESETS["example4_mnist"])
        assert cfg.problem_name == "mlp"
        assert cfg.problem_options["dataset"] == "mnist_idx"
        assert cfg.epochs == 200
        assert cfg.batch_size == 128
        assert cfg.record_every == 10
        assert cfg.problem_options["init_mean"] == -1.0
        names = [a.name for a in cfg.algorithms]
        assert names == ["sgd_momentum", "adam", "amsgrad", "rmsprop", "pgdot", "pagdot"]
        cfg2 = parse_config(PRESETS["example4_cifar"])
        assert cfg2.problem_options["dataset"] == "cifar10_binary"

    def test_all_presets_parse(self):
        for name, text in PRESETS.items():
            cfg = parse_config(text)
            assert cfg.config_hash


class TestConfigErrors:
    def test_unknown_algorithm_named(self):
        text = SMALL_CONFIG.replace("[algorithm pgdot]", "[algorithm newton]")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert "newton" in str(info.value)

    def test_missing_eta_reported_with_section(self):
        text = SMALL_CONFIG.replace("eta = 0.1\n", "")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert "missing required key 'eta'" in str(info.value)

    def test_all_errors_collected(self):
        text = (SMALL_CONFIG
                .replace("eta = 0.1\n", "")
                .replace("[algorithm pgdot]", "[algorithm newton]")
                .replace("max_steps = 40", "max_steps = 40\nwings = 2"))
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert len(info.value.errors) >= 3

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG + "\n[metrics]\nfoo = 1\n")
        assert "metrics" in str(info.value)

    def test_missing_problem_name(self):
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace("name = staircase\n", ""))
        assert "missing required key 'name'" in str(info.value)

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            parse_config(SMALL_CONFIG.replace("name = staircase", "name = rosenbrock"))

    def test_steps_and_epochs_are_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config(SMALL_CONFIG.replace("max_steps = 40",
                                              "max_steps = 40\nepochs = 2"))
        with pytest.raises(ConfigError):
            parse_config(SMALL_CONFIG.replace("max_steps = 40\n", ""))

    def test_epochs_require_dataset_problem(self):
        with pytest.raises(ConfigError):
            parse_config(SMALL_CONFIG.replace("max_steps = 40", "epochs = 2"))

    def test_full_grad_gate_requires_dataset_problem(self):
        text = SMALL_CONFIG.replace("[algorithm pgdot]",
                                    "[algorithm pgdot]\nfull_grad_gate = true")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert "[algorithm pgdot] 'full_grad_gate' requires a dataset-backed problem" \
            in str(info.value)

    def test_full_grad_gate_requires_practical_mode(self):
        text = PRESETS["example4_mnist"].replace(
            "[algorithm pgdot]", "[algorithm pgdot]\nmode = theory\nfull_grad_gate = true")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert len(info.value.errors) == 1
        assert "[algorithm pgdot] 'full_grad_gate' requires mode = practical" \
            in str(info.value)
        parse_config(PRESETS["example4_mnist"].replace(
            "[algorithm pgdot]", "[algorithm pgdot]\nfull_grad_gate = true"))

    def test_momentum_range_enforced(self):
        with pytest.raises(ConfigError):
            parse_config(SMALL_CONFIG.replace("eta = 0.1", "eta = 0.1\nmomentum = 1.0"))

    @pytest.mark.parametrize("old, new, message", [
        ("[algorithm pgdot]", "[algorithm pgdot]\nalpha = inf",
         "[algorithm pgdot] alpha: must be finite, got 'inf'"),
        ("eta = 0.1", "eta = inf", "[optimizer] eta: must be finite, got 'inf'"),
        ("max_steps = 40", "max_steps = 40\nthreshold = nan",
         "[run] threshold: must be finite, got 'nan'"),
        ("n_plateaus = 2", "n_plateaus = 2\nlength = -inf",
         "[problem] length: must be finite, got '-inf'"),
        ("h = 0.04", "h = nan", "[optimizer] h: must be positive, got 'nan'"),
        ("data_seed = 0", "data_seed = 0\ninit = explicit 0.5 inf",
         "[problem] init: values must be finite, got 'inf'"),
        ("data_seed = 0", "data_seed = 0\ninit = gaussian nan 1",
         "[problem] init: values must be finite, got 'nan'"),
    ])
    def test_non_finite_floats_rejected(self, old, new, message):
        # alpha = inf used to pass and abort a grid mid-run in the sampler,
        # and an infinite init with an OverflowError
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace(old, new))
        assert info.value.errors[0] == message  # a rejected eta is also missing

    def test_infinite_window_allowed(self):
        # h = inf means "unwindowed", the one float key that may be infinite
        cfg = parse_config(SMALL_CONFIG.replace("h = 0.04", "h = inf"))
        assert all(algo.h == math.inf for algo in cfg.algorithms)

    def test_bad_init_style(self):
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace("data_seed = 0",
                                              "data_seed = 0\ninit = diagonal"))
        assert "unknown style" in str(info.value)

    @pytest.mark.parametrize("seeds, message", [
        ("-1 0", "[run] seeds: must be nonnegative, got '-1 0'"),
        ("0 1 0", "[run] seeds: must not repeat, got [0, 1, 0]"),
    ])
    def test_bad_seeds_rejected(self, seeds, message):
        # caught here, a negative seed cannot fail a grid after its artifact
        # directory exists, nor a repeated one write its cells twice
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace("seeds = 0 1", f"seeds = {seeds}"))
        assert info.value.errors == [message]

    @pytest.mark.parametrize("old, new, message", [
        ("n_hidden = 32", "n_hidden = 32\nactivation = foo",
         "[problem] activation: must be one of ('sigmoid', 'relu', 'tanh'), got 'foo'"),
        ("dataset = mnist_idx", "dataset = bar",
         "[problem] dataset: must be one of ('mnist_idx', 'cifar10_binary', "
         "'synthetic_blobs'), got 'bar'"),
        ("data_path = data/mnist\n", "", "[problem] dataset mnist_idx needs data_path"),
        ("dataset = mnist_idx\ndata_path = data/mnist\n", "dataset = cifar10_binary\n",
         "[problem] dataset cifar10_binary needs data_path"),
        ("n_hidden = 32", "n_hidden = 32\nn_samples = 10",
         "[problem] dataset mnist_idx takes no n_samples: it reads every sample"),
        ("dataset = mnist_idx", "dataset = cifar10_binary\nn_samples = 10",
         "[problem] dataset cifar10_binary takes no n_samples: it reads every sample"),
    ])
    def test_bad_mlp_options_rejected(self, old, new, message):
        # each used to pass here and fail only when the grid built its problem
        text = PRESETS["example4_mnist"]
        assert old in text
        with pytest.raises(ConfigError) as info:
            parse_config(text.replace(old, new))
        assert info.value.errors == [message]

    @pytest.mark.parametrize("old, new, section", [
        ("eta = 0.1", "eta = 0.1\nmode = fast", "optimizer"),
        ("[algorithm pgdot]", "[algorithm pgdot]\nmode = fast", "algorithm pgdot"),
    ])
    def test_bad_mode_is_one_error(self, old, new, section):
        # a bad shared mode used to be reported once more per algorithm section
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace(old, new))
        assert info.value.errors == [
            f"[{section}] mode: must be one of ('practical', 'theory'), got 'fast'"]

    @pytest.mark.parametrize("key", ["n_terms = 3", "wings = 2"])
    def test_key_of_another_problem_rejected(self, key):
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace("data_seed = 0", f"data_seed = 0\n{key}"))
        assert info.value.errors == [f"[problem] unknown key {key.split()[0]!r}"]

    def test_inline_comments_allowed(self):
        cfg = parse_config(SMALL_CONFIG.replace("eta = 0.1", "eta = 0.1  # step size"))
        assert cfg.algorithms[0].eta == 0.1


def _never_called(dim: int) -> Objective:
    """An objective whose oracle fails the test at its first call, so a
    run that should be refused before step 0 stops there too."""

    def oracle(X):
        raise AssertionError("the oracle was called")

    return Objective(dim=dim, oracle=oracle)


class TestOneRulePerKnob:
    """Each algorithm knob has one rule, which AlgoConfig and the config
    parser both enforce, with the same words."""

    @pytest.mark.parametrize("key, value, raw, label", [
        ("eta", -0.01, "-0.01", "positive"),
        ("momentum", 1.5, "1.5", "in [0, 1)"),
        ("g_thres", 0.0, "0.0", "positive"),
        ("r", -1.0, "-1.0", "positive"),
        ("t_thres", -1, "-1", "nonnegative"),
        ("t_count", 0, "0", ">= 1"),
        ("alpha", math.inf, "inf", "finite"),
        ("h", math.nan, "nan", "positive"),
        ("delta", 0.0, "0.0", "in (0, 1]"),
        ("mode", "fast", "fast", "one of ('practical', 'theory')"),
    ])
    def test_api_and_config_reject_the_same_values(self, key, value, raw, label):
        # each of the first four used to pass AlgoConfig and fail, or never
        # kick, partway through a run
        with pytest.raises(ContractViolation) as info:
            AlgoConfig(name="pgdot", **{key: value})
        assert str(info.value) == f"{key}: must be {label}, got {value!r}"
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace("[algorithm pgdot]",
                                              f"[algorithm pgdot]\n{key} = {raw}"))
        assert info.value.errors == [f"[algorithm pgdot] {key}: must be {label}, got {raw!r}"]

    def test_every_default_passes_its_rule(self):
        for name in ALGORITHMS:
            AlgoConfig(name=name)
        assert AlgoConfig(name="pgdot", t_count=None).t_count is None  # the full history

    def test_t_thres_zero_kicks_at_every_step(self, tmp_path, monkeypatch):
        # the cooldown is t_thres + 1 = 1, so the gate may fire at every step
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        out = run_experiment(parse_config(SMALL_CONFIG.replace(
            "[algorithm pgdot]", "[algorithm pgdot]\nt_thres = 0\ng_thres = 10")))
        perturbed = read_trace_csv(out / "trace_pgdot_seed0.csv")["perturbed"]
        assert perturbed.tolist() == [1] * 40 + [0]

    def test_full_grad_gate_needs_practical_mode_and_a_batch_size(self):
        # the config's text for theory mode is pinned in TestConfigErrors
        with pytest.raises(ContractViolation, match="^'full_grad_gate' requires mode = practical$"):
            AlgoConfig(name="pgdot", mode="theory", full_grad_gate=True)
        # without mini-batches the gate used to be ignored
        with pytest.raises(ContractViolation, match="full_grad_gate .* pass a batch_size"):
            run_lanes(_never_called(4), AlgoConfig(name="pgdot", full_grad_gate=True), 10, [0, 1])


class TestConfigHash:
    def test_insensitive_to_layout_and_order(self):
        reordered = SMALL_CONFIG.replace(
            "[algorithm gd]\n\n[algorithm pgdot]",
            "[algorithm pgdot]\n\n[algorithm gd]")
        decorated = "# a comment\n" + SMALL_CONFIG.replace("\n\n", "\n\n\n") + "\n"
        base = parse_config(SMALL_CONFIG)
        assert parse_config(reordered).config_hash == base.config_hash
        assert parse_config(decorated).config_hash == base.config_hash

    def test_sensitive_to_values(self):
        base = parse_config(SMALL_CONFIG)
        assert parse_config(
            SMALL_CONFIG.replace("eta = 0.1", "eta = 0.2")).config_hash != base.config_hash
        assert parse_config(
            SMALL_CONFIG.replace("seeds = 0 1", "seeds = 0 2")).config_hash != base.config_hash

    def test_small_config_hash_pinned(self):
        # validation rules do not enter the hash: a valid config keeps its
        # artifact directory
        assert parse_config(SMALL_CONFIG).config_hash[:12] == "3e490f0b40b5"

    def test_preset_hashes_pinned(self):
        # problem_options hold only the keys a config sets, so registry
        # defaults never enter the hash
        assert {name: parse_config(text).config_hash[:12]
                for name, text in PRESETS.items()} == {
            "example1": "d25a7e56e06b",
            "example2": "7a7501dca019",
            "example3_lq": "5cef056e9056",
            "example3_pr": "eabcf02a087c",
            "example4_mnist": "650b975f3fca",
            "example4_cifar": "73c0896c201c",
        }

    def test_each_section_follows_its_hash_rule(self):
        # a problem's own option enters the hash only as written; name,
        # data_seed, init, [run] and algorithm keys enter it resolved
        example1 = PRESETS["example1"]
        bare = "".join(line for line in example1.splitlines(keepends=True)
                       if line not in ("dim = 4\n", "n_plateaus = 4\n", "length = 1.0\n"))
        assert parse_config(bare).config_hash[:12] == "2b73bd77566a"
        for old, new in (("data_seed = 0\n", ""),
                         ("name = staircase\n", "name = staircase\ninit = default\n"),
                         ("record_every = 1\n", ""),
                         ("t_count = 200\n", "t_count = 200\nalpha = 5.0\n")):
            assert parse_config(example1.replace(old, new)).config_hash[:12] == "d25a7e56e06b"

    def test_run_table_owns_the_run_fields_and_their_hash(self):
        # every [run] key is one ExperimentConfig field and enters the hash
        run_fields = [f.name for f in fields(ExperimentConfig)
                      if f.name not in ("problem_name", "problem_options", "data_seed", "init",
                                        "algorithms", "config_hash")]
        assert list(_RUN_KEYS) == run_fields
        base = parse_config(SMALL_CONFIG)
        for key in run_fields:
            moved = dataclasses.replace(base, **{key: "moved"})
            assert config_hash(moved) != base.config_hash, key
        assert config_hash(base) == base.config_hash

    def test_hash_shape(self):
        h = parse_config(SMALL_CONFIG).config_hash
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")


class TestRunExperiment:
    def run_small(self, tmp_path, monkeypatch, text=SMALL_CONFIG):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        cfg = parse_config(text)
        return run_experiment(cfg), cfg

    def test_artifact_layout(self, tmp_path, monkeypatch):
        out, cfg = self.run_small(tmp_path, monkeypatch)
        assert out == tmp_path / cfg.config_hash[:12]
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "index.json",
            "summary.json",
            "trace_gd_seed0.csv",
            "trace_gd_seed1.csv",
            "trace_pgdot_seed0.csv",
            "trace_pgdot_seed1.csv",
        ]

    def test_trace_contents(self, tmp_path, monkeypatch):
        out, _ = self.run_small(tmp_path, monkeypatch)
        first_line = (out / "trace_gd_seed0.csv").read_text().splitlines()[0]
        assert first_line == TRACE_HEADER
        cols = read_trace_csv(out / "trace_pgdot_seed0.csv")
        assert np.all(np.diff(cols["t"]) > 0)
        assert cols["t"][0] == 0 and cols["t"][-1] == 40
        assert np.all(np.isfinite(cols["f"]))

    def test_summary_contents(self, tmp_path, monkeypatch):
        out, cfg = self.run_small(tmp_path, monkeypatch)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config_hash"] == cfg.config_hash
        assert summary["problem"] == "staircase"
        assert summary["max_steps"] == 40
        assert set(summary["thresholds"]) == {"0", "1"}
        rows = summary["runs"]
        assert [(r["algorithm"], r["seed"]) for r in rows] == [
            ("gd", 0), ("gd", 1), ("pgdot", 0), ("pgdot", 1)]
        for row in rows:
            assert set(row) >= {"algorithm", "seed", "steps_to_threshold",
                                "best_f", "n_perturbations", "n_nce",
                                "final_classification"}
            assert row["final_classification"]["label"] in (
                "eps_second_order", "eps_first_order", "neither")

    def test_default_threshold_is_half_initial_value(self, tmp_path, monkeypatch):
        out, _ = self.run_small(tmp_path, monkeypatch)
        summary = json.loads((out / "summary.json").read_text())
        # Both seeds start on the plateau ring where f = n_plateaus * length/4.
        assert summary["thresholds"]["0"] == pytest.approx(0.25, abs=1e-12)

    def test_threshold_override(self, tmp_path, monkeypatch):
        text = SMALL_CONFIG.replace("max_steps = 40", "max_steps = 40\nthreshold = 0.125")
        out, _ = self.run_small(tmp_path, monkeypatch, text)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["thresholds"]["0"] == 0.125
        assert summary["thresholds"]["1"] == 0.125

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        out, cfg = self.run_small(tmp_path, monkeypatch)
        before = digest_dir(out)
        run_experiment(cfg)
        assert digest_dir(out) == before

    def assert_cells_run_alone(self, out, cfg):
        """Every cell's trace file is the trace of run() on that cell alone."""
        bundle = make_problem(cfg.problem_name, data_seed=cfg.data_seed,
                              **cfg.problem_options)
        for algo in cfg.algorithms:
            for seed in cfg.seeds:
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        alone = run(bundle.objective if bundle.problem is None
                                    else bundle.problem, algo, cfg.max_steps, seed,
                                    x0=initial_point(bundle, cfg, seed),
                                    record_every=cfg.record_every, batch_size=cfg.batch_size)
                    except RunError as exc:
                        alone = exc.trace
                assert (out / f"trace_{algo.name}_seed{seed}.csv").read_text() == \
                    trace_csv_text(alone), (algo.name, seed)

    def test_mini_batch_grid_cells_equal_their_runs_alone(self, tmp_path, monkeypatch):
        text = """
[problem]
name = mlp
dataset = synthetic_blobs
n_samples = 64
n_hidden = 4
init_mean = -1.0

[run]
seeds = 0 1
max_steps = 12
batch_size = 16
record_every = 2

[optimizer]
eta = 0.01
t_thres = 2
g_thres = 0.1
r = 0.5
h = 1e12
t_count = 5

[algorithm adam]
[algorithm pgdot]
g_thres = 1
[algorithm pagdot]
full_grad_gate = true
"""
        out, cfg = self.run_small(tmp_path, monkeypatch, text)
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 6
        assert all(read_trace_csv(out / f"trace_{algo}_seed{seed}.csv")["perturbed"].any()
                   for algo in ("pgdot", "pagdot") for seed in (0, 1))
        self.assert_cells_run_alone(out, cfg)

    def test_row_by_row_oracle_grid_cells_equal_their_runs_alone(self, tmp_path,
                                                                monkeypatch):
        # phase retrieval's oracle evaluates a stack of lanes row by row
        text = """
[problem]
name = phase_retrieval
dim = 4
n_measurements = 20
data_seed = 3

[run]
seeds = 0 1 2
max_steps = 60

[optimizer]
mode = theory
eta = 0.01
ell = 1
rho = 1
eps = 0.1
delta = 0.1
delta_f = 1

[algorithm gd]
[algorithm pagdot]
"""
        out, cfg = self.run_small(tmp_path, monkeypatch, text)
        self.assert_cells_run_alone(out, cfg)

    def test_diverging_seed_fails_only_its_cell(self, tmp_path, monkeypatch):
        # From gaussian init with std 0.3, eta = 5 makes seed 0 overflow
        # after a few steps while seeds 1-3 stay finite.
        text = SMALL_CONFIG.replace("dim = 2\nn_plateaus = 2\ndata_seed = 0",
                                    "dim = 4\ndata_seed = 0\ninit = gaussian 2.0 0.3")
        text = text.replace("seeds = 0 1", "seeds = 0 1 2 3").replace("eta = 0.1", "eta = 5.0")
        with np.errstate(over="ignore", invalid="ignore"):
            out, cfg = self.run_small(tmp_path, monkeypatch, text)
        index = json.loads((out / "index.json").read_text())
        status = {(e["algorithm"], e["seed"]): e["status"]
                  for e in index["artifacts"] if e["kind"] == "trace"}
        for algo in cfg.algorithms:
            assert status[(algo.name, 0)].startswith("failed: run aborted at step ")
            assert "float overflow" in status[(algo.name, 0)]
            assert [status[(algo.name, seed)] for seed in (1, 2, 3)] == ["ok"] * 3
        summary = json.loads((out / "summary.json").read_text())
        assert sorted((r["algorithm"], r["seed"]) for r in summary["runs"]) == \
            [(a, s) for a in ("gd", "pgdot") for s in (1, 2, 3)]
        self.assert_cells_run_alone(out, cfg)

    @pytest.mark.parametrize("name, init", [
        ("airy_regression", "constant 0.1"),
        ("reglq", "constant 0.1"),
        ("phase_retrieval", "default"),
    ])
    def test_divergent_eta_fails_only_its_cells(self, tmp_path, monkeypatch, name, init):
        # eta = 1e6 overflows gd, pgdot and pagdot within 30 steps on each
        # problem; agd's own small eta keeps its cells finite
        text = f"""
[problem]
name = {name}
init = {init}

[run]
seeds = 0 1
max_steps = 40

[optimizer]
eta = 1e6

[algorithm gd]
[algorithm pgdot]
[algorithm pagdot]
[algorithm agd]
eta = 1e-4
"""
        with np.errstate(over="ignore", invalid="ignore"):
            out, cfg = self.run_small(tmp_path, monkeypatch, text)
        index = json.loads((out / "index.json").read_text())
        status = {(e["algorithm"], e["seed"]): e["status"]
                  for e in index["artifacts"] if e["kind"] == "trace"}
        diverging = [(a, s) for a in ("gd", "pgdot", "pagdot") for s in (0, 1)]
        for cell in diverging:
            assert status[cell].startswith("failed: run aborted at step "), cell
            rows = read_trace_csv(out / f"trace_{cell[0]}_seed{cell[1]}.csv")["t"]
            assert rows.size >= 2 and rows[0] == 0 and rows[-1] < 40, cell
        assert [status[("agd", s)] for s in (0, 1)] == ["ok", "ok"]
        summary = json.loads((out / "summary.json").read_text())
        assert [(r["algorithm"], r["seed"]) for r in summary["runs"]] == [("agd", 0), ("agd", 1)]
        self.assert_cells_run_alone(out, cfg)

    def test_record_every_thins_rows(self, tmp_path, monkeypatch):
        text = SMALL_CONFIG.replace("record_every = 1", "record_every = 10")
        out, _ = self.run_small(tmp_path, monkeypatch, text)
        cols = read_trace_csv(out / "trace_gd_seed0.csv")
        assert cols["t"].tolist() == [0, 10, 20, 30, 40]

    def test_explicit_init_wrong_length_rejected(self, tmp_path, monkeypatch):
        text = SMALL_CONFIG.replace("data_seed = 0",
                                    "data_seed = 0\ninit = explicit 1 2 3")
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        with pytest.raises(ContractViolation):
            run_experiment(parse_config(text))
        assert list(tmp_path.iterdir()) == []  # no empty artifact directory

    def test_init_styles_run(self, tmp_path, monkeypatch):
        for init in ("zeros", "constant 1.5", "gaussian 0 0.1", "explicit 1 1"):
            text = SMALL_CONFIG.replace("data_seed = 0",
                                        f"data_seed = 0\ninit = {init}")
            text = text.replace("seeds = 0 1", "seeds = 0")
            out, _ = self.run_small(tmp_path, monkeypatch, text)
            assert (out / "trace_gd_seed0.csv").exists()

    def test_diverging_run_marked_failed_with_partial_trace(self, tmp_path, monkeypatch):
        text = """
[problem]
name = phase_retrieval
data_seed = 0

[run]
seeds = 0
max_steps = 50

[algorithm gd]
eta = 100.0
"""
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        with np.errstate(over="ignore", invalid="ignore"):
            out = run_experiment(parse_config(text))
        index = json.loads((out / "index.json").read_text())
        entry = index["artifacts"][0]
        assert entry["status"].startswith("failed")
        trace_text = (out / entry["file"]).read_text().splitlines()
        assert trace_text[0] == TRACE_HEADER
        assert len(trace_text) >= 2  # at least the t=0 row survived
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == []

    def test_env_override_controls_base_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "elsewhere"))
        cfg = parse_config(SMALL_CONFIG)
        assert resolve_output_dir(cfg).parent == tmp_path / "elsewhere"

    @pytest.mark.parametrize("eta", ["0.1", "5.0"])
    def test_group_traces_gone_before_next_group_runs(self, tmp_path, monkeypatch, eta):
        # At eta 5 seed 0 overflows; its RunError's cause keeps no
        # traceback, so the failed group goes as soon as it is written too
        text = SMALL_CONFIG.replace("dim = 2\nn_plateaus = 2\ndata_seed = 0",
                                    "dim = 4\ndata_seed = 0\ninit = gaussian 2.0 0.3")
        text = text.replace("eta = 0.1", f"eta = {eta}") + "[algorithm pagdot]\n"
        groups, failed = [], []
        run_lanes = experiment.run_lanes

        def assert_all_gone():
            for k, refs in enumerate(groups):
                assert all(ref() is None for ref in refs), f"group {k} alive"

        def spy(*args, **kwargs):
            assert_all_gone()
            results = run_lanes(*args, **kwargs)
            failed.extend(isinstance(r, RunError) for r in results)
            for r in results:
                if isinstance(r, RunError):  # the cause is kept, without its frames
                    assert r.__cause__ is not None and r.__cause__.__traceback__ is None
            groups.append([weakref.ref(r.trace if isinstance(r, RunError) else r)
                           for r in results])
            return results

        monkeypatch.setattr(experiment, "run_lanes", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            self.run_small(tmp_path, monkeypatch, text)
        assert len(groups) == 3 and all(len(refs) == 2 for refs in groups)
        assert any(failed) == (eta == "5.0")
        assert_all_gone()

    EDGE_FLOATS = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 0.1 + 0.2,
                   1e16, 1e22, 1.5e-7, 123456789.125, 2.0 ** 53 + 2)

    def edge_trace(self):
        trace = RunTrace(algorithm="gd", problem="staircase", seed=0, mode="practical")
        for i, (f, g) in enumerate(zip(self.EDGE_FLOATS, self.EDGE_FLOATS[::-1])):
            trace.add_row(10 ** 6 * i, f, g, i % 2, (i // 2) % 2)
        trace.add_rows(range(10 ** 12, 10 ** 12 + 3), -0.0, math.nan)
        return trace

    def test_trace_csv_text_equals_per_row_fstring(self):
        trace = self.edge_trace()
        lines = [TRACE_HEADER]
        for t, f, g, p, n in zip(trace.ts, trace.fs, trace.grad_norms,
                                 trace.perturbed, trace.nce):
            lines.append(f"{t},{repr(f)},{repr(g)},{p},{n}")
        assert trace_csv_text(trace) == "\n".join(lines) + "\n"
        empty = RunTrace(algorithm="gd", problem="staircase", seed=0, mode="practical")
        assert trace_csv_text(empty) == TRACE_HEADER + "\n"

    def test_read_trace_round_trips_edge_values(self, tmp_path):
        trace = self.edge_trace()
        path = tmp_path / "edge.csv"
        write_trace_csv(path, trace)
        cols = read_trace_csv(path)
        expected = {"t": np.array(trace.ts), "f": np.array(trace.fs),
                    "grad_norm": np.array(trace.grad_norms),
                    "perturbed": np.array(trace.perturbed), "nce": np.array(trace.nce)}
        assert list(cols) == list(expected)
        for name, col in cols.items():
            assert col.dtype == expected[name].dtype == \
                (np.float64 if name in ("f", "grad_norm") else np.int64), name
            assert col.tobytes() == expected[name].tobytes(), name

    def test_read_trace_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ContractViolation):
            read_trace_csv(bad)


class TestWindowBudget:
    """Occupation windows too large for memory are a ConfigError before the run."""

    LONG_THEORY = SMALL_CONFIG.replace("dim = 2", "dim = 1000").replace(
        "max_steps = 40", "max_steps = 200000").replace(
        "[algorithm pgdot]", "[algorithm pgdot]\nmode = theory")

    def test_long_theory_run_rejected_before_it_starts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        cfg = parse_config(self.LONG_THEORY)
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg)
        # 2 seeds x 200000 iterates x 1000 coordinates x 8 B
        assert info.value.errors == [
            "[algorithm pgdot] occupation windows would hold 2.98 GiB (2 seeds x 200000 "
            "iterates x 1000 coordinates), over the 1 GiB budget: lower [run] seeds, "
            "max_steps or epochs, or the problem's size, or use mode = practical with a "
            "t_count"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode, knobs, rows", [
        ("theory", "", 200000),
        ("practical", "t_count = 150000\n", 150000),
    ])
    def test_run_lanes_refuses_the_windows_before_step_0(self, mode, knobs, rows):
        # the same bound and figures as the config's, for callers of the API
        text = self.LONG_THEORY.replace("mode = theory", f"mode = {mode}\n{knobs}")
        cfg = parse_config(text)
        figures = (f"occupation windows would hold {2 * rows * 1000 * 8 / 2 ** 30:.3g} GiB "
                   f"(2 seeds x {rows} iterates x 1000 coordinates), over the 1 GiB budget")
        with pytest.raises(ConfigError) as info:
            check_window_budget(cfg, 1000, 200000)
        assert info.value.errors[0].startswith(f"[algorithm pgdot] {figures}: lower ")
        with pytest.raises(ContractViolation) as info:
            run_lanes(_never_called(1000), cfg.algorithms[1], 200000, cfg.seeds)
        assert str(info.value) == f"pgdot: {figures}"
        with pytest.raises(AssertionError, match="oracle was called"):
            run_lanes(_never_called(1000), cfg.algorithms[0], 200000, cfg.seeds)  # gd: no window

    def test_practical_window_counts_t_count_iterates(self):
        cfg = parse_config(SMALL_CONFIG.replace("t_count = 50", "t_count = 100000"))
        check_window_budget(cfg, 1000, 50)  # only 50 iterates ever stored
        with pytest.raises(ConfigError, match=r"\[algorithm pgdot\].*lower t_count"):
            check_window_budget(cfg, 1000, 100000)
        check_window_budget(parse_config(SMALL_CONFIG), 1000, 100000)

    def test_t_count_past_max_steps_runs_on_max_steps_rows(self, tmp_path, monkeypatch):
        # the budget counts min(t_count, max_steps) rows, and each window
        # holds just those: the run ends as it does at t_count = max_steps
        rows = []

        def window(dim, n, h):
            rows.append(n)
            return OccupationWindow(dim, n, h)

        monkeypatch.setattr(optimizers, "OccupationWindow", window)
        text = PRESETS["example1"].replace("max_steps = 2000", "max_steps = 50")
        traces = []
        for t_count in (1000000000000000, 50):
            monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / str(t_count)))
            path = tmp_path / f"t_count_{t_count}.ini"
            path.write_text(text.replace("t_count = 200", f"t_count = {t_count}"))
            assert main(["run", str(path)]) == 0
            out, = (tmp_path / str(t_count)).iterdir()
            names = sorted(p.name for p in out.iterdir())
            assert len(names) == 20 and {"summary.json", "index.json"} <= set(names)
            traces.append({name: (out / name).read_bytes()
                           for name in names if name.startswith("trace_")})
        assert len(traces[0]) == 18 and traces[0] == traces[1]
        assert rows == [50] * 12  # pgdot and pagdot, 3 seeds, two configs

    def test_cli_reports_the_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        path = tmp_path / "long.ini"
        path.write_text(self.LONG_THEORY)
        assert main(["run", str(path)]) == 1
        assert "over the 1 GiB budget" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(PRESETS) + ["example1_theory"])
    def test_presets_fit(self, name):
        # example1_theory is the benchmark's staircase grid in theory mode:
        # example1 on 4 seeds; the MLP presets' step count is bounded by
        # 60000 samples
        text = PRESETS[name.replace("_theory", "")]
        if name == "example1_theory":
            text = text.replace("mode = practical", "mode = theory").replace(
                "seeds = 0 1 2", "seeds = 0 1 2 3")
        cfg = parse_config(text)
        if cfg.problem_name == "mlp":
            dim = mlp_param_count(cfg.problem_options["n_hidden"])
            steps = cfg.epochs * math.ceil(60000 / cfg.batch_size)
        else:
            dim = make_problem(cfg.problem_name, **cfg.problem_options).dim
            steps = cfg.max_steps
        check_window_budget(cfg, dim, steps)


class TestReducedPresetRun:
    def test_example1_short_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        text = PRESETS["example1"].replace("max_steps = 2000", "max_steps = 5")
        out = run_experiment(parse_config(text))
        traces = [p for p in out.iterdir() if p.name.startswith("trace_")]
        assert len(traces) == 18  # 6 algorithms x 3 seeds
        assert (out / "summary.json").exists() and (out / "index.json").exists()


class TestCli:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["staircase", "airy_regression", "reglq",
                         "phase_retrieval", "mlp"]

    def test_presets_written(self, tmp_path, capsys):
        assert main(["presets", "--dir", str(tmp_path)]) == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["example1.ini", "example2.ini", "example3_lq.ini",
                         "example3_pr.ini", "example4_cifar.ini", "example4_mnist.ini"]
        for p in tmp_path.iterdir():
            parse_config(p.read_text())

    def test_check_reglq_passes(self, capsys):
        assert main(["check", "reglq"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "min Hessian eigenvalue" in out

    def test_check_staircase_passes(self, capsys):
        assert main(["check", "staircase"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_classify_staircase_origin(self, tmp_path, capsys):
        point = tmp_path / "point.txt"
        point.write_text("0 0 0 0\n")
        assert main(["classify", "staircase", str(point), "0.01", "1.0"]) == 0
        assert "label       = eps_second_order" in capsys.readouterr().out

    def test_classify_missing_file_fails(self, capsys):
        assert main(["classify", "staircase", "/nonexistent", "0.01", "1.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_walk_smoke(self, capsys):
        assert main(["walk", "repelling", "1", "1000", "100", "7"]) == 0
        out = capsys.readouterr().out
        assert "msd_exponent" in out
        assert "localization_metric" in out

    @pytest.mark.parametrize("argv, expected", [
        (["repelling", "1", "1000", "100", "7"],
         "msd_exponent = 1.2941 (stderr 0.0020)\n"
         "localization_metric: median 0.1836, max 0.3493\n"
         "path range: min 50, median 120.0\n"),
        (["reinforced", "5", "1200", "100", "3"],
         "msd_exponent = 0.0005 (stderr 0.0215)\n"
         "localization_metric: median 1.0000, max 1.0000\n"
         "path range: min 1, median 1.0\n"),
        (["repelling", "0", "2000", "120", "11"],
         "msd_exponent = 1.0619 (stderr 0.0018)\n"
         "localization_metric: median 0.2453, max 0.4396\n"
         "path range: min 32, median 69.0\n"),
    ], ids=["repelling-alpha1", "reinforced-alpha5", "repelling-alpha0"])
    def test_walk_stdout_pinned(self, capsys, argv, expected):
        # recorded when the exponent came from msd_curve's ensemble and the
        # statistics from a second simulate() of every path
        assert main(["walk", *argv]) == 0
        assert capsys.readouterr().out == expected

    def test_walk_fits_msd_curve_bit_for_bit(self, monkeypatch, capsys):
        import otgrad.harness.cli as cli
        from otgrad.occupation import WeightFn
        from otgrad.walks import fit_msd_exponent, msd_curve

        seen = []

        def spy(msd, t_lo, t_hi):
            seen.append((msd.copy(), t_lo, t_hi))
            return fit_msd_exponent(msd, t_lo, t_hi)

        monkeypatch.setattr(cli, "fit_msd_exponent", spy)
        assert main(["walk", "repelling", "1.5", "1000", "100", "9"]) == 0
        capsys.readouterr()
        (msd, t_lo, t_hi), = seen
        assert (t_lo, t_hi) == (100, 1000)
        assert msd.tobytes() == msd_curve("repelling", WeightFn(1.5), 1000, 100, 9).tobytes()

    @pytest.mark.parametrize("argv, message", [
        (["repelling", "1", "999", "100", "7"],
         "error: T must be >= 1000 for a stable fit, got 999\n"),
        (["repelling", "1", "1000", "99", "7"],
         "error: n_paths must be >= 100, got 99\n"),
    ], ids=["short-T", "few-paths"])
    def test_walk_rejects_small_ensembles(self, capsys, argv, message):
        assert main(["walk", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_run_small_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "artifacts"))
        cfg_file = tmp_path / "small.ini"
        cfg_file.write_text(SMALL_CONFIG)
        assert main(["run", str(cfg_file)]) == 0
        assert "artifacts written to" in capsys.readouterr().out

    def test_run_invalid_config_fails(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text(SMALL_CONFIG.replace("name = staircase", "name = x"))
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err

    def test_run_missing_file_fails(self, capsys):
        assert main(["run", "/nonexistent.ini"]) == 1

    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
