"""Config grammar, artifact layout, reproducibility, and the CLI."""

import hashlib
import json
import math

import numpy as np
import pytest

from otgrad.core import ContractViolation
from otgrad.harness import (
    OUTPUT_ENV_VAR,
    PRESETS,
    TRACE_HEADER,
    ConfigError,
    parse_config,
    read_trace_csv,
    resolve_output_dir,
    run_experiment,
)
from otgrad.harness.cli import main

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

    def test_bad_init_style(self):
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL_CONFIG.replace("data_seed = 0",
                                              "data_seed = 0\ninit = diagonal"))
        assert "unknown style" in str(info.value)

    def test_inline_comments_allowed(self):
        cfg = parse_config(SMALL_CONFIG.replace("eta = 0.1", "eta = 0.1  # step size"))
        assert cfg.algorithms[0].eta == 0.1


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

    def test_read_trace_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ContractViolation):
            read_trace_csv(bad)


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
