"""Self-check of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Checks that every metric prints with its unit, that traced spans nest with
non-negative self times, and that each correctness check fails when handed
a deliberately corrupted output. The package's own suite does not collect
this file; it runs in about half a minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import otgrad.optimizers  # noqa: E402

WORKLOAD_NAMES = ("staircase_grid", "mlp_plateau", "walk_msd")


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                      "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in result["metrics"].values())
    table = "\n".join(lines[:-1])
    shown = {**expected, **metrics.END_TO_END, **metrics.REPORTED}
    for name, unit in shown.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", table, re.M), name
    assert re.search(r"^outputs sha256: [0-9a-f]{64}$", table, re.M)
    for key in ("python", "numpy", "numba", "blas", "blas_threads", "nproc", "cpu"):
        assert f'"{key}"' in table


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "walk_msd", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_nest_and_self_times_are_nonnegative():
    rec = tracer.SpanRecorder()

    def leaf(x):
        return sum(range(x))

    inner = rec.wrap("inner", lambda x: leaf_t(x) + leaf_t(x))
    leaf_t = rec.wrap("leaf", leaf)
    outer = rec.wrap("outer", lambda: [inner(2000) for _ in range(5)])
    outer()
    assert tracer.check_nesting(rec) == []
    table, _ = tracer.span_table(rec)
    assert table["outer"][0] == 1 and table["inner"][0] == 5 and table["leaf"][0] == 10
    assert all(self_ns >= 0 and self_ns <= total for _, total, self_ns in table.values())
    # a child that outlives its parent is reported
    rec.end_ns[1] = rec.end_ns[0] + 1
    assert "child span outside its parent" in tracer.check_nesting(rec)


def test_traced_job_spans_nest_and_originals_come_back(tmp_path, monkeypatch):
    monkeypatch.setenv("OTGRAD_OUT", str(tmp_path))
    original = otgrad.optimizers.eval_objective
    wl = workloads.make("staircase_grid", 1, tiny=True)
    wl.setup()
    rec = tracer.SpanRecorder()
    inst = tracer.Instrumentation(rec)
    inst.install()
    try:
        out_dirs = wl.job()
    finally:
        inst.uninstall()
    assert otgrad.optimizers.eval_objective is original
    assert wl.evaluate(out_dirs).failed == 0
    assert tracer.check_nesting(rec) == []
    table, oracle_in_run = tracer.span_table(rec)
    for name in ("optimizers.run", "core.eval_objective", "benchmarks.value",
                 "occupation.record", "harness.write_trace_csv"):
        assert table[name][0] > 0, name
    assert all(self_ns >= 0 for _, _, self_ns in table.values())
    assert 0 < oracle_in_run <= table["benchmarks.value"][0] + table["benchmarks.gradient"][0]


def _corrupt_last_f(path: Path, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = value
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_staircase_check_fails_on_corrupted_output(tmp_path, monkeypatch):
    monkeypatch.setenv("OTGRAD_OUT", str(tmp_path))
    wl = workloads.make("staircase_grid", 1, tiny=True)
    wl.setup()
    assert wl.evaluate(wl.job()).checks["criterion05"][0]
    out_dirs = wl.job()
    for trace in out_dirs[0].glob("trace_pgdot_seed*.csv"):
        _corrupt_last_f(trace, "1.0")
    outcome = wl.evaluate(out_dirs)
    assert not outcome.checks["criterion05"][0] and outcome.failed == 1


def test_mlp_check_fails_on_corrupted_output(tmp_path, monkeypatch):
    monkeypatch.setenv("OTGRAD_OUT", str(tmp_path))
    wl = workloads.make("mlp_plateau", 1, tiny=True)
    wl.setup()
    assert wl.evaluate(wl.job()).checks["criterion10"][0]
    out_dirs = wl.job()
    _corrupt_last_f(next(out_dirs[0].glob("trace_adam_seed*.csv")), "1.5")
    assert not wl.evaluate(out_dirs).checks["criterion10"][0]
    out_dirs = wl.job()
    _corrupt_last_f(next(out_dirs[0].glob("trace_pgdot_seed*.csv")), "nan")
    outcome = wl.evaluate(out_dirs)
    assert not outcome.checks["criterion10"][0] and outcome.failed_cells == 1


def test_walk_checks_fail_on_corrupted_output():
    wl = workloads.make("walk_msd", 1, tiny=True)
    wl.setup()
    msd0, e0, msd1, e1, locs = wl.job()
    good = wl.evaluate((msd0, e0, msd1, e1, locs))
    assert good.failed == 0
    bad_msd = msd0.copy()
    bad_msd[wl.T // 2] += 1.0
    outcome = wl.evaluate((bad_msd, e0, msd1, e1, locs))
    assert not outcome.checks["criterion08"][0]
    outcome = wl.evaluate((msd0, e0, msd1, e1, np.full_like(locs, 0.5)))
    assert not outcome.checks["criterion07"][0]
    outcome = wl.evaluate((msd0, e0, msd1, float("nan"), locs))
    assert outcome.failed_cells == wl.n_paths
