"""otgrad benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload staircase_grid --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout (the package is imported from
src/). Workloads: staircase_grid, mlp_plateau, walk_msd (see
perfbench/README.md for why each was chosen).

The run starts fresh interpreters one after another, never in parallel:
a few that only set up, then one that sets up and repeats the workload's
fixed job for about --seconds seconds. wall_s is the mean job time, which
uses every second measured: on a shared machine whose speed drifts, it
varies less from run to run than the median or the fastest job. setup_s
is the median set-up, which ignores the one slow set-up that compiles
bytecode in a fresh checkout.
It prints the machine record, the correctness checks, a SHA-256 over the
job's outputs and every metric with its unit; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Artifacts go to a scratch directory under .perfbench_tmp/ that the run
removes; spans of a traced run are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, REPORTED  # noqa: E402

WORKLOAD_NAMES = ("staircase_grid", "mlp_plateau", "walk_msd")
SETUP_ONLY_RUNS = 4         # plus the set-up of the measuring interpreter
DEADLINE_S = 175.0          # the whole run must end within 180 s


def _worker(args, mode: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the worker could start")
    # run() kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="otgrad benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's own self-check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    if not (ROOT / "src" / "otgrad" / "__init__.py").is_file():
        print(f"error: no otgrad sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_base)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OTGRAD_OUT"] = out_dir
    try:
        setups = [_worker(args, "setup", env, deadline)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        res = _worker(args, "run", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass

    setups.append(res["setup_s"])
    wall_s = statistics.fmean(res["walls"])
    e2e = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "steps_per_s": res["steps"] / wall_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    reported = {
        "fail_frac": res["failed"] / res["attempted"],
        "escape_frac": res["escape_frac"],
    }
    correct = res["failed"] == 0

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    print(f"jobs: {len(res['walls'])} untraced, {len(res['traced_walls'])} traced; "
          f"steps per job {res['steps']}; set-ups {len(setups)}")
    for name, (ok, detail) in res["checks"].items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    print(f"outputs sha256: {res['digest']}")
    if res["spans_file"]:
        print(f"spans written to {res['spans_file']}")
    shown = {**e2e, **reported}
    units = {**END_TO_END, **REPORTED}
    if args.trace:
        shown.update(res["per_layer"])
        units.update(PER_LAYER)
    width = max(len(name) for name in shown)
    for name, value in shown.items():
        print(f"  {name:<{width}}  {_fmt(value):>14} {units[name]}")

    chosen = PER_LAYER if args.trace else END_TO_END
    source = res["per_layer"] if args.trace else e2e
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
