"""One workload in one fresh interpreter; started by run.py, not by hand.

    worker.py --mode setup --workload W --seed N [--tiny]
        imports otgrad and does the workload's set-up, then prints
        {"setup_s": ...}
    worker.py --mode run --workload W --seed N --seconds S --trace 0|1 [--tiny]
        set-up, then repeats the workload's fixed job for about S seconds
        and prints one JSON line with timings, checks and counters

With --trace 1, untraced and traced jobs alternate, so the traced run also
measures its own overhead. Spans of the set-up and the last traced job are
written to .perfbench_out/ in the checkout when the run ends.

$OTGRAD_OUT must name an empty scratch directory for the job's artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from metrics import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Thread count of the OpenBLAS bundled with the numpy wheel, if there is one."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def machine_record() -> dict:
    """What the numbers depend on besides the code: interpreter, libraries, CPU."""
    import numpy as np

    import otgrad.walks

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    have_numba = getattr(otgrad.walks, "_HAVE_NUMBA", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        # walks.simulate switches engine on numba; never mix the two series
        "walk_engine": {True: "numba-kernel", False: "python-loop"}.get(have_numba, "n/a"),
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
    }


def _layer_metrics(table: dict, oracle_in_run: int, outcome, rec) -> dict:
    """Per-layer metrics of one traced job (set-up spans included).

    A name ending in .calls, .s or .self_s reads the span of that name;
    the rest are counted or computed. trace.overhead_frac is added per run.
    """
    steps = outcome.opt_steps
    used = [(rng + 3) / (2 * t + 3) for rng, t in rec.walk_ranges]
    computed = {
        "benchmarks.oracle_per_step": oracle_in_run / steps if steps else 0.0,
        "optimizers.steps": steps,
        "optimizers.perturbations": outcome.perturbations,
        "optimizers.nce": outcome.nce,
        "optimizers.batch_per_step":
            table.get("optimizers.batch", (0,))[0] / steps if steps else 0.0,
        "occupation.window_bytes": max(
            (len(w) * w.dim * w.samples().itemsize for w in rec.windows.values()), default=0),
        "harness.artifact_bytes": outcome.artifact_bytes,
        "walks.steps": sum(t for _, t in rec.walk_ranges),
        "walks.counts_used_frac": statistics.median(used) if used else 0.0,
        "escape_frac": outcome.escape_frac,
    }
    out = {}
    for name in PER_LAYER:
        if name in computed:
            out[name] = computed[name]
        elif name != "trace.overhead_frac":
            span, _, kind = name.rpartition(".")
            calls, total_ns, self_ns = table.get(span, (0, 0, 0))
            out[name] = {"calls": calls, "s": total_ns / 1e9, "self_s": self_ns / 1e9}[kind]
    return out


def _run(args, wl, setup_s: float, rec, inst) -> dict:
    import tracer

    walls, traced_walls, layers, outcomes = [], [], [], []
    setup_end = len(rec) if rec is not None else 0

    def one_job(traced: bool):
        if traced:
            rec.truncate(setup_end)
            inst.install()
        t0 = time.perf_counter()
        try:
            raw = wl.job()
        except Exception:  # a failed job counts against fail_frac, the run goes on
            traceback.print_exc()
            raw = None
        wall = time.perf_counter() - t0
        if traced:
            inst.uninstall()
        outcome = wl.evaluate(raw)
        outcomes.append(outcome)
        if traced:
            # the recorder holds the set-up spans and this job's spans
            layers.append(_layer_metrics(*tracer.span_table(rec), outcome, rec))
            traced_walls.append(wall)
        else:
            walls.append(wall)

    start = time.perf_counter()
    while True:
        one_job(traced=False)
        if args.trace:
            one_job(traced=True)
        per_round = statistics.fmean(walls) + (statistics.fmean(traced_walls) if args.trace else 0)
        if time.perf_counter() - start + per_round > args.seconds:
            break

    digests = {o.digest for o in outcomes}
    checks = {}
    for name, (ok, detail) in outcomes[0].checks.items():
        fails = sum(not o.checks[name][0] for o in outcomes)
        checks[name] = [fails == 0, detail + ("" if fails == 0 else f" [failed in {fails} jobs]")]
    run_checks = {"outputs_repeat": (len(digests) == 1,
                                     f"{len(digests)} distinct output digest(s) over "
                                     f"{len(outcomes)} jobs")}
    per_layer = None
    spans_file = None
    if args.trace:
        # every per-layer value but a time must repeat exactly for a given seed
        counts_differ = [k for k in layers[0]
                         if PER_LAYER[k] != "s" and len({lay[k] for lay in layers}) > 1]
        run_checks["counts_repeat"] = (not counts_differ,
                                       "per-layer counts identical over traced jobs"
                                       if not counts_differ else f"differ: {counts_differ}")
        problems = tracer.check_nesting(rec)
        run_checks["spans_nest"] = (not problems, "; ".join(problems) or
                                    "spans nest, self times >= 0")
        # median_low keeps every value one that a traced job measured
        per_layer = {k: statistics.median_low(lay[k] for lay in layers) for k in layers[0]}
        per_layer["trace.overhead_frac"] = \
            statistics.fmean(traced_walls) / statistics.fmean(walls) - 1.0
        spans_file = _write_spans(args, rec)
    for name, (ok, detail) in run_checks.items():
        checks[name] = [ok, detail]
    attempted = sum(o.attempted for o in outcomes) + len(run_checks)
    failed = sum(o.failed for o in outcomes) + sum(not ok for ok, _ in run_checks.values())
    return {
        "setup_s": setup_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "steps": outcomes[0].steps,
        "attempted": attempted,
        "failed": failed,
        "escape_frac": outcomes[0].escape_frac,
        "digest": sorted(digests)[0] if len(digests) == 1 else "differs",
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": per_layer,
        "spans_file": spans_file,
        "machine": machine_record(),
    }


def _write_spans(args, rec) -> str:
    import numpy as np

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.npz"
    arrays = rec.arrays()
    np.savez_compressed(path, names=np.asarray(rec.names), **arrays)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads   # imports numpy and otgrad: part of set-up

    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    rec = inst = None
    if args.mode == "run" and args.trace:
        import tracer
        rec = tracer.SpanRecorder()
        inst = tracer.Instrumentation(rec)
        inst.install()
    wl.setup()
    if inst is not None:
        inst.uninstall()
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(_run(args, wl, setup_s, rec, inst)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
