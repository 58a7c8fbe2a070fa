"""Span recording for the traced benchmark run.

Only the traced run uses this module. It rebinds the names through which
callers reach each otgrad layer (module attributes and class methods) to
wrappers that record one span per call: name, start, end and parent.
Spans live in flat in-memory arrays and are written out once, when the run
ends. Times are integer nanoseconds, so a span's self time (its duration
minus the time its children cover) is exact and never negative.

Nothing under the package source changes: `install()` swaps the names and
`uninstall()` puts the originals back.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array

import numpy as np

import otgrad.analysis
import otgrad.benchmarks
import otgrad.harness
import otgrad.harness.experiment
import otgrad.optimizers
import otgrad.walks
from otgrad.benchmarks.mlp import MlpProblem
from otgrad.occupation import OccupationWindow
from otgrad.optimizers import Batcher


class SpanRecorder:
    """Flat arrays of spans; index order is the order in which spans opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack = [-1]
        # computed counters fed by the hooks below
        self.windows: dict[int, OccupationWindow] = {}
        self.walk_ranges: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Wrap fn so each call records a span; on_return(args, result) runs after it."""
        nid = self.intern(name)
        clock = time.perf_counter_ns
        name_id, parent, start_ns, end_ns = self.name_id, self.parent, self.start_ns, self.end_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end_ns.append(0)
            stack.append(i)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def truncate(self, n: int) -> None:
        """Drop every span from index n on, and the counters' contents."""
        for arr in (self.name_id, self.parent, self.start_ns, self.end_ns):
            del arr[n:]
        self.windows.clear()
        self.walk_ranges.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays; parent -1 marks a top-level span."""
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start_ns": np.asarray(self.start_ns, dtype=np.int64),
            "end_ns": np.asarray(self.end_ns, dtype=np.int64),
        }


def span_table(rec: SpanRecorder) -> tuple[dict, int]:
    """Per name (calls, inclusive ns, self ns) over the recorded spans.

    Also returns the number of oracle calls (benchmarks.value and
    benchmarks.gradient spans) made inside an optimizers.run span.
    """
    a = rec.arrays()
    n = a["name_id"].shape[0]
    dur = a["end_ns"] - a["start_ns"]
    has_parent = a["parent"] >= 0
    child_ns = np.zeros(n, dtype=np.int64)
    np.add.at(child_ns, a["parent"][has_parent], dur[has_parent])
    self_ns = dur - child_ns
    table = {}
    for nid, name in enumerate(rec.names):
        mask = a["name_id"] == nid
        table[name] = (int(mask.sum()), int(dur[mask].sum()), int(self_ns[mask].sum()))

    inside = a["name_id"] == rec._ids.get("optimizers.run", -1)
    up = np.where(has_parent, a["parent"], 0)
    while True:
        grown = inside | (has_parent & inside[up])
        if np.array_equal(grown, inside):
            break
        inside = grown
    oracle_ids = [rec._ids[k] for k in ("benchmarks.value", "benchmarks.gradient")
                  if k in rec._ids]
    oracle_in_run = int((inside & np.isin(a["name_id"], oracle_ids)).sum())
    return table, oracle_in_run


def check_nesting(rec: SpanRecorder) -> list[str]:
    """Problems with the recorded spans: children outside parents, negative self time."""
    a = rec.arrays()
    problems = []
    dur = a["end_ns"] - a["start_ns"]
    if np.any(dur < 0):
        problems.append("span ends before it starts")
    has_parent = a["parent"] >= 0
    p = a["parent"][has_parent]
    if np.any(a["start_ns"][has_parent] < a["start_ns"][p]) or \
            np.any(a["end_ns"][has_parent] > a["end_ns"][p]):
        problems.append("child span outside its parent")
    if np.any(p >= np.nonzero(has_parent)[0]):
        problems.append("parent opened after its child")
    child_ns = np.zeros(dur.shape[0], dtype=np.int64)
    np.add.at(child_ns, p, dur[has_parent])
    if np.any(dur - child_ns < 0):
        problems.append("negative self time")
    return problems


def _objective_wrapper(rec: SpanRecorder, make_problem):
    """make_problem whose bundle's Objective reports value/gradient spans."""

    def wrapped(*args, **kwargs):
        bundle = make_problem(*args, **kwargs)
        if bundle.objective is not None:
            obj = bundle.objective
            bundle.objective = dataclasses.replace(
                obj,
                value=rec.wrap("benchmarks.value", obj.value),
                gradient=rec.wrap("benchmarks.gradient", obj.gradient))
        return bundle

    return rec.wrap("benchmarks.make_problem", wrapped)


def _targets(rec: SpanRecorder):
    """(owner, attribute, replacement) for every name the traced run rebinds."""

    def on_record(args, _result):
        window = args[0]
        rec.windows[id(window)] = window

    def on_simulate(_args, path):
        rec.walk_ranges.append((int(path.max() - path.min()), path.shape[0] - 1))

    experiment = otgrad.harness.experiment
    opt = otgrad.optimizers
    return [
        (otgrad.harness, "parse_config",
         rec.wrap("harness.parse_config", otgrad.harness.parse_config)),
        (otgrad.harness, "run_experiment",
         rec.wrap("harness.run_experiment", otgrad.harness.run_experiment)),
        (otgrad.benchmarks, "make_problem",
         _objective_wrapper(rec, otgrad.benchmarks.make_problem)),
        (experiment, "make_problem", _objective_wrapper(rec, experiment.make_problem)),
        (experiment, "run", rec.wrap("optimizers.run", experiment.run)),
        (experiment, "write_trace_csv",
         rec.wrap("harness.write_trace_csv", experiment.write_trace_csv)),
        (experiment, "classify_point",
         rec.wrap("analysis.classify_point", experiment.classify_point)),
        (experiment, "escape_summary",
         rec.wrap("analysis.escape_summary", experiment.escape_summary)),
        (opt, "eval_objective", rec.wrap("core.eval_objective", opt.eval_objective)),
        (otgrad.analysis, "eval_objective",
         rec.wrap("core.eval_objective", otgrad.analysis.eval_objective)),
        (opt, "sample_occupation_perturbation",
         rec.wrap("occupation.sample_occupation", opt.sample_occupation_perturbation)),
        (opt, "sample_ball_perturbation",
         rec.wrap("occupation.sample_ball", opt.sample_ball_perturbation)),
        (opt, "nce", rec.wrap("optimizers.nce", opt.nce)),
        (opt, "baseline_step", rec.wrap("optimizers.baseline_step", opt.baseline_step)),
        (Batcher, "next_objective", rec.wrap("optimizers.batch", Batcher.next_objective)),
        (OccupationWindow, "counts_all",
         rec.wrap("occupation.counts_all", OccupationWindow.counts_all)),
        (OccupationWindow, "record",
         rec.wrap("occupation.record", OccupationWindow.record, on_record)),
        (MlpProblem, "loss", rec.wrap("benchmarks.value", MlpProblem.loss)),
        (MlpProblem, "loss_gradient",
         rec.wrap("benchmarks.gradient", MlpProblem.loss_gradient)),
        (otgrad.walks, "simulate", rec.wrap("walks.simulate", otgrad.walks.simulate, on_simulate)),
        (otgrad.walks, "msd_curve", rec.wrap("walks.msd_curve", otgrad.walks.msd_curve)),
        (otgrad.walks, "fit_msd_exponent",
         rec.wrap("walks.fit_msd_exponent", otgrad.walks.fit_msd_exponent)),
        (otgrad.walks, "localization_metric",
         rec.wrap("walks.localization_metric", otgrad.walks.localization_metric)),
    ]


class Instrumentation:
    """Rebinds the layer entry points to span-recording wrappers while installed."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._targets = _targets(rec)
        self._saved = None

    def install(self) -> None:
        self._saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._targets]
        for owner, attr, replacement in self._targets:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = None
