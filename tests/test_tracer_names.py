"""The benchmark's tracer (perfbench/tracer.py) still finds every name it rebinds.

The tracer swaps module attributes and class methods of otgrad for
span-recording wrappers, looking each one up by name, and rebuilds each
bundle's Objective with wrapped `value` and `gradient`.  A refactor that
drops or renames one of those names breaks every traced benchmark run;
this test fails first.  It only reads perfbench/.
"""

import importlib
from pathlib import Path

from otgrad.benchmarks import make_problem
from otgrad.core import eval_objective

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_wraps_a_staircase_bundle(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    rec = tracer.SpanRecorder()
    inst = tracer.Instrumentation(rec)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in inst._targets]
    inst.install()
    inst.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)

    bundle = tracer._objective_wrapper(rec, make_problem)("staircase")
    x = bundle.init_point(0) + 0.1
    obj = bundle.objective
    f, g = eval_objective(obj, x)
    assert obj.value(x) == f and obj.gradient(x).tobytes() == g.tobytes()
    table, _ = tracer.span_table(rec)
    assert [table[name][0] for name in
            ("benchmarks.make_problem", "benchmarks.value", "benchmarks.gradient")] == [1, 1, 1]
