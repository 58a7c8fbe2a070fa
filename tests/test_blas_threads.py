"""one_blas_thread: the guard that keeps a run's products on one BLAS thread.

The guard's own contract (count 1 inside, the caller's count after, nested
use, no OpenBLAS found) is checked in this process.  Reproducibility is
checked in child processes started with OPENBLAS_NUM_THREADS = 1 and 2:
a threaded dot product over more than about 10 000 entries sums in another
order, so without the guard a long MSD fit and an MLP run at d = 11 110
give other bits on two threads than on one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otgrad import core
from otgrad.benchmarks import MlpProblem, make_problem, staircase_objective
from otgrad.core import STREAM_INIT, Objective, derive_stream, one_blas_thread
from otgrad.harness import OUTPUT_ENV_VAR, cli, parse_config, run_experiment
from otgrad.occupation import WeightFn
from otgrad.optimizers import AlgoConfig, run
from otgrad.walks import fit_msd_exponent, msd_curve

SRC = Path(__file__).resolve().parent.parent / "src"

needs_openblas = pytest.mark.skipif(
    core.bundled_blas() is None, reason="numpy bundles no OpenBLAS with thread calls")

SMALL_MLP_CONFIG = """
[problem]
name = mlp
dataset = synthetic_blobs
n_samples = 256
n_hidden = 32
init_mean = -1.0
data_seed = 0

[run]
seeds = 0 1
epochs = 2
batch_size = 128

[optimizer]
eta = 0.01
t_thres = 2
g_thres = 0.1
r = 0.5
momentum = 0.9
h = 1e12
t_count = 50

[algorithm adam]
[algorithm pgdot]
"""


@pytest.fixture
def blas():
    """The bundled OpenBLAS, with the caller's thread count put back after."""
    blas = core.bundled_blas()
    before = blas.get_threads()
    yield blas
    blas.set_threads(before)


@needs_openblas
class TestGuard:
    def test_one_thread_inside_callers_count_after(self, blas):
        blas.set_threads(2)
        with one_blas_thread():
            assert blas.get_threads() == 1
        assert blas.get_threads() == 2

    def test_callers_count_after_an_exception(self, blas):
        blas.set_threads(2)
        with pytest.raises(KeyError):
            with one_blas_thread():
                assert blas.get_threads() == 1
                raise KeyError("inside the guard")
        assert blas.get_threads() == 2

    def test_nested_use(self, blas):
        blas.set_threads(2)
        with one_blas_thread():
            with one_blas_thread():
                assert blas.get_threads() == 1
            assert blas.get_threads() == 1
        assert blas.get_threads() == 2
        blas.set_threads(1)
        with one_blas_thread():
            assert blas.get_threads() == 1
        assert blas.get_threads() == 1

    def test_as_decorator(self, blas):
        blas.set_threads(2)
        inside = one_blas_thread()(blas.get_threads)
        assert (inside(), inside(), blas.get_threads()) == (1, 1, 2)

    def test_run_calls_the_oracle_on_one_thread(self, blas):
        blas.set_threads(2)
        staircase = staircase_objective(dim=4)
        counts = []

        def oracle(X):
            counts.append(blas.get_threads())
            return staircase.oracle(X)

        obj = Objective(dim=4, oracle=oracle)
        run(obj, AlgoConfig(name="pgdot", mode="practical", t_thres=0, g_thres=10.0),
            5, seed=0, x0=np.ones(4))
        assert counts and set(counts) == {1}
        assert blas.get_threads() == 2

    def test_mlp_loss_runs_on_one_thread(self, blas, monkeypatch):
        blas.set_threads(2)
        counts = []
        evaluate = MlpProblem._evaluate

        def spy(self, X, I, gradient):
            counts.append(blas.get_threads())
            return evaluate(self, X, I, gradient)

        monkeypatch.setattr(MlpProblem, "_evaluate", spy)
        problem = make_problem("mlp", data_seed=0, dataset="synthetic_blobs",
                               n_samples=64, n_hidden=4).problem
        full = problem.full_objective()
        full.value(problem.init_params(derive_stream(0, STREAM_INIT)))
        assert counts == [1]
        assert blas.get_threads() == 2

    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_check_and_classify_commands_run_on_one_thread(self, blas, monkeypatch, tmp_path,
                                                          capsys, command):
        blas.set_threads(2)
        counts = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                counts.append(blas.get_threads())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "fd_gradient", spy(cli.fd_gradient))
        monkeypatch.setattr(cli, "classify_point", spy(cli.classify_point))
        point = tmp_path / "point.txt"
        point.write_text("0.5 -0.25\n")
        argv = ["check", "reglq"] if command == "check" else \
            ["classify", "reglq", str(point), "0.1", "1.0"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert counts and set(counts) == {1}
        assert blas.get_threads() == 2


def _run_three(tmp_path, monkeypatch):
    """run() on the MLP, run_experiment on a small MLP grid, and
    fit_msd_exponent, as bytes."""
    problem = make_problem("mlp", data_seed=0, dataset="synthetic_blobs",
                           n_samples=256).problem
    x0 = problem.init_params(derive_stream(0, STREAM_INIT), mean=-1.0)
    tr = run(problem, AlgoConfig(name="pgdot", eta=0.01, t_thres=2, g_thres=0.1, r=0.5,
                                 h=1e12, t_count=50), 10, 0, x0=x0, batch_size=128)
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
    out = run_experiment(parse_config(SMALL_MLP_CONFIG))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    fit = fit_msd_exponent(msd_curve("repelling", WeightFn(1.0), 2000, 10, 4), 200, 2000)
    return tr.fs, tr.grad_norms, tr.final_x.tobytes(), files, fit


def test_no_openblas_found_runs_the_same(tmp_path, monkeypatch):
    found = _run_three(tmp_path / "found", monkeypatch)
    monkeypatch.setattr(core, "bundled_blas", lambda: None)
    assert _run_three(tmp_path / "none", monkeypatch) == found


# Run in a child process: a long MSD fit and a 20-step practical pgdot run
# on the synthetic-blob MLP at n_hidden = 100, printed as exact hex floats.
_CHILD = """
import json
from otgrad.benchmarks import make_problem
from otgrad.core import STREAM_INIT, derive_stream
from otgrad.occupation import WeightFn
from otgrad.optimizers import AlgoConfig, run
from otgrad.walks import fit_msd_exponent, msd_curve

msd = msd_curve("repelling", WeightFn(0.0), 100_000, 100, 0)
fit = fit_msd_exponent(msd, 10_000, 100_000)
problem = make_problem("mlp", data_seed=0, dataset="synthetic_blobs", n_hidden=100).problem
x0 = problem.init_params(derive_stream(0, STREAM_INIT), mean=-1.0, std=0.1)
cfg = AlgoConfig(name="pgdot", mode="practical", eta=0.01, t_thres=10, g_thres=0.1,
                 r=0.5, momentum=0.9, h=1e12, t_count=50)
tr = run(problem, cfg, 20, 0, x0=x0, batch_size=128)
print(json.dumps({"fit": [v.hex() for v in fit],
                  "fs": [float(v).hex() for v in tr.fs],
                  "grad_norms": [float(v).hex() for v in tr.grad_norms]}))
"""


@pytest.fixture(scope="module")
def child_results():
    if core.bundled_blas() is None:
        pytest.skip("numpy bundles no OpenBLAS with thread calls")
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable core: OpenBLAS starts one thread whatever it is asked")
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                              text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        results[threads] = json.loads(proc.stdout)
    return results


def test_long_msd_fit_same_bits_on_one_and_two_threads(child_results):
    assert child_results["1"]["fit"] == child_results["2"]["fit"]


def test_mlp_run_same_bits_on_one_and_two_threads(child_results):
    one, two = child_results["1"], child_results["2"]
    assert len(one["fs"]) == 21
    assert one["fs"] == two["fs"] and one["grad_norms"] == two["grad_norms"]
