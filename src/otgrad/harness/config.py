"""Experiment configuration: parsing, validation, hashing, and presets.

Config files are keyed, sectioned plain text (INI style, '#' comments):

    # [problem] names the benchmark and sets the options that its entry in
    # benchmarks.PROBLEMS lists.
    [problem]
    name = staircase        # staircase | airy_regression | reglq |
                            # phase_retrieval | mlp
    dim = 4
    data_seed = 0           # seeds the frozen problem data
    init = default          # default | zeros | constant V |
                            # gaussian MEAN STD | explicit V1 V2 ...

    # [run] controls the grid and the artifacts.
    [run]
    seeds = 0 1 2           # one replicate per seed (distinct, >= 0); all
                            # algorithms in a replicate share its initial point
    max_steps = 2000        # or, for dataset-backed problems: epochs = N
    record_every = 1
    output = runs           # base artifact directory (env override wins)

    # [optimizer] holds hyperparameters shared by every algorithm.
    [optimizer]
    mode = practical        # practical | theory
    eta = 0.1
    t_thres = 10
    g_thres = 0.01
    r = 0.04
    momentum = 0.5
    h = 0.04
    t_count = 200

    # One [algorithm NAME] section per run; keys override [optimizer].
    [algorithm gd]
    [algorithm pgdot]

parse_config() validates everything it can and reports all problems at
once rather than stopping at the first.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from ..benchmarks import PROBLEM_NAMES, PROBLEMS
from ..core import ANY, AT_LEAST_1, NONNEGATIVE, POSITIVE, ContractViolation, Option
from ..optimizers import ALGORITHMS, AlgoConfig, window_budget_fault, window_rows

INIT_STYLES = ("default", "zeros", "constant", "gaussian", "explicit")
OUTPUT_ENV_VAR = "OTGRAD_OUT"


class ConfigError(ValueError):
    """Carries every validation error found in one parse."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


@dataclass
class ExperimentConfig:
    problem_name: str
    problem_options: dict
    data_seed: int
    init: tuple
    seeds: list
    max_steps: Optional[int]
    epochs: Optional[int]
    batch_size: Optional[int]
    record_every: int
    output: str
    threshold: Optional[float]
    classify_eps: float
    classify_rho: float
    algorithms: list = field(default_factory=list)
    config_hash: str = ""


# key -> core.Option (kind, rule, default), which judges the value read
# from the key's text; the [optimizer] and [algorithm NAME] keys are
# AlgoConfig's fields.
_PROBLEM_KEYS = {
    "name": Option(str, ANY, None),
    "data_seed": Option(int, NONNEGATIVE, 0),
    "init": Option(str, ANY, "default"),
}

_RUN_KEYS = {
    "seeds": Option("ints", NONNEGATIVE, [0]),
    "max_steps": Option(int, AT_LEAST_1, None),
    "epochs": Option(int, AT_LEAST_1, None),
    "batch_size": Option(int, AT_LEAST_1, None),   # None: the problem's own, if dataset-backed
    "record_every": Option(int, AT_LEAST_1, 1),
    "output": Option(str, ANY, "runs"),
    "threshold": Option(float, ANY, None),
    "classify_eps": Option(float, POSITIVE, 0.01),
    "classify_rho": Option(float, POSITIVE, 1.0),
}

_ALGO_KEYS = {f.name: f.metadata["option"] for f in fields(AlgoConfig) if f.name != "name"}

_DATASET_BACKED = "a dataset-backed problem ({})".format(
    ", ".join(name for name, entry in PROBLEMS.items() if entry.batch_size is not None))


def _convert(raw: str, kind):
    """raw read as a value of kind, or raw itself when it does not read as
    one, for the key's Option to refuse."""
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == "ints":
            return [int(p) for p in raw.replace(",", " ").split()] or raw
    except (KeyError, ValueError):    # KeyError: not a word of configparser's boolean table
        pass
    return raw


def _read_section(parser, section: str, keytable: dict, errors: list) -> dict:
    out = {}
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in keytable:
            errors.append(f"[{section}] unknown key {key!r}")
            continue
        option = keytable[key]
        value = _convert(raw, option.kind)
        values = value if isinstance(value, list) else [value]
        fault = next(filter(None, map(option.fault, values)), None)
        if fault:
            errors.append(f"[{section}] {key}: must be {fault}, got {raw!r}")
            continue
        out[key] = value
    return out


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"values must be finite, got {token!r}")
    return value


def _parse_init(raw: str, errors: list):
    tokens = raw.split()
    style = tokens[0] if tokens else ""
    if style not in INIT_STYLES:
        errors.append(f"[problem] init: unknown style {style!r}, expected one of {INIT_STYLES}")
        return ("default",)
    try:
        if style in ("default", "zeros"):
            if len(tokens) != 1:
                raise ValueError(f"'{style}' takes no arguments")
            return (style,)
        if style == "constant":
            if len(tokens) != 2:
                raise ValueError("'constant' takes one value")
            return (style, _finite(tokens[1]))
        if style == "gaussian":
            if len(tokens) != 3:
                raise ValueError("'gaussian' takes mean and std")
            mean, std = _finite(tokens[1]), _finite(tokens[2])
            if std <= 0:
                raise ValueError("gaussian std must be positive")
            return (style, mean, std)
        values = [_finite(tok) for tok in tokens[1:]]
        if not values:
            raise ValueError("'explicit' needs at least one value")
        return (style, tuple(values))
    except ValueError as exc:
        errors.append(f"[problem] init: {exc}")
        return ("default",)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    errors: list = []
    algo_sections = []
    for section in parser.sections():
        if section in ("problem", "run", "optimizer"):
            continue
        if section.startswith("algorithm "):
            algo_sections.append(section)
        else:
            errors.append(f"unknown section [{section}]")

    entry = PROBLEMS.get(parser.get("problem", "name", fallback="").strip())
    problem = _read_section(parser, "problem",
                            {**_PROBLEM_KEYS, **(entry.options if entry else {})}, errors)
    given = _read_section(parser, "run", _RUN_KEYS, errors)
    run = {key: given.get(key, copy.copy(opt.default)) for key, opt in _RUN_KEYS.items()}
    shared = _read_section(parser, "optimizer", _ALGO_KEYS, errors)

    name, data_seed, init = (problem.pop(key, opt.default) for key, opt in _PROBLEM_KEYS.items())
    if name is None:
        errors.append("[problem] missing required key 'name'")
    elif name not in PROBLEM_NAMES:
        errors.append(f"[problem] unknown problem {name!r}, expected one of {PROBLEM_NAMES}")
    init = _parse_init(init, errors)
    if entry is not None:
        # the options that passed their own rules, the others at their defaults
        message = entry.check(entry.resolve(name, problem))
        if message:
            errors.append(f"[problem] {message}")
    # epochs, batch_size and full_grad_gate need the mini-batches of a
    # dataset-backed problem; an unknown problem is reported above
    closed_form = entry is not None and entry.batch_size is None

    algorithms = []
    seen = set()
    if not algo_sections:
        errors.append("no [algorithm NAME] sections; at least one is required")
    for section in algo_sections:
        algo_name = section[len("algorithm "):].strip()
        if algo_name not in ALGORITHMS:
            errors.append(f"[{section}] unknown algorithm {algo_name!r}, "
                          f"expected one of {ALGORITHMS}")
            continue
        if algo_name in seen:
            errors.append(f"duplicate section [{section}]")
            continue
        seen.add(algo_name)
        merged = {**shared, **_read_section(parser, section, _ALGO_KEYS, errors)}
        if "eta" not in merged:
            errors.append(f"[{section}] missing required key 'eta' "
                          "(set it here or in [optimizer])")
            continue
        if merged.get("full_grad_gate") and closed_form:
            # the gate reads the full-data gradient, which exists only next to mini-batches
            errors.append(f"[{section}] 'full_grad_gate' requires {_DATASET_BACKED}")
        try:
            algorithms.append(AlgoConfig(name=algo_name, **merged))
        except ContractViolation as exc:   # a rule across keys: each key passed its own
            errors.append(f"[{section}] {exc}")

    if len(set(run["seeds"])) != len(run["seeds"]):
        errors.append(f"[run] seeds: must not repeat, got {run['seeds']}")
    if run["max_steps"] is None and run["epochs"] is None:
        errors.append("[run] missing required key: set 'max_steps' or 'epochs'")
    elif run["max_steps"] is not None and run["epochs"] is not None:
        errors.append("[run] 'max_steps' and 'epochs' are mutually exclusive")
    for key in ("epochs", "batch_size"):
        if run[key] is not None and closed_form:
            errors.append(f"[run] '{key}' requires {_DATASET_BACKED}")
    if run["batch_size"] is None and entry is not None:
        run["batch_size"] = entry.batch_size

    if errors:
        raise ConfigError(errors)

    config = ExperimentConfig(problem_name=name, problem_options=problem, data_seed=data_seed,
                              init=init, algorithms=algorithms, **run)
    config.config_hash = config_hash(config)
    return config


def check_window_budget(config: ExperimentConfig, dim: int, max_steps: int) -> None:
    """Raise ConfigError if some section's occupation windows would overflow
    their budget: run_lanes's own sizing and check over the grid, with the
    section and the keys that lower it."""
    errors = []
    for algo in config.algorithms:
        rows, whole = window_rows(algo, dim, max_steps)
        fault = window_budget_fault(len(config.seeds), rows, dim)
        if fault:
            keys = ("[run] seeds, max_steps or epochs, or the problem's size, or use "
                    "mode = practical with a t_count" if whole
                    else "t_count, [run] seeds, or the problem's size")
            errors.append(f"[algorithm {algo.name}] {fault}: lower {keys}")
    if errors:
        raise ConfigError(errors)


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    return value


def config_hash(config: ExperimentConfig) -> str:
    """Canonical content hash: stable under key order and formatting."""
    algos = {}
    for algo in config.algorithms:
        algos[algo.name] = {f.name: _jsonable(getattr(algo, f.name))
                            for f in fields(algo)}
    canon = {
        "problem": _jsonable({"name": config.problem_name,
                              "data_seed": config.data_seed,
                              "init": config.init,
                              **config.problem_options}),
        "run": _jsonable({key: getattr(config, key) for key in _RUN_KEYS}),
        "algorithms": algos,
    }
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


_PRESET_HEADER = """\
# Preset experiment: {title}.
# Edit freely; the config grammar is documented in the package README.
"""

_SMOOTH_ALGOS = """\
[algorithm gd]
[algorithm agd]
[algorithm pgd]
[algorithm pagd]
[algorithm pgdot]
[algorithm pagdot]
"""

_MLP_ALGOS = """\
[algorithm sgd_momentum]
[algorithm adam]
[algorithm amsgrad]
[algorithm rmsprop]
[algorithm pgdot]
[algorithm pagdot]
"""


def _preset(title, problem_block, run_block, optimizer_block, algos) -> str:
    return (_PRESET_HEADER.format(title=title)
            + "\n[problem]\n" + problem_block
            + "\n[run]\n" + run_block
            + "\n[optimizer]\n" + optimizer_block
            + "\n" + algos)


PRESETS = {
    "example1": _preset(
        "staircase profile, 4 plateaus",
        "name = staircase\ndim = 4\nn_plateaus = 4\nlength = 1.0\ndata_seed = 0\n",
        "seeds = 0 1 2\nmax_steps = 2000\nrecord_every = 1\n",
        "mode = practical\neta = 0.1\nt_thres = 10\ng_thres = 0.01\nr = 0.04\n"
        "momentum = 0.5\nh = 0.04\nt_count = 200\n",
        _SMOOTH_ALGOS),
    "example2": _preset(
        "oscillatory-integral regression",
        "name = airy_regression\ndata_seed = 0\n",
        "seeds = 0 1 2\nmax_steps = 14000\nrecord_every = 1\n",
        "mode = practical\neta = 0.1\nt_thres = 50\ng_thres = 0.1\nr = 0.1\n"
        "momentum = 0.5\nh = 0.04\nt_count = 200\n",
        _SMOOTH_ALGOS),
    "example3_lq": _preset(
        "regularized linear-quadratic problem",
        "name = reglq\nn_terms = 10\ndata_seed = 0\n",
        "seeds = 0 1 2\nmax_steps = 3000\nrecord_every = 1\n",
        "mode = practical\neta = 0.01\nt_thres = 50\ng_thres = 0.01\nr = 0.01\n"
        "momentum = 0.5\nh = 1\nt_count = 200\n",
        _SMOOTH_ALGOS),
    "example3_pr": _preset(
        "phase retrieval",
        "name = phase_retrieval\ndim = 10\nn_measurements = 200\ndata_seed = 173\n",
        "seeds = 0 1 2\nmax_steps = 1200\nrecord_every = 1\n",
        "mode = practical\neta = 0.001\nt_thres = 50\ng_thres = 1\nr = 0.01\n"
        "momentum = 0.5\nh = 1\nt_count = 200\n",
        _SMOOTH_ALGOS),
    "example4_mnist": _preset(
        "small dense net on 10x10 handwritten digits (expects local IDX files)",
        "name = mlp\ndataset = mnist_idx\ndata_path = data/mnist\nn_hidden = 32\n"
        "init_mean = -1.0\ninit_std = 0.1\ndata_seed = 0\n",
        "seeds = 0 1 2\nepochs = 200\nbatch_size = 128\nrecord_every = 10\n",
        "mode = practical\neta = 0.01\nt_thres = 10\ng_thres = 0.1\nr = 0.5\n"
        "momentum = 0.9\nh = 1e12\nt_count = 50\n",
        _MLP_ALGOS),
    "example4_cifar": _preset(
        "small dense net on 10x10 grayscale natural images (expects local binary batches)",
        "name = mlp\ndataset = cifar10_binary\ndata_path = data/cifar-10-batches-bin\nn_hidden = 32\n"
        "init_mean = -1.0\ninit_std = 0.1\ndata_seed = 0\n",
        "seeds = 0 1 2\nepochs = 200\nbatch_size = 128\nrecord_every = 10\n",
        "mode = practical\neta = 0.01\nt_thres = 10\ng_thres = 0.1\nr = 0.5\n"
        "momentum = 0.9\nh = 1e12\nt_count = 50\n",
        _MLP_ALGOS),
}
