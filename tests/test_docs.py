"""README's key tables against the one declaration of each key."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from otgrad.benchmarks import PROBLEMS
from otgrad.harness.config import _PROBLEM_KEYS, _RUN_KEYS
from otgrad.optimizers import AlgoConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header: str) -> list:
    """Body rows, as lists of cells, of the README table whose header row
    starts with `header`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def as_documented(opt) -> tuple:
    """An Option's (type, default) as the README tables write them."""
    kind = opt.kind if isinstance(opt.kind, str) else opt.kind.__name__
    default = opt.default
    if default is None:
        return kind, "none"
    if isinstance(default, bool):
        return kind, str(default).lower()
    if isinstance(default, str):
        return kind, f"`{default}`"
    if isinstance(default, list):
        return kind, " ".join(map(str, default))
    return kind, repr(default)


def test_problem_option_table_matches_the_registry():
    documented, listed, problem = {}, [], None
    for cells in readme_table("| problem | option |"):
        if cells[0]:
            problem = cells[0].strip("`")
            listed.append(problem)
        if cells[1] != "—":
            documented[(problem, cells[1].strip("`"))] = (cells[2], cells[3], cells[4])
    assert listed == ["every problem", *PROBLEMS]
    declared = {("every problem", key): opt for key, opt in _PROBLEM_KEYS.items()}
    declared.update({(name, key): opt
                     for name, entry in PROBLEMS.items() for key, opt in entry.options.items()})
    assert list(documented) == list(declared)
    for row, (kind, default, allowed) in documented.items():
        opt = declared[row]
        assert (kind, default) == as_documented(opt), row
        assert allowed.startswith(as_allowed(opt)), row


def test_run_key_table_matches_the_run_table():
    documented = {cells[0].strip("`"): (cells[1], cells[2])
                  for cells in readme_table("| `[run]` key |")}
    assert documented == {key: as_documented(opt) for key, opt in _RUN_KEYS.items()}
    assert list(documented) == list(_RUN_KEYS)


def as_allowed(opt) -> str:
    """How the README's "allowed" cell starts for an Option's rule; a str
    or float under no rule may start any way."""
    label = opt.rule[0]
    if label.startswith("one of "):
        return ", ".join(f"`{choice}`" for choice in ast.literal_eval(label[len("one of "):]))
    if not label:
        return "`true` or `false`" if opt.kind is bool else ""
    return "≥ 0" if label == "nonnegative" else label.replace(">= ", "≥ ")


def test_algorithm_key_table_matches_algo_config():
    rows = readme_table("| `[optimizer]` key |")
    options = {f.name: f.metadata["option"] for f in fields(AlgoConfig) if f.name != "name"}
    assert [cells[0].strip("`") for cells in rows] == list(options)
    for cells in rows:
        opt = options[cells[0].strip("`")]
        assert (cells[1], cells[2]) == as_documented(opt), cells[0]
        assert cells[3].startswith(as_allowed(opt)), cells[0]


NUMBER_WORDS = ("zero one two three four five six seven eight nine ten eleven twelve "
                "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()


def test_readme_counts_the_acceptance_gates():
    source = (README.parent / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    gates = [node.name for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")]
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.search(r"`tests/test_acceptance\.py` holds the (\w+) end-to-end", text)
    assert NUMBER_WORDS.index(stated.group(1)) == len(gates)
