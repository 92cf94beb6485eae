"""Imports: numpy is loaded by the float solve alone, no import goes unread,
and the declared Python floor has every interpreter function the package calls.

The suite's own process already holds numpy (test_reward imports it), so
every numpy case runs its commands in a new interpreter and reports, after
each command, its exit code, the sha256 of its stdout and whether numpy is in
`sys.modules`; the library probe reports the last alone.  The unread-import
check is static: it parses each package module and reads no code.
"""
from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from prefaxiom import complete_profile, default_labels, serialize_profile
from test_cli import BALANCED_UNEVEN, BT_EMBEDDABLE, PINNED

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: a JSON list of command lines; prints one [exit, digest, numpy loaded] per command
PROBE = """
import hashlib, json, sys
import prefaxiom, prefaxiom.cli
from click.testing import CliRunner
report = [["import", None, "numpy" in sys.modules]]
runner = CliRunner()
for args in json.loads(sys.argv[1]):
    res = runner.invoke(prefaxiom.cli.main, args)
    report.append([res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest(), "numpy" in sys.modules])
print(json.dumps(report))
"""


# gpmd under both policies, preference matching's exact target, closed-form
# MLE fits and the weight graph's reachability questions, through the
# library: prints whether numpy loaded
LIBRARY_PROBE = """
import sys
from fractions import Fraction
from prefaxiom import (
    Comparison, DisconnectedGraphError, EpsilonPolicy, WeightMatrix, bt_embeddable,
    complete_profile, gpmd, is_transitive, minimizer_exists, scores, softmax, tally,
    top_component, weights_standard,
)
from prefaxiom.reward import fit_mle
profile = complete_profile(["a", "b", "c"], [["a", "b", "c"], ["c", "b", "a"]])
# a tally is mle-standard's weight matrix: its exact questions need no numpy
t = tally(profile)
assert weights_standard(t) is t
assert minimizer_exists(t) and top_component(t) == (0, 1, 2)
assert scores(t) == (1, 1, 1)
assert gpmd(profile, EpsilonPolicy.finite(Fraction(1, 100))).p[1] == Fraction(99, 9901)
assert gpmd(profile, EpsilonPolicy.limit()).p == (Fraction(1, 2), 0, Fraction(1, 2))
# an embeddable tally's softmax (its bt_odds normalised), and the fit of
# weights in detailed balance whose pair totals differ, come in closed form
dist = softmax(bt_embeddable(t))
assert dist.p == (Fraction(1, 3),) * 3 and all(type(x) is Fraction for x in dist)
fit = fit_mle(WeightMatrix([[0, 3, 6], [1, 0, 3], [4, 6, 0]]))
assert fit.odds == (1, Fraction(1, 3), Fraction(2, 3)) and fit.status.iterations == 0
chain = WeightMatrix([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
assert not minimizer_exists(chain) and top_component(chain) == (0, 1)
try:
    top_component(WeightMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
except DisconnectedGraphError:
    pass
else:
    raise AssertionError("a split comparison graph must raise")
assert not is_transitive([Comparison(0, 1), Comparison(1, 2), Comparison(2, 0)])
assert is_transitive([Comparison(0, 1), Comparison(1, 2)])
print("numpy" in sys.modules)
"""


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


def _probe(commands: list[list[str]]) -> list[list]:
    return json.loads(_run(PROBE, json.dumps(commands)))


@pytest.fixture
def profile_path(tmp_path, paradox) -> str:
    path = tmp_path / "paradox.json"
    path.write_bytes(serialize_profile(paradox))
    return str(path)


@pytest.fixture
def even_profile_path(tmp_path, four_voter) -> str:
    # m = 4 splits one pair evenly: a half-split under both tie policies
    path = tmp_path / "four_voter.json"
    path.write_bytes(serialize_profile(four_voter))
    return str(path)


@pytest.fixture
def embeddable_profile_path(tmp_path) -> str:
    path = tmp_path / "bt_embeddable.json"
    path.write_bytes(serialize_profile(complete_profile(default_labels(3), BT_EMBEDDABLE)))
    return str(path)


@pytest.fixture
def balanced_uneven_path(tmp_path) -> str:
    path = tmp_path / "balanced_uneven.json"
    path.write_text(json.dumps(BALANCED_UNEVEN))
    return str(path)


def test_import_leaves_numpy_unloaded():
    assert _probe([]) == [["import", None, False]]


def test_exact_commands_leave_numpy_unloaded(
    profile_path, even_profile_path, embeddable_profile_path, balanced_uneven_path
):
    commands = [
        ["tally", profile_path],
        ["rank", profile_path, "--rule", "borda"],
        ["gpmd", profile_path, "--epsilon", "1/100"],
        ["axioms", profile_path, "--rule", "copeland"],
        ["search", "--rule", "copeland", "--axiom", "condorcet", "--space", "exhaustive-complete:n=3,m=3"],
        ["experiment-cycles", "--trials", "20", "--seed", "1"],
        # the majority paths, half-splits included
        ["rank", even_profile_path, "--rule", "copeland", "--tie-policy", "strict"],
        ["search", "--rule", "mle-copeland", "--axiom", "pairwise-majority", "--space", "assumption1:n=4"],
        # probabilistic mle-gpm returns p* itself, the exact softmax of its weights' MLE
        [
            "search", "--rule", "mle-gpm", "--axiom", "gpm",
            "--space", "exhaustive-complete:n=3,m=3", "--epsilon", "1/100",
        ],
        # rank's MLE block is exact where the rule table is: p* itself for
        # mle-gpm, and the odds of win counts in detailed balance
        ["rank", profile_path, "--rule", "mle-gpm"],
        ["rank", embeddable_profile_path, "--rule", "mle-standard", "--format", "json"],
        # uneven pair totals whose win counts are in detailed balance
        ["rank", balanced_uneven_path, "--rule", "mle-standard"],
        ["axioms", even_profile_path, "--rule", "mle-copeland", "--tie-policy", "strict"],
    ]
    report = _probe(commands)
    assert [loaded for _, _, loaded in report] == [False] * (len(commands) + 1)
    # strict mle-copeland refuses the half-split: no constant pair total
    assert [code for code, _, _ in report[1:]] == [0] * (len(commands) - 1) + [1]


def test_first_float_solve_loads_numpy_and_matches_pinned_output(profile_path):
    # the paradox's weights are not in detailed balance, so rank solves
    for rule in ("mle-standard", "mle-copeland"):
        report = _probe([["rank", profile_path, "--rule", rule, "--format", "json"]])
        assert [loaded for _, _, loaded in report] == [False, True]
        assert tuple(report[1][:2]) == PINNED[f"rank-{rule}-paradox-json"]


def test_finite_epsilon_blocks_leave_numpy_unloaded():
    # a mixed block's exact BT odds are normalized, not softmaxed, and the
    # weight graph is read from exact bitmasks
    assert _run(LIBRARY_PROBE).strip() == "False"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module loads, including those of string annotations."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # a forward reference such as "PairwiseTally" or "Fraction | float"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_read(ast.parse(node.value, mode="eval"))
    return read


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in (SRC / "prefaxiom").glob("*.py") if p.name != "__init__.py"),
)
def test_package_module_reads_every_name_it_imports(module):
    tree = ast.parse((SRC / "prefaxiom" / module).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    assert sorted(imported - _names_read(tree)) == []


def test_declared_python_floor_has_the_int_digit_limit():
    # the exact-score printer calls sys.get_int_max_str_digits and
    # sys.set_int_max_str_digits, which arrived in Python 3.10.7; read with a
    # regex because 3.10 has no tomllib
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)(?:\.(\d+))?"$', text, re.MULTILINE)
    assert floor is not None
    assert tuple(int(x or 0) for x in floor.groups()) >= (3, 10, 7)
