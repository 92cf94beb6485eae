"""The benchmark harness and the scripts use only names the package still has.

`perfbench/` and `scripts/` reach the package through attribute chains such
as `prefaxiom.axioms.make_rule` and `from prefaxiom import ...` lists, and the
tracer patches the functions its TARGETS table names.  A renamed or deleted
entry point breaks them only when they run, so these tests resolve every such
name statically.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import prefaxiom

ROOT = Path(__file__).resolve().parent.parent
USERS = [ROOT / "perfbench" / "workloads.py", *sorted((ROOT / "scripts").glob("*.py"))]


def _attribute_chain(node: ast.Attribute) -> list[str] | None:
    """['prefaxiom', 'axioms', 'make_rule'] for prefaxiom.axioms.make_rule, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "prefaxiom":
        return ["prefaxiom", *reversed(names)]
    return None


def _package_names(path: Path) -> set[str]:
    """Every dotted prefaxiom name the file imports or reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prefaxiom":
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "prefaxiom")
        elif isinstance(node, ast.Attribute):
            chain = _attribute_chain(node)
            if chain is not None:
                found.add(".".join(chain))
    return found


def _resolves(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for k, name in enumerate(rest):
        if not hasattr(obj, name):
            # a submodule not yet imported through the package
            try:
                obj = importlib.import_module(".".join([head, *rest[: k + 1]]))
            except ImportError:
                return False
            continue
        obj = getattr(obj, name)
    return True


@pytest.mark.parametrize("path", USERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_package_name_a_harness_file_uses_resolves(path):
    names = _package_names(path)
    assert names, f"{path.name} uses no prefaxiom name; the scan is broken"
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"{path.name} uses names the package lacks: {missing}"


def test_every_traced_target_exists_in_its_module():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"prefaxiom.{layer}"), name, None))
    ]
    assert not missing, f"traced functions missing from the package: {missing}"
    # the tracer numbers search requests by wrapping this one
    assert callable(getattr(prefaxiom.axioms, "iter_profiles", None))
