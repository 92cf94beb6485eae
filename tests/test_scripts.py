"""The experiment scripts run end to end on small inputs."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> bytes:
    """The script's stdout, with the package source first on PYTHONPATH; it must exit 0."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr.decode()
    return res.stdout


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "axiom_audit.py",
            ["--trials", "5"],
            "| rule (kind) | pareto | majority | pairwise-majority | condorcet"
            " | preference-matching | preference-equivalence | gpm |",
        ),
        ("gap_search.py", ["--trials", "20"], "## Random scan: n=3, m=4, trials=20, seed=1"),
    ],
)
def test_script_runs_and_prints_its_table(script, args, header):
    assert header in _run(script, *args).decode().splitlines()


# every rule x axiom verdict of the audit matrix, over its default spaces and
# 50 random trials; a change that means to alter a verdict re-pins this
AUDIT_TRIALS_50_SHA256 = "cca57e3f59dc0fa15354eb0962c93855ecb5526ad5c5b8d827312e66aba35dcd"


def test_axiom_audit_output_is_pinned():
    stdout = _run("axiom_audit.py", "--trials", "50")
    assert hashlib.sha256(stdout).hexdigest() == AUDIT_TRIALS_50_SHA256
