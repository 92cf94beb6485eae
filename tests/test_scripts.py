"""The experiment scripts run end to end on small inputs."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert header in res.stdout.splitlines()
