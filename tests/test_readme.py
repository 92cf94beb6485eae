"""Every python block in README.md runs against the package as it is.

The quick start names public functions; an API removal that forgets the
README breaks it only for a reader, so each block is executed here.
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS, "README.md has no ```python block; the pattern is broken"


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{k + 1}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
