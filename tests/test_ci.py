"""The CI workflow's ``python -O`` step selects real test classes.

That step runs chosen classes of chosen files under ``python -O`` by a
``-k`` expression of class names.  A renamed or deleted class would drop
out of the selection without an error, so every name must still be a
test class of one of the files the step lists.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def optimize_step() -> tuple[list, list]:
    """The test files and the ``-k`` names of the step that runs ``python -O``."""
    runs = [line.split("run:", 1)[1] for line in WORKFLOW.read_text().splitlines()
            if line.strip().startswith("run:") and "python -O" in line]
    if len(runs) != 1:
        pytest.fail(f"expected one python -O step, found {len(runs)}")
    argv = shlex.split(runs[0])
    files = [a for a in argv if a.startswith("tests/") and a.endswith(".py")]
    expression = argv[argv.index("-k") + 1]
    names = expression.split(" or ")
    if not files or any(not re.fullmatch(r"Test\w+", n) for n in names):
        pytest.fail(f"unexpected step: files {files}, -k {expression!r}")
    return files, names


def test_every_selected_name_is_a_test_class():
    files, names = optimize_step()
    classes = set()
    for name in files:
        tree = ast.parse((ROOT / name).read_text())
        classes |= {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    missing = [n for n in names if n not in classes]
    if missing:
        pytest.fail(f"-k names with no test class in {files}: {missing}")
