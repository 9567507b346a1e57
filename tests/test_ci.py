"""Certificate re-checks run under ``python -O``.

``python -O`` strips ``assert`` statements and makes ``__debug__`` false.
So the package holds neither: its re-checks raise.  And the CI workflow's
``python -O`` step runs the tier-1 command itself, with ``-O`` added and
nothing else, so no test can drop out of it unseen.
"""

from __future__ import annotations

import ast
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PACKAGE = ROOT / "src" / "contextuality"


def run_commands() -> list:
    """The argv of every ``run:`` line of the workflow, in order."""
    return [shlex.split(line.split("run:", 1)[1]) for line in WORKFLOW.read_text().splitlines()
            if line.strip().startswith("run:")]


def test_optimize_step_runs_the_tier1_command():
    commands = run_commands()
    optimized = [argv for argv in commands if "-O" in argv]
    tier1 = [argv for argv in commands if "pytest" in argv and "-O" not in argv]
    if len(optimized) != 1 or len(tier1) != 1:
        pytest.fail(f"expected one python -O step and one tier-1 step, "
                    f"found {len(optimized)} and {len(tier1)}")
    python = tier1[0].index("python") + 1
    expected = tier1[0][:python] + ["-O"] + tier1[0][python:]
    if optimized[0] != expected:
        pytest.fail(f"the python -O step runs {optimized[0]}, not {expected}")


def test_package_has_no_assert_or_debug():
    modules = sorted(PACKAGE.rglob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    if not modules or found:
        pytest.fail(f"{len(modules)} modules; assert or __debug__ at {found}")
