"""Certificate re-checks run under ``python -O``, on every exact LP.

``python -O`` strips ``assert`` statements and makes ``__debug__`` false.
So the package holds neither: its re-checks raise.  And the CI workflow's
``python -O`` step runs the tier-1 command itself, with ``-O`` added and
nothing else, so no test can drop out of it unseen.  Every result of the
LP kernel is re-checked where it is solved: each ``solve_eq_nonneg(...)``
call is a direct argument of ``require_certificate(...)``, except in
`sheaf.section_lp`, whose caller re-checks the lifted result; so is each
``_span_farkas(...)`` call, which decides a preparation pattern by a span
certificate or, failing one, by the LP.  And
every empirical model is made, and checked, by one constructor: the one
``EmpiricalModel(...)`` call is in `scenario._filled_model`.  Floats are
rounded at one denominator, `scenario.MAX_DEN`, and no record field has a
mutable default, which every instance would share.  Every exception class
the package defines is told apart somewhere, by name in an ``except``
clause or an ``isinstance`` check, or is an ``AssertionError`` bug
sentinel; any other refusal is a plain ``ValueError``.
"""

from __future__ import annotations

import ast
import builtins
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


def _called(node, name: str) -> bool:
    """Whether ``node`` calls a function named ``name``, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def calls_of(name: str, node, function=None, parent=None):
    """(enclosing function's name, parent node, call) of every call of ``name``."""
    if _called(node, name):
        yield function, parent, node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    for child in ast.iter_child_nodes(node):
        yield from calls_of(name, child, function, node)


def package_calls(name: str) -> list:
    """(module path, enclosing function's name, parent node, call) of every call of ``name``."""
    return [(path, function, parent, call)
            for path in sorted(PACKAGE.rglob("*.py"))
            for function, parent, call in calls_of(name, ast.parse(path.read_text(), str(path)))]


# Each function whose result is an exact certificate, and the one
# (module, function) whose caller re-checks its calls instead.
SOLVERS = {"solve_eq_nonneg": ("sheaf.py", "section_lp"), "_span_farkas": None}


def test_every_lp_result_is_rechecked_where_it_is_solved():
    for solver, exempt in SOLVERS.items():
        calls = package_calls(solver)
        unchecked = [f"{path.relative_to(ROOT)}:{call.lineno} in {function}"
                     for path, function, parent, call in calls
                     if not (_called(parent, "require_certificate") and call in parent.args)
                     and (path.name, function) != exempt]
        if not calls or unchecked:
            pytest.fail(f"{len(calls)} calls of {solver}; not re-checked where solved: "
                        f"{unchecked}")


def test_one_constructor_makes_every_model():
    calls = [(path.name, function, call.lineno)
             for path, function, _, call in package_calls("EmpiricalModel")]
    if [(name, function) for name, function, _ in calls] != [("scenario.py", "_filled_model")]:
        pytest.fail(f"expected one EmpiricalModel call, in scenario._filled_model; "
                    f"found (module, function, line) {calls}")


def package_nodes():
    """(module path, node) of every AST node of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def _is_million(node) -> bool:
    """Whether ``node`` is the literal ``10 ** 6``, or a constant equal to it."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return [getattr(node.left, "value", None), getattr(node.right, "value", None)] == [10, 6]
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 10 ** 6


def test_one_rounding_denominator():
    nodes = list(package_nodes())
    millions = [f"{path.name}:{node.lineno}" for path, node in nodes if _is_million(node)]
    named = [(path.name, [getattr(t, "id", None) for t in node.targets])
             for path, node in nodes if isinstance(node, ast.Assign) and _is_million(node.value)]
    if len(millions) != 1 or named != [("scenario.py", ["MAX_DEN"])]:
        pytest.fail(f"10 ** 6 at {millions}, assigned to {named}; expected scenario.MAX_DEN alone")
    takers = [f"{path.name}:{node.name}" for path, node in nodes
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and "max_den" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]]
    if takers != ["exactlp.py:nearest_fraction"]:
        pytest.fail(f"functions taking max_den: {takers}; expected exactlp.nearest_fraction alone")


MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def test_no_record_field_has_a_mutable_default():
    records = [(path, node) for path, node in package_nodes() if isinstance(node, ast.ClassDef)
               and any("Record" in (getattr(b, "id", None), getattr(b, "attr", None))
                       for b in node.bases)]
    shared = [f"{path.name}:{field.lineno} {record.name}.{field.target.id}"
              for path, record in records for field in record.body
              if isinstance(field, ast.AnnAssign) and field.value is not None
              and (isinstance(field.value, MUTABLE)
                   or _called(field.value, "set") or _called(field.value, "dict")
                   or _called(field.value, "list"))]
    if len(records) < 20 or shared:
        pytest.fail(f"{len(records)} record classes; mutable field defaults at {shared}")


def _names(node) -> list:
    """The class names that an ``except`` type or an ``isinstance`` argument names."""
    return [getattr(n, "id", None) or getattr(n, "attr", None)
            for n in (node.elts if isinstance(node, ast.Tuple) else [node])]


def _derives(name: str, classes: dict, root: type) -> bool:
    """Whether class ``name`` derives from the builtin ``root``, through package classes."""
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type):
        return issubclass(builtin, root)
    return any(_derives(base, classes, root) for base in classes.get(name, ()))


def test_every_exception_class_is_handled_or_a_bug_sentinel():
    nodes = [node for _, node in package_nodes()]
    classes = {node.name: [name for base in node.bases for name in _names(base)]
               for node in nodes if isinstance(node, ast.ClassDef)}
    exceptions = sorted(name for name in classes if _derives(name, classes, BaseException))
    handled = {name for node in nodes for name in
               (_names(node.type) if isinstance(node, ast.ExceptHandler) and node.type
                else _names(node.args[1]) if _called(node, "isinstance") and len(node.args) == 2
                else ())}
    unhandled = [name for name in exceptions
                 if name not in handled and not _derives(name, classes, AssertionError)]
    if len(exceptions) < 6 or unhandled:
        pytest.fail(f"exception classes {exceptions}; neither caught, isinstance-checked "
                    f"nor AssertionErrors: {unhandled}")
