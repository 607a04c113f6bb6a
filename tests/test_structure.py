"""Structural guards: one interval type, one verdict path and one JSON emitter.

``Bounded``, ``BoundViolation`` and ``ROUNDING`` are defined in ``numlin``
only, and only ``numlin`` raises ``BoundViolation``; every other module
states its inequalities through ``numlin.violation`` and ``numlin.require``.
"""

import ast
from pathlib import Path

import ohlab

SRC = Path(ohlab.__file__).resolve().parent
SHARED = {"Bounded", "BoundViolation", "ROUNDING"}


def definitions(tree) -> set:
    """Names bound at module level by a class, function or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def raised_names(tree) -> set:
    """Names of the exceptions a module raises, called or bare."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_shared_names_live_in_numlin_only():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert definitions(trees["numlin"]) >= SHARED
    assert "BoundViolation" in raised_names(trees["numlin"])
    for module, tree in trees.items():
        if module != "numlin":
            assert not definitions(tree) & SHARED, module
            assert "BoundViolation" not in raised_names(tree), module


def indented_json_calls(tree) -> list:
    """Line numbers of json.dump / json.dumps calls that pass ``indent``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps") and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json" and any(kw.arg == "indent" for kw in node.keywords)
    ]


def test_one_json_emitter():
    # json.dumps with indent runs the pure-Python encoder; Report.to_json is
    # the one canonical writer, and the benchmark tracer patches it by name
    for path in sorted(SRC.glob("*.py")):
        assert not indented_json_calls(ast.parse(path.read_text(encoding="utf-8"))), path.name
    assert callable(ohlab.report.Report.to_json)
