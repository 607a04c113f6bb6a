"""Structural guards: one interval type, one verdict path, one JSON emitter,
one Q-forming path and a CLI that imports its computing modules lazily.

``Bounded``, ``BoundViolation`` and ``ROUNDING`` are defined in ``numlin``
only, and only ``numlin`` raises ``BoundViolation``; every other module
states its inequalities through ``numlin.violation`` and ``numlin.require``.
Each Haar factor is formed by ``numpy.linalg.lapack_lite.zungqr`` in
``freeprob``, and no module factors a matrix with ``np.linalg.qr``.
``cli`` imports only ``numlin`` and ``report`` of ohlab at module level.
"""

import ast
from pathlib import Path

from numpy.linalg import lapack_lite

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


def mentions_lapack_lite(tree) -> bool:
    """Whether a module imports or reads ``numpy.linalg.lapack_lite``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "lapack_lite":
            return True
        if isinstance(node, ast.ImportFrom) and "lapack_lite" in (node.module or ""):
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any("lapack_lite" in a.name for a in node.names):
            return True
    return False


def linalg_qr_uses(tree) -> list:
    """Line numbers that read ``<x>.linalg.qr`` or import ``qr`` from numpy.linalg."""
    return [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "qr" and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg")
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            and any(a.name == "qr" for a in node.names))
    ]


def test_one_q_forming_path():
    # haar_unitary forms Q from its reflectors with one zungqr call; nothing
    # else reaches into lapack_lite, and nothing factors by np.linalg.qr
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert mentions_lapack_lite(tree) == (path.stem == "freeprob"), path.name
        assert not linalg_qr_uses(tree), path.name


def test_numpy_exposes_zungqr():
    # every free and pw run draws through it: a numpy without it fails here
    assert callable(getattr(lapack_lite, "zungqr", None))


def eager_ohlab_imports(tree) -> set:
    """ohlab submodules a module imports when it is imported, outside any function body."""
    names, nodes = set(), list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom):
            module = "ohlab." * (node.level == 1) + (node.module or "")
            if module.strip(".") == "ohlab":
                names |= {a.name for a in node.names}
            elif module.startswith("ohlab."):
                names.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("ohlab.")}
        nodes.extend(ast.iter_child_nodes(node))
    return names


def test_cli_imports_computing_modules_lazily():
    # a cold `python -m ohlab.cli <command>` loads only the modules its
    # runner imports; main itself needs numlin's verdicts and report's types
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert eager_ohlab_imports(tree) == {"numlin", "report"}
