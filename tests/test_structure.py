"""Structural guards: one interval type, one verdict path, one JSON emitter,
one Q-forming path, one array ingest, a CLI that imports its computing modules lazily, no
module that imports numpy when it loads, and no public name in ``src/ohlab``
that only tests reach.

``Bounded``, ``BoundViolation`` and ``ROUNDING`` are defined in ``numlin``
only, and only ``numlin`` raises ``BoundViolation``; every other module
states its inequalities through ``numlin.violation`` and ``numlin.require``.
Each Haar factor is formed by ``numpy.linalg.lapack_lite.zungqr`` in
``freeprob``, and no module factors a matrix with ``np.linalg.qr``.
Arrays are checked for finiteness by ``numlin.as_array`` alone (beside the
Gram condition number in ``geomean.pw_dual``), and ``cli`` checks each flag
in its argparse ``type``, with no helper of its own.
``cli`` imports only ``numlin`` and ``report`` of ohlab at module level.  No
module imports numpy there: each imports it inside the functions that handle
an array, and ``tensorlog`` imports it nowhere.  No module uses
``dataclasses`` or ``functools.cached_property``: every record is a
``NamedTuple``.
Every public name and public method is referenced from ``src/ohlab``, a demo
or the package's script entry point.
"""

import ast
import copy
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import lapack_lite

import ohlab
from ohlab import freeprob, geomean, kfunc, ohspace, quad, report, tensorlog
from ohlab.numlin import PositiveMatrix

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


def array_isfinite_uses(tree) -> set:
    """Names of the module-level definitions that read an array ``isfinite``
    (any ``<x>.isfinite`` but ``math``'s) or import it from numpy."""
    def reads(node):
        return (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and not (isinstance(node.value, ast.Name) and node.value.id == "math")) or (
            isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            and any(a.name == "isfinite" for a in node.names))
    return {getattr(top, "name", "<module>") for top in tree.body if any(map(reads, ast.walk(top)))}


def test_one_array_ingest():
    # numlin.as_array checks every array that enters the library; the Gram
    # operator's condition number is a computed figure, not an input
    uses = {path.stem: array_isfinite_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in uses.items() if names} == {"numlin": {"as_array"},
                                                                          "geomean": {"pw_dual"}}
    assert not definitions(parsed("cli")) & {"check_counts", "check_finite", "parse_list"}
    # the guard sees an attribute read and an import, and passes over math's
    probe = ast.parse("import math\nfrom numpy import isfinite\n\n\ndef f(x):\n    return math.isfinite(x)\n\n\n"
                      "def g(x):\n    return xp.isfinite(x)\n")
    assert array_isfinite_uses(probe) == {"<module>", "g"}


def eager_imports(tree) -> list:
    """Import statements that run when a module is imported: outside any
    function body and any ``if TYPE_CHECKING:`` block."""
    found, nodes = [], list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            nodes.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        nodes.extend(ast.iter_child_nodes(node))
    return found


def eager_ohlab_imports(tree) -> set:
    """ohlab submodules a module imports when it is imported."""
    names = set()
    for node in eager_imports(tree):
        if isinstance(node, ast.ImportFrom):
            module = "ohlab." * (node.level == 1) + (node.module or "")
            if module.strip(".") == "ohlab":
                names |= {a.name for a in node.names}
            elif module.startswith("ohlab."):
                names.add(module.split(".")[1])
        else:
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("ohlab.")}
    return names


def all_imports(tree) -> list:
    """Every import statement of a module: eager, inside a function or for an annotation."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def packages(imports) -> set:
    """Top-level packages, ohlab's relative imports aside, that import statements load."""
    names = set()
    for node in imports:
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_cli_imports_computing_modules_lazily():
    # a cold `python -m ohlab.cli <command>` loads only the modules its
    # runner imports; main itself needs numlin's verdicts and report's types
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert eager_ohlab_imports(tree) == {"numlin", "report"}


def parsed(module: str):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_no_module_imports_numpy_eagerly():
    # `import ohlab` loads all nine modules (the benchmark tracer reads them
    # from sys.modules), and a cold `bracket` or `report` loads cli, numlin,
    # report and tensorlog: none of them may import numpy when it loads
    for path in sorted(SRC.glob("*.py")):
        assert "numpy" not in packages(eager_imports(ast.parse(path.read_text(encoding="utf-8")))), path.name
    # the brackets are closed forms in math: tensorlog imports numpy nowhere,
    # not inside a function and not for an annotation
    assert "numpy" not in packages(all_imports(parsed("tensorlog")))
    # the guard sees an eager import, a `from numpy.linalg import` included,
    # and passes over the deferred ones, where numlin has them
    deferred = "if TYPE_CHECKING:\n    import numpy as np\n\n\ndef f():\n    import numpy as np\n"
    eager = "import math\n\ntry:\n    from numpy.linalg import lapack_lite\nexcept ImportError:\n    pass\n"
    assert packages(eager_imports(ast.parse(deferred))) == set()
    assert packages(eager_imports(ast.parse(deferred + eager))) == {"math", "numpy"}
    assert "numpy" in packages(all_imports(parsed("numlin")))


def test_records_are_named_tuples():
    # `import ohlab` defines the records of all nine modules: a dataclass
    # execs generated methods and loads inspect, a NamedTuple does neither
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "dataclasses" not in packages(all_imports(tree)), path.name
        assert "cached_property" not in {name for _, name, _ in referenced_names(tree)}, path.name


def family():
    return freeprob.free_family([freeprob.semicircle_diag(4)] * 2, 4, seed=1)


# each record type, built as the program builds it, and one of its fields
RECORDS = {
    "ArcsineRule": (lambda: quad.arcsine_rule(4), "n_nodes"),
    "Grid2D": (lambda: quad.Grid2D(quad.arcsine_rule(4), quad.arcsine_rule(2)), "rule_t"),
    "WeightedGrid": (lambda: kfunc.WeightedGrid([1.0, 2.0], [1.0, 1.0], [2.0, 1.0]), "g"),
    "ThreeTermSpec": (lambda: kfunc.ThreeTermSpec(1.0, [1.0, 2.0], [0.5, 0.5]), "t_param"),
    "BallPoint": (lambda: ohspace.BallPoint(np.eye(2) / 2, np.zeros((2, 2))), "min_eig_a"),
    "VariationalResult": (lambda: ohspace.oh_norm_variational(np.eye(2)[None], restarts=1), "value"),
    "PWProblem": (lambda: geomean.random_commuting_pair(2, np.random.default_rng(1)), "pencil"),
    "DualWitness": (lambda: geomean.pw_dual(geomean.random_commuting_pair(2, np.random.default_rng(1)),
                                            [1.0, 0.0], quad.arcsine_rule(8))[1], "h_values"),
    "WitnessQuadruple": (lambda: tensorlog.witness_build(8), "delta"),
    "WitnessNorms": (lambda: tensorlog.witness_validate(tensorlog.witness_build(8)), "pairing"),
    "UpperBoundParts": (lambda: tensorlog.diag_upper_bound(8), "value"),
    "BracketReport": (lambda: tensorlog.bracket_report(8), "lower"),
    "FreeFamily": (family, "eigenvalues"),
    "VoiculescuResult": (lambda: freeprob.voiculescu_check(family()), "margin"),
    "ConverseMargins": (lambda: freeprob.voiculescu_converse_check(family()), "triangle"),
    "CLTResult": (lambda: freeprob.CLTResult.from_families([family()]), "moments"),
    "Report": (lambda: report.Report("bracket", {}, []), "rows"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    # neither a field nor a new name can be set: subclasses keep __slots__ empty
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def same(a, b) -> bool:
    """Field by field: arrays by dtype and value, a PositiveMatrix by its slots, NaN as NaN."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, PositiveMatrix):
        return type(b) is PositiveMatrix and all(same(getattr(a, s), getattr(b, s)) for s in PositiveMatrix.__slots__)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle(name, clone):
    # a NamedTuple reduces to all its fields, so a record whose __new__ takes
    # only its inputs (BallPoint, PWProblem) returns them from __getnewargs__
    record = RECORDS[name][0]()
    twin = clone(record)
    assert type(twin) is type(record) and same(tuple(twin), tuple(record))


ROOT = Path(__file__).resolve().parents[1]
# bench/tracing.py patches Grid2D.meshes to count the bracket grid's bytes, and
# ROADMAP directions 2 and 7 remove it with the tracer's patch
UNREACHED_ALLOWED = {"quad.Grid2D", "quad.Grid2D.meshes"}


def public_definitions(tree) -> list:
    """(qualified name, name, node) of each public module-level class,
    function and assignment, and of each public method of a public class."""
    found = []
    for node in tree.body:
        for name in definitions(ast.Module(body=[node], type_ignores=[])):
            if not name.startswith("_"):
                found.append((name, name, node))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [(f"{node.name}.{sub.name}", sub.name, sub) for sub in node.body
                      if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return found


def referenced_names(tree) -> list:
    """(line, name, is_attribute) of each ``ast.Name``, ``ast.Attribute`` and imported name."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.lineno, node.id, False))
        elif isinstance(node, ast.Attribute):
            refs.append((node.lineno, node.attr, True))
        elif isinstance(node, ast.alias):
            refs.append((node.lineno, node.name.split(".")[-1], False))
    return refs


def unreached(src: Path, demos: Path, pyproject: Path) -> set:
    """Public names of the modules in src that nothing in src, in demos or in
    pyproject's entry points references outside their own definition.  A
    method is reached only as an attribute (``x.name``): a bare name of the
    same spelling is some other variable."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) + sorted(demos.glob("*.py"))}
    refs = [(path, *ref) for path, tree in trees.items() for ref in referenced_names(tree)]
    # an entry point such as `ohlab = "ohlab.cli:main"` names the script's function
    refs += [(pyproject, 0, name, False)
             for name in re.findall(r'"ohlab\.\w+:(\w+)"', pyproject.read_text(encoding="utf-8"))]
    missing = set()
    for path, tree in trees.items():
        if path.parent != src:
            continue
        for qualified, name, node in public_definitions(tree):
            method = "." in qualified
            if not any(n == name and (attr or not method) and not (p == path and node.lineno <= line <= node.end_lineno)
                       for p, line, n, attr in refs):
                missing.add(f"{path.stem}.{qualified}")
    return missing


def test_every_public_name_is_reached():
    # src/ohlab holds only what a command or a demo runs; reference routes
    # that only tests call live in tests/reference.py
    assert unreached(SRC, ROOT / "demos", ROOT / "pyproject.toml") == UNREACHED_ALLOWED


def test_reachability_guard_sees_a_test_only_method(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    # `used` refers only to itself, `helper` only calls itself, and the one
    # `f` outside A.f is a local variable of main
    (src / "m.py").write_text(
        "class A:\n    def used(self):\n        return self.used\n\n    def run(self):\n        return 1\n\n"
        "    def f(self):\n        return 2\n\n"
        "def helper():\n    return helper()\n\n\ndef main():\n    f = A().run()\n    return f\n",
        encoding="utf-8",
    )
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\npkg = "ohlab.m:main"\n', encoding="utf-8")
    assert unreached(src, tmp_path / "demos", tmp_path / "pyproject.toml") == {"m.A.used", "m.A.f", "m.helper"}
