"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder lives here, outside ``src/``: ``tracing(rec)`` wraps the public
functions of every ohlab module by patching module attributes at every
import site (including the ``from ... import`` rebindings such as
``tensorlog.l2sum1_norm`` and the names in ``cli``), plus ``cli.RUNNERS``,
three methods (``Grid2D.meshes``, ``Report.to_json``,
``PositiveMatrix.__init__``), ``kfunc.minimize_scalar`` (for nfev),
``freeprob.brentq`` and ``numpy.linalg.{qr,eigvalsh,svd,inv,eigh}``.  Leaving
the block restores every original.

A span is [name, start, end, parent, op, attrs]; the name's first dotted part
is its layer (an ohlab module, ``linalg``, ``scipy``, or ``op`` for the op's
root span).  Spans are kept in memory and written out once, by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy

LAYERS = ("cli", "report", "quad", "numlin", "geomean", "ohspace", "kfunc", "tensorlog", "freeprob")
LINALG = ("qr", "eigvalsh", "svd", "inv", "eigh")
NAME, START, END, PARENT, OP, ATTRS = range(6)

# (name, unit, better).  Times and counts are per op, averaged over whole
# traced cycles, unless the name says otherwise.
PER_LAYER = [
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("cli.import_ohlab_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("report.to_json_s", "s", "lower"),
    ("report.bytes_out", "bytes", "lower"),
    ("report.self_s", "s", "lower"),
    ("quad.meshes_calls", "count", "lower"),
    ("quad.meshes_s", "s", "lower"),
    ("quad.grid_bytes", "bytes_computed", "lower"),
    ("quad.self_s", "s", "lower"),
    ("numlin.sqrt_commuting_s", "s", "lower"),
    ("numlin.positive_builds", "count", "lower"),
    ("numlin.self_s", "s", "lower"),
    ("geomean.pencil_builds", "count", "lower"),
    ("geomean.pencil_s", "s", "lower"),
    ("geomean.primal_self_s", "s", "lower"),
    ("geomean.dual_self_s", "s", "lower"),
    ("geomean.witness_self_s", "s", "lower"),
    ("geomean.oracle_self_s", "s", "lower"),
    ("geomean.self_s", "s", "lower"),
    ("ohspace.variational_self_s", "s", "lower"),
    ("ohspace.iterations", "count", "lower"),
    ("ohspace.direct_self_s", "s", "lower"),
    ("ohspace.fn_scalar_self_s", "s", "lower"),
    ("ohspace.self_s", "s", "lower"),
    ("kfunc.l2sum1_calls", "count", "lower"),
    ("kfunc.l2sum1_self_s", "s", "lower"),
    ("kfunc.theta_evals", "count", "lower"),
    ("kfunc.theta_points", "count", "lower"),
    ("kfunc.ik_t_calls", "count", "lower"),
    ("kfunc.ik_t_self_s", "s", "lower"),
    ("kfunc.sigma_evals", "count", "lower"),
    ("kfunc.self_s", "s", "lower"),
    ("tensorlog.upper_calls_per_n", "count", "lower"),
    ("tensorlog.upper_self_s", "s", "lower"),
    ("tensorlog.witness_calls_per_n", "count", "lower"),
    ("tensorlog.witness_self_s", "s", "lower"),
    ("tensorlog.peak_alloc_mb", "MB", "lower"),
    ("tensorlog.self_s", "s", "lower"),
    ("freeprob.haar_calls", "count", "lower"),
    ("freeprob.haar_self_s", "s", "lower"),
    ("freeprob.qr_s", "s", "lower"),
    ("freeprob.conjugation_s", "s", "lower"),
    ("freeprob.eigensolves", "count", "lower"),
    ("freeprob.eigensolve_s", "s", "lower"),
    ("freeprob.families", "count", "lower"),
    ("freeprob.clt_families", "count", "lower"),
    ("freeprob.clt_self_s", "s", "lower"),
    ("freeprob.semicircle_diag_s", "s", "lower"),
    ("freeprob.brentq_calls", "count", "lower"),
    ("freeprob.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("scipy.self_s", "s", "lower"),
    ("op.self_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# work counters: exact, so two traced runs with one seed must agree on them
COUNTER_UNITS = ("count", "bytes", "bytes_computed")


class Recorder:
    """In-memory spans.  A span is recorded only while an op is open."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def begin(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; yields its index."""
        self.op = op_id
        index = self.begin("op")
        try:
            yield index
        finally:
            self.end(index)
            self.op = None

    def attach(self, root: int, records) -> None:
        """Add spans recorded by another process under the span ``root``."""
        offset = len(self.spans)
        op = self.spans[root][OP]
        for r in records:
            parent = root if r["parent"] is None else r["parent"] + offset
            self.spans.append([r["name"], r["start"], r["end"], parent, op, r["attrs"]])

    def records(self) -> list:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "op": s[OP], "attrs": s[ATTRS]}
            for s in self.spans
        ]


def _traced(rec, name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if attrs is not None:
            rec.spans[index][ATTRS] = attrs(args, kwargs, result)
        return result

    return wrapper


def _traced_search(rec, fn):
    """minimize_scalar: a span with nfev, and a kfunc span per objective call."""

    @functools.wraps(fn)
    def wrapper(fun, *args, **kwargs):
        if rec.op is None:
            return fn(fun, *args, **kwargs)
        index = rec.begin("scipy.minimize_scalar")
        try:
            result = fn(_traced(rec, "kfunc.objective", fun), *args, **kwargs)
        finally:
            rec.end(index)
        rec.spans[index][ATTRS] = {"nfev": int(result.nfev)}
        return result

    return wrapper


def _traced_bracket(rec, fn):
    """bracket_report: a span with n and the tracemalloc peak of the call."""

    @functools.wraps(fn)
    def wrapper(n, *args, **kwargs):
        if rec.op is None:
            return fn(n, *args, **kwargs)
        index = rec.begin("tensorlog.bracket_report")
        tracemalloc.start()
        try:
            result = fn(n, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            rec.end(index)
        rec.spans[index][ATTRS] = {"n": int(n), "peak_alloc": peak}
        return result

    return wrapper


def _first_arg_size(args, kwargs, result):
    return {"points": int(numpy.size(args[0]))}


def _grid_bytes(args, kwargs, result):
    grid = args[0]
    return {"grid_bytes": 3 * 8 * grid.rule_t.n_nodes * grid.rule_s.n_nodes}


def _json_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _ndim(args, kwargs, result):
    return {"ndim": int(numpy.ndim(args[0]))}


@contextlib.contextmanager
def tracing(rec: Recorder):
    """Install the span wrappers for the duration of the block."""
    import ohlab  # noqa: F401  (imports every submodule)

    mods = {layer: sys.modules[f"ohlab.{layer}"] for layer in LAYERS}
    undo = []

    def patch(target, attr, new):
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    wrappers = {}
    for layer, mod in mods.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                hook = _first_arg_size if (layer, name) == ("kfunc", "l2sum1_norm") else None
                wrappers[fn] = _traced(rec, f"{layer}.{name}", fn, hook)
    tensorlog, ohspace = mods["tensorlog"], mods["ohspace"]
    wrappers[tensorlog.bracket_report] = _traced_bracket(rec, tensorlog.bracket_report)
    # one call per alternating-maximisation iteration, over all restarts
    wrappers[ohspace._phi] = _traced(rec, "ohspace._phi", ohspace._phi)
    try:
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    patch(mod, attr, wrappers[val])
        runners = mods["cli"].RUNNERS
        for key, fn in list(runners.items()):
            undo.append((runners, key, fn))
            runners[key] = _traced(rec, f"cli.{fn.__name__}", fn)
        patch(mods["quad"].Grid2D, "meshes",
              _traced(rec, "quad.Grid2D.meshes", mods["quad"].Grid2D.meshes, _grid_bytes))
        patch(mods["report"].Report, "to_json",
              _traced(rec, "report.Report.to_json", mods["report"].Report.to_json, _json_bytes))
        patch(mods["numlin"].PositiveMatrix, "__init__",
              _traced(rec, "numlin.PositiveMatrix", mods["numlin"].PositiveMatrix.__init__))
        patch(mods["kfunc"], "minimize_scalar", _traced_search(rec, mods["kfunc"].minimize_scalar))
        patch(mods["freeprob"], "brentq", _traced(rec, "scipy.brentq", mods["freeprob"].brentq))
        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            patch(numpy.linalg, name, _traced(rec, f"linalg.{name}", fn, _ndim if name == "inv" else None))
        yield rec
    finally:
        for target, attr, original in reversed(undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)


def self_times(records) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, r in enumerate(records):
        if r["parent"] is not None:
            children[r["parent"]].append(i)
    out = []
    for i, r in enumerate(records):
        lo, hi = r["start"], r["end"]
        covered, reach = 0.0, lo
        for a, b in sorted((max(records[c]["start"], lo), min(records[c]["end"], hi)) for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def layer_metrics(records, n_ops: int) -> dict:
    """Every span-derived per-layer metric (all of PER_LAYER except the
    import times and the tracing overhead, which are measured elsewhere)."""
    spans = []
    for i, (r, own) in enumerate(zip(records, self_times(records))):
        spans.append(dict(r, i=i, self=own, dur=r["end"] - r["start"], layer=r["name"].split(".")[0],
                          attrs=r["attrs"] or {}))
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def parent(s):
        return spans[s["parent"]] if s["parent"] is not None else {"name": None, "layer": None}

    def per_op(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    def total(items, key):
        return sum(s[key] for s in items)

    def under(items, *names):
        return [s for s in items if parent(s)["name"] in names]

    def named(*names):
        return [s for name in names for s in by_name[name]]

    m = {}
    for layer in LAYERS + ("linalg", "scipy", "op"):
        m[f"{layer}.self_s"] = per_op(sum(s["self"] for s in spans if s["layer"] == layer))

    tj = named("report.Report.to_json")
    m["report.to_json_s"] = per_op(total(tj, "dur"))
    m["report.bytes_out"] = per_op(sum(s["attrs"]["bytes"] for s in tj))

    meshes = named("quad.Grid2D.meshes")
    m["quad.meshes_calls"] = per_op(len(meshes))
    m["quad.meshes_s"] = per_op(total(meshes, "dur"))
    m["quad.grid_bytes"] = per_op(sum(s["attrs"]["grid_bytes"] for s in meshes))

    m["numlin.sqrt_commuting_s"] = per_op(total(named("numlin.sqrt_commuting"), "dur"))
    m["numlin.positive_builds"] = per_op(len(named("numlin.PositiveMatrix")))

    pencils = [s for s in named("linalg.inv") if s["attrs"]["ndim"] == 3 and parent(s)["layer"] == "geomean"]
    m["geomean.pencil_builds"] = ratio(len(pencils), len(named("geomean.random_commuting_pair")))
    m["geomean.pencil_s"] = per_op(total(pencils, "dur"))
    for key, fn in (("primal", "pw_primal"), ("dual", "pw_dual"), ("witness", "dual_witness_validate"),
                    ("oracle", "pw_oracle")):
        m[f"geomean.{key}_self_s"] = per_op(total(named(f"geomean.{fn}"), "self"))

    m["ohspace.variational_self_s"] = per_op(total(named("ohspace.oh_norm_variational", "ohspace._phi"), "self"))
    m["ohspace.iterations"] = per_op(len(named("ohspace._phi")))
    m["ohspace.direct_self_s"] = per_op(total(named("ohspace.oh_norm_direct"), "self"))
    m["ohspace.fn_scalar_self_s"] = per_op(total(named("ohspace.fn_scalar_norm"), "self"))

    searches = named("scipy.minimize_scalar")
    theta = under(searches, "kfunc.l2sum1_norm")
    sigma = under(searches, "kfunc.ik_t_parts")
    theta_ids = {s["i"] for s in theta}
    sigma_ids = {s["i"] for s in sigma}
    objective = named("kfunc.objective")
    m["kfunc.l2sum1_calls"] = per_op(len(named("kfunc.l2sum1_norm")))
    m["kfunc.l2sum1_self_s"] = per_op(
        total(named("kfunc.l2sum1_norm"), "self") + total([s for s in objective if s["parent"] in theta_ids], "self")
    )
    # nfev of the bounded search plus the two endpoint evaluations F(0), F(1)
    m["kfunc.theta_evals"] = per_op(sum(s["attrs"]["nfev"] + 2 for s in theta))
    m["kfunc.theta_points"] = per_op(sum((s["attrs"]["nfev"] + 2) * parent(s)["attrs"]["points"] for s in theta))
    m["kfunc.ik_t_calls"] = per_op(len(named("kfunc.ik_t_parts")))
    m["kfunc.ik_t_self_s"] = per_op(
        total(named("kfunc.ik_t_parts", "kfunc.ik_t_norm"), "self")
        + total([s for s in objective if s["parent"] in sigma_ids], "self")
    )
    m["kfunc.sigma_evals"] = per_op(sum(s["attrs"]["nfev"] for s in sigma))

    reports = named("tensorlog.bracket_report")
    m["tensorlog.upper_calls_per_n"] = ratio(len(named("tensorlog.diag_upper_bound")), len(reports))
    m["tensorlog.upper_self_s"] = per_op(total(named("tensorlog.diag_upper_bound"), "self"))
    # the witness route exists only for n >= 7
    m["tensorlog.witness_calls_per_n"] = ratio(
        len(named("tensorlog.witness_validate")), sum(1 for s in reports if s["attrs"]["n"] >= 7)
    )
    m["tensorlog.witness_self_s"] = per_op(total(named("tensorlog.witness_validate"), "self"))
    m["tensorlog.peak_alloc_mb"] = max((s["attrs"]["peak_alloc"] for s in reports), default=0) / 2**20

    haar = named("freeprob.haar_unitary")
    families = named("freeprob.free_family")
    eig = [s for s in named("linalg.eigvalsh", "linalg.svd") if parent(s)["layer"] == "freeprob"]
    m["freeprob.haar_calls"] = per_op(len(haar))
    m["freeprob.haar_self_s"] = per_op(total(haar, "self"))
    m["freeprob.qr_s"] = per_op(total(under(named("linalg.qr"), "freeprob.haar_unitary"), "dur"))
    m["freeprob.conjugation_s"] = per_op(total(families, "self"))
    m["freeprob.eigensolves"] = per_op(len(eig))
    m["freeprob.eigensolve_s"] = per_op(total(eig, "dur"))
    m["freeprob.families"] = per_op(len(families))
    m["freeprob.clt_families"] = per_op(len(under(families, "freeprob.free_clt_check")))
    m["freeprob.clt_self_s"] = per_op(total(named("freeprob.free_clt_check"), "self"))
    m["freeprob.semicircle_diag_s"] = per_op(total(named("freeprob.semicircle_diag"), "dur"))
    m["freeprob.brentq_calls"] = per_op(len(named("scipy.brentq")))

    roots = [s for s in spans if s["parent"] is None]
    m["trace.layer_share"] = ratio(sum(s["self"] for s in spans if s["parent"] is not None), total(roots, "dur"))
    return m
