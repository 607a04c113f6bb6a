"""The traced benchmark patches names in every ohlab module; entering its
tracing block fails at once if one of them is gone."""

import importlib.util
from pathlib import Path

from ohlab import cli, freeprob

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_enters_and_restores(capsys):
    tracing = load_tracing()
    original = freeprob.free_family
    rec = tracing.Recorder()
    with tracing.tracing(rec):
        assert freeprob.free_family is not original
        with rec.op_span(0):
            assert cli.main(["free", "--dim", "16", "--summands", "3", "--trials", "1"]) == 0
    capsys.readouterr()
    assert freeprob.free_family is original
    m = tracing.layer_metrics(rec.records(), 1)
    # one family per trial, its members' spectra known: one eigensolve, for the sum
    assert (m["freeprob.families"], m["freeprob.clt_families"]) == (1, 0)
    assert (m["freeprob.haar_calls"], m["freeprob.eigensolves"]) == (3, 1)
    assert m["freeprob.brentq_calls"] == 16


def test_traced_bracket_sees_the_closed_forms(capsys):
    # the benchmark counts bracket work by the names it patches; a rewrite
    # that drops one of them would read 0 here instead of 1
    tracing = load_tracing()
    rec = tracing.Recorder()
    with tracing.tracing(rec):
        with rec.op_span(0):
            assert cli.main(["bracket", "--n-list", "8", "--grid", "128"]) == 0
    capsys.readouterr()
    m = tracing.layer_metrics(rec.records(), 1)
    assert (m["tensorlog.upper_calls_per_n"], m["tensorlog.witness_calls_per_n"]) == (1, 1)
    assert (m["quad.meshes_calls"], m["kfunc.theta_evals"]) == (0, 0)
