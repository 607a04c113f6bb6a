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
