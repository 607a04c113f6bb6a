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
    records = rec.records()
    m = tracing.layer_metrics(records, 1)
    # one family per trial, its members' spectra known: one eigvalsh, for the
    # Hermitian sum, and no SVD; the first member stays in its own frame, so
    # three summands draw two Haar factors
    assert (m["freeprob.families"], m["freeprob.clt_families"]) == (1, 0)
    assert (m["freeprob.haar_calls"], m["freeprob.eigensolves"]) == (2, 1)
    assert [r for r in records if r["name"] == "linalg.svd"] == []
    assert m["freeprob.brentq_calls"] == 16
    # each draw builds its reflectors from fresh normals and factors nothing,
    # so freeprob.qr_s reads 0
    assert [r for r in records if r["name"] == "linalg.qr"] == []
    assert m["freeprob.qr_s"] == 0


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


def test_traced_sumspace_counts_the_kfunc_solves(capsys):
    # the benchmark patches kfunc.minimize_scalar by name and reads its nfev;
    # theta_evals adds two per theta search for the endpoint evaluations of
    # the Brent search the counter was written for
    tracing = load_tracing()
    rec = tracing.Recorder()
    with tracing.tracing(rec):
        with rec.op_span(0):
            assert cli.main(["sumspace", "--points", "16", "--t-sweep", "0.01,1,100"]) == 0
    capsys.readouterr()
    m = tracing.layer_metrics(rec.records(), 1)
    assert (m["kfunc.l2sum1_calls"], m["kfunc.ik_t_calls"]) == (2, 3)
    # derivative evaluations: 7 + 3 for theta (random grid, 4096-node
    # quotient), 1 + 9 + 2 for sigma (t = 0.01 at sigma = 0, t = 1 inside,
    # t = 100 at sigma = K)
    assert (m["kfunc.theta_evals"], m["kfunc.sigma_evals"]) == (14, 12)


def test_traced_pw_reads_each_factorisation(capsys):
    # per trial: two ingests and the root's ingest build a PositiveMatrix
    # (one eigh each); the oracle's roots, the dual and the norm checks read
    # the stored spectra and solve nothing again.  The pair's eigenbasis is
    # one freeprob Haar draw, and the commuting check runs at build and again
    # in the oracle's sqrt_commuting
    tracing = load_tracing()
    rec = tracing.Recorder()
    with tracing.tracing(rec):
        with rec.op_span(0):
            assert cli.main(["pw", "--dim", "4", "--trials", "2", "--nodes", "64"]) == 0
    capsys.readouterr()
    records = rec.records()
    m = tracing.layer_metrics(records, 1)
    assert m["numlin.positive_builds"] == 2 * 3
    assert sum(r["name"] == "linalg.eigh" for r in records) == 2 * 3
    assert m["freeprob.haar_calls"] == 2
    assert sum(r["name"] == "numlin.commuting_pair" for r in records) == 2 * 2
    # the witness check reads A^{-1} and B^{-1} from the stored spectra
    assert [r for r in records if r["name"] == "linalg.inv"] == []
