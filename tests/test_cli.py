import argparse
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ohlab import cli, freeprob, geomean, kfunc, ohspace, tensorlog
from ohlab.cli import main
from ohlab.numlin import EPS_PD, BoundViolation
from ohlab.report import MergeError, Report, flatten_row, report_from_dict, report_merge


ALL_MODULES = ("cli", "freeprob", "geomean", "kfunc", "numlin", "ohspace", "quad", "report", "tensorlog")


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ohlab.cli", *args],
        capture_output=True,
        text=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestReportObject:
    def test_json_is_canonical(self):
        rep = Report("demo", {"seed": 0}, [{"x": 1.5, "n": 2}])
        assert rep.to_json() == rep.to_json()
        parsed = json.loads(rep.to_json())
        assert parsed["rows"][0]["x"] == 1.5

    def test_wall_time_excluded(self):
        # timing goes to stderr only: the canonical document has no field for it
        rep = Report("demo", {}, [])
        assert set(json.loads(rep.to_json())) == {"experiment", "version", "params", "rows"}

    def test_nan_is_not_serialised(self):
        with pytest.raises(ValueError):
            Report("demo", {}, [{"x": float("nan")}]).to_json()

    def test_csv_json_numeric_round_trip(self):
        rows = [{"a": 0.1 + 0.2, "nested": {"b": 1e-17}, "n": 3}]
        rep = Report("demo", {}, rows)
        text = rep.to_csv()
        reader = csv.DictReader(io.StringIO(text))
        rec = next(reader)
        parsed = json.loads(rep.to_json())["rows"][0]
        assert float(rec["a"]) == parsed["a"]
        assert float(rec["nested.b"]) == parsed["nested"]["b"]

    def test_flatten(self):
        assert flatten_row({"a": {"b": {"c": 1}}, "d": [1, 2]}) == {"a.b.c": 1, "d": "[1, 2]"}


class TestMerge:
    def rep(self, n):
        return Report("bracket", {"n_list": [n]}, [{"n": n, "lower": 1.0 * n}])

    def test_single_input_identity_rows(self):
        merged = report_merge([self.rep(8)], sources=["a.json"])
        assert [{k: v for k, v in r.items() if k != "source"} for r in merged.rows] == self.rep(8).rows

    def test_two_inputs_sorted_by_n(self):
        merged = report_merge([self.rep(16), self.rep(8)], sources=["a", "b"])
        assert [r["n"] for r in merged.rows] == [8, 16]
        assert [r["source"] for r in merged.rows] == ["b", "a"]

    def test_experiment_mismatch(self):
        other = Report("pw", {}, [])
        with pytest.raises(MergeError, match="experiment"):
            report_merge([self.rep(8), other], sources=["a", "b"])

    def test_version_conflict(self):
        other = Report("bracket", {}, [], version="9.9.9")
        with pytest.raises(MergeError, match="version"):
            report_merge([self.rep(8), other], sources=["a", "b"])

    def test_missing_field_rejected(self):
        with pytest.raises(MergeError, match="missing"):
            report_from_dict({"experiment": "x"}, source="bad.json")


class TestCLI:
    def test_missing_subcommand_usage(self):
        code, _, err = run_cli([])
        assert code == 2
        assert b"usage" in err.lower()

    def test_unknown_flag(self):
        code, _, _ = run_cli(["fock", "--bogus", "1"])
        assert code == 2

    def test_fock_success(self):
        code, out, _ = run_cli(["fock", "--cutoff", "6", "--kmax", "3"])
        assert code == 0
        data = json.loads(out)
        assert [r["moment"] for r in data["rows"]] == [1.0, 2.0, 5.0]

    def test_fock_cutoff_has_no_ceiling(self):
        # the moments walk heights 0..kmax, so the cutoff costs nothing
        code, out, _ = run_cli(["fock", "--cutoff", "100000000", "--kmax", str(cli.MAX_FOCK_KMAX)])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1]["moment"] == 3814986502092304.0 and all(r["abs_err"] == 0.0 for r in rows)

    def test_basis_rejects_nonpositive_n(self, capsys):
        assert main(["basis", "--n", "0", "--nodes", "16", "--vectors", "1"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (RuntimeError("outer ratio search did not converge"), 3),
        (np.linalg.LinAlgError("Singular matrix"), 3),
        (ValueError("--trials must be >= 1"), 2),
        (BoundViolation("pairing below analytic floor"), 1),
    ])
    def test_exit_code_per_failure_kind(self, exc, code, monkeypatch, capsys):
        def failing(args):
            raise exc

        monkeypatch.setitem(cli.RUNNERS, "fock", failing)
        assert main(["fock"]) == code
        assert str(exc) in capsys.readouterr().err

    def test_tolerance_failure_exit_code(self):
        # quadrature error ~1e-14 can never satisfy an impossible tolerance
        code, _, _ = run_cli(["pw", "--dim", "2", "--trials", "1", "--nodes", "256", "--tol", "1e-20"])
        assert code == 1

    # the row fields each runner checks, and the multiple of --tol each may reach
    TOLERANCE_CHECKS = {"pw": (("rel_err_primal", 1.0), ("rel_err_dual_vs_primal", 2.0)),
                        "ohnorm": (("rel_diff", 1.0),)}

    @pytest.mark.parametrize("argv", [
        ["pw", "--dim", "2", "--trials", "2", "--nodes", "256", "--tol", "1e-20"],
        ["ohnorm", "--n", "2", "--m", "2", "--trials", "2", "--tol", "1e-30"],
        ["bracket", "--n-list", "1"],
    ], ids=lambda argv: argv[0])
    def test_exit_one_names_each_failed_check(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        lines = [line for line in err.splitlines() if line.startswith("bound violation: ")]
        if argv[0] == "bracket":
            # the first broken invariant raises, before any report is written
            assert out == "" and len(lines) == 1
            assert lines[0].startswith("bound violation: 1 <= lambda_cb.hi fails at n=1, ")
            return
        # the report is still written, and each failed check has its own line
        rows = strict_loads(out)["rows"]
        tol = float(argv[-1])
        checks = self.TOLERANCE_CHECKS[argv[0]]
        failing = [(key, r["trial"]) for r in rows for key, k in checks if r[key] > k * tol]
        assert len(lines) == len(failing) >= len(rows)
        for (key, trial), line in zip(failing, lines):
            assert line.startswith(f"bound violation: {key} <= ") and f" fails at trial={trial}: " in line

    def test_unwritable_out_path(self, tmp_path):
        code, _, err = run_cli(
            ["fock", "--cutoff", "4", "--kmax", "2", "--out", str(tmp_path / "no" / "dir.json")]
        )
        assert code == 2
        assert b"cannot write" in err

    def test_in_process_entry_point(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["pw", "--dim", "2", "--trials", "2", "--nodes", "256", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["experiment"] == "pw"
        assert len(data["rows"]) == 2

    def test_bracket_rows_and_merge_roundtrip(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["bracket", "--n-list", "16", "--grid", "128", "--out", str(a)]) == 0
        assert main(["bracket", "--n-list", "8", "--grid", "128", "--out", str(b)]) == 0
        merged = tmp_path / "m.json"
        assert main(["report", str(a), str(b), "--out", str(merged)]) == 0
        data = json.loads(merged.read_text())
        assert [r["n"] for r in data["rows"]] == [8, 16]
        assert all(r["lower"] <= r["upper"] for r in data["rows"])

    def test_merge_version_conflict_exit_code(self, tmp_path):
        a = tmp_path / "a.json"
        assert main(["bracket", "--n-list", "8", "--grid", "128", "--out", str(a)]) == 0
        bad = json.loads(a.read_text())
        bad["version"] = "0.0.0"
        b = tmp_path / "b.json"
        b.write_text(json.dumps(bad))
        assert main(["report", str(a), str(b)]) == 2

    @pytest.mark.parametrize("doc, what", [
        pytest.param(3, "JSON object", id="top-level-number"),
        pytest.param({"experiment": "pw", "version": "0.1.0", "params": {}, "rows": 3}, "rows", id="rows-number"),
        pytest.param({"experiment": "pw", "version": "0.1.0", "params": {}, "rows": [], "constants": [1]},
                     "constants", id="constants-not-objects"),
    ])
    def test_malformed_report_is_a_merge_error(self, doc, what, tmp_path, capsys):
        # exit 1 means a bound violation, so an input that cannot be merged
        # is a merge error (exit 2), whatever its shape
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["report", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "merge error" in err and what in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_input_is_a_merge_error(self, literal, tmp_path, capsys):
        # json.load accepts these, and 1e400 parses to inf; the merge used to
        # go through and Report.to_json then raised out of main (exit 1)
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "bracket", "version": "0.1.0", "params": {}, '
                       f'"rows": [{{"n": 8, "lower": {literal}}}]}}')
        assert main(["report", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("merge error:") and str(bad) in err and literal in err

    def test_incomparable_n_is_a_merge_error(self, tmp_path, capsys):
        # sorting an int n beside a str n raised TypeError out of main (exit 1)
        bad = tmp_path / "mixed.json"
        bad.write_text('{"experiment": "bracket", "version": "0.1.0", "params": {}, '
                       '"rows": [{"n": 8}, {"n": "a"}]}')
        assert main(["report", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("merge error:") and err.count("\n") == 1

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["fock", "--cutoff", "5", "--kmax", "2", "--format", "csv", "--out", str(out)]) == 0
        reader = csv.DictReader(io.StringIO(out.read_text()))
        recs = list(reader)
        assert [float(r["moment"]) for r in recs] == [1.0, 2.0]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["pw", "--dim", "2", "--trials", "2", "--nodes", "256", "--seed", "5"],
            ["ohnorm", "--n", "2", "--m", "2", "--trials", "2", "--seed", "5"],
            ["basis", "--n", "2", "--nodes", "256", "--vectors", "3", "--seed", "5"],
            ["sumspace", "--points", "6", "--t-sweep", "0.1,1", "--seed", "5"],
            ["bracket", "--n-list", "8", "--grid", "128", "--seed", "5"],
            ["free", "--dim", "32", "--summands", "3", "--trials", "2", "--seed", "5"],
            ["fock", "--cutoff", "5", "--kmax", "3", "--seed", "5"],
        ],
    )
    def test_byte_identical_json(self, args):
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)


def strict_loads(text):
    """json.loads that rejects NaN and Infinity, which are not RFC 8259 JSON."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def run_in_process(args, capsys):
    code = main(args)
    return code, strict_loads(capsys.readouterr().out)


class TestBracket:
    def test_small_n_writes_null_delta(self, capsys):
        code, doc = run_in_process(["bracket", "--n-list", "4,8", "--grid", "128"], capsys)
        assert code == 0
        assert [r["delta"]["lower"] for r in doc["rows"]] == [None, pytest.approx(1 / (8 * np.e))]

    def test_n_one_is_a_bound_violation(self, capsys):
        # on a 1-dimensional space lambda_cb = pi1 = 1, but the small-n floor
        # banach_c sqrt(n) reports pi1.lo = 1.128 and lambda_cb.hi = 0.886
        assert main(["bracket", "--n-list", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "bound violation" in err and "n=1" in err

    def test_grid_default_is_the_library_default(self):
        assert cli.build_parser().parse_args(["bracket"]).grid == cli.DEFAULT_BRACKET_GRID == 1024

    def test_grid_is_echoed_and_has_no_effect(self, capsys):
        rows = {}
        for grid in (16, 2048):
            code, doc = run_in_process(["bracket", "--n-list", "8", "--grid", str(grid)], capsys)
            assert code == 0 and doc["rows"][0]["grid"] == grid
            rows[grid] = {k: v for k, v in doc["rows"][0].items() if k != "grid"}
        assert rows[16] == rows[2048]

    def test_grid_above_the_bound_rejected(self, capsys):
        assert main(["bracket", "--n-list", "8", "--grid", str(cli.MAX_BRACKET_GRID + 1)]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_constants_are_the_table(self, capsys):
        code, doc = run_in_process(["bracket", "--n-list", "8"], capsys)
        assert code == 0
        rows = [(c["name"], c["value"], c["citation"]) for c in doc["constants"]]
        assert len(rows) == 8 and rows == list(tensorlog.CONSTANT_TABLE)

    def test_n_near_the_delta_limit_accepted(self, capsys):
        # delta = 1/(e^2 n^2) is subnormal above about n = 2.47e153
        code, doc = run_in_process(["bracket", "--n-list", str(24 * 10**152)], capsys)
        assert code == 0 and doc["rows"][0]["delta"]["upper"] >= sys.float_info.min

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(n=st.one_of(st.integers(1, cli.MAX_BRACKET_N),
                       st.integers(0, 10**6).map(lambda k: cli.MAX_BRACKET_N - k)))
    def test_every_accepted_n_runs_the_upper_route(self, n):
        # the parser's ceiling is where the upper route's own check begins
        assert cli.build_parser().parse_args(["bracket", "--n-list", f"8,{n}"]).n_list == [8, n]
        assert tensorlog.diag_upper_bound(n).delta >= sys.float_info.min

    def test_n_list_ceiling_is_the_upper_route_limit(self, capsys):
        # one past the ceiling, the parser names the flag, and the upper route
        # would refuse it too: MAX_BRACKET_N is the largest n it takes
        past = cli.MAX_BRACKET_N + 1
        with pytest.raises(ValueError, match="too large: delta"):
            tensorlog.diag_upper_bound(past)
        assert main(["bracket", "--n-list", f"8,{past}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: argument --n-list: must be <= {cli.MAX_BRACKET_N}, got {past}\n")


@pytest.fixture
def fresh_parser():
    # each test starts and ends with the per-process parser unbuilt
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def outputs(argv, capsys):
    """(exit code, stdout) of one in-process call."""
    return main(argv), capsys.readouterr().out


class TestParserReuse:
    def test_parser_built_once_per_process(self, fresh_parser, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        assert main(["fock", "--cutoff", "4", "--kmax", "2"]) == 0
        assert main(["bracket", "--n-list", "8"]) == 0
        assert main(["basis", "--n", "2", "--nodes", "16", "--vectors", "1"]) == 0
        capsys.readouterr()
        assert len(built) == 1
        # the public builder still returns a new parser on every call
        assert cli.build_parser() is not cli.build_parser()

    def test_calls_share_no_state(self, fresh_parser, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bracket", "--n-list", "8", "--out", "a.json"]) == 0
        assert main(["bracket", "--n-list", "16", "--out", "b.json"]) == 0
        sequence = [
            ["bracket", "--n-list", "8,16"],
            ["bracket"],
            ["bracket", "--grid", "x"],
            ["report", "a.json", "b.json"],
            ["report", "a.json"],
            ["free", "--dim", "16", "--summands", "3", "--trials", "1"],
        ]
        shared = [outputs(argv, capsys) for argv in sequence]
        for argv, (code, out) in zip(sequence, shared):
            cli._parser.cache_clear()
            assert outputs(argv, capsys) == (code, out), argv
        assert [code for code, _ in shared] == [0, 0, 2, 0, 0, 0]
        assert [len(json.loads(out)["rows"]) for _, out in shared[3:5]] == [2, 1]

    def test_cold_process_prints_the_same_bytes(self, capsys):
        argv = ["bracket", "--n-list", "8,16"]
        code, out, _ = run_cli(argv)
        assert (code, out) == (0, outputs(argv, capsys)[1].encode("utf-8"))


class TestFree:
    @pytest.mark.parametrize("trials", [2, 6])
    def test_clt_moments_come_from_the_trial_families(self, trials, capsys):
        # the first min(T, 5) trial families, rebuilt from children 0.. of the
        # seed's spawn, and their moments averaged by numpy's mean
        dim, n, seed = 48, 4, 31
        code, doc = run_in_process(
            ["free", "--dim", str(dim), "--summands", str(n), "--trials", str(trials), "--seed", str(seed)], capsys
        )
        assert code == 0
        spectrum = freeprob.semicircle_diag(dim)
        seeds = np.random.SeedSequence(seed).spawn(trials)[:5]
        ref = np.mean([freeprob.clt_moments(freeprob.free_family([spectrum] * n, dim, seed=s)) for s in seeds], axis=0)
        assert np.max(np.abs(np.array(doc["params"]["clt_moments"]) - ref)) <= 1e-12
        assert np.max(np.abs(np.array(doc["params"]["clt_deviations"]) - (ref - [0.0, 1.0, 0.0, 2.0]))) <= 1e-12

    def test_unitarity_residual_in_every_row(self, capsys):
        dim = 32
        code, doc = run_in_process(["free", "--dim", str(dim), "--summands", "3", "--trials", "3"], capsys)
        assert code == 0
        bound = freeprob.UNITARITY_SLACK * dim * np.finfo(float).eps
        assert len(doc["rows"]) == 3
        assert all(0.0 < r["unitarity_residual"] <= bound for r in doc["rows"])

    def test_op_memory_peak(self, capsys):
        # one op holds at most the sum, a Haar factor and _BLOCK-row panels
        # (the residual's conjugate columns and Gram rows, or U diag(a)'s rows
        # and the member's block, half a dim x dim array each at dim 256), or
        # the sum beside a draw, and no dense base or whole member: 3.0 dim x
        # dim complex arrays
        dim = 256
        argv = ["free", "--dim", str(dim), "--summands", "16", "--trials", "1"]
        assert main(argv) == 0  # the first call also allocates one-time state
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 3.25 * dim * dim * np.dtype(complex).itemsize

    def test_zero_trials_rejected(self, capsys):
        assert main(["free", "--dim", "8", "--summands", "2", "--trials", "0"]) == 2

    def test_dim_above_the_bound_rejected(self, capsys):
        # checked before the base or any Haar factor is built
        assert main(["free", "--dim", str(cli.MAX_FREE_DIM + 1), "--summands", "2", "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--dim" in err and str(cli.MAX_FREE_DIM) in err

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dim_below_one_rejected(self, dim, capsys, monkeypatch):
        # checked before the base is built
        def no_base(dim):
            raise AssertionError("the base was built before --dim was checked")

        monkeypatch.setattr(freeprob, "semicircle_diag", no_base)
        assert main(["free", f"--dim={dim}", "--summands", "2", "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --dim: must be >= 2, got {dim}" in err

    @pytest.mark.parametrize("summands", [1, 3])
    def test_one_point_spectrum_rejected(self, summands, capsys, monkeypatch):
        # a one-point spectrum is zero after centring, whatever --summands:
        # a config error naming --dim, before the base is built
        def no_base(dim):
            raise AssertionError("the base was built before --dim was checked")

        monkeypatch.setattr(freeprob, "semicircle_diag", no_base)
        assert main(["free", "--dim", "1", "--summands", str(summands), "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --dim: must be >= 2, got 1" in err

    def test_one_summand_draws_no_factor(self, capsys):
        # the one member stays in its own frame, so no Haar factor is drawn
        # and the row reports a null residual
        code, doc = run_in_process(["free", "--dim", "16", "--summands", "1", "--trials", "2"], capsys)
        assert code == 0
        assert [r["unitarity_residual"] for r in doc["rows"]] == [None, None]

    @pytest.mark.parametrize("dim, summands", [(2, 2), (4, 16)])
    def test_small_dims_exit_zero(self, dim, summands, capsys):
        # the column converse ||S||_1 <= (sum tau(a_i^2))^(1/2) read 1.590 >
        # 1.143 at dim 2 and exited 1: its cross terms vanish only as
        # dim -> oo, so its margin is reported beside D and not asserted
        code, doc = run_in_process(["free", "--dim", str(dim), "--summands", str(summands), "--trials", "3",
                                    "--seed", "1"], capsys)
        assert code == 0 and len(doc["rows"]) == 3
        for r in doc["rows"]:
            # 1 + D = mean(mu^2) / sum tau(a_i^2) > 0
            assert "converse_row_margin" not in r and r["cross_term_defect"] > -1.0
        if dim == 2:
            assert min(r["converse_column_margin"] for r in doc["rows"]) < 0.0

    def test_scaled_sum_trips_the_triangle(self, capsys, monkeypatch):
        # a sum n times its members' sum breaks ||S||_1 <= sum ||a_i||_1
        real = freeprob.free_family

        def scaled(spectra, dim, seed=0):
            fam = real(spectra, dim, seed=seed)
            return fam._replace(eigenvalues=fam.eigenvalues * len(fam.spectra))

        monkeypatch.setattr(freeprob, "free_family", scaled)
        assert main(["free", "--dim", "16", "--summands", "4", "--trials", "2"]) == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if "||sum a_i||_1 <= sum ||a_i||_1 fails" in line]
        assert len(lines) == 2 and all(line.startswith("bound violation: ") for line in lines)

    def test_zero_centred_base_rejected(self, capsys):
        # at dim 1 the centred base is 0, so the CLT sum cannot be normalised
        assert main(["free", "--dim", "1", "--summands", "2", "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --dim: must be >= 2, got 1" in err


class TestPw:
    def test_one_pencil_factorisation_per_problem(self, monkeypatch, capsys):
        # each trial's problem factorises its pencil once (one SVD), and no
        # node gets an inverse of its own
        calls = {"inverse_ndim": [], "svd": 0}
        real_inv, real_svd = np.linalg.inv, np.linalg.svd

        def counting_inv(a):
            calls["inverse_ndim"].append(np.ndim(a))
            return real_inv(a)

        def counting_svd(a, *args, **kwargs):
            calls["svd"] += 1
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert main(["pw", "--dim", "4", "--trials", "3", "--nodes", "256"]) == 0
        capsys.readouterr()
        assert calls["svd"] == 3
        assert 3 not in calls["inverse_ndim"]

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["pw", "--trials", "0"], "--trials", id="pw"),
        pytest.param(["ohnorm", "--trials", "0"], "--trials", id="ohnorm"),
        pytest.param(["basis", "--vectors", "0", "--nodes", "16"], "--vectors", id="basis"),
        pytest.param(["sumspace", "--t-sweep", ","], "--t-sweep", id="sumspace"),
        pytest.param(["bracket", "--n-list", ","], "--n-list", id="bracket"),
        # delta = 1/(e^2 n^2) must be a positive normal float; 1e160 used to
        # overflow in e^2 n^2 (exit 1), and then to exit 2 naming no flag
        pytest.param(["bracket", "--n-list", f"8,{10**160}"], "argument --n-list: must be <= ", id="bracket-n-1e160"),
        pytest.param(["bracket", "--n-list", f"8,{25 * 10**152}"], "argument --n-list: must be <= ",
                     id="bracket-n-2.5e153"),
        # these ran to the end and then failed in Report.to_json (NaN is not
        # JSON) or in the eigenvalue draw (inf), outside main's error handling
        pytest.param(["pw", "--trials", "1", "--nodes", "16", "--tol", "nan"], "--tol", id="pw-tol-nan"),
        pytest.param(["pw", "--trials", "1", "--nodes", "16", "--tol=-1e-6"], "--tol", id="pw-tol-negative"),
        pytest.param(["pw", "--trials", "1", "--nodes", "16", "--cond", "inf"], "--cond", id="pw-cond-inf"),
        pytest.param(["ohnorm", "--trials", "1", "--tol", "nan"], "--tol", id="ohnorm-tol-nan"),
        pytest.param(["free", "--dim", "8", "--trials", "1", "--slack", "nan"], "--slack", id="free-slack-nan"),
        pytest.param(["free", "--dim", "8", "--trials", "1", "--slack", "inf"], "--slack", id="free-slack-inf"),
        # the column converse's tolerance, gone with the verdict: its default is rejected too
        pytest.param(["free", "--dim", "8", "--trials", "1", "--slack", "0.02"], "--slack", id="free-slack-removed"),
        # these failed later with messages that did not name the flag: "math
        # domain error" from the 2 sqrt(n) target, and the empty family's
        pytest.param(["free", "--dim", "8", "--trials", "1", "--summands=-2"], "--summands", id="free-summands-negative"),
        pytest.param(["free", "--dim", "8", "--trials", "1", "--summands", "0"], "--summands", id="free-summands-0"),
        # these failed with library text that did not name the flag
        pytest.param(["pw", "--dim", "0", "--trials", "1"], "argument --dim: must be >= 1, got 0", id="pw-dim-0"),
        pytest.param(["pw", "--trials", "1", "--nodes", "0"], "argument --nodes: must be >= 1, got 0", id="pw-nodes-0"),
        pytest.param(["basis", "--vectors", "1", "--nodes", "0"], "argument --nodes: must be >= 1, got 0", id="basis-nodes-0"),
        pytest.param(["sumspace", "--nodes", "0"], "argument --nodes: must be >= 1, got 0", id="sumspace-nodes-0"),
        pytest.param(["sumspace", "--points", "0"], "argument --points: must be >= 1, got 0", id="sumspace-points-0"),
        pytest.param(["ohnorm", "--n", "0", "--trials", "1"], "argument --n: must be >= 1, got 0", id="ohnorm-n-0"),
        pytest.param(["ohnorm", "--m", "0", "--trials", "1"], "argument --m: must be >= 1, got 0", id="ohnorm-m-0"),
        pytest.param(["ohnorm", "--trials", "1", "--restarts", "0"], "argument --restarts: must be >= 1, got 0", id="ohnorm-restarts-0"),
        pytest.param(["bracket", "--n-list", "8,0"], "argument --n-list: must be >= 1, got 0", id="bracket-n-0"),
        pytest.param(["bracket", "--n-list", "-3"], "argument --n-list: must be >= 1, got -3", id="bracket-n-negative"),
        # these printed int()'s and float()'s own text, which names no flag
        pytest.param(["bracket", "--n-list", "8,x"], "argument --n-list: invalid int value: 'x'",
                     id="bracket-n-not-an-integer"),
        pytest.param(["sumspace", "--t-sweep", "1,x"], "argument --t-sweep: invalid float value: 'x'",
                     id="sumspace-t-not-a-number"),
        # these printed kfunc's own text, after the two-term norms had run
        pytest.param(["sumspace", "--t-sweep", "1,nan"], "argument --t-sweep: must be finite, got nan",
                     id="sumspace-t-nan"),
        pytest.param(["sumspace", "--t-sweep", "1,inf"], "argument --t-sweep: must be finite, got inf",
                     id="sumspace-t-inf"),
        pytest.param(["sumspace", "--t-sweep", "1,-1"], "argument --t-sweep: values must be > 0, got -1.0",
                     id="sumspace-t-negative"),
        pytest.param(["sumspace", "--t-sweep", "0"], "argument --t-sweep: values must be > 0, got 0.0",
                     id="sumspace-t-zero"),
        # these exited 1 with a false bound violation: the norm is nondecreasing
        # in t, and each value was checked against the one given before it
        pytest.param(["sumspace", "--t-sweep", "100,1"], "argument --t-sweep: values must be nondecreasing, got 1.0 after 100.0",
                     id="sumspace-t-decreasing"),
        pytest.param(["sumspace", "--t-sweep", "0.1,1,1,0.5"],
                     "argument --t-sweep: values must be nondecreasing, got 0.5 after 1.0", id="sumspace-t-drop-after-tie"),
        pytest.param(["fock", "--cutoff", "3", "--kmax", "5"], "--cutoff 3 is below --kmax 5", id="fock-cutoff-below-kmax"),
        # numpy's SeedSequence rejected these with "expected non-negative
        # integer", and bracket and report echoed the seed
        *[pytest.param([*argv, "--seed", "-1"], "argument --seed: must be >= 0, got -1", id=f"{argv[0]}-seed-negative")
          for argv in (["pw", "--dim", "2", "--trials", "1", "--nodes", "16"], ["ohnorm", "--trials", "1"],
                       ["basis", "--vectors", "1", "--nodes", "16"], ["sumspace", "--points", "4", "--nodes", "16"],
                       ["bracket", "--n-list", "8"], ["free", "--dim", "8", "--trials", "1"],
                       ["fock", "--cutoff", "4", "--kmax", "2"], ["report", "missing.json"])],
        # this one exited 0 and echoed -5 in each row
        pytest.param(["bracket", "--grid", "-5", "--n-list", "8"], "argument --grid: must be >= 1, got -5", id="bracket-grid-negative"),
        # memory ceilings, checked before any work
        pytest.param(["ohnorm", "--m", str(cli.MAX_OHNORM_M + 1), "--trials", "1"], f"argument --m: must be <= "
                     f"{cli.MAX_OHNORM_M}, got {cli.MAX_OHNORM_M + 1}", id="ohnorm-m-above-bound"),
        pytest.param(["ohnorm", "--n", "292", "--m", "60", "--trials", "1"], f"--n 292 x --m 60^2 "
                     f"exceeds {cli.MAX_OHNORM_ENTRIES}", id="ohnorm-n-above-bound"),
        pytest.param(["fock", "--cutoff", "40", "--kmax", str(cli.MAX_FOCK_KMAX + 1)], f"argument --kmax: must be "
                     f"<= {cli.MAX_FOCK_KMAX}, got {cli.MAX_FOCK_KMAX + 1}", id="fock-kmax-above-bound"),
        pytest.param(["pw", "--dim", str(cli.MAX_PW_DIM + 1), "--trials", "1", "--nodes", "1"], f"argument --dim: "
                     f"must be <= {cli.MAX_PW_DIM}, got {cli.MAX_PW_DIM + 1}", id="pw-dim-above-bound"),
        pytest.param(["pw", "--dim", "1024", "--trials", "1", "--nodes", "2049"], f"--nodes 2049 x --dim 1024 "
                     f"exceeds {cli.MAX_PW_NODES_DIM}", id="pw-nodes-above-bound"),
        pytest.param(["basis", "--n", str(cli.MAX_BASIS_N + 1), "--vectors", "1"], f"argument --n: must be <= "
                     f"{cli.MAX_BASIS_N}, got {cli.MAX_BASIS_N + 1}", id="basis-n-above-bound"),
        pytest.param(["basis", "--nodes", str(cli.MAX_NODES + 1), "--vectors", "1"], f"argument --nodes: must be "
                     f"<= {cli.MAX_NODES}, got {cli.MAX_NODES + 1}", id="basis-nodes-above-bound"),
        pytest.param(["sumspace", "--points", str(cli.MAX_SUMSPACE_POINTS + 1)], f"argument --points: must be "
                     f"<= {cli.MAX_SUMSPACE_POINTS}, got {cli.MAX_SUMSPACE_POINTS + 1}", id="sumspace-points-above-bound"),
        pytest.param(["sumspace", "--nodes", str(cli.MAX_NODES + 1)], f"argument --nodes: must be <= "
                     f"{cli.MAX_NODES}, got {cli.MAX_NODES + 1}", id="sumspace-nodes-above-bound"),
    ])
    def test_empty_run_rejected(self, argv, flag, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    def test_t_sweep_order_checked_before_any_norm(self, monkeypatch, capsys):
        monkeypatch.setattr(kfunc, "l2sum2_norm", lambda *args: pytest.fail("a norm ran"))
        assert main(["sumspace", "--points", "4", "--nodes", "16", "--t-sweep", "100,1"]) == 2
        assert "--t-sweep" in capsys.readouterr().err

    def test_t_sweep_accepts_equal_values(self, capsys):
        assert main(["sumspace", "--points", "4", "--nodes", "16", "--t-sweep", "1,1"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["t"] for r in rows] == [1.0, 1.0] and rows[0]["ik_t"] == rows[1]["ik_t"]

    def test_cond_below_one_rejected(self, capsys):
        assert main(["pw", "--dim", "2", "--trials", "1", "--cond", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --cond: must be >= 1.0, got 0.5" in err

    @pytest.mark.parametrize("cond", ["1e16", "1e20", "1e100", "1e300"])
    def test_cond_above_strict_positivity_rejected(self, cond, capsys):
        # these exited 2 with "A/B must be strictly positive" or, at 1e300,
        # "matrix has non-finite entries" after overflow warnings, which name no flag
        assert main(["pw", "--dim", "2", "--trials", "3", "--cond", cond]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: argument --cond: must be <= {1 / EPS_PD}, got {float(cond)}\n")

    def test_cond_ceiling_is_one_over_eps_pd(self, capsys, monkeypatch):
        # the ceiling is numlin's strict-positivity threshold, checked before any draw
        class Drawn(Exception):
            pass

        def draw(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(geomean, "random_commuting_pair", draw)
        ceiling = 1.0 / EPS_PD
        assert main(["pw", "--dim", "2", "--trials", "1", "--cond", repr(math.nextafter(ceiling, math.inf))]) == 2
        assert f"argument --cond: must be <= {1 / EPS_PD}" in capsys.readouterr().err
        with pytest.raises(Drawn):
            main(["pw", "--dim", "2", "--trials", "1", "--cond", repr(ceiling)])

    def test_seed_checked_before_any_runner(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.RUNNERS, "bracket", lambda args: pytest.fail("the runner ran"))
        assert main(["bracket", "--seed", "-1"]) == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


COLD_START = """
import json, sys
from ohlab.cli import main

tmp = sys.argv[1] + "/"
codes = [
    main(["bracket", "--n-list", "8", "--grid", "128", "--out", tmp + "bracket.json"]),
    main(["pw", "--dim", "2", "--trials", "1", "--nodes", "64", "--out", tmp + "pw.json"]),
    main(["ohnorm", "--n", "2", "--m", "2", "--trials", "1", "--restarts", "2", "--out", tmp + "ohnorm.json"]),
    main(["basis", "--n", "2", "--nodes", "64", "--vectors", "2", "--out", tmp + "basis.json"]),
    main(["fock", "--cutoff", "4", "--kmax", "2", "--out", tmp + "fock.json"]),
    main(["report", tmp + "bracket.json", tmp + "bracket.json", "--out", tmp + "merged.json"]),
    main(["free", "--dim", "8", "--summands", "2", "--trials", "1", "--out", tmp + "free.json"]),
    main(["sumspace", "--points", "4", "--nodes", "64", "--t-sweep", "1", "--out", tmp + "sumspace.json"]),
]
print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules}))
"""


# each command at a small size, and the ohlab modules its runner loads
COMMAND_MODULES = [
    pytest.param(["pw", "--dim", "2", "--trials", "1", "--nodes", "64"], {"geomean", "quad", "freeprob"}, id="pw"),
    pytest.param(["ohnorm", "--n", "2", "--m", "2", "--trials", "1", "--restarts", "2"], {"ohspace"}, id="ohnorm"),
    pytest.param(["basis", "--n", "2", "--nodes", "64", "--vectors", "2"], {"ohspace", "quad"}, id="basis"),
    pytest.param(["sumspace", "--points", "4", "--nodes", "64", "--t-sweep", "1"], {"kfunc", "ohspace", "quad"},
                 id="sumspace"),
    pytest.param(["bracket", "--n-list", "8"], {"tensorlog"}, id="bracket"),
    pytest.param(["free", "--dim", "8", "--summands", "2", "--trials", "1"], {"freeprob"}, id="free"),
    pytest.param(["fock", "--cutoff", "4", "--kmax", "2"], {"freeprob"}, id="fock"),
    pytest.param(["report"], set(), id="report"),
]
# the commands that compute in pure Python, and so never load numpy
NUMPY_FREE = ("bracket", "fock", "report")


def with_report_inputs(argv, tmp_path):
    """argv, with two copies of one small bracket report for ``report`` to merge."""
    if argv != ["report"]:
        return argv
    path = tmp_path / "bracket.json"
    path.write_text(Report("bracket", {}, [{"n": 8}]).to_json(), encoding="utf-8")
    return argv + [str(path), str(path)]


# each command's other size flags at small values, so that every walked edge runs fast
SMALL = {
    "pw": ["--dim", "2", "--trials", "1", "--nodes", "16"],
    "ohnorm": ["--n", "2", "--m", "2", "--trials", "1", "--restarts", "1"],
    "basis": ["--n", "2", "--nodes", "16", "--vectors", "1"],
    "sumspace": ["--points", "4", "--nodes", "16", "--t-sweep", "1"],
    "bracket": ["--n-list", "8", "--grid", "16"],
    "free": ["--dim", "8", "--summands", "2", "--trials", "1"],
    "fock": ["--cutoff", "4", "--kmax", "2"],
    "report": [],
}


def walked_flags():
    """(command, flag, values) for each number and list flag of the parser:
    numbers get 0, -1, nan, inf and x, and ceiling + 1 where their type has a
    ceiling (none gets a large value otherwise); lists get '', 0, x and nan,
    and --n-list its ceiling + 1."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command, sub in commands.items():
        for action in sub._actions:
            if getattr(action.type, "kind", action.type) in (int, float):
                values = ["0", "-1", "nan", "inf", "x"]
                if getattr(action.type, "hi", math.inf) < math.inf:
                    values.append(str(action.type.hi + 1))
            elif action.type in (cli._n_list, cli._t_sweep):
                values = ["", "0", "x", "nan"] + [str(cli.MAX_BRACKET_N + 1)] * (action.type is cli._n_list)
            else:
                continue
            yield pytest.param(command, action.option_strings[0], values, id=command + action.option_strings[0])


class TestFlagEdges:
    @pytest.mark.parametrize("argv, named", [([], "subcommand"), (["fock", "--bogus", "1"], "--bogus"),
                                             (["bracket", "--grid", "x"], "--grid")],
                             ids=["no-command", "unknown-flag", "not-an-int"])
    def test_parser_errors_return_two(self, argv, named, capsys):
        # argparse's own errors used to raise SystemExit(2) out of main
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and named in err and "usage: ohlab" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["bracket", "--help"])
        assert done.value.code == 0 and "--n-list" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag, values", walked_flags())
    def test_every_edge_exits_with_a_status(self, command, flag, values, tmp_path, capsys):
        # the last of a repeated flag wins, so the walked value replaces the small one
        for value in values:
            argv = with_report_inputs([command], tmp_path) + SMALL[command] + [f"{flag}={value}"]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), argv
            assert code != 2 or flag in err, (argv, err)


EDGES = ["0", "-1", "nan", "inf", "x"]
PW_FLAGS = ("--dim", "--trials", "--nodes", "--tol", "--cond", "--seed")


@st.composite
def pw_argv(draw):
    """``pw`` argv: at most two flags at an edge value, the rest small and valid
    (--dim <= 8, --nodes <= 64, --trials <= 3).  The edges are 0, -1, nan, inf
    and x, and each ceiling + 1: MAX_PW_DIM, --nodes x --dim and 1/EPS_PD for
    --cond, which also gets its valid extremes 1 and 1e12.  A valid --tol,
    --cond or --seed may be left at its default."""
    edged = draw(st.sets(st.sampled_from(PW_FLAGS), max_size=2))

    def value(flag, valid, *edges):
        pool = EDGES + [str(e) for e in edges] if flag in edged else []
        return draw(st.sampled_from(pool) if pool else valid.map(str))

    dim = value("--dim", st.integers(1, 8), cli.MAX_PW_DIM + 1)
    # the ceiling is on the product, so --nodes's edge is one past it at the drawn dim
    dims = int(dim) if dim.isdigit() and 1 <= int(dim) <= 8 else 4
    flags = {"--dim": dim, "--trials": value("--trials", st.integers(1, 3)),
             "--nodes": value("--nodes", st.integers(1, 64), cli.MAX_PW_NODES_DIM // dims + 1),
             "--tol": value("--tol", st.floats(1e-12, 1.0)),
             "--cond": value("--cond", st.floats(1.0, 1e6), 1.0, 1e12, 1.0 / EPS_PD + 1.0),
             "--seed": value("--seed", st.integers(0, 2**32))}
    kept = [f for f in flags if f in ("--dim", "--trials", "--nodes") or f in edged or draw(st.booleans())]
    return ["pw"] + [f"{f}={flags[f]}" for f in kept]


def check_contract(argv, flags):
    """main returns for every input and raises nothing; an exit 2 names one
    of ``flags``, an exit 1 prints only bound violations beside the timing
    line, an exit 3 is a numerical failure, and an exit 0 writes strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert strict_loads(out)["experiment"] == argv[0]
    elif code == 1:
        lines = [line for line in err.splitlines() if not re.fullmatch(rf"ohlab {argv[0]}: \d+ rows in \S+s", line)]
        assert lines and all(line.startswith("bound violation: ") for line in lines), (argv, err)
    elif code == 2:
        assert any(flag in err for flag in flags), (argv, err)
    else:
        assert err.startswith("numerical failure: "), (argv, err)


class TestPwContract:
    # each ceiling + 1 and --cond's extremes, whatever the draw reaches
    @example(argv=["pw", f"--dim={cli.MAX_PW_DIM + 1}", "--trials=1", "--nodes=16"])
    @example(argv=["pw", "--dim=8", "--trials=1", f"--nodes={cli.MAX_PW_NODES_DIM // 8 + 1}"])
    @example(argv=["pw", "--dim=2", "--trials=1", "--nodes=16", f"--cond={1.0 / EPS_PD + 1.0}"])
    @example(argv=["pw", "--dim=8", "--trials=3", "--nodes=64", "--cond=1e12"])
    @example(argv=["pw", "--dim=8", "--trials=3", "--nodes=64", "--cond=1"])
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=pw_argv())
    def test_every_pw_argv_exits_with_a_status(self, argv):
        check_contract(argv, PW_FLAGS)


FREE_FLAGS = ("--dim", "--summands", "--trials", "--seed", "--slack")


@st.composite
def free_argv(draw):
    """``free`` argv: at most two flags at an edge value, the rest small and
    valid (--dim <= 16, --summands <= 4, --trials <= 2).  The edges are 0, -1,
    nan, inf and x, --dim's floor - 1 and ceiling + 1, and for the removed
    --slack also its old default.  A valid --seed may be left at its default."""
    edged = draw(st.sets(st.sampled_from(FREE_FLAGS), max_size=2))

    def value(flag, valid, *edges):
        pool = EDGES + [str(e) for e in edges] if flag in edged else []
        return draw(st.sampled_from(pool) if pool else valid.map(str))

    flags = {"--dim": value("--dim", st.integers(2, 16), 1, cli.MAX_FREE_DIM + 1),
             "--summands": value("--summands", st.integers(1, 4)),
             "--trials": value("--trials", st.integers(1, 2)),
             "--seed": value("--seed", st.integers(0, 2**32))}
    if "--slack" in edged:
        flags["--slack"] = value("--slack", None, 0.02)
    kept = [f for f in flags if f != "--seed" or f in edged or draw(st.booleans())]
    return ["free"] + [f"{f}={flags[f]}" for f in kept]


class TestFreeContract:
    # the ceiling + 1, small dims where the column converse used to fail, and the removed flag
    @example(argv=["free", f"--dim={cli.MAX_FREE_DIM + 1}", "--summands=2", "--trials=1"])
    @example(argv=["free", "--dim=2", "--summands=2", "--trials=2", "--seed=1"])
    @example(argv=["free", "--dim=4", "--summands=4", "--trials=2", "--seed=1"])
    @example(argv=["free", "--dim=16", "--summands=4", "--trials=2", "--slack=0.02"])
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(argv=free_argv())
    def test_every_free_argv_exits_with_a_status(self, argv):
        check_contract(argv, FREE_FLAGS)


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        # numpy is the only runtime dependency: free's semicircle quantiles run
        # an in-house port of scipy's brentq, and sumspace's ratio and scale
        # searches solve their closed-form derivatives in kfunc
        proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result == {"codes": [0] * 8, "scipy_loaded": False}

    def test_module_run_has_no_runpy_warning(self):
        # `python -m ohlab.cli` imported cli with the package and then ran it
        # again as __main__, and runpy warned about it on every run
        code, out, err = run_cli(["fock", "--cutoff", "4", "--kmax", "2"])
        assert code == 0 and json.loads(out)["experiment"] == "fock"
        assert b"RuntimeWarning" not in err
        assert err.count(b"\n") == 1 and err.startswith(b"ohlab fock: 2 rows in ")

    def test_package_import_loads_cli(self):
        # the benchmark tracer imports ohlab, then reads every layer, cli
        # included, from sys.modules; neither that nor building the parser
        # loads numpy, which each layer imports where it first handles an
        # array, dataclasses or inspect (the records are NamedTuples), or csv,
        # which only --format csv writes
        unused = ("csv", "dataclasses", "inspect", "numpy")
        for code in ("import ohlab", "import ohlab.cli; ohlab.cli.build_parser()"):
            proc = subprocess.run([sys.executable, "-c", f"import sys; {code}; print(sorted(m for m in sys.modules "
                                   f"if m.startswith('ohlab.')), [m for m in {unused!r} if m in sys.modules])"],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"{[f'ohlab.{m}' for m in ALL_MODULES]!r} []\n", code

    @pytest.mark.parametrize("argv, modules", COMMAND_MODULES)
    def test_module_run_loads_only_its_modules(self, argv, modules, tmp_path):
        # beside main's numlin and report, a cold command loads what its runner
        # imports and what those import: geomean draws through freeprob.
        # bracket's closed forms, fock's word walks and report's merge load
        # no numpy either
        argv = with_report_inputs(argv, tmp_path)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ohlab.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {m for m in loaded if m.startswith("ohlab")} == {"ohlab"} | {
            f"ohlab.{m}" for m in modules | {"numlin", "report"}}
        assert ("numpy" in loaded) == (argv[0] not in NUMPY_FREE)

    @pytest.mark.parametrize("argv, modules", COMMAND_MODULES)
    def test_script_run_loads_numpy_only_for_array_commands(self, argv, modules, tmp_path):
        # the installed `ohlab` script imports the package, and so all nine
        # modules, then calls main: only the five array commands load numpy
        argv = with_report_inputs(argv, tmp_path)
        code = ("import json, sys\nfrom ohlab.cli import main\ncode = main(sys.argv[1:])\n"
                "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, argv[0] not in NUMPY_FREE]


class TestOhnormSeeds:
    def test_trial_streams_differ_across_adjacent_seeds(self, monkeypatch, capsys):
        # trial t of seed s must not reuse the restart stream of trial t-1 of seed s+1
        used = []
        real = ohspace.oh_norm_variational

        def spy(xs, restarts, seed):
            used.append(seed)
            return real(xs, restarts=restarts, seed=seed)

        monkeypatch.setattr(ohspace, "oh_norm_variational", spy)
        for seed in (5, 6):
            assert main(["ohnorm", "--n", "2", "--m", "2", "--trials", "2", "--restarts", "2", "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert len(set(used)) == len(used) == 4


class TestParams:
    """A report's params are its parsed flags, minus the three that only route
    the output, plus the figures the run derives (``report`` writes the merged
    inputs' params instead)."""

    @pytest.mark.parametrize("argv, derived", [
        (["pw", "--dim", "2", "--trials", "1", "--nodes", "256"], {"max_rel_error"}),
        (["ohnorm", "--n", "2", "--m", "2", "--trials", "1", "--restarts", "2"], set()),
        (["basis", "--n", "2", "--nodes", "16", "--vectors", "2"], {"ratio_spread"}),
        (["sumspace", "--points", "4", "--nodes", "16", "--t-sweep", "0.1,1"],
         {"l2sum2", "l2sum1", "quotient_vs_basis_gap"}),
        (["bracket", "--n-list", "8,16"], set()),
        (["free", "--dim", "8", "--summands", "2", "--trials", "1"], {"clt_moments", "clt_deviations"}),
        (["fock", "--cutoff", "4", "--kmax", "2"], {"compression_defect"}),
    ], ids=lambda v: v[0] if isinstance(v, list) else "derived")
    def test_params_are_the_parsed_flags(self, argv, derived, tmp_path, capsys):
        flags = vars(cli.build_parser().parse_args(argv))
        for key in ("subcommand", "format", "out"):
            del flags[key]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out), "--format", "json"]) == 0
        params = json.loads(out.read_text())["params"]
        assert set(params) == set(flags) | derived
        assert {k: params[k] for k in flags} == flags

    @pytest.mark.parametrize("sub, limits", [
        ("pw", ["MAX_PW_DIM", "MAX_PW_NODES_DIM"]),
        ("ohnorm", ["MAX_OHNORM_M", "MAX_OHNORM_ENTRIES"]),
        ("basis", ["MAX_BASIS_N", "MAX_NODES"]),
        ("sumspace", ["MAX_SUMSPACE_POINTS", "MAX_NODES"]),
        ("free", ["MAX_FREE_DIM"]),
        ("fock", ["MAX_FOCK_KMAX"]),
    ])
    def test_limits_in_help(self, sub, limits, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert all(f"at most {getattr(cli, name)}" in text for name in limits)
