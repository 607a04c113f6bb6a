"""The three workloads: the op cycle of each and the check of every op's output.

Every op is one call of the ohlab command line with ``--seed <workload seed>``.
An op fails when it exits nonzero, raises, prints output that a strict JSON
parser rejects, or fails its check; the worker also fails an op whose output
differs from an earlier op with the same arguments in the same run.

The ops of a workload are chosen so that none fails at this commit.  An input
that hits a defect ROADMAP lists is not an op: it is a defect check, run and
checked once per run outside the timed loop, and named in the run's details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from summary import StrictJSONError, strict_loads

WORKLOADS = ("bracket-ladder", "free-haar", "cli-small")
COLD = {"cli-small"}                 # ops are cold `python -m ohlab.cli` processes

LADDER = tuple(8 * 2**k for k in range(10))   # n = 8, 16, ..., 4096
LADDER_GRID = 1024
FREE_TRIALS = 1                      # T of the free-haar op
FREE_CLT_FAMILIES = min(FREE_TRIALS, 5)

# analytic floor and ceiling of the diagonal tensor norm, in units of
# sqrt(n (1 + ln n)); independent of the constants the program reports
LOWER_C = 1.0 / (16.0 * math.sqrt(2.0) * math.pi)
UPPER_C = 18.0

# untimed first op of the in-process workloads: same code path, small input
WARMUP = {
    "bracket-ladder": ("bracket", "--n-list", "8", "--grid", "128"),
    "free-haar": ("free", "--dim", "32", "--summands", "3", "--trials", "1"),
}

# the speed probe (probe.py) doing each workload's kind of work
PROBE = {"bracket-ladder": "arrays", "free-haar": "lapack", "cli-small": "interpreter"}
SETUP_PROBE = "interpreter"

# the n < 7 fallback route of bracket, which hits the ROADMAP NaN defect
DEFECT_N = 4
KNOWN_DEFECTS = {
    f"bracket --n-list {DEFECT_N} --grid {LADDER_GRID}":
        'ROADMAP known defect: `bracket --n-list 4` writes "lower": NaN inside "delta", which is not JSON',
}


class CheckFailed(Exception):
    """An op's output violates its check."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: object                    # check(doc) raises CheckFailed
    save_as: Path | None = None      # where the worker keeps the op's output


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_bracket(n_list, grid):
    def check(doc):
        _expect(doc["experiment"] == "bracket", "not a bracket report")
        rows = doc["rows"]
        _expect([r["n"] for r in rows] == list(n_list), f"rows for n={[r['n'] for r in rows]}")
        for r in rows:
            n = r["n"]
            target = math.sqrt(n * (1.0 + math.log(n)))
            _expect(r["grid"] == grid, f"n={n}: grid {r['grid']}")
            _expect(r["lower"] >= LOWER_C * target - 1e-12, f"n={n}: lower below the analytic floor")
            _expect(r["upper"] <= UPPER_C * target + 1e-12, f"n={n}: upper above the 18 sqrt(n(1+ln n)) ceiling")
            _expect(r["lower"] <= r["upper"], f"n={n}: lower > upper")
            _expect(r["lambda_cb"]["lo"] <= r["lambda_cb"]["hi"], f"n={n}: lambda_lo > lambda_hi")

    return check


def check_free(trials, max_dev):
    """Criterion 10 margins; the column and row margins are also checked by
    the runner itself (exit code 1 past the slack)."""

    def check(doc):
        rows = doc["rows"]
        _expect(len(rows) == trials, f"{len(rows)} rows, expected {trials}")
        for r in rows:
            _expect(r["margin"] >= -0.01 * r["rhs"], f"trial {r['trial']}: Voiculescu margin {r['margin']}")
            _expect(r["converse_triangle_margin"] >= 0.0, f"trial {r['trial']}: trace-norm triangle margin < 0")
            if max_dev is not None:
                _expect(abs(r["sum_norm_rel_dev"]) <= max_dev,
                        f"trial {r['trial']}: sum-norm deviation {r['sum_norm_rel_dev']:.4f} > {max_dev}")
        _expect(len(doc["params"]["clt_moments"]) == 4, "CLT moments missing")

    return check


def check_pw(trials, tol):
    def check(doc):
        rows = doc["rows"]
        _expect(len(rows) == trials, f"{len(rows)} rows, expected {trials}")
        for r in rows:
            _expect(r["rel_err_primal"] <= tol, f"trial {r['trial']}: primal error {r['rel_err_primal']:.2e}")
            _expect(r["rel_err_dual_vs_primal"] <= 2.0 * tol, f"trial {r['trial']}: dual error")

    return check


def check_ohnorm(trials, tol):
    def check(doc):
        rows = doc["rows"]
        _expect(len(rows) == trials, f"{len(rows)} rows, expected {trials}")
        for r in rows:
            _expect(r["rel_diff"] <= tol, f"trial {r['trial']}: variational vs direct {r['rel_diff']:.2e}")

    return check


def check_basis(doc):
    rows = doc["rows"]
    _expect(len(rows) == 20, f"{len(rows)} rows, expected 20")
    for r in rows:
        _expect(1 / math.sqrt(2) - 1e-3 <= r["ratio"] <= math.sqrt(2) + 1e-3, f"vector {r['vector']}: ratio")


def check_sumspace(doc):
    p = doc["params"]
    _expect(p["l2sum2"] - 1e-12 <= p["l2sum1"] <= math.sqrt(2) * p["l2sum2"] + 1e-12, "+_1 / +_2 sandwich")
    _expect(abs(p["quotient_vs_basis_gap"]) <= 1e-8, "quotient vs basis norm")
    values = [r["ik_t"] for r in doc["rows"]]
    _expect(len(values) == 3, f"{len(values)} rows, expected 3")
    _expect(all(b >= a - 1e-10 for a, b in zip(values, values[1:])), "three-term norm not monotone in t")


def check_fock(doc):
    rows = doc["rows"]
    _expect(len(rows) == 5, f"{len(rows)} rows, expected 5")
    _expect(all(r["abs_err"] <= 1e-10 for r in rows), "moments differ from Catalan numbers")
    _expect(doc["params"]["compression_defect"] <= 1e-12, "compression identity")


def check_merge(doc):
    """The one-row bracket report, given twice."""
    rows = doc["rows"]
    _expect(doc["experiment"] == "bracket", "not a bracket report")
    _expect([r["n"] for r in rows] == [8, 8], f"merged rows for n={[r['n'] for r in rows]}")
    _expect(all("source" in r for r in rows), "merged rows lack a source")


def cycle(workload: str, seed: int, workdir: Path) -> list:
    """The ops of one cycle; a run repeats the cycle."""
    tail = ("--seed", str(seed))
    if workload == "bracket-ladder":
        return [bracket_op(n, tail) for n in LADDER]
    if workload == "free-haar":
        args = ("free", "--dim", "512", "--summands", "16", "--trials", str(FREE_TRIALS))
        return [Op(" ".join(args), args + tail, check_free(FREE_TRIALS, 0.05))]
    if workload == "cli-small":
        bracket_json = workdir / "bracket.json"
        small = [
            (("pw", "--dim", "4", "--trials", "50", "--nodes", "4096"), check_pw(50, 1e-6)),
            (("ohnorm", "--n", "4", "--m", "4", "--trials", "20", "--restarts", "8"), check_ohnorm(20, 1e-6)),
            (("basis", "--n", "8", "--nodes", "4096"), check_basis),
            (("sumspace", "--points", "16", "--t-sweep", "0.01,1,100"), check_sumspace),
            (("fock", "--cutoff", "8", "--kmax", "5"), check_fock),
            (("bracket", "--n-list", "8", "--grid", "128"), check_bracket([8], 128)),
            (("free", "--dim", "32", "--summands", "3", "--trials", "2"), check_free(2, None)),
        ]
        ops = [Op(" ".join(a), a + tail, c, bracket_json if a[0] == "bracket" else None) for a, c in small]
        ops.append(Op("report bracket.json bracket.json",
                      ("report", str(bracket_json), str(bracket_json)) + tail, check_merge))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def bracket_op(n: int, tail: tuple) -> Op:
    return Op(f"bracket --n-list {n} --grid {LADDER_GRID}",
              ("bracket", "--n-list", str(n), "--grid", str(LADDER_GRID)) + tail,
              check_bracket([n], LADDER_GRID))


def defect_checks(workload: str, seed: int) -> list:
    """The untimed ops of a run that hit a listed defect (see the module doc)."""
    if workload == "bracket-ladder":
        return [bracket_op(DEFECT_N, ("--seed", str(seed)))]
    return []


def check_output(op: Op, returncode, stdout: bytes) -> str | None:
    """None when the op passed, otherwise why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = strict_loads(stdout.decode("utf-8"))
    except (StrictJSONError, UnicodeDecodeError) as exc:
        return f"invalid JSON: {exc}"
    try:
        op.check(doc)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def known_defect(label: str, reason: str) -> str | None:
    """The ROADMAP defect an op failure is due to, if it is a listed one."""
    if label in KNOWN_DEFECTS and reason.startswith("invalid JSON: non-finite number NaN"):
        return KNOWN_DEFECTS[label]
    return None
