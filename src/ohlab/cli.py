"""Command-line front door: seeded experiments with machine-readable reports.

Exit status: 0 on success, 1 when a computed quantity violates an asserted
bound (or an experiment tolerance), 2 on invalid configuration, 3 on a
numerical failure (non-convergence, a singular or failed solve).  JSON goes
to --out or stdout; wall-clock timing goes to stderr so identical seeded
runs stay byte-identical.  A runner returns its report and one ``numlin.violation``
per checked inequality; exit 1 prints a ``bound violation:`` line per failure.

A flag's own range (a count's floor and memory ceiling, a finite tolerance,
a list's values) is checked by its argparse ``type``, and the parser raises
its errors as ValueError, so every config error exits 2 through ``main``
with a message naming its flag (``argument --dim: ...``).  Runners check
only flags against each other: ``--nodes`` x ``--dim``, ``--n`` x ``--m``^2,
``--cutoff`` >= ``--kmax``.

``main(argv)`` may be called repeatedly in one process.  It parses with one
parser per process, built on the first call by :func:`build_parser` (which
still returns a fresh parser on every call of its own); calls share no other
state.  Reusing the parser is safe because ``parse_args`` builds a new
``Namespace`` on each call and never mutates the parser, every default is an
immutable str, int, float or None, and ``report``'s ``paths`` (``nargs="+"``)
and the list flags, whose ``type`` reads their str default, are new lists on
each parse.  ``main`` returns an exit status for every input; only ``--help``
raises, as ``SystemExit(0)``.  ``RUNNERS`` is looked up at call time, so it can
still be patched.

At module level this file imports only ``numlin`` and ``report``, which
``main`` needs, and each runner imports the modules it runs, numpy included.
Under ``python -m ohlab.cli`` the package imports no submodule either, so a
cold command loads only the modules its runner imports and theirs: ``ohnorm``
loads ``ohspace`` and no other computing module, and ``bracket``, ``fock``
and ``report``, which compute in pure Python, never load numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import NamedTuple

from .numlin import EPS_PD, BoundViolation, violation
from .report import MergeError, Report, report_from_dict, report_merge

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the brackets are closed forms: `bracket --grid` has no effect, but keeps its
# default and ceiling and is echoed in each row, so old invocations still work
DEFAULT_BRACKET_GRID = 1024
MAX_BRACKET_GRID = 2048
# the largest n whose upper-route delta = 1/(e^2 n^2) is a normal float: n^2 may round
# up to the float 1/(e^2 min), not to the next one (tensorlog.diag_upper_bound checks too)
_E2N2 = 1.0 / (math.e**2 * sys.float_info.min)
MAX_BRACKET_N = math.isqrt(int(_E2N2) + int(math.ulp(_E2N2)) // 2)
# a free trial streams its members' lower block-triangles into one sum, so
# its memory is the sum, one Haar factor and dim x 128 panels whatever
# --summands is; cold `free --dim 2048 --summands 16 --trials 1` peaked at
# 177-179 MB RSS (30 s on 2 CPUs with OpenBLAS)
MAX_FREE_DIM = 2048
# the moments are exact integer walk counts, written as floats; every count up
# to C_30 = 3814986502092304 < 2^53 < C_31 is an exact float
MAX_FOCK_KMAX = 30
# the SVD of an m^2 x m^2 Kronecker sum, whatever --n: cold `ohnorm --n 1 --m 60
# --trials 1 --restarts 1` peaked at 440 MB RSS (26-33 s on 2 CPUs with OpenBLAS)
MAX_OHNORM_M = 60
# the tuple and its copies hold n m^2 complex entries; at m = 60 they sit next to
# the Kronecker sum: cold `ohnorm --n 291 --m 60 --trials 1 --restarts 1`
# peaked at 469 MB RSS (26-30 s on 2 CPUs with OpenBLAS), `--n 1048576 --m 1` at 70 MB
MAX_OHNORM_ENTRIES = 2**20
# pw holds about 15 dim x dim complex matrices, and (nodes, dim) arrays for the
# dual witness: cold `pw --dim 1024 --trials 1 --nodes 2048` peaked at 334 MB
# RSS (11 s on 2 CPUs with OpenBLAS), `pw --dim 1 --trials 1 --nodes 2097152`
# at 295 MB
MAX_PW_DIM = 1024
MAX_PW_NODES_DIM = 2**21
# arrays of one length per flag: cold `basis --n 4194304 --nodes 4194304
# --vectors 2` peaked at 296 MB RSS, `sumspace --points 2097152 --nodes 4194304
# --t-sweep 1,10` at 505 MB
MAX_NODES = 2**22
MAX_BASIS_N = 2**22
MAX_SUMSPACE_POINTS = 2**21
# share of Voiculescu's bound by which the Haar model's finite-dimension norm may exceed it
FREE_NORM_SLACK = 0.01


class _Range(NamedTuple):
    """An argparse ``type``: one finite ``kind`` value in [lo, hi].  argparse
    prefixes its error with ``argument --flag:``, so the message names the flag."""

    kind: type
    lo: float
    hi: float = math.inf

    def __call__(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {self.kind.__name__} value: {text!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if not self.lo <= value <= self.hi:
            bound = f">= {self.lo}" if value < self.lo else f"<= {self.hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value


def _values(text: str, read) -> list:
    """A list flag's comma-separated values, each read by ``read``; empty entries are skipped."""
    values = [read(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _n_list(text: str) -> list:
    """``--n-list``: integers in [1, MAX_BRACKET_N], run in the order given."""
    return _values(text, _Range(int, 1, MAX_BRACKET_N))


def _t_sweep(text: str) -> list:
    """``--t-sweep``: finite numbers > 0, nondecreasing, since each value's
    norm is checked against the one before it, which holds only in increasing t."""
    values = _values(text, _Range(float, -math.inf))
    if min(values) <= 0.0:
        raise argparse.ArgumentTypeError(f"values must be > 0, got {min(values)}")
    drops = [(a, b) for a, b in zip(values, values[1:]) if b < a]
    if drops:
        raise argparse.ArgumentTypeError(f"values must be nondecreasing, got {drops[0][1]} after {drops[0][0]}")
    return values


class _Parser(argparse.ArgumentParser):
    """Raises its errors (an unknown flag, a missing argument, a value its
    ``type`` rejects) as ValueError, which ``main`` turns into exit 2 like every
    other config error.  ``add_subparsers`` makes each subparser of this class."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ohlab",
        description="numerical laboratory for operator-Hilbert-space norms",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    count = _Range(int, 1)
    tol = _Range(float, 0.0)

    def common(p):
        # numpy's SeedSequence rejects a negative seed with text that names no flag
        p.add_argument("--seed", type=_Range(int, 0), default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None)
        return p

    p = common(sub.add_parser("pw", help="Pusz-Woronowicz primal/dual vs direct square root"))
    p.add_argument("--dim", type=_Range(int, 1, MAX_PW_DIM), default=4,
                   help=f"at most {MAX_PW_DIM} (about 0.33 GB peak RSS there)")
    p.add_argument("--trials", type=count, default=20)
    p.add_argument("--nodes", type=count, default=4096,
                   help=f"--nodes x --dim at most {MAX_PW_NODES_DIM} (about 0.3 GB peak RSS there)")
    p.add_argument("--tol", type=tol, default=1e-6)
    # a factor's eigenvalues spread over a ratio of up to --cond, and it is
    # strictly positive only if the least exceeds EPS_PD times the largest:
    # past 1/EPS_PD the draw, not the input, would decide the exit
    p.add_argument("--cond", type=_Range(float, 1.0, 1.0 / EPS_PD), default=1e3,
                   help=f"at most 1/EPS_PD = {1.0 / EPS_PD:g}")

    p = common(sub.add_parser("ohnorm", help="variational vs direct matrix-tuple norm"))
    p.add_argument("--n", type=count, default=4,
                   help=f"--n x --m^2 at most {MAX_OHNORM_ENTRIES} (about 0.47 GB peak RSS there at --m 60)")
    p.add_argument("--m", type=_Range(int, 1, MAX_OHNORM_M), default=4,
                   help=f"at most {MAX_OHNORM_M} (about 0.45 GB peak RSS there)")
    p.add_argument("--trials", type=count, default=20)
    p.add_argument("--restarts", type=count, default=8)
    p.add_argument("--tol", type=tol, default=1e-6)

    p = common(sub.add_parser("basis", help="scalar-level basis norms in the quotient model"))
    p.add_argument("--n", type=_Range(int, 1, MAX_BASIS_N), default=4,
                   help=f"at most {MAX_BASIS_N} (about 0.3 GB peak RSS there, with --nodes at most)")
    p.add_argument("--nodes", type=_Range(int, 1, MAX_NODES), default=4096,
                   help=f"at most {MAX_NODES} (about 0.3 GB peak RSS there, with --n at most)")
    p.add_argument("--vectors", type=count, default=20)

    p = common(sub.add_parser("sumspace", help="two- and three-term sum-space norms"))
    p.add_argument("--points", type=_Range(int, 1, MAX_SUMSPACE_POINTS), default=16,
                   help=f"at most {MAX_SUMSPACE_POINTS} (about 0.5 GB peak RSS there, with --nodes at most)")
    p.add_argument("--nodes", type=_Range(int, 1, MAX_NODES), default=4096,
                   help=f"at most {MAX_NODES} (about 0.5 GB peak RSS there, with --points at most)")
    p.add_argument("--t-sweep", type=_t_sweep, default="0.01,0.1,1,10,100")

    p = common(sub.add_parser("bracket", help="logarithmic tensor-norm brackets"))
    p.add_argument("--n-list", type=_n_list, default="8,16,32,64")
    p.add_argument("--grid", type=_Range(int, 1, MAX_BRACKET_GRID), default=DEFAULT_BRACKET_GRID,
                   help=f"no effect (the brackets are closed forms); at most {MAX_BRACKET_GRID}")

    p = common(sub.add_parser("free", help="Voiculescu inequality on the rotated matrix model"))
    p.add_argument("--dim", type=_Range(int, 2, MAX_FREE_DIM), default=512,
                   help=f"at least 2 (a one-point spectrum is zero after centring, so the sum has no "
                        f"variance); at most {MAX_FREE_DIM} (about 0.2 GB peak RSS there, for any --summands)")
    p.add_argument("--summands", type=count, default=16)
    p.add_argument("--trials", type=count, default=20)

    p = common(sub.add_parser("fock", help="truncated Fock space exact checks"))
    p.add_argument("--cutoff", type=int, default=8, help="at least --kmax")
    p.add_argument("--kmax", type=_Range(int, 1, MAX_FOCK_KMAX), default=5,
                   help=f"at most {MAX_FOCK_KMAX} (larger Catalan numbers are not exact floats)")

    p = common(sub.add_parser("report", help="merge compatible reports"))
    p.add_argument("paths", nargs="+", help="JSON report files to merge")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: each build makes ~60 argparse actions (~2 ms)
    return build_parser()


def flag_params(args) -> dict:
    """The run's parsed flags, minus those that only route its output."""
    return {k: v for k, v in vars(args).items() if k not in ("subcommand", "format", "out")}


def run_pw(args) -> tuple[Report, list]:
    import numpy as np

    from . import geomean, quad

    if args.nodes * args.dim > MAX_PW_NODES_DIM:
        raise ValueError(f"--nodes {args.nodes} x --dim {args.dim} exceeds {MAX_PW_NODES_DIM}")
    rule = quad.arcsine_rule(args.nodes)
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    rows = []
    verdicts = []
    for t in range(args.trials):
        rng = np.random.default_rng(seeds[t])
        prob = geomean.random_commuting_pair(args.dim, rng, cond=args.cond)
        x = rng.standard_normal(args.dim) + 1j * rng.standard_normal(args.dim)
        oracle = geomean.pw_oracle(prob, x)
        primal = geomean.pw_primal(prob, x, rule)
        dual, witness = geomean.pw_dual(prob, x, rule)
        wnorm, resid = geomean.dual_witness_validate(witness, prob, rule)
        rel_primal = abs(primal - oracle) / abs(oracle)
        rel_dual = abs(dual - primal) / abs(primal)
        rows.append(
            {
                "trial": t,
                "oracle": oracle,
                "primal": primal,
                "dual": dual,
                "rel_err_primal": rel_primal,
                "rel_err_dual_vs_primal": rel_dual,
                "witness_norm": wnorm,
                "witness_ratio_residual": resid,
            }
        )
        verdicts += [violation("rel_err_primal <= tol", rel_primal, args.tol, trial=t),
                     violation("rel_err_dual_vs_primal <= 2 tol", rel_dual, 2.0 * args.tol, trial=t)]
    params = flag_params(args)
    params["max_rel_error"] = max(r["rel_err_primal"] for r in rows)
    return Report("pw", params, rows), verdicts


def run_ohnorm(args) -> tuple[Report, list]:
    import numpy as np

    from . import ohspace

    if args.n * args.m**2 > MAX_OHNORM_ENTRIES:
        raise ValueError(f"--n {args.n} x --m {args.m}^2 exceeds {MAX_OHNORM_ENTRIES}")
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    rows = []
    verdicts = []
    for t in range(args.trials):
        rng = np.random.default_rng(seeds[t])
        xs = rng.standard_normal((args.n, args.m, args.m)) + 1j * rng.standard_normal(
            (args.n, args.m, args.m)
        )
        direct = ohspace.oh_norm_direct(xs)
        # restart seed from the trial's own stream, so no two (seed, trial) pairs share it
        restart_seed = int(rng.integers(2**63))
        res = ohspace.oh_norm_variational(xs, restarts=args.restarts, seed=restart_seed)
        rel = abs(res.value - direct) / max(direct, 1e-300)
        rows.append(
            {
                "trial": t,
                "direct": direct,
                "variational": res.value,
                "rel_diff": rel,
                "converged": res.converged,
                "iterations": res.iterations,
                "argmax_min_eig_a": res.argmax.min_eig_a,
                "argmax_min_eig_b": res.argmax.min_eig_b,
            }
        )
        verdicts.append(violation("rel_diff <= tol", rel, args.tol, trial=t))
    return Report("ohnorm", flag_params(args), rows), verdicts


def run_basis(args) -> tuple[Report, list]:
    import numpy as np

    from . import ohspace, quad

    rule = quad.arcsine_rule(args.nodes)
    rng = np.random.default_rng(args.seed)
    rows = []
    verdicts = []
    for i in range(args.vectors):
        a = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
        val = ohspace.fn_scalar_norm(a, rule)
        ratio = val / float(np.linalg.norm(a))
        rows.append({"vector": i, "norm": val, "ratio": ratio})
        verdicts += [violation("1/sqrt(2) <= ratio", 1 / math.sqrt(2), ratio, 1e-3, vector=i),
                     violation("ratio <= sqrt(2)", ratio, math.sqrt(2), 1e-3, vector=i)]
    ratios = [r["ratio"] for r in rows]
    params = flag_params(args)
    params["ratio_spread"] = max(ratios) - min(ratios)
    return Report("basis", params, rows), verdicts


def run_sumspace(args) -> tuple[Report, list]:
    import numpy as np

    from . import kfunc, ohspace, quad

    rng = np.random.default_rng(args.seed)
    base = rng.uniform(0.5, 1.5, size=args.points)
    base /= base.sum()
    g = rng.uniform(0.2, 5.0, size=args.points)
    h = rng.uniform(0.2, 5.0, size=args.points)
    d = rng.uniform(0.2, 5.0, size=args.points)
    k = rng.standard_normal(args.points)
    grid = kfunc.WeightedGrid(base_weights=base, g=g, h=h)
    two = kfunc.l2sum2_norm(k, grid)
    one = kfunc.l2sum1_norm(k, grid)
    # cross-module consistency on the arcsine rule: the two-density quotient
    # norm of the constant profile equals the scalar basis norm
    rule = quad.arcsine_rule(args.nodes)
    quotient = kfunc.k_d1d2_norm(np.ones(args.nodes), rule.nodes, 1.0 - rule.nodes, rule.weights)
    basis_norm = ohspace.fn_scalar_norm([1.0], rule)
    verdicts = [violation("l2sum2 <= l2sum1", two, one, 1e-12),
                violation("l2sum1 <= sqrt(2) l2sum2", one, math.sqrt(2) * two, 1e-12),
                violation("|quotient - basis norm| <= 1e-8", abs(quotient - basis_norm), 1e-8)]
    rows = []
    prev = -math.inf
    for t in args.t_sweep:
        spec = kfunc.ThreeTermSpec(t_param=t, d=d, base_weights=base)
        val = kfunc.ik_t_norm(k, spec)
        k_norm = kfunc.two_term_k_norm(k, spec)
        rows.append(
            {
                "t": t,
                "ik_t": val,
                "k_two_term": k_norm,
                "gap_to_k": k_norm - val,   # reported, never asserted
            }
        )
        verdicts.append(violation("ik_t nondecreasing in t", prev, val, 1e-10, t=t))
        prev = val
    params = flag_params(args)
    params["l2sum2"] = two
    params["l2sum1"] = one
    params["quotient_vs_basis_gap"] = quotient - basis_norm
    return Report("sumspace", params, rows), verdicts


def run_bracket(args) -> tuple[Report, list]:
    from . import tensorlog

    # BracketReport raises BoundViolation on an inverted bracket
    rows = [dict(tensorlog.bracket_report(n).row(), grid=args.grid) for n in args.n_list]
    return Report("bracket", flag_params(args), rows, constants=tensorlog.provenance()), []


def run_free(args) -> tuple[Report, list]:
    import numpy as np

    from . import freeprob

    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    spectrum = freeprob.semicircle_diag(args.dim)
    rows = []
    verdicts = []
    target = 2.0 * math.sqrt(args.summands)
    clt_families = []  # the first min(T, 5) trial families give the CLT moments
    for t in range(args.trials):
        fam = freeprob.free_family([spectrum] * args.summands, args.dim, seed=seeds[t])
        voi = freeprob.voiculescu_check(fam)
        conv = freeprob.voiculescu_converse_check(fam)
        if t < 5:
            clt_families.append(fam)
        rows.append(
            {
                "trial": t,
                "lhs": voi.lhs,
                "rhs": voi.rhs,
                "margin": voi.margin,
                "sum_norm_rel_dev": voi.lhs / target - 1.0,
                "converse_triangle_margin": conv.triangle,
                "converse_column_margin": conv.column,
                "cross_term_defect": conv.cross_term_defect,
                "unitarity_residual": fam.unitarity_residual,
            }
        )
        verdicts += [
            violation("||sum a_i|| <= max ||a_i|| + 2 (sum tau(a_i* a_i))^(1/2)",
                      voi.lhs, voi.rhs, FREE_NORM_SLACK * voi.rhs, trial=t),
            # a theorem in every model, unlike the column converse, which is only reported
            violation("||sum a_i||_1 <= sum ||a_i||_1", conv.triangle_rhs - conv.triangle,
                      conv.triangle_rhs, conv.triangle_slack, trial=t),
        ]
    clt = freeprob.CLTResult.from_families(clt_families)
    params = flag_params(args)
    params["clt_moments"] = list(clt.moments)
    params["clt_deviations"] = list(clt.deviations)
    return Report("free", params, rows), verdicts


def run_fock(args) -> tuple[Report, list]:
    from . import freeprob

    if args.cutoff < args.kmax:
        raise ValueError(f"--cutoff {args.cutoff} is below --kmax {args.kmax}")
    moments = freeprob.fock_semicircular_moments(args.cutoff, args.kmax)
    catalans = freeprob.catalan_numbers(args.kmax)
    defect = freeprob.TruncatedFock(letter_dim=2, cutoff=min(args.cutoff, 6)).compression_defect(0)
    rows = [
        {"k": k + 1, "moment": float(m), "catalan": float(c), "abs_err": float(abs(m - c))}
        for k, (m, c) in enumerate(zip(moments, catalans))
    ]
    verdicts = [violation("|moment - Catalan number| <= 0", r["abs_err"], 0.0, k=r["k"]) for r in rows]
    verdicts.append(violation("compression defect <= 1e-12", defect, 1e-12))
    params = flag_params(args)
    params["compression_defect"] = defect
    return Report("fock", params, rows), verdicts


def _finite_float(text: str) -> float:
    # no report may hold NaN, Infinity or -Infinity, which json.load accepts
    # and RFC 8259 does not, nor a literal such as 1e400 that parses to inf
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def run_report(args) -> tuple[Report, list]:
    reports = []
    sources = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        # a JSONDecodeError, a UnicodeDecodeError and a non-finite number are ValueErrors
        except (OSError, ValueError) as exc:
            raise MergeError(f"{path}: unreadable report ({exc})") from exc
        reports.append(report_from_dict(data, source=path))
        sources.append(os.path.basename(path))
    return report_merge(reports, sources=sources), []


RUNNERS = {
    "pw": run_pw,
    "ohnorm": run_ohnorm,
    "basis": run_basis,
    "sumspace": run_sumspace,
    "bracket": run_bracket,
    "free": run_free,
    "fock": run_fock,
    "report": run_report,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        start = time.perf_counter()
        report, verdicts = RUNNERS[args.subcommand](args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except MergeError as exc:
        print(f"merge error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # numpy's LinAlgError subclasses ValueError, so it is named before it; the
    # tuple is built only when an exception gets this far, and with numpy not
    # loaded (bracket, fock, report) no LinAlgError can have been raised
    except (RuntimeError, getattr(sys.modules.get("numpy.linalg"), "LinAlgError", RuntimeError)) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - start
    payload = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(payload)
    print(f"ohlab {args.subcommand}: {len(report.rows)} rows in {elapsed:.3f}s", file=sys.stderr)
    failures = [line for line in verdicts if line is not None]
    for line in failures:
        print(f"bound violation: {line}", file=sys.stderr)
    return EXIT_ASSERTION if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
