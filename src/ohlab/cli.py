"""Command-line front door: seeded experiments with machine-readable reports.

Exit status: 0 on success, 1 when a computed quantity violates an asserted
bound (or an experiment tolerance), 2 on invalid configuration, 3 on a
numerical failure (non-convergence, a singular or failed solve).  JSON goes
to --out or stdout; wall-clock timing goes to stderr so identical seeded
runs stay byte-identical.  A runner returns its report and one ``numlin.violation``
per checked inequality; exit 1 prints a ``bound violation:`` line per failure.

``main(argv)`` may be called repeatedly in one process.  It parses with one
parser per process, built on the first call by :func:`build_parser` (which
still returns a fresh parser on every call of its own); calls share no other
state.  Reusing the parser is safe because ``parse_args`` builds a new
``Namespace`` on each call and never mutates the parser, every default is an
immutable str, int, float or None, and ``report``'s ``paths`` (``nargs="+"``)
is a new list on each parse.  ``RUNNERS`` is looked up at call time, so it can
still be patched.

At module level this file imports only numpy, ``numlin`` and ``report``, which
``main`` needs, and each runner imports the modules it runs.  Under
``python -m ohlab.cli`` the package imports no submodule either, so a cold
command loads only the modules its runner imports and theirs: ``ohnorm``
loads ``ohspace`` and no other computing module.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .numlin import BoundViolation, violation
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohlab",
        description="numerical laboratory for operator-Hilbert-space norms",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None)
        return p

    p = common(sub.add_parser("pw", help="Pusz-Woronowicz primal/dual vs direct square root"))
    p.add_argument("--dim", type=int, default=4,
                   help=f"at most {MAX_PW_DIM} (about 0.33 GB peak RSS there)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--nodes", type=int, default=4096,
                   help=f"--nodes x --dim at most {MAX_PW_NODES_DIM} (about 0.3 GB peak RSS there)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--cond", type=float, default=1e3)

    p = common(sub.add_parser("ohnorm", help="variational vs direct matrix-tuple norm"))
    p.add_argument("--n", type=int, default=4,
                   help=f"--n x --m^2 at most {MAX_OHNORM_ENTRIES} (about 0.47 GB peak RSS there at --m 60)")
    p.add_argument("--m", type=int, default=4,
                   help=f"at most {MAX_OHNORM_M} (about 0.45 GB peak RSS there)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-6)

    p = common(sub.add_parser("basis", help="scalar-level basis norms in the quotient model"))
    p.add_argument("--n", type=int, default=4,
                   help=f"at most {MAX_BASIS_N} (about 0.3 GB peak RSS there, with --nodes at most)")
    p.add_argument("--nodes", type=int, default=4096,
                   help=f"at most {MAX_NODES} (about 0.3 GB peak RSS there, with --n at most)")
    p.add_argument("--vectors", type=int, default=20)

    p = common(sub.add_parser("sumspace", help="two- and three-term sum-space norms"))
    p.add_argument("--points", type=int, default=16,
                   help=f"at most {MAX_SUMSPACE_POINTS} (about 0.5 GB peak RSS there, with --nodes at most)")
    p.add_argument("--nodes", type=int, default=4096,
                   help=f"at most {MAX_NODES} (about 0.5 GB peak RSS there, with --points at most)")
    p.add_argument("--t-sweep", type=str, default="0.01,0.1,1,10,100")

    p = common(sub.add_parser("bracket", help="logarithmic tensor-norm brackets"))
    p.add_argument("--n-list", type=str, default="8,16,32,64")
    p.add_argument("--grid", type=int, default=DEFAULT_BRACKET_GRID,
                   help=f"no effect (the brackets are closed forms); at most {MAX_BRACKET_GRID}")

    p = common(sub.add_parser("free", help="Voiculescu inequality on the rotated matrix model"))
    p.add_argument("--dim", type=int, default=512,
                   help=f"at most {MAX_FREE_DIM} (about 0.2 GB peak RSS there, for any --summands)")
    p.add_argument("--summands", type=int, default=16)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--slack", type=float, default=0.02)

    p = common(sub.add_parser("fock", help="truncated Fock space exact checks"))
    p.add_argument("--cutoff", type=int, default=8, help="at least --kmax")
    p.add_argument("--kmax", type=int, default=5,
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


def check_counts(args, **limits) -> None:
    """Each named count flag must be >= 1, and at most its limit where one is given."""
    for name, limit in limits.items():
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value < 1:
            raise ValueError(f"{flag} must be >= 1")
        if limit is not None and value > limit:
            raise ValueError(f"{flag} {value} exceeds {limit}")


def parse_list(text: str, flag: str, kind, noun: str) -> list:
    """A list flag's comma-separated values, each read by ``kind``; ValueError names the flag."""
    values = []
    for v in text.split(","):
        if v:
            try:
                values.append(kind(v))
            except ValueError:
                raise ValueError(f"{flag} values must be {noun}, got {v!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def check_finite(value: float, flag: str, nonnegative: bool = False) -> None:
    if not math.isfinite(value) or (nonnegative and value < 0.0):
        raise ValueError(f"{flag} must be finite{' and >= 0' if nonnegative else ''}, got {value}")


def run_pw(args) -> tuple[Report, list]:
    from . import geomean, quad

    check_counts(args, trials=None, dim=MAX_PW_DIM, nodes=None)
    if args.nodes * args.dim > MAX_PW_NODES_DIM:
        raise ValueError(f"--nodes {args.nodes} x --dim {args.dim} exceeds {MAX_PW_NODES_DIM}")
    check_finite(args.tol, "--tol", nonnegative=True)
    check_finite(args.cond, "--cond")
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
    from . import ohspace

    check_counts(args, trials=None, n=None, m=MAX_OHNORM_M, restarts=None)
    if args.n * args.m**2 > MAX_OHNORM_ENTRIES:
        raise ValueError(f"--n {args.n} x --m {args.m}^2 exceeds {MAX_OHNORM_ENTRIES}")
    check_finite(args.tol, "--tol", nonnegative=True)
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
    from . import ohspace, quad

    check_counts(args, n=MAX_BASIS_N, vectors=None, nodes=MAX_NODES)
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
    from . import kfunc, ohspace, quad

    t_values = parse_list(args.t_sweep, "--t-sweep", float, "numbers")
    bad = [t for t in t_values if not (math.isfinite(t) and t > 0.0)]
    if bad:
        raise ValueError(f"--t-sweep values must be finite and > 0, got {bad[0]}")
    check_counts(args, points=MAX_SUMSPACE_POINTS, nodes=MAX_NODES)
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
    for t in t_values:
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
    params["t_sweep"] = t_values
    params["l2sum2"] = two
    params["l2sum1"] = one
    params["quotient_vs_basis_gap"] = quotient - basis_norm
    return Report("sumspace", params, rows), verdicts


def run_bracket(args) -> tuple[Report, list]:
    from . import tensorlog

    check_counts(args, grid=MAX_BRACKET_GRID)
    n_list = parse_list(args.n_list, "--n-list", int, "integers")
    if min(n_list) < 1:
        raise ValueError(f"--n-list values must be >= 1, got {min(n_list)}")
    # BracketReport raises BoundViolation on an inverted bracket
    rows = [dict(tensorlog.bracket_report(n).row(), grid=args.grid) for n in n_list]
    params = flag_params(args)
    params["n_list"] = n_list
    return Report("bracket", params, rows, constants=tensorlog.provenance()), []


def run_free(args) -> tuple[Report, list]:
    from . import freeprob

    check_counts(args, trials=None, summands=None, dim=MAX_FREE_DIM)
    check_finite(args.slack, "--slack", nonnegative=True)
    # trial t uses child t of the spawn, as trial t of free_clt_check does, so
    # the first min(T, 5) trial families also give the CLT moments
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    clt_trials = min(args.trials, 5)
    spectrum = freeprob.semicircle_diag(args.dim)
    rows = []
    verdicts = []
    target = 2.0 * math.sqrt(args.summands)
    clt_acc = np.zeros(4)
    for t in range(args.trials):
        fam = freeprob.free_family([spectrum] * args.summands, args.dim, seed=seeds[t])
        voi = freeprob.voiculescu_check(fam)
        conv = freeprob.voiculescu_converse_check(fam)
        if t < clt_trials:
            clt_acc += freeprob.clt_moments(fam)
        rows.append(
            {
                "trial": t,
                "lhs": voi.lhs,
                "rhs": voi.rhs,
                "margin": voi.margin,
                "sum_norm_rel_dev": voi.lhs / target - 1.0,
                "converse_triangle_margin": conv.triangle,
                "converse_column_margin": conv.column,
                "converse_row_margin": conv.row,
                "unitarity_residual": fam.unitarity_residual,
            }
        )
        verdicts += [
            violation("||sum a_i|| <= max ||a_i|| + 2 (sum tau(a_i* a_i))^(1/2)",
                      voi.lhs, voi.rhs, FREE_NORM_SLACK * voi.rhs, trial=t),
            # the row inequality is this one: tau(a a*) = tau(a* a)
            violation("||sum a_i||_1 <= (sum tau(a_i* a_i))^(1/2)", conv.column_rhs - conv.column,
                      conv.column_rhs, args.slack * conv.column_rhs, trial=t),
        ]
    clt = freeprob.CLTResult.from_moments(clt_acc / clt_trials)
    params = flag_params(args)
    params["clt_moments"] = list(clt.moments)
    params["clt_deviations"] = list(clt.deviations)
    return Report("free", params, rows), verdicts


def run_fock(args) -> tuple[Report, list]:
    from . import freeprob

    check_counts(args, kmax=MAX_FOCK_KMAX)
    if args.cutoff < args.kmax:
        raise ValueError(f"--cutoff {args.cutoff} is below --kmax {args.kmax}")
    moments = freeprob.fock_semicircular_moments(args.cutoff, args.kmax)
    catalans = freeprob.catalan_numbers(args.kmax)
    fock = freeprob.TruncatedFock(letter_dim=2, cutoff=min(args.cutoff, 6))
    a = fock.semicircular(letter=0)
    p1 = fock.letter_start_projection(0)
    comp = (np.eye(fock.dim) - p1) @ a @ (np.eye(fock.dim) - p1)
    defect = float(np.max(np.abs(comp)))
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
    args = _parser().parse_args(argv)
    runner = RUNNERS[args.subcommand]
    start = time.perf_counter()
    try:
        report, verdicts = runner(args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except MergeError as exc:
        print(f"merge error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, np.linalg.LinAlgError) as exc:
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
