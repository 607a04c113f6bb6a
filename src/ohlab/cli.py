"""Command-line front door: seeded experiments with machine-readable reports.

Exit status: 0 on success, 1 when a computed quantity violates an asserted
bound (or an experiment tolerance), 2 on invalid configuration, 3 on a
numerical failure (non-convergence, a singular or failed solve).  JSON goes
to --out or stdout; wall-clock timing goes to stderr so identical seeded
runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import freeprob, geomean, ohspace, tensorlog
from .kfunc import (
    ThreeTermSpec,
    WeightedGrid,
    ik_t_norm,
    k_d1d2_norm,
    l2sum1_norm,
    l2sum2_norm,
    two_term_k_norm,
)
from .quad import arcsine_rule
from .report import MergeError, Report, report_from_dict, report_merge

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# a bracket pass holds 64-row tiles of grid floats (about 3 MB traced at 2048),
# but its time grows as grid^2; 2048 is the largest grid the tests, demos and
# benchmarks use
MAX_BRACKET_GRID = 2048


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
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--cond", type=float, default=1e3)

    p = common(sub.add_parser("ohnorm", help="variational vs direct matrix-tuple norm"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-6)

    p = common(sub.add_parser("basis", help="scalar-level basis norms in the quotient model"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--vectors", type=int, default=20)

    p = common(sub.add_parser("sumspace", help="two- and three-term sum-space norms"))
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--t-sweep", type=str, default="0.01,0.1,1,10,100")

    p = common(sub.add_parser("bracket", help="logarithmic tensor-norm brackets"))
    p.add_argument("--n-list", type=str, default="8,16,32,64")
    p.add_argument("--grid", type=int, default=tensorlog.DEFAULT_BRACKET_GRID,
                   help=f"nodes per axis, at most {MAX_BRACKET_GRID}")

    p = common(sub.add_parser("free", help="Voiculescu inequality on the rotated matrix model"))
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--summands", type=int, default=16)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--slack", type=float, default=0.02)

    p = common(sub.add_parser("fock", help="truncated Fock space exact checks"))
    p.add_argument("--cutoff", type=int, default=8)
    p.add_argument("--kmax", type=int, default=5)

    p = common(sub.add_parser("report", help="merge compatible reports"))
    p.add_argument("paths", nargs="+", help="JSON report files to merge")

    return parser


def run_pw(args) -> tuple[Report, bool]:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rule = arcsine_rule(args.nodes)
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    rows = []
    failed = False
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
        if rel_primal > args.tol or rel_dual > 2.0 * args.tol:
            failed = True
    params = vars_params(args, ["dim", "trials", "nodes", "tol", "cond", "seed"])
    params["max_rel_error"] = max(r["rel_err_primal"] for r in rows)
    return Report("pw", params, rows), failed


def run_ohnorm(args) -> tuple[Report, bool]:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    rows = []
    failed = False
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
                "argmax_min_eig_a": res.min_eig_a,
                "argmax_min_eig_b": res.min_eig_b,
            }
        )
        if rel > args.tol:
            failed = True
    return Report("ohnorm", vars_params(args, ["n", "m", "trials", "restarts", "tol", "seed"]), rows), failed


def run_basis(args) -> tuple[Report, bool]:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.vectors < 1:
        raise ValueError("--vectors must be >= 1")
    rule = arcsine_rule(args.nodes)
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.vectors):
        a = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
        val = ohspace.fn_scalar_norm(a, rule)
        rows.append({"vector": i, "norm": val, "ratio": val / float(np.linalg.norm(a))})
    ratios = [r["ratio"] for r in rows]
    params = vars_params(args, ["n", "nodes", "vectors", "seed"])
    params["ratio_spread"] = max(ratios) - min(ratios)
    failed = not all(1 / math.sqrt(2) - 1e-3 <= r <= math.sqrt(2) + 1e-3 for r in ratios)
    return Report("basis", params, rows), failed


def run_sumspace(args) -> tuple[Report, bool]:
    t_values = [float(v) for v in args.t_sweep.split(",") if v]
    if not t_values:
        raise ValueError("--t-sweep needs at least one value")
    rng = np.random.default_rng(args.seed)
    base = rng.uniform(0.5, 1.5, size=args.points)
    base /= base.sum()
    g = rng.uniform(0.2, 5.0, size=args.points)
    h = rng.uniform(0.2, 5.0, size=args.points)
    d = rng.uniform(0.2, 5.0, size=args.points)
    k = rng.standard_normal(args.points)
    grid = WeightedGrid(base_weights=base, g=g, h=h)
    two = l2sum2_norm(k, grid)
    one = l2sum1_norm(k, grid)
    failed = not (two - 1e-12 <= one <= math.sqrt(2) * two + 1e-12)
    # cross-module consistency on the arcsine rule: the two-density quotient
    # norm of the constant profile equals the scalar basis norm
    rule = arcsine_rule(args.nodes)
    quotient = k_d1d2_norm(np.ones(args.nodes), rule.nodes, 1.0 - rule.nodes, rule.weights)
    basis_norm = ohspace.fn_scalar_norm([1.0], rule)
    failed = failed or abs(quotient - basis_norm) > 1e-8
    rows = []
    prev = -math.inf
    for t in t_values:
        spec = ThreeTermSpec(t_param=t, d=d, base_weights=base)
        val = ik_t_norm(k, spec)
        k_norm = two_term_k_norm(k, spec)
        rows.append(
            {
                "t": t,
                "ik_t": val,
                "k_two_term": k_norm,
                "gap_to_k": k_norm - val,   # reported, never asserted
            }
        )
        if val < prev - 1e-10:
            failed = True
        prev = val
    params = vars_params(args, ["points", "nodes", "seed"])
    params["t_sweep"] = t_values
    params["l2sum2"] = two
    params["l2sum1"] = one
    params["quotient_vs_basis_gap"] = quotient - basis_norm
    return Report("sumspace", params, rows), failed


def run_bracket(args) -> tuple[Report, bool]:
    if args.grid > MAX_BRACKET_GRID:
        raise ValueError(f"--grid {args.grid} exceeds {MAX_BRACKET_GRID}: a pass takes time in grid^2")
    n_list = [int(v) for v in args.n_list.split(",") if v]
    # BracketReport raises BoundViolation on an inverted bracket
    rows = [tensorlog.bracket_report(n, grid_nodes=args.grid).row() for n in n_list]
    params = vars_params(args, ["grid", "seed"])
    params["n_list"] = n_list
    return Report("bracket", params, rows, constants=tensorlog.CONSTANTS.provenance()), False


def run_free(args) -> tuple[Report, bool]:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    # trial t uses child t of the spawn, as trial t of free_clt_check does, so
    # the first min(T, 5) trial families also give the CLT moments
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    clt_trials = min(args.trials, 5)
    base = freeprob.semicircle_diag(args.dim)
    rows = []
    failed = False
    target = 2.0 * math.sqrt(args.summands)
    clt_acc = np.zeros(4)
    for t in range(args.trials):
        fam = freeprob.free_family([base] * args.summands, args.dim, seed=seeds[t])
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
        if voi.margin < -0.01 * voi.rhs:
            failed = True
        if conv.column < -args.slack * conv.column_rhs or conv.row < -args.slack * conv.row_rhs:
            failed = True
        del fam  # free the members before the next trial builds its family
    clt = freeprob.CLTResult.from_moments(clt_acc / clt_trials)
    params = vars_params(args, ["dim", "summands", "trials", "slack", "seed"])
    params["clt_moments"] = list(clt.moments)
    params["clt_deviations"] = list(clt.deviations)
    return Report("free", params, rows), failed


def run_fock(args) -> tuple[Report, bool]:
    moments = freeprob.fock_semicircular_moments(args.cutoff, args.kmax)
    catalans = freeprob.catalan_numbers(args.kmax)
    fock = freeprob.TruncatedFock(letter_dim=2, cutoff=min(args.cutoff, 6))
    a = fock.semicircular(letter=0)
    p1 = fock.letter_start_projection(0)
    comp = (np.eye(fock.dim) - p1) @ a @ (np.eye(fock.dim) - p1)
    defect = float(np.max(np.abs(comp)))
    rows = [
        {"k": k + 1, "moment": m, "catalan": float(c), "abs_err": abs(m - c)}
        for k, (m, c) in enumerate(zip(moments, catalans))
    ]
    failed = any(r["abs_err"] > 1e-10 for r in rows) or defect > 1e-12
    params = vars_params(args, ["cutoff", "kmax", "seed"])
    params["compression_defect"] = defect
    return Report("fock", params, rows), failed


def run_report(args) -> tuple[Report, bool]:
    reports = []
    sources = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MergeError(f"{path}: unreadable report ({exc})") from exc
        reports.append(report_from_dict(data, source=path))
        sources.append(os.path.basename(path))
    return report_merge(reports, sources=sources), False


def vars_params(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


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
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = RUNNERS[args.subcommand]
    start = time.perf_counter()
    try:
        report, failed = runner(args)
    except tensorlog.BoundViolation as exc:
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
    return EXIT_ASSERTION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
