"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Tolerances and budgets are pinned here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ohlab.freeprob import (
    TruncatedFock,
    catalan_numbers,
    fock_semicircular_moments,
    free_family,
    semicircle_diag,
    voiculescu_check,
    voiculescu_converse_check,
)
from ohlab.geomean import dual_witness_validate, pw_dual, pw_oracle, pw_primal, random_commuting_pair
from ohlab.kfunc import WeightedGrid, l2sum1_norm, l2sum2_norm
from ohlab.ohspace import fn_scalar_norm, oh_norm_direct, oh_norm_variational
from ohlab.quad import arcsine_rule
from ohlab.tensorlog import (
    CONSTANTS,
    bracket_report,
    witness_build,
    witness_validate,
)
from reference import integrate_mu


def verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pw_instances():
    rule = arcsine_rule(4096)
    rng = np.random.default_rng(20240901)
    instances = []
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        prob = random_commuting_pair(dim, rng, cond=1e3)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        instances.append((prob, x))
    return rule, instances


@pytest.fixture(scope="module")
def bracket_rows():
    ns = [2**k for k in range(3, 13)]  # 8 .. 4096
    start = time.perf_counter()
    rows = [bracket_report(n) for n in ns]
    return rows, time.perf_counter() - start


def test_criterion_1_quadrature_exactness():
    start = time.perf_counter()
    rule = arcsine_rule(64)
    worst = 0.0
    for k in range(7):
        target = math.comb(2 * k, k) / 4.0**k
        worst = max(worst, abs(integrate_mu(rule.nodes**k, rule) - target))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst <= 1e-12 and elapsed < 0.1,
        f"moments k=0..6 max error {worst:.2e} (<=1e-12), {elapsed * 1e3:.1f} ms (<100 ms)",
    )


def test_criterion_2_pw_primal_vs_oracle(pw_instances):
    rule, instances = pw_instances
    start = time.perf_counter()
    worst = 0.0
    for prob, x in instances:
        oracle = pw_oracle(prob, x)
        primal = pw_primal(prob, x, rule)
        worst = max(worst, abs(primal - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    verdict(
        2,
        worst <= 1e-6 and elapsed < 2.0,
        f"50 pairs, max rel err {worst:.2e} (<=1e-6), {elapsed:.2f} s (<2 s)",
    )


def test_criterion_3_pw_dual(pw_instances):
    rule, instances = pw_instances
    worst_pd = 0.0
    worst_wit = 0.0
    for prob, x in instances:
        primal = pw_primal(prob, x, rule)
        dual, witness = pw_dual(prob, x, rule)
        worst_pd = max(worst_pd, abs(dual - primal) / abs(primal))
        fnorm, _ = dual_witness_validate(witness, prob, rule)
        worst_wit = max(worst_wit, abs(fnorm**2 - dual) / abs(dual))
    verdict(
        3,
        worst_pd <= 2e-6 and worst_wit <= 1e-6,
        f"dual vs primal {worst_pd:.2e} (<=2e-6), witness energy^2 vs value {worst_wit:.2e} (<=1e-6)",
    )


def test_criterion_4_oh_norm_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        xs = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        direct = oh_norm_direct(xs)
        res = oh_norm_variational(xs, restarts=8, seed=trial)
        worst = max(worst, abs(res.value - direct) / direct)
    elapsed = time.perf_counter() - start
    verdict(
        4,
        worst <= 1e-6 and elapsed < 10.0,
        f"100 tuples, max rel diff {worst:.2e} (<=1e-6), {elapsed:.2f} s (<10 s)",
    )


def test_criterion_5_scalar_basis_isomorphism():
    rule = arcsine_rule(4096)
    rng = np.random.default_rng(7)
    lo, hi = 1 / math.sqrt(2) - 1e-3, math.sqrt(2) + 1e-3
    ok = True
    detail_ratio = None
    for n in (1, 2, 4, 8, 16):
        ratios = []
        for _ in range(20):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ratios.append(fn_scalar_norm(a, rule) / np.linalg.norm(a))
        ok = ok and all(lo <= r <= hi for r in ratios)
        ok = ok and (max(ratios) - min(ratios) < 1e-6)
        detail_ratio = ratios[0]
    verdict(
        5,
        ok,
        f"ratio {detail_ratio:.6f} inside [{lo:.4f}, {hi:.4f}], constant per n within 1e-6",
    )


def test_criterion_6_closed_form_and_sandwich():
    rng = np.random.default_rng(11)
    worst_cf = 0.0
    sandwich_ok = True
    for points in (4, 8, 16, 32, 64):
        base = rng.uniform(0.1, 1.0, points)
        w = WeightedGrid(
            base_weights=base / base.sum(),
            g=rng.uniform(0.2, 5.0, points),
            h=rng.uniform(0.2, 5.0, points),
        )
        k = rng.standard_normal(points)
        # independent oracle: pointwise scalar minimisation per node
        total = 0.0
        for kj, gj, hj, wj in zip(k, w.g, w.h, w.base_weights):
            res = minimize_scalar(
                lambda a: a**2 * gj + (kj - a) ** 2 * hj,
                bounds=(min(0.0, kj) - 1.0, max(0.0, kj) + 1.0),
                method="bounded",
                options={"xatol": 1e-13},
            )
            total += wj * res.fun
        worst_cf = max(worst_cf, abs(l2sum2_norm(k, w) - math.sqrt(total)))
        two = l2sum2_norm(k, w)
        one = l2sum1_norm(k, w)
        sandwich_ok = sandwich_ok and (two - 1e-10 <= one <= math.sqrt(2) * two + 1e-10)
    verdict(
        6,
        worst_cf <= 1e-10 and sandwich_ok,
        f"closed form vs pointwise brute force {worst_cf:.2e} (<=1e-10), +_1 sandwich holds",
    )


def test_criterion_7_witness_inequality_audit():
    ok = True
    details = []
    for delta in (1e-2, 1e-4):
        q = witness_build(8, delta=delta)
        norms = witness_validate(q)  # raises on violation
        ok = ok and norms.pairing.hi <= norms.fg_bound + 1e-8
        ok = ok and norms.h_sq.hi <= norms.h_bound + 1e-8
        ok = ok and norms.k_sq.hi <= norms.k_bound + 1e-8
        ok = ok and norms.pairing.lo >= norms.pairing_bound - 1e-8
        details.append(f"delta={delta:g}: pairing {norms.pairing.lo:.3f}>={norms.pairing_bound:.3f}")
    verdict(7, ok, "; ".join(details))


def test_criterion_8_logarithmic_growth(bracket_rows):
    rows, elapsed = bracket_rows
    ok = elapsed < 60.0
    mids, targets = [], []
    for rep in rows:
        n = rep.n
        target = math.sqrt(n * (1 + math.log(n)))
        ok = ok and rep.lower >= CONSTANTS.lower_c * target - 1e-12
        ok = ok and rep.upper <= CONSTANTS.upper_c * target + 1e-12
        ok = ok and rep.lower <= rep.upper
        mids.append(0.5 * (rep.lower + rep.upper))
        targets.append(target)
    slope = float(np.polyfit(np.log(targets), np.log(mids), 1)[0])
    ok = ok and abs(slope - 1.0) <= 0.1
    verdict(
        8,
        ok,
        f"n=8..4096: floors/ceilings hold, slope {slope:.3f} (1+-0.1), {elapsed:.1f} s (<60 s)",
    )


def test_criterion_9_projection_constant_brackets(bracket_rows):
    rows, _ = bracket_rows
    ok = True
    for rep in rows:
        n = rep.n
        fac = math.sqrt(n / (1 + math.log(n)))
        ok = ok and abs(rep.lambda_lo - fac / CONSTANTS.psc_c) <= 1e-12 * fac
        ok = ok and rep.lambda_hi <= CONSTANTS.gamma_c * fac * (1 + 1e-12)
        ok = ok and rep.lambda_lo <= rep.lambda_hi
        # trace duality: the ceiling is the smaller of the proved constant
        # and n / pi1_lo, and the pi1 bracket is the tensor bracket scaled by
        # the proved factors 1/18 and 6
        ok = ok and rep.lambda_hi == min(CONSTANTS.gamma_c * fac, n / rep.pi1_lo)
        ok = ok and abs(rep.pi1_lo - rep.lower / 18) <= 1e-15 * rep.pi1_lo
        ok = ok and rep.pi1_hi == 6 * rep.upper
        ok = ok and n / rep.pi1_lo >= rep.lambda_lo
    verdict(9, ok, f"{len(rows)} sizes: scaled bracket within [1/108, 288*sqrt(2)*pi], duality arithmetic consistent")


def test_criterion_10_voiculescu():
    start = time.perf_counter()
    moments = fock_semicircular_moments(8, 5)
    catalan_ok = all(abs(m - c) <= 1e-10 for m, c in zip(moments, catalan_numbers(5)))
    fock = TruncatedFock(letter_dim=2, cutoff=5)
    a = fock.semicircular(letter=0)
    p1 = fock.letter_start_projection(0)
    eye = np.eye(fock.dim)
    defect = float(np.max(np.abs((eye - p1) @ a @ (eye - p1))))

    dim, n, trials = 512, 16, 20
    base = semicircle_diag(dim)
    seeds = np.random.SeedSequence(123).spawn(trials)
    target = 2.0 * math.sqrt(n)
    margin_ok = True
    norm_ok = True
    converse_ok = True
    worst_dev = 0.0
    for t in range(trials):
        fam = free_family([base] * n, dim, seed=seeds[t])
        res = voiculescu_check(fam)
        margin_ok = margin_ok and res.margin >= -0.01 * res.rhs
        worst_dev = max(worst_dev, abs(res.lhs / target - 1.0))
        conv = voiculescu_converse_check(fam)
        converse_ok = converse_ok and conv.triangle >= -0.02 * conv.triangle_rhs
        converse_ok = converse_ok and conv.column >= -0.02 * conv.column_rhs
        converse_ok = converse_ok and conv.row >= -0.02 * conv.row_rhs
    norm_ok = worst_dev <= 0.05
    elapsed = time.perf_counter() - start
    verdict(
        10,
        catalan_ok and defect <= 1e-12 and margin_ok and norm_ok and converse_ok and elapsed < 120.0,
        f"Catalan exact, compression defect {defect:.1e} (<=1e-12), margins ok, "
        f"sum-norm dev {worst_dev:.3f} (<=0.05), {elapsed:.1f} s (<120 s)",
    )


def test_criterion_11_determinism():
    cases = [
        ["pw", "--dim", "2", "--trials", "2", "--nodes", "256", "--seed", "9"],
        ["ohnorm", "--n", "2", "--m", "2", "--trials", "2", "--seed", "9"],
        ["basis", "--n", "2", "--nodes", "256", "--vectors", "2", "--seed", "9"],
        ["sumspace", "--points", "6", "--t-sweep", "0.1,1", "--seed", "9"],
        ["bracket", "--n-list", "8", "--grid", "128", "--seed", "9"],
        ["free", "--dim", "32", "--summands", "3", "--trials", "2", "--seed", "9"],
        ["fock", "--cutoff", "5", "--kmax", "3", "--seed", "9"],
    ]
    ok = True
    for args in cases:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "ohlab.cli", *args], capture_output=True
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 0
        json.loads(outs[0])
    verdict(11, ok, f"{len(cases)} subcommands byte-identical across seeded reruns")
