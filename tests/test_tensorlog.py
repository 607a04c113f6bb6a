import math

import numpy as np
import pytest

from ohlab import kfunc, quad, tensorlog
from ohlab.kfunc import WeightedGrid, l2sum1_norm
from ohlab.tensorlog import (
    CONSTANTS,
    BoundViolation,
    BracketReport,
    bracket_report,
    default_grid,
    diag_lower_bound,
    diag_upper_bound,
    witness_build,
    witness_validate,
)

GRID = default_grid(512)


class TestConstants:
    def test_fixed_values(self):
        assert CONSTANTS.lower_c == pytest.approx(1 / (16 * math.sqrt(2) * math.pi), rel=1e-15)
        assert CONSTANTS.upper_c == 18.0
        assert CONSTANTS.pi1_lo_factor == pytest.approx(1 / 18)
        assert CONSTANTS.pi1_hi_factor == 6.0
        assert CONSTANTS.psc_c == 108.0
        assert CONSTANTS.gamma_c == pytest.approx(288 * math.sqrt(2) * math.pi, rel=1e-15)
        assert CONSTANTS.banach_c == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)

    def test_provenance_rows(self):
        rows = CONSTANTS.provenance()
        assert {r["name"] for r in rows} >= {"lower_c", "upper_c", "psc_c", "gamma_c"}
        assert all(set(r) == {"name", "value", "citation"} for r in rows)


class TestWitness:
    def test_ratio_value_at_center(self):
        q = witness_build(8, delta=0.1)
        assert q.v(0.25, 0.75) > 0.0
        # v(1/2,1/2) = 2, on the rectangle boundary
        assert q.v(0.5, 0.5) == pytest.approx(2.0)

    def test_component_sums_on_rectangle(self):
        q = witness_build(16)
        t = np.linspace(q.delta + 1e-3, 0.5 - 1e-3, 7)
        s = np.linspace(0.5 + 1e-3, 1 - q.delta - 1e-3, 7)
        T, S = np.meshgrid(t, s, indexing="ij")
        # the Hilbertian pair adds up to (ts + (1-t)(1-s)) v = 1 on I, and the
        # four coefficient polynomials add up to 1, so the quadruple sums to v
        assert np.max(np.abs(q.f(T, S) + q.g(T, S) - 1.0)) < 1e-12
        total = q.f(T, S) + q.g(T, S) + q.h(T, S) + q.k(T, S)
        assert np.max(np.abs(total - q.v(T, S))) < 1e-12

    def test_ratio_constraints_identical(self):
        q = witness_build(9)
        t, s = 0.3, 0.8
        v = q.v(t, s)
        assert q.f(t, s) / (t * s) == pytest.approx(v, rel=1e-14)
        assert q.g(t, s) / ((1 - t) * (1 - s)) == pytest.approx(v, rel=1e-14)
        assert q.h(t, s) / (t * (1 - s)) == pytest.approx(v, rel=1e-14)
        assert q.k(t, s) / ((1 - t) * s) == pytest.approx(v, rel=1e-14)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            witness_build(8, delta=0.7)
        with pytest.raises(ValueError):
            witness_build(8, delta=0.0)

    def test_validate_canonical_n7(self):
        q = witness_build(7)
        norms = witness_validate(q, GRID, n=7)
        assert norms.scaled_fg_feasible and norms.scaled_hk_feasible
        assert norms.fg_sq <= norms.fg_bound
        assert norms.h_sq <= norms.h_bound
        assert norms.k_sq <= norms.k_bound
        assert norms.pairing >= norms.pairing_bound

    @pytest.mark.parametrize("delta", [1e-2, 1e-4])
    def test_validate_audit_deltas(self, delta):
        q = witness_build(8, delta=delta)
        norms = witness_validate(q, default_grid(1024))
        # strictly below the analytic ceilings, strictly above the floor
        assert norms.fg_sq < norms.fg_bound
        assert norms.h_sq < norms.h_bound
        assert norms.k_sq < norms.k_bound
        assert norms.pairing > norms.pairing_bound

    def test_collapsing_rectangle(self):
        q = witness_build(8, delta=0.499)
        norms = witness_validate(q, default_grid(1024))
        assert norms.fg_sq < 5e-3
        assert norms.h_sq < 5e-3
        assert norms.k_sq < 5e-3

    def test_unresolved_rectangle_rejected(self):
        q = witness_build(8, delta=0.4999999)
        with pytest.raises(ValueError, match="resolve"):
            witness_validate(q, default_grid(16))


class TestLowerBound:
    def test_floor_at_n7(self):
        val = diag_lower_bound(7, GRID)
        assert val >= CONSTANTS.lower_c * math.sqrt(7 * (1 + math.log(7)))

    def test_requires_n7(self):
        with pytest.raises(ValueError):
            diag_lower_bound(6, GRID)

    def test_monotone_under_doubling(self):
        vals = [diag_lower_bound(n, GRID) for n in (8, 16, 32, 64, 128)]
        assert np.all(np.diff(vals) > 0)

    def test_ratio_window_large_n(self):
        n = 4096
        val = diag_lower_bound(n, default_grid(1024))
        target = math.sqrt(n * (1 + math.log(n)))
        assert CONSTANTS.lower_c <= val / target <= 1.0


class TestUpperBound:
    def test_zero_matrix(self):
        parts = diag_upper_bound(4, a=np.zeros((4, 4)), grid=GRID)
        assert parts.value == 0.0

    def test_log_ceiling_diagonal(self):
        for n in (1, 4, 8, 64):
            parts = diag_upper_bound(n, grid=GRID)
            assert parts.value <= parts.log_ceiling
            if n >= 2:
                # the crude-constant route overshoots the 18-ceiling by 0.5%
                # at n = 1 (constant rounding); from n = 2 on it fits
                assert parts.analytic_value <= parts.log_ceiling + 1e-12

    def test_orders_against_lower(self):
        lo = diag_lower_bound(8, GRID)
        up = diag_upper_bound(8, grid=GRID)
        assert lo <= up.value

    def test_general_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        parts = diag_upper_bound(5, a=a, grid=GRID)
        bound = CONSTANTS.upper_c * math.sqrt(1 + math.log(5)) * np.linalg.norm(a, "fro")
        assert 0 < parts.value <= bound


class TestBrackets:
    def test_pi1_consistency(self):
        methods = {}
        for n in (4, 8, 64):
            rep = bracket_report(n, grid_nodes=512)
            assert 0 < rep.pi1_lo <= rep.pi1_hi
            assert rep.pi1_lo <= n  # trivial trace-duality ceiling on the summing norm
            methods[n] = rep.pi1_lo_method
        assert methods[4] == "banach-sqrt(n)"
        assert methods[8] == "tensor-lower/18"

    def test_lambda_bracket_contains_scaled_target(self):
        for n in (8, 64, 256):
            rep = bracket_report(n, grid_nodes=512)
            lo, hi = rep.lambda_lo, rep.lambda_hi
            fac = math.sqrt(n / (1 + math.log(n)))
            assert lo == pytest.approx(fac / CONSTANTS.psc_c, rel=1e-12)
            assert hi <= CONSTANTS.gamma_c * fac * (1 + 1e-12)
            assert lo <= hi

    def test_trace_duality_arithmetic(self):
        for n in (4, 64):
            rep = bracket_report(n, grid_nodes=512)
            fac = math.sqrt(n / (1 + math.log(n)))
            assert rep.lambda_hi == min(CONSTANTS.gamma_c * fac, n / rep.pi1_lo)
            assert rep.pi1_hi == 6 * rep.upper
            if n >= 7:
                assert rep.pi1_lo == pytest.approx(rep.lower / 18, rel=1e-15)
            else:
                assert rep.pi1_lo == CONSTANTS.banach_c * math.sqrt(n)
            assert n / rep.pi1_lo >= rep.lambda_lo

    @pytest.mark.parametrize("n, counts", [(8, (1, 1, 0, 0)), (4, (1, 0, 0, 0))])
    def test_each_bracket_computed_once_per_n(self, n, counts, monkeypatch):
        calls = {"upper": 0, "witness": 0, "meshes": 0, "theta_search": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tensorlog, "diag_upper_bound", counting("upper", tensorlog.diag_upper_bound))
        monkeypatch.setattr(tensorlog, "witness_validate", counting("witness", tensorlog.witness_validate))
        monkeypatch.setattr(quad.Grid2D, "meshes", counting("meshes", quad.Grid2D.meshes))
        # l2sum1_norm runs its theta search through kfunc's own minimize_scalar
        monkeypatch.setattr(kfunc, "minimize_scalar", counting("theta_search", kfunc.minimize_scalar))
        bracket_report(n, grid_nodes=128)
        assert tuple(calls.values()) == counts

    def test_inverted_lambda_bracket_raises(self):
        with pytest.raises(BoundViolation, match="projection bracket inverted"):
            BracketReport(
                n=8, lower=1.0, upper=2.0, pi1_lo=0.1, pi1_hi=1.0,
                pi1_lo_method="x", lambda_lo=2.0, lambda_hi=1.0, grid=64,
                delta_lower=0.01, delta_upper=0.001,
                upper_parts=diag_upper_bound(8, grid=GRID),
            )

    def test_report_row_schema(self):
        rep = bracket_report(8, grid_nodes=256)
        row = rep.row()
        assert set(row) == {"n", "lower", "upper", "pi1", "lambda_cb", "grid", "delta"}
        assert set(row["pi1"]) == {"lo", "hi", "lo_method"}
        assert set(row["lambda_cb"]) == {"lo", "hi"}

    def test_inverted_bracket_raises(self):
        with pytest.raises(BoundViolation):
            BracketReport(
                n=8, lower=2.0, upper=1.0, pi1_lo=0.1, pi1_hi=1.0,
                pi1_lo_method="x", lambda_lo=0.1, lambda_hi=1.0, grid=64,
                delta_lower=0.01, delta_upper=0.001,
                upper_parts=diag_upper_bound(8, grid=GRID),
            )

    def test_width_stable_under_refinement(self):
        # relative bracket width must shrink or stay as the grid doubles
        widths = []
        for nodes in (256, 512):
            rep = bracket_report(16, grid_nodes=nodes)
            widths.append((rep.upper - rep.lower) / rep.upper)
        assert widths[1] <= widths[0] * 1.05

    def test_loglog_slope(self):
        ns = [8, 32, 128, 512]
        mids, targets = [], []
        for n in ns:
            rep = bracket_report(n, grid_nodes=512)
            mids.append(0.5 * (rep.lower + rep.upper))
            targets.append(math.sqrt(n * (1 + math.log(n))))
        slope = np.polyfit(np.log(targets), np.log(mids), 1)[0]
        assert abs(slope - 1.0) <= 0.1


def masked_reference(grid, witness_delta, upper_delta):
    """The five witness integrals and the rectangle scalar the brute-force way:
    indicator masks on the full product grid, and for the rectangle the
    l2sum1_norm theta search over the masked points."""
    T, S, W = grid.meshes()
    d = witness_delta
    inside = (T >= d) & (T <= 0.5) & (S >= 0.5) & (S <= 1.0 - d)
    v = np.where(inside, 1.0 / (T * S + (1.0 - T) * (1.0 - S)), 0.0)
    witness = {
        "pairing": np.sum(v * W),
        "f_sq": np.sum(T * S * v * v * W),
        "g_sq": np.sum((1.0 - T) * (1.0 - S) * v * v * W),
        "h_sq": np.sum(T * (1.0 - S) * v * v * W),
        "k_sq": np.sum((1.0 - T) * S * v * v * W),
    }
    d = upper_delta
    region = (
        ((T <= 0.5) & (S <= 0.5))
        | ((T >= d) & (T <= 0.5) & (S >= 0.5) & (S <= 1.0 - d))
        | ((T >= 0.5) & (T <= 1.0 - d) & (S >= d) & (S <= 0.5))
        | ((T >= 0.5) & (S >= 0.5))
    )
    wgrid = WeightedGrid(W[region], 1.0 / (T * S)[region], 1.0 / ((1.0 - T) * (1.0 - S))[region])
    return witness, l2sum1_norm(np.ones(wgrid.points), wgrid, outer_tol=1e-10)


class TestBlockSumsAgainstMasks:
    # 127 nodes put one node at exactly 1/2, 128 nodes none
    @pytest.mark.parametrize("nodes", [127, 128])
    @pytest.mark.parametrize("n, deltas", [
        (1, None), (8, None), (4096, None),
        (8, (0.05, 1e-3)),
        (8, "nodes"),  # both deltas on a node, where the closed edges matter
    ])
    def test_witness_and_rectangle_match_masked_grid(self, nodes, n, deltas):
        grid = default_grid(nodes)
        if deltas is None:
            q = witness_build(n)
            upper = diag_upper_bound(n, grid=grid)
        else:
            if deltas == "nodes":
                deltas = (grid.rule_t.nodes[-6], grid.rule_t.nodes[-3])
            q = witness_build(n, delta=deltas[0])
            upper = diag_upper_bound(n, grid=grid, delta=deltas[1])
        norms = witness_validate(q, grid)
        witness, rect_scalar = masked_reference(grid, q.delta, upper.delta)
        for name, ref in witness.items():
            assert getattr(norms, name) == pytest.approx(ref, rel=1e-12, abs=0.0), name
        assert upper.rectangle_part == pytest.approx(math.sqrt(n) * rect_scalar, rel=1e-12, abs=0.0)
