import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from ohlab import kfunc, tensorlog
from ohlab.kfunc import (
    BoundViolation,
    ik_t_parts,
    ThreeTermSpec,
    WeightedGrid,
    ik_t_norm,
    k_d1d2_norm,
    l2sum1_norm,
    l2sum2_norm,
    two_term_k_norm,
)
from ohlab.ohspace import fn_scalar_norm
from ohlab.quad import arcsine_rule


def random_grid(rng, n):
    base = rng.uniform(0.1, 1.0, n)
    return WeightedGrid(
        base_weights=base / base.sum(),
        g=rng.uniform(0.2, 5.0, n),
        h=rng.uniform(0.2, 5.0, n),
    )


def brute_l2sum2(k, w):
    # pointwise scalar minimisation of |k1|^2 g + |k - k1|^2 h, no closed form
    total = 0.0
    for kj, gj, hj, wj in zip(k, w.g, w.h, w.base_weights):
        res = minimize_scalar(
            lambda a: (a**2 * gj + (kj - a) ** 2 * hj),
            bounds=(min(0.0, kj) - 1.0, max(0.0, kj) + 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        total += wj * res.fun
    return math.sqrt(total)


def brute_l2sum1(k, w):
    # convex solver over the decomposition coordinates (local = global)
    def objective(k1):
        k2 = k - k1
        n1 = math.sqrt(np.sum(w.base_weights * w.g * k1**2))
        n2 = math.sqrt(np.sum(w.base_weights * w.h * k2**2))
        return n1 + n2

    best = math.inf
    for start in (np.zeros_like(k), k.copy(), 0.5 * k):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 40000})
        best = min(best, res.fun)
    return best


class TestL2Sum2:
    def test_uniform_constant(self):
        w = WeightedGrid(base_weights=np.full(5, 0.2), g=np.ones(5), h=np.ones(5))
        assert l2sum2_norm(np.ones(5), w) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_arcsine_densities_constant(self):
        rule = arcsine_rule(512)
        t = rule.nodes
        w = WeightedGrid(base_weights=rule.weights, g=1 / t, h=1 / (1 - t))
        assert l2sum2_norm(np.ones_like(t), w) == pytest.approx(1.0, rel=1e-13)

    def test_zero(self):
        w = WeightedGrid(base_weights=np.full(3, 1 / 3), g=np.ones(3), h=np.ones(3))
        assert l2sum2_norm(np.zeros(3), w) == 0.0

    def test_matches_pointwise_brute_force(self):
        rng = np.random.default_rng(0)
        for n in (4, 16, 64):
            w = random_grid(rng, n)
            k = rng.standard_normal(n)
            assert l2sum2_norm(k, w) == pytest.approx(brute_l2sum2(k, w), abs=1e-10)


class TestL2Sum1:
    def test_sandwich(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            w = random_grid(rng, int(rng.integers(2, 40)))
            k = rng.standard_normal(w.points)
            lo = l2sum2_norm(k, w)
            val = l2sum1_norm(k, w)
            assert lo - 1e-10 <= val <= math.sqrt(2) * lo + 1e-10

    def test_one_route_disabled(self):
        rng = np.random.default_rng(2)
        n = 12
        h = rng.uniform(0.2, 5.0, n)
        w = WeightedGrid(base_weights=np.full(n, 1 / n), g=1e8 * h, h=h)
        k = rng.standard_normal(n)
        target = math.sqrt(np.sum(w.base_weights * h * k**2))
        assert l2sum1_norm(k, w) == pytest.approx(target, abs=1e-3)

    def test_matches_decomposition_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = random_grid(rng, 10)
            k = rng.standard_normal(10)
            assert l2sum1_norm(k, w) == pytest.approx(brute_l2sum1(k, w), abs=1e-4)

    def test_zero(self):
        w = WeightedGrid(base_weights=np.full(3, 1 / 3), g=np.ones(3), h=np.ones(3))
        assert l2sum1_norm(np.zeros(3), w) == 0.0


class TestIKT:
    def grid(self, rng, n=6):
        base = rng.uniform(0.1, 1.0, n)
        return ThreeTermSpec(
            t_param=1.0,
            d=rng.uniform(0.2, 5.0, n),
            base_weights=base / base.sum(),
        )

    def test_vanishes_as_t_to_zero(self):
        spec = ThreeTermSpec(t_param=1e-12, d=np.ones(4), base_weights=np.full(4, 0.25))
        assert ik_t_norm(np.ones(4), spec) <= 1e-5

    def test_zero_input(self):
        spec = ThreeTermSpec(t_param=1.0, d=np.ones(4), base_weights=np.full(4, 0.25))
        assert ik_t_norm(np.zeros(4), spec) == 0.0

    def test_monotone_in_t_and_brute_force(self):
        rng = np.random.default_rng(4)
        spec0 = self.grid(rng)
        x = rng.standard_normal(6)
        prev = -math.inf
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            spec = ThreeTermSpec(t_param=t, d=spec0.d, base_weights=spec0.base_weights)
            val, (x1, x2, x3) = ik_t_parts(x, spec)
            assert val >= prev - 1e-10
            prev = val
            # the returned decomposition is feasible and attains the value
            recomposed = x1 + x2 * np.sqrt(spec.d) + np.sqrt(spec.d) * x3
            assert np.max(np.abs(recomposed - x)) < 1e-12
            w, st_ = spec.base_weights, math.sqrt(t)
            attained = (
                st_ * np.sum(w * np.abs(x1))
                + math.sqrt(np.sum(w * np.abs(x2) ** 2))
                + math.sqrt(np.sum(w * np.abs(x3) ** 2))
            )
            assert attained == pytest.approx(val, rel=1e-12, abs=1e-12)
            # two-sided sandwich against an independent convex solver: we are
            # never beaten, and never better than its optimisation slack
            oracle = self.brute_force(x, spec)
            assert val <= oracle + 1e-9
            assert val >= oracle - 5e-4

    @staticmethod
    def brute_force(x, spec):
        # convex solver over (x1, x2); x3 is determined by the decomposition
        w, d, st_ = spec.base_weights, spec.d, math.sqrt(spec.t_param)
        n = x.size

        def objective(z):
            x1, x2 = z[:n], z[n:]
            x3 = (x - x1) / np.sqrt(d) - x2
            return (
                st_ * np.sum(w * np.abs(x1))
                + math.sqrt(np.sum(w * x2**2))
                + math.sqrt(np.sum(w * x3**2))
            )

        best = math.inf
        for start in (np.zeros(2 * n), np.concatenate([x, np.zeros(n)]),
                      np.concatenate([np.zeros(n), x / np.sqrt(d)])):
            res = minimize(objective, start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12,
                                    "maxiter": 40000, "maxfev": 80000})
            best = min(best, res.fun)
        return best

    def test_dominated_by_two_term(self):
        rng = np.random.default_rng(5)
        for t in (0.1, 1.0, 10.0, 1e4):
            spec = ThreeTermSpec(t_param=t, d=rng.uniform(0.2, 5.0, 8),
                                 base_weights=np.full(8, 1 / 8))
            x = rng.standard_normal(8)
            assert ik_t_norm(x, spec) <= two_term_k_norm(x, spec) + 1e-9

    def test_bound_above_k_norm_raises(self, monkeypatch):
        # a broken scale search stuck at sigma = 0 returns the pure L1 route,
        # which at large t exceeds the K-norm; the guard survives python -O
        monkeypatch.setattr(
            kfunc, "minimize_scalar",
            lambda fun, bounds, method, options: SimpleNamespace(x=0.0, fun=fun(0.0), success=True),
        )
        spec = ThreeTermSpec(t_param=1e6, d=np.ones(4), base_weights=np.full(4, 0.25))
        with pytest.raises(BoundViolation, match="K-norm"):
            ik_t_parts(np.ones(4), spec)
        assert tensorlog.BoundViolation is BoundViolation

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(6)
        spec = self.grid(rng)
        x = rng.standard_normal(6)
        a = ik_t_norm(x, spec)
        b = ik_t_norm(3.5 * x, spec)
        assert b == pytest.approx(3.5 * a, rel=1e-6)


class TestTriangle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_triangle_inequalities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        w = random_grid(rng, n)
        spec = ThreeTermSpec(t_param=float(rng.uniform(0.05, 20.0)),
                             d=rng.uniform(0.2, 5.0, n),
                             base_weights=w.base_weights)
        for _ in range(5):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert l2sum2_norm(x + y, w) <= l2sum2_norm(x, w) + l2sum2_norm(y, w) + 1e-8
            assert l2sum1_norm(x + y, w) <= l2sum1_norm(x, w) + l2sum1_norm(y, w) + 1e-8
            assert ik_t_norm(x + y, spec) <= ik_t_norm(x, spec) + ik_t_norm(y, spec) + 1e-8


class TestKd1d2:
    def test_alias_consistency(self):
        rng = np.random.default_rng(7)
        n = 9
        base = np.full(n, 1 / n)
        k = rng.standard_normal(n)
        w = WeightedGrid(base_weights=base, g=np.ones(n), h=np.ones(n))
        assert k_d1d2_norm(k, np.ones(n), np.ones(n), base) == pytest.approx(
            l2sum1_norm(k, w), rel=1e-12
        )

    def test_matches_scalar_basis_norm(self):
        rule = arcsine_rule(2048)
        t = rule.nodes
        val = k_d1d2_norm(np.ones_like(t), t, 1 - t, rule.weights)
        assert val == pytest.approx(fn_scalar_norm([1.0], rule), rel=1e-10)

    def test_zero(self):
        base = np.full(4, 0.25)
        assert k_d1d2_norm(np.zeros(4), np.ones(4), np.ones(4), base) == 0.0


class TestMinimizeScalarPort:
    """kfunc.minimize_scalar against scipy's bounded method, the routine it ports."""

    @staticmethod
    def assert_matches_scipy(fun, bounds, xatol):
        ours = kfunc.minimize_scalar(fun, bounds=bounds, method="bounded", options={"xatol": xatol})
        ref = minimize_scalar(fun, bounds=bounds, method="bounded", options={"xatol": xatol})
        assert (ours.x, ours.fun, ours.nfev) == (float(ref.x), float(ref.fun), ref.nfev)
        assert ours.success and ref.success and ours.message == ref.message

    @pytest.mark.parametrize("xatol", [1e-5, 1e-8, 1e-12])
    def test_random_convex_quadratics(self, xatol):
        rng = np.random.default_rng(60)
        for _ in range(40):
            centre, scale, floor = rng.uniform(-0.5, 1.5), rng.uniform(0.1, 10.0), rng.standard_normal()

            def quadratic(x, centre=centre, scale=scale, floor=floor):
                return scale * (x - centre) ** 2 + floor

            self.assert_matches_scipy(quadratic, (0.0, 1.0), xatol)

    @pytest.mark.parametrize("xatol", [1e-8, 1e-12])
    def test_minimum_at_an_endpoint(self, xatol):
        self.assert_matches_scipy(lambda x: (x + 1.0) ** 2, (0.0, 1.0), xatol)
        self.assert_matches_scipy(lambda x: -x, (0.0, 2.5), xatol)

    @pytest.mark.parametrize("xatol", [1e-8, 1e-12])
    def test_nonconvex(self, xatol):
        self.assert_matches_scipy(lambda x: math.sin(5.0 * x) + 0.1 * x * x, (-3.0, 4.0), xatol)
        self.assert_matches_scipy(lambda x: abs(x - 0.3) ** 0.5, (-1.0, 2.0), xatol)

    def test_the_searches_kfunc_runs(self):
        # the l2sum1 ratio objective and the ik_t scale objective, as called
        rng = np.random.default_rng(61)
        w = random_grid(rng, 12)
        k2 = np.abs(rng.standard_normal(12)) ** 2
        self.assert_matches_scipy(kfunc._ratio_objective(k2, w), (0.0, 1.0), kfunc.DEFAULT_OUTER_TOL)
        spec = ThreeTermSpec(t_param=0.5, d=rng.uniform(0.2, 5.0, 12), base_weights=w.base_weights)
        absx = np.abs(rng.standard_normal(12))
        phi = lambda s: 0.5 * s + float(np.sum(spec.base_weights * kfunc._huber_value(absx, s * spec.d, 0.5**0.5)))
        self.assert_matches_scipy(phi, (0.0, 3.0), kfunc.DEFAULT_OUTER_TOL)

    def test_evaluation_cap(self):
        res = kfunc.minimize_scalar(lambda x: (x - 0.3) ** 2, bounds=(0.0, 1.0), method="bounded",
                                    options={"xatol": 1e-12, "maxiter": 3})
        assert (res.nfev, res.success) == (3, False)
        assert res.message == "Maximum number of function calls reached."

    def test_other_methods_rejected(self):
        with pytest.raises(ValueError, match="bounded"):
            kfunc.minimize_scalar(lambda x: x * x, bounds=(0.0, 1.0), method="brent", options={})
