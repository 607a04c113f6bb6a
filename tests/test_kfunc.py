import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from ohlab import kfunc
from ohlab.kfunc import (
    ik_t_parts,
    ThreeTermSpec,
    WeightedGrid,
    ik_t_norm,
    k_d1d2_norm,
    l2sum1_norm,
    l2sum2_norm,
    two_term_k_norm,
)
from ohlab.numlin import BoundViolation
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


class TestRecordInputs:
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: WeightedGrid([0.5, 0.5], [1.0, 1.0], [1.0]), "h has shape", id="grid-h-short"),
        pytest.param(lambda: WeightedGrid([0.5, 0.5], [1.0, np.nan], [1.0, 1.0]), "g must be finite", id="grid-g-nan"),
        pytest.param(lambda: WeightedGrid([0.5, 0.5], [1.0, 1.0], [1.0, 0.0]), "h must be strictly positive",
                     id="grid-h-zero"),
        pytest.param(lambda: WeightedGrid([], [], []), "base_weights has shape", id="grid-empty"),
        pytest.param(lambda: ThreeTermSpec(1.0, [1.0, 2.0], [1.0]), "base_weights has shape", id="spec-short"),
        pytest.param(lambda: ThreeTermSpec(1.0, [1.0, 1.0j], [0.5, 0.5]), "d must be real", id="spec-complex"),
        pytest.param(lambda: ThreeTermSpec(math.nan, [1.0], [1.0]), "t_param", id="spec-t-nan"),
    ])
    def test_rejected(self, build, match):
        # each array enters through numlin.as_array, which names it
        with pytest.raises(ValueError, match=match):
            build()


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
        monkeypatch.setattr(kfunc, "minimize_scalar", lambda dfun, bounds: kfunc.ScalarMinimum(x=0.0, nfev=1))
        spec = ThreeTermSpec(t_param=1e6, d=np.ones(4), base_weights=np.full(4, 0.25))
        with pytest.raises(BoundViolation, match="K-norm") as exc:
            ik_t_parts(np.ones(4), spec)
        assert "t=1000000.0, points=4" in str(exc.value)

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


# k = s (1, -2, 0.5) on a 3-point grid where ik_t takes a mixed route (its L1
# route alone would give 1.1667 s); the squares of s |k| are subnormal or 0
# at s = 1e-160 and 1e-170 and overflow at 1e160 and 1e300
SCALE_GRID = WeightedGrid(base_weights=np.full(3, 1 / 3), g=np.array([0.5, 2.0, 3.0]), h=np.array([4.0, 0.3, 1.0]))
SCALE_SPEC = ThreeTermSpec(t_param=1.0, d=np.array([0.5, 1.0, 2.0]), base_weights=np.full(3, 1 / 3))
SCALED_NORMS = {
    "l2sum2": lambda k: l2sum2_norm(k, SCALE_GRID),
    "l2sum1": lambda k: l2sum1_norm(k, SCALE_GRID),
    "ik_t": lambda k: ik_t_norm(k, SCALE_SPEC),
    "two_term": lambda k: two_term_k_norm(k, SCALE_SPEC),
}


@pytest.mark.parametrize("name", SCALED_NORMS)
@pytest.mark.parametrize("s", [1e-170, 1e-160, 1e160, 1e300])
def test_norms_are_homogeneous_at_extreme_scales(name, s):
    norm = SCALED_NORMS[name]
    k = np.array([1.0, -2.0, 0.5])
    expected = s * norm(k)
    assert abs(norm(s * k) - expected) <= 4 * np.spacing(expected)


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


def exact_l2sum1(k, w):
    """(theta*, norm) of the +_1 ratio search in 60-digit arithmetic."""
    with mpmath.workdps(60):
        wk2 = [mpmath.mpf(float(c)) for c in w.base_weights * np.abs(k) ** 2]
        ig = [1 / mpmath.mpf(float(v)) for v in w.g]
        ih = [1 / mpmath.mpf(float(v)) for v in w.h]

        def F(th):
            return mpmath.fsum(c / (th * a + (1 - th) * b) for c, a, b in zip(wk2, ig, ih))

        def dF(th):
            return -mpmath.fsum(c * (a - b) / (th * a + (1 - th) * b) ** 2 for c, a, b in zip(wk2, ig, ih))

        theta = mp_minimiser(dF, 0, 1)
        return float(theta), float(mpmath.sqrt(F(theta)))


def exact_ik_t(x, spec):
    """(sigma*, value) of the three-term scale search in 60-digit arithmetic."""
    with mpmath.workdps(60):
        a = [mpmath.mpf(float(v)) for v in np.abs(x)]
        d = [mpmath.mpf(float(v)) for v in spec.d]
        w = [mpmath.mpf(float(v)) for v in spec.base_weights]
        t = mpmath.mpf(float(spec.t_param))
        st_ = mpmath.sqrt(t)

        def phi(s):
            if s == 0:
                return st_ * mpmath.fsum(wj * aj for wj, aj in zip(w, a))
            huber = [aj**2 / (2 * s * dj) if aj <= st_ * s * dj else st_ * aj - t * s * dj / 2
                     for aj, dj in zip(a, d)]
            return s / 2 + mpmath.fsum(wj * hj for wj, hj in zip(w, huber))

        def dphi(s):
            if s == 0:
                return mpmath.mpf(1) / 2 - t / 2 * mpmath.fsum(wj * dj for wj, dj, aj in zip(w, d, a) if aj)
            return mpmath.mpf(1) / 2 - mpmath.fsum(
                wj * dj * min(aj**2 / (2 * s**2 * dj**2), t / 2) for wj, dj, aj in zip(w, d, a))

        k_norm = mpmath.sqrt(mpmath.fsum(wj * aj**2 / dj for wj, aj, dj in zip(w, a, d)))
        sigma = mp_minimiser(dphi, 0, k_norm)
        return float(sigma), float(phi(sigma))


def mp_minimiser(dF, lo, hi):
    # an endpoint whose slope points outward, else bisection on the sign of dF
    if dF(lo) >= 0:
        return mpmath.mpf(lo)
    if dF(hi) <= 0:
        return mpmath.mpf(hi)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if dF(mid) < 0 else (lo, mid)
    return (lo + hi) / 2


def phi_scipy(x, spec):
    """Bounded-Brent minimum of the three-term surrogate over [0, K], or its L1 endpoint."""
    a, d, w, t = np.abs(x), spec.d, spec.base_weights, spec.t_param

    def phi(s):
        r = s * d
        huber = np.where(a <= math.sqrt(t) * r, a**2 / (2.0 * r), math.sqrt(t) * a - 0.5 * t * r)
        return 0.5 * s + float(np.sum(w * huber))

    res = minimize_scalar(phi, bounds=(0.0, two_term_k_norm(x, spec)), method="bounded",
                          options={"xatol": 1e-12})
    return min(float(res.fun), math.sqrt(t) * float(np.sum(w * a)))


@pytest.fixture
def solves(monkeypatch):
    """Every kfunc.minimize_scalar result, in call order."""
    seen = []
    real = kfunc.minimize_scalar

    def spy(dfun, bounds):
        res = real(dfun, bounds)
        seen.append(res)
        return res

    monkeypatch.setattr(kfunc, "minimize_scalar", spy)
    return seen


class TestMinimizeScalar:
    """The derivative solve against scipy's bounded Brent method and 60-digit mpmath."""

    def test_ratio_search_on_random_grids(self, solves):
        rng = np.random.default_rng(60)
        for _ in range(12):
            w = random_grid(rng, int(rng.integers(2, 24)))
            k = rng.standard_normal(w.points)
            val = l2sum1_norm(k, w)
            theta, exact = exact_l2sum1(k, w)
            assert solves[-1].x == pytest.approx(theta, abs=1e-12)
            assert val == pytest.approx(exact, rel=1e-15)
            ref = minimize_scalar(
                lambda th: float(np.sum(w.base_weights * k**2 / (th / w.g + (1 - th) / w.h))),
                bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
            assert solves[-1].x == pytest.approx(float(ref.x), abs=1e-6)
            assert val <= math.sqrt(float(ref.fun)) * (1.0 + 1e-15)

    @pytest.mark.parametrize("ratio, theta", [(1e3, 0.0), (1e-3, 1.0)])
    def test_ratio_minimum_at_an_endpoint(self, ratio, theta, solves):
        # g >> h: the g slot costs more everywhere, F'(0) > 0, all of k goes to h
        rng = np.random.default_rng(62)
        h = rng.uniform(0.2, 5.0, 10)
        w = WeightedGrid(base_weights=np.full(10, 0.1), g=ratio * h, h=h)
        k = rng.standard_normal(10)
        val = l2sum1_norm(k, w)
        assert (solves[-1].x, solves[-1].nfev) == (theta, 1 if theta == 0.0 else 2)
        slot = w.h if theta == 0.0 else w.g
        assert val == pytest.approx(math.sqrt(np.sum(w.base_weights * k**2 * slot)), rel=1e-15)
        assert val == pytest.approx(exact_l2sum1(k, w)[1], rel=1e-15)

    def test_scale_search_on_random_grids(self, solves):
        rng = np.random.default_rng(63)
        for _ in range(6):
            n = int(rng.integers(2, 16))
            base = rng.uniform(0.1, 1.0, n)
            for t in (0.05, 0.5, 5.0, 50.0):
                spec = ThreeTermSpec(t_param=t, d=rng.uniform(0.2, 5.0, n), base_weights=base / base.sum())
                x = rng.standard_normal(n)
                val = ik_t_norm(x, spec)
                sigma, exact = exact_ik_t(x, spec)
                assert solves[-1].x == pytest.approx(sigma, rel=1e-12, abs=1e-300)
                assert val == pytest.approx(exact, rel=1e-15)
                assert val <= phi_scipy(x, spec) * (1.0 + 1e-15)

    def test_sigma_zero_is_the_l1_route(self, solves):
        # phi'(0+) = 1/2 - (t/2) sum_{x_j != 0} w_j d_j >= 0: one evaluation, at sigma = 0
        # (counting the zero entry too would make phi'(0+) negative)
        x = np.array([0.7, 0.0, -1.3, 2.0])
        spec = ThreeTermSpec(t_param=0.3, d=np.array([0.5, 20.0, 1.0, 2.0]), base_weights=np.full(4, 0.25))
        assert 0.5 - 0.15 * np.sum(spec.base_weights[x != 0] * spec.d[x != 0]) >= 0.0
        assert 0.5 - 0.15 * np.sum(spec.base_weights * spec.d) < 0.0
        val, (x1, x2, x3) = ik_t_parts(x, spec)
        assert (solves[-1].x, solves[-1].nfev) == (0.0, 1)
        assert val == math.sqrt(0.3) * float(np.sum(spec.base_weights * np.abs(x)))
        assert np.array_equal(x1, x) and not x2.any() and not x3.any()
        assert exact_ik_t(x, spec) == (0.0, pytest.approx(val, rel=1e-15))
        assert val <= phi_scipy(x, spec) * (1.0 + 1e-15)

    def test_zero_input_runs_no_search(self, monkeypatch):
        def fail(dfun, bounds):
            raise AssertionError("no search for k = 0")

        monkeypatch.setattr(kfunc, "minimize_scalar", fail)
        w = WeightedGrid(base_weights=np.full(3, 1 / 3), g=np.ones(3), h=np.ones(3))
        spec = ThreeTermSpec(t_param=1.0, d=np.ones(3), base_weights=w.base_weights)
        assert l2sum1_norm(np.zeros(3), w) == ik_t_norm(np.zeros(3), spec) == 0.0

    def test_nan_derivative_raises(self):
        with pytest.raises(RuntimeError, match="NaN"):
            kfunc.minimize_scalar(lambda x: (math.nan, 1.0, 0.0), (0.0, 1.0))
        # a NaN inside the bracket, after finite endpoint slopes
        with pytest.raises(RuntimeError, match="NaN"):
            kfunc.minimize_scalar(lambda x: (x - 0.3 if x in (0.0, 1.0) else math.nan, 1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("curvature", [1e-300, 1e3, 1e300])
    def test_useless_curvature_falls_back_to_bisection(self, curvature):
        # F'' far too small (Newton leaves the bracket), too large (Newton
        # creeps: its steps stop halving) or huge (the step rounds to
        # nothing): bisection still closes the bracket on the root of F'
        res = kfunc.minimize_scalar(lambda x: (x - 0.3, curvature, 0.0), (0.0, 1.0))
        assert abs(res.x - 0.3) <= math.ulp(0.3)
        assert res.nfev <= 2 + 2 * 60

    def test_kink_closes_on_adjacent_floats(self):
        # F' jumps from -1 to 2 between 0.3 and the next float: the loop ends
        # on the two adjacent floats and keeps the one with the smaller slope
        res = kfunc.minimize_scalar(lambda x: (-1.0 if x <= 0.3 else 2.0, 0.0, 0.0), (0.0, 1.0))
        assert res.x == 0.3 and res.nfev <= 2 + 60

    def test_stops_within_the_rounding_bound(self):
        # a slope within err of zero is a stationary point, at an endpoint or inside
        res = kfunc.minimize_scalar(lambda x: (x - 1e-20, 1.0, 1e-15), (0.0, 1.0))
        assert (res.x, res.nfev) == (0.0, 1)
        res = kfunc.minimize_scalar(lambda x: (x - 0.5 - 1e-20, 1.0, 1e-15), (0.0, 1.0))
        assert (res.x, res.nfev) == (0.5, 3)
