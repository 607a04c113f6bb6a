import math

import numpy as np
import pytest

from ohlab.quad import (
    ArcsineRule,
    Grid2D,
    arcsine_rule,
)
from reference import integrate_mu


def integrate_2d(f, grid: Grid2D) -> float:
    """Integrate f(t, s), callable on meshgrids, against mu x mu on the product rule."""
    T, S, W = grid.meshes()
    return float(np.sum(f(T, S) * W))


# test-only oracles: nothing in the library calls them


def arcsine_moment(k: int) -> float:
    """Exact k-th moment of mu: central binomial C(2k,k) / 4^k."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return math.comb(2 * k, k) / 4.0**k


def mu_cdf(t: float) -> float:
    """Exact CDF of mu: F(t) = (2/pi) * arcsin(sqrt(t))."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0,1]")
    return 2.0 / math.pi * math.asin(math.sqrt(t))


class TestArcsineRule:
    def test_probability_measure(self):
        r = arcsine_rule(17)
        assert abs(r.weights.sum() - 1.0) < 1e-15
        assert np.all(r.nodes > 0) and np.all(r.nodes < 1)

    def test_node_symmetry(self):
        r = arcsine_rule(33)
        assert np.allclose(np.sort(r.nodes), np.sort(1.0 - r.nodes), atol=1e-15)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            arcsine_rule(0)

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [1.0, np.nan]])
    def test_rejects_nan_weights(self, weights):
        # |sum - 1| > 1e-14 is False for a NaN sum, so such a rule used to
        # build, and every integral against it read nan
        with pytest.raises(ValueError, match="weights must be finite"):
            ArcsineRule(2, np.array([0.25, 0.75]), np.array(weights))

    def test_constant(self):
        assert abs(integrate_mu(lambda t: np.ones_like(t), arcsine_rule(8)) - 1.0) < 1e-15

    def test_first_moment_by_symmetry(self):
        assert abs(integrate_mu(lambda t: t, arcsine_rule(16)) - 0.5) < 1e-14

    def test_second_moment(self):
        val = integrate_mu(lambda t: t**2, arcsine_rule(16))
        assert abs(val - 3.0 / 8.0) < 1e-14

    def test_moments_match_central_binomial(self):
        r = arcsine_rule(64)
        for k in range(7):
            val = integrate_mu(r.nodes**k, r)
            assert abs(val - arcsine_moment(k)) < 1e-12

    def test_symmetric_integrand_invariance(self):
        r = arcsine_rule(101)
        f = lambda t: np.exp(t) / (1.0 + t**2)
        a = integrate_mu(f, r)
        b = integrate_mu(lambda t: f(1.0 - t), r)
        assert abs(a - b) < 1e-13

    def test_spectral_convergence_resolvent(self):
        # doubling N changes the harmonic-mean integrand by < 1e-12
        for lam, kap in [(0.1, 10.0), (10.0, 0.1), (0.5, 2.0), (10.0, 10.0)]:
            f = lambda t: 1.0 / (t / lam + (1.0 - t) / kap)
            v1 = integrate_mu(f, arcsine_rule(512))
            v2 = integrate_mu(f, arcsine_rule(1024))
            assert abs(v1 - v2) < 1e-12
            assert abs(v2 - math.sqrt(lam * kap)) < 1e-12

    def test_nonfinite_integrand_rejected(self):
        r = arcsine_rule(8)
        vals = np.ones_like(r.nodes)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="not finite"):
            integrate_mu(vals, r)


class TestGrid2D:
    def test_constant(self):
        g = Grid2D(arcsine_rule(32), arcsine_rule(32))
        assert abs(integrate_2d(lambda T, S: np.ones_like(T), g) - 1.0) < 1e-14

    def test_scalar_harmonic_identity(self):
        # 1-D harmonic-mean check through the 2-D plumbing
        r = arcsine_rule(1024)
        f = lambda t: 1.0 / (t / 4.0 + (1.0 - t))
        assert abs(integrate_mu(f, r) - 2.0) < 1e-12

    def test_product_factorisation(self):
        g = Grid2D(arcsine_rule(64), arcsine_rule(64))
        val = integrate_2d(lambda T, S: T * S, g)
        assert abs(val - 0.25) < 1e-13


class TestExactMasses:
    def test_cdf_values(self):
        assert mu_cdf(0.0) == 0.0
        assert mu_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        assert mu_cdf(0.5) == pytest.approx(0.5, abs=1e-15)
        assert mu_cdf(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_cdf_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mu_cdf(1.5)

    def test_rule_masses_match_the_cdf(self):
        # the rule's equal weights put mass within one weight of F(x) below x
        r = arcsine_rule(4096)
        for x in (0.01, 0.25, 0.5, 0.9):
            assert integrate_mu(np.where(r.nodes <= x, 1.0, 0.0), r) == pytest.approx(mu_cdf(x), abs=1.0 / 4096)
