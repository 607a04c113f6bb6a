import math

import numpy as np
import pytest

from ohlab import ohspace
from ohlab.kfunc import WeightedGrid, l2sum1_norm
from ohlab.numlin import hermitian_part
from ohlab.ohspace import VARIATIONAL_MAX_ITER, VARIATIONAL_TOL, fn_scalar_norm, oh_norm_direct, oh_norm_variational
from ohlab.quad import ArcsineRule, arcsine_rule

RULE = arcsine_rule(4096)


def random_tuple(rng, n, m):
    return rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))


class TestDirect:
    def test_single_identity(self):
        for m in (1, 2, 5):
            assert oh_norm_direct(np.eye(m)[None]) == pytest.approx(1.0, rel=1e-13)

    def test_scalar_tuple_is_euclidean(self):
        xs = np.array([[[1.0 + 2.0j]], [[3.0]], [[-1.0j]]])
        assert oh_norm_direct(xs) == pytest.approx(np.sqrt(1 + 4 + 9 + 1), rel=1e-13)

    def test_orthogonal_projections(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        e22 = np.diag([0.0, 1.0]).astype(complex)
        assert oh_norm_direct(np.array([e11, e22])) == pytest.approx(1.0, rel=1e-13)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(0)
        xs = random_tuple(rng, 3, 4)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rotated = np.array([u @ x @ v for x in xs])
        assert oh_norm_direct(rotated) == pytest.approx(oh_norm_direct(xs), rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        xs = random_tuple(rng, 2, 3)
        lam = 0.7 - 1.9j
        assert oh_norm_direct(lam * xs) == pytest.approx(abs(lam) * oh_norm_direct(xs), rel=1e-12)
        base = oh_norm_variational(xs, seed=0).value
        scaled = oh_norm_variational(lam * xs, seed=0).value
        assert scaled == pytest.approx(abs(lam) * base, rel=1e-9)

    def test_tuple_type_validation(self):
        with pytest.raises(ValueError, match=r"expected shape \(n, m, m\)"):
            oh_norm_direct(np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (7, 3), (3, 7), (40, 4)])
    def test_matches_kron_loop(self, n, m):
        # the one-GEMM Kronecker sum against sum_k kron(conj(x_k), x_k)
        xs = random_tuple(np.random.default_rng(n * 100 + m), n, m)
        big = sum(np.kron(np.conj(x), x) for x in xs)
        reference = float(np.sqrt(np.linalg.norm(big, 2)))
        assert oh_norm_direct(xs) == pytest.approx(reference, rel=1e-14)


class TestVariational:
    def test_single_identity(self):
        res = oh_norm_variational(np.eye(3, dtype=complex)[None])
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.converged

    def test_offdiagonal_units(self):
        e12 = np.zeros((2, 2), dtype=complex); e12[0, 1] = 1.0
        e21 = np.zeros((2, 2), dtype=complex); e21[1, 0] = 1.0
        xs = np.array([e12, e21])
        res = oh_norm_variational(xs)
        assert res.value == pytest.approx(oh_norm_direct(xs), rel=1e-10)

    def test_agrees_with_direct(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            xs = random_tuple(rng, n, m)
            d = oh_norm_direct(xs)
            res = oh_norm_variational(xs, seed=trial)
            assert abs(res.value - d) / d <= 1e-6

    def test_never_exceeds_direct(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            xs = random_tuple(rng, 3, 4)
            res = oh_norm_variational(xs, seed=trial)
            assert res.value <= oh_norm_direct(xs) * (1.0 + 1e-9) + 1e-12

    def test_halfstep_monotonicity(self):
        rng = np.random.default_rng(4)
        xs = random_tuple(rng, 4, 5)
        res = oh_norm_variational(xs, restarts=1)
        trace = res.objective_trace
        assert np.all(np.diff(trace) >= -1e-12 * np.maximum(trace[1:], 1.0))

    def test_argmax_feasible(self):
        rng = np.random.default_rng(5)
        xs = random_tuple(rng, 2, 4)
        res = oh_norm_variational(xs)
        for mat in (res.argmax.a_pos, res.argmax.b_pos):
            assert np.linalg.norm(mat, "fro") <= 1.0 + 1e-12
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-10
        # maximiser interior positivity is reported, never asserted
        assert isinstance(res.argmax.min_eig_a, float)

    def test_reported_min_eigs_come_from_the_psd_check(self, monkeypatch):
        # one eigvalsh per side of the argmax: BallPoint's PSD check
        xs = random_tuple(np.random.default_rng(6), 3, 4)
        calls = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(1)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        res = oh_norm_variational(xs, restarts=3)
        assert len(calls) == 2
        point = res.argmax
        assert (point.min_eig_a, point.min_eig_b) == tuple(float(np.min(real(m))) for m in (point.a_pos, point.b_pos))

    def test_zero_tuple(self):
        res = oh_norm_variational(np.zeros((2, 3, 3), dtype=complex))
        assert res.value == 0.0

    def test_invalid_parameters(self):
        xs = np.eye(2, dtype=complex)[None]
        with pytest.raises(ValueError):
            oh_norm_variational(xs, restarts=0)


def looped_variational(xs, restarts, seed):
    """The alternating maximisation one restart at a time, with 2-D products
    and np.linalg.norm: (value, a, b, converged, iterations, restart_values, trace)."""
    n, m, _ = xs.shape
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best_val, best, restart_values = -1.0, None, []
    for r in range(restarts):
        if r == 0:
            b = np.eye(m, dtype=complex) / np.sqrt(m)
        else:
            rng = np.random.default_rng(seeds[r])
            g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            b = g @ g.conj().T
            b /= np.linalg.norm(b, "fro")
        a = np.eye(m, dtype=complex) / np.sqrt(m)
        trace, value, converged, it = [], 0.0, False, 0
        for it in range(1, VARIATIONAL_MAX_ITER + 1):
            mten = xs.conj().reshape(n * m, m).T @ (b @ xs).reshape(n * m, m)
            nm = np.linalg.norm(mten, "fro")
            if nm == 0.0:
                value, converged = 0.0, True
                break
            a = mten / nm
            trace.append(nm)
            nten = (xs @ a).transpose(1, 0, 2).reshape(m, n * m) @ xs.conj().transpose(0, 2, 1).reshape(n * m, m)
            nn = np.linalg.norm(nten, "fro")
            b = nten / nn
            trace.append(nn)
            if nn - value < VARIATIONAL_TOL * max(nn, 1e-300) and it >= 2:
                value, converged = nn, True
                break
            value = nn
        restart_values.append(float(np.sqrt(max(value, 0.0))))
        if value > best_val:
            best_val, best = value, (a, b, converged, it, np.asarray(trace))
    a, b, converged, iterations, trace = best
    return (float(np.sqrt(max(best_val, 0.0))), hermitian_part(a), hermitian_part(b), converged, iterations,
            tuple(restart_values), trace)


class TestStackedRestarts:
    """The restarts iterate as one stack; each must keep, bit for bit, the
    iterates of the loop that runs it alone."""

    @staticmethod
    def assert_same(xs, restarts, seed):
        value, a, b, converged, iterations, restart_values, trace = looped_variational(xs, restarts, seed)
        res = oh_norm_variational(xs, restarts=restarts, seed=seed)
        assert res.value == value
        assert res.converged is converged and res.iterations == iterations
        assert res.restart_values == restart_values
        assert np.array_equal(res.argmax.a_pos, a) and np.array_equal(res.argmax.b_pos, b)
        assert np.array_equal(res.objective_trace, trace)
        return res

    @pytest.mark.parametrize("n,m,restarts", [(1, 1, 3), (4, 4, 8), (3, 7, 5), (7, 3, 1), (2, 12, 6), (16, 2, 9)])
    def test_matches_the_looped_oracle(self, n, m, restarts):
        rng = np.random.default_rng(100 * n + m)
        for seed in range(4):
            self.assert_same(random_tuple(rng, n, m), restarts, seed)

    def test_restarts_leave_the_stack_once_they_stop(self, monkeypatch):
        xs = random_tuple(np.random.default_rng(8), 4, 5)
        sizes = []
        real = ohspace._phi
        monkeypatch.setattr(ohspace, "_phi", lambda xs, b: sizes.append(len(b)) or real(xs, b))
        self.assert_same(xs, 8, 3)
        assert sizes[0] == 8 and sizes == sorted(sizes, reverse=True) and len(set(sizes)) > 2

    def test_zero_tuple(self):
        # M = 0 at the first step: every restart stops at value 0 with its start
        res = self.assert_same(np.zeros((2, 3, 3), dtype=complex), 4, 0)
        assert res.value == 0.0 and res.iterations == 1 and res.restart_values == (0.0,) * 4
        assert res.objective_trace.shape == (0,)

    @pytest.mark.parametrize("stack_bytes", [ohspace.STACK_BYTES, 1])
    def test_ties_go_to_the_lowest_restart(self, monkeypatch, stack_bytes):
        # for x = (I) every start B is a maximiser: all six values are exactly
        # 1 and restart 0's B = I/sqrt(2) wins, in one stack or six
        monkeypatch.setattr(ohspace, "STACK_BYTES", stack_bytes)
        res = self.assert_same(np.eye(2, dtype=complex)[None], 6, 0)
        assert res.restart_values == (1.0,) * 6
        assert np.allclose(res.argmax.a_pos, np.eye(2) / np.sqrt(2), rtol=0.0, atol=1e-15)

    def test_split_stacks_change_nothing(self, monkeypatch):
        # a tuple too large for one stack iterates its restarts in several
        xs = random_tuple(np.random.default_rng(9), 3, 4)
        whole = oh_norm_variational(xs, restarts=7, seed=2)
        monkeypatch.setattr(ohspace, "STACK_BYTES", 3 * (32 * 3 * 16 + 16 * VARIATIONAL_MAX_ITER))
        split = self.assert_same(xs, 7, 2)
        assert split.restart_values == whole.restart_values and split.value == whole.value

    @pytest.mark.parametrize("r,m", [(1, 1), (5, 4), (3, 60)])
    def test_slice_norms_match_linalg_norm(self, r, m):
        stack = random_tuple(np.random.default_rng(r * m), r, m)
        assert np.array_equal(ohspace._fro(stack), [np.linalg.norm(s, "fro") for s in stack])


class TestScalarBasisNorm:
    def test_zero_vector(self):
        assert fn_scalar_norm(np.zeros(3), RULE) == 0.0

    def test_single_basis_vector_range(self):
        val = fn_scalar_norm([1.0], RULE)
        assert 1.0 - 1e-9 <= val <= math.sqrt(2.0) + 1e-9

    def test_brute_force_ratio_grid(self):
        # oracle: dense scan over the profile ratio with its own closed form
        t = RULE.nodes
        w = RULE.weights
        thetas = np.linspace(1e-4, 1 - 1e-4, 4001)
        vals = [
            math.sqrt(np.sum(w / (th * t + (1 - th) * (1 - t)))) for th in thetas
        ]
        oracle = min(vals)
        assert fn_scalar_norm([1.0], RULE) == pytest.approx(oracle, abs=1e-6)

    def test_isomorphism_window(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 4, 8, 16):
            for _ in range(5):
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                ratio = fn_scalar_norm(a, RULE) / np.linalg.norm(a)
                assert 1 / math.sqrt(2) - 1e-3 <= ratio <= math.sqrt(2) + 1e-3

    def test_ratio_constant_across_vectors(self):
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(20):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            ratios.append(fn_scalar_norm(a, RULE) / np.linalg.norm(a))
        assert max(ratios) - min(ratios) < 1e-6

    @pytest.mark.parametrize("n_nodes", [1, 2, 7, 4096])
    def test_closed_form_matches_theta_search(self, n_nodes):
        # oracle: the +_1 ratio search over theta with densities 1/t, 1/(1-t)
        rule = arcsine_rule(n_nodes)
        t = rule.nodes
        grid = WeightedGrid(base_weights=rule.weights, g=1.0 / t, h=1.0 / (1.0 - t))
        search = l2sum1_norm(np.ones(n_nodes), grid)
        assert fn_scalar_norm([1.0], rule) == pytest.approx(search, rel=1e-12)
        a = np.array([3.0 - 1.0j, 0.5, 2.0j])
        assert fn_scalar_norm(a, rule) == pytest.approx(np.linalg.norm(a) * search, rel=1e-12)

    def test_rule_with_mean_off_half_rejected(self):
        # theta = 1/2 is the minimiser only when the rule's mean is 1/2
        skewed = ArcsineRule(2, np.array([0.25, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="mean"):
            fn_scalar_norm([1.0], skewed)
