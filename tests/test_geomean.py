import mpmath
import numpy as np
import pytest

from ohlab.geomean import (
    PWProblem,
    dual_witness_validate,
    pw_dual,
    pw_oracle,
    pw_primal,
    random_commuting_pair,
)
from ohlab.freeprob import haar_unitary
from ohlab.numlin import PositiveMatrix, hermitian_part, sqrt_commuting
from ohlab.quad import arcsine_rule

RULE = arcsine_rule(4096)


def scalar_problem(a, b):
    return PWProblem.build(np.array([[a]]), np.array([[b]]))


class TestPrimal:
    def test_identity_pair(self):
        p = PWProblem.build(np.eye(3), np.eye(3))
        x = np.array([1.0, 0.0, 0.0])
        assert pw_primal(p, x, RULE) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_geometric_mean(self):
        assert pw_primal(scalar_problem(4.0, 1.0), [1.0], RULE) == pytest.approx(2.0, rel=1e-10)

    def test_diagonal_example(self):
        p = PWProblem.build(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
        val = pw_primal(p, [1.0, 1.0], RULE)
        assert val == pytest.approx(5.0, rel=1e-10)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(0)
        p = random_commuting_pair(5, rng, cond=50.0)
        swapped = PWProblem.build(p.B, p.A)
        x = rng.standard_normal(5)
        a = pw_primal(p, x, RULE)
        b = pw_primal(swapped, x, RULE)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        p = random_commuting_pair(4, rng, cond=10.0)
        x = rng.standard_normal(4)
        lam = 2.5
        scaled = PWProblem.build(lam * p.A.mat, lam * p.B.mat)
        a = pw_primal(p, x, RULE)
        b = pw_primal(scaled, x, RULE)
        assert abs(b - lam * a) <= 1e-10 * max(abs(b), 1.0)

    def test_dimension_mismatch(self):
        p = PWProblem.build(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            pw_primal(p, [1.0, 0.0, 0.0], RULE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_vector_rejected(self, bad):
        # each route returned nan, with a RuntimeWarning from the pencil product
        p = PWProblem.build(np.eye(2), np.eye(2))
        for route in (lambda x: pw_primal(p, x, RULE), lambda x: pw_dual(p, x, RULE), lambda x: pw_oracle(p, x)):
            with pytest.raises(ValueError, match="vector must be finite"):
                route([1.0, bad])

    def test_rejects_singular_input(self):
        with pytest.raises(ValueError, match="strictly positive"):
            PWProblem.build(np.diag([1.0, 0.0]), np.eye(2))

    def test_rejects_non_commuting(self):
        b = np.array([[1.0, 0.4], [0.4, 1.0]])
        with pytest.raises(ValueError, match="commute"):
            PWProblem.build(np.diag([1.0, 3.0]), b)

    def test_non_commuting_message_shared_with_sqrt(self):
        # the problem and the oracle certify the pair with one check
        a, b = np.diag([1.0, 3.0]), np.array([[1.0, 0.4], [0.4, 1.0]])
        with pytest.raises(ValueError) as built:
            PWProblem.build(a, b)
        with pytest.raises(ValueError) as rooted:
            sqrt_commuting(a, b)
        assert str(built.value) == str(rooted.value)
        assert str(built.value).startswith("matrices do not commute: ")


@pytest.mark.parametrize("dim", [1, 4, 7, 64])
def test_random_pair_draws_a_haar_eigenbasis(dim):
    # the pair's eigenbasis is freeprob's Haar draw: same matrices, bit for
    # bit, and the same generator state afterwards
    rng, twin = np.random.default_rng(dim), np.random.default_rng(dim)
    p = random_commuting_pair(dim, rng, cond=50.0)
    q = haar_unitary(dim, twin)
    wa = np.exp(twin.uniform(0.0, np.log(50.0), size=dim))
    wb = np.exp(twin.uniform(0.0, np.log(50.0), size=dim))
    for got, w in ((p.A, wa), (p.B, wb)):
        assert np.array_equal(got.mat, PositiveMatrix(hermitian_part((q * w) @ q.conj().T)).mat)
    assert rng.bit_generator.state == twin.bit_generator.state


class TestDual:
    def test_identity_witness_constant(self):
        p = PWProblem.build(np.eye(2), np.eye(2))
        y = np.array([1.0, 0.0])
        val, w = pw_dual(p, y, RULE)
        assert val == pytest.approx(1.0, abs=1e-12)
        spread = np.max(np.abs(w.h_values - w.h_values[0]))
        assert spread < 1e-12

    def test_scalar_geometric_mean(self):
        val, _ = pw_dual(scalar_problem(4.0, 1.0), [1.0], RULE)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_diagonal_unit_vector(self):
        p = PWProblem.build(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
        val, _ = pw_dual(p, [1.0, 0.0], RULE)
        assert val == pytest.approx(3.0, rel=1e-10)

    def test_primal_dual_agreement_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            p = random_commuting_pair(dim, rng, cond=1e3)
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            a = pw_primal(p, x, RULE)
            b, _ = pw_dual(p, x, RULE)
            assert abs(a - b) <= 2e-6 * max(abs(a), 1e-12)

    def test_primal_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            p = random_commuting_pair(dim, rng, cond=1e3)
            x = rng.standard_normal(dim)
            assert pw_primal(p, x, RULE) == pytest.approx(pw_oracle(p, x), rel=1e-6)


def close_pair():
    # A's two smallest eigenvalues differ by 0.0019, below 1e-8 ||A||
    rng = np.random.default_rng(21)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    wa = np.array([2.67290, 2.67479, 50.0, 3.8e5])
    wb = np.array([7.0e3, 1.3, 2.0, 45.0])
    p = PWProblem.build((q * wa) @ q.conj().T, (q * wb) @ q.conj().T)
    return p, rng.standard_normal(4) + 1j * rng.standard_normal(4)


def seeded_trial():
    # trial 3 of `pw --dim 8 --cond 1e6 --seed 3`: A has eigenvalues 2.67290
    # and 2.67479 with ||A|| = 3.8e5
    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(20)[3])
    p = random_commuting_pair(8, rng, cond=1e6)
    return p, rng.standard_normal(8) + 1j * rng.standard_normal(8)


class TestOracle:
    @pytest.mark.parametrize("problem", [close_pair, seeded_trial], ids=lambda f: f.__name__)
    def test_close_small_eigenvalues_against_mpmath(self, problem):
        # the oracle must not merge close eigenvalues of A: it agrees with
        # 60-digit roots of the very matrices it was given
        p, x = problem()
        wa = p.A.eig[0]
        assert np.min(np.diff(wa)) < 1e-8 * wa[-1]
        with mpmath.workdps(60):
            ra, rb = (mpmath.sqrtm(mpmath.matrix(m.mat.tolist())) for m in (p.A, p.B))
            v = mpmath.matrix(x.tolist())
            exact = mpmath.re((v.H * ra * rb * v)[0])
            assert abs(pw_oracle(p, x) - exact) <= 1e-12 * abs(exact)


class TestWitness:
    def test_identity_witness(self):
        p = PWProblem.build(np.eye(2), np.eye(2))
        val, w = pw_dual(p, [1.0, 0.0], RULE)
        fn, resid = dual_witness_validate(w, p, RULE)
        assert fn == pytest.approx(1.0, abs=1e-10)
        assert resid < 1e-12

    def test_scalar_energy(self):
        val, w = pw_dual(scalar_problem(4.0, 1.0), [1.0], RULE)
        fn, _ = dual_witness_validate(w, scalar_problem(4.0, 1.0), RULE)
        assert fn == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_zero_witness(self):
        p = PWProblem.build(np.eye(2), np.eye(2))
        _, w = pw_dual(p, [1.0, 0.0], RULE)
        zero = type(w)(h_values=np.zeros_like(w.h_values))
        fn, resid = dual_witness_validate(zero, p, RULE)
        assert fn == 0.0 and resid == 0.0

    def test_energy_squared_equals_value(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_commuting_pair(4, rng, cond=100.0)
            y = rng.standard_normal(4)
            val, w = pw_dual(p, y, RULE)
            fn, _ = dual_witness_validate(w, p, RULE)
            assert fn**2 == pytest.approx(val, rel=1e-9)

    def test_feasible_perturbation_increases_energy(self):
        # adding a mean-zero profile keeps the linear constraint, so the
        # perturbed witness stays feasible and must not beat the minimum
        rng = np.random.default_rng(5)
        p = random_commuting_pair(3, rng, cond=20.0)
        y = rng.standard_normal(3)
        val, w = pw_dual(p, y, RULE)
        for _ in range(5):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            profile = (RULE.nodes - 0.5)[:, None]
            perturbed = type(w)(h_values=w.h_values + profile * c)
            fn, _ = dual_witness_validate(perturbed, p, RULE)
            assert fn**2 >= val - 1e-9 * max(val, 1.0)


class TestPencilInverses:
    def test_primal_and_dual_match_fresh_problems(self):
        # the second call on a problem reuses the factorisation the first one built
        rng = np.random.default_rng(12)
        prob = random_commuting_pair(4, rng, cond=1e3)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)

        def fresh():
            return PWProblem.build(prob.A, prob.B)

        primal = pw_primal(prob, x, RULE)
        dual, witness = pw_dual(prob, x, RULE)
        fresh_dual, fresh_witness = pw_dual(fresh(), x, RULE)
        assert primal == pw_primal(fresh(), x, RULE)
        assert dual == fresh_dual
        assert np.array_equal(witness.h_values, fresh_witness.h_values)
        # the factorisation serves every rule
        small = arcsine_rule(64)
        assert pw_primal(prob, x, small) == pw_primal(fresh(), x, small)

    def test_cond_below_one_rejected(self):
        with pytest.raises(ValueError, match="cond"):
            random_commuting_pair(2, np.random.default_rng(0), cond=0.5)


def non_commuting_problem(dim, rng, cond):
    """A strictly positive pair in two unrelated eigenbases.  PWProblem.build
    rejects it, but the pencil factorisation needs no commutation."""
    mats = []
    for _ in range(2):
        q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        mats.append(PositiveMatrix((q * np.exp(rng.uniform(0.0, np.log(cond), dim))) @ q.conj().T))
    return PWProblem(mats[0], mats[1])


def congruence_resolvent(p, t):
    lam, x = p.pencil
    return (x / (t * lam + 1.0 - t)) @ x.conj().T


NODES = RULE.nodes[[0, 1, 1000, 2048, 3000, 4094, 4095]]


class TestPencilCongruence:
    @pytest.mark.parametrize("cond", [1.0, 100.0, 1e6])
    @pytest.mark.parametrize("commuting", [True, False])
    def test_matches_batched_inverse(self, cond, commuting):
        # np.linalg.inv of the formed pencil is itself only accurate to about
        # cond * eps (against 50 digits: up to 8.6e-12 at cond 1e6), so the
        # agreement asserted is 1e-12 or that bound, whichever is larger
        tol = max(1e-12, cond * np.finfo(float).eps)
        rng = np.random.default_rng(80)
        for dim in (1, 4, 8):
            p = random_commuting_pair(dim, rng, cond=cond) if commuting else non_commuting_problem(dim, rng, cond)
            ainv, binv = np.linalg.inv(p.A.mat), np.linalg.inv(p.B.mat)
            for t in NODES:
                ref = np.linalg.inv(t * ainv + (1.0 - t) * binv)
                err = np.linalg.norm(congruence_resolvent(p, t) - ref, 2) / np.linalg.norm(ref, 2)
                assert err <= tol, (dim, t, err)

    def test_ill_conditioned_against_extended_precision(self):
        # at cond 1e6 the first-order error bound is cond * eps = 2.2e-10; the
        # congruence stays within 1e-10 of a 50-digit resolvent (at most
        # 3.2e-11 over 120 sampled problems), which eigh of C^H C instead of
        # the SVD of C misses (up to 3.5e-10 on these problems)
        rng = np.random.default_rng(81)
        for commuting in (True, False) * 4:
            p = random_commuting_pair(4, rng, cond=1e6) if commuting else non_commuting_problem(4, rng, 1e6)
            for t in NODES:
                with mpmath.workdps(50):
                    ainv, binv = (mpmath.matrix(m.mat.tolist()) ** -1 for m in (p.A, p.B))
                    exact = (mpmath.mpf(t) * ainv + (1 - mpmath.mpf(t)) * binv) ** -1
                    exact = np.array(exact.tolist(), dtype=complex)
                err = np.linalg.norm(congruence_resolvent(p, t) - exact, 2) / np.linalg.norm(exact, 2)
                assert err <= 1e-10, (commuting, t, err)

    def test_factorisation_is_read_only_and_cached(self):
        p = random_commuting_pair(3, np.random.default_rng(82), cond=10.0)
        lam, x = p.pencil
        assert p.pencil[0] is lam and p.pencil[1] is x
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(ValueError):
            x[0, 0] = 0.0


class TestStoredFactorisation:
    def test_routes_make_no_eigensolve_of_a_or_b(self, monkeypatch):
        # the problem's matrices hold their eigendecompositions from ingest;
        # the oracle, the dual and the primal read them, so once the problem
        # is built the only eigensolve left is the ingest of the root
        # A^{1/2} B^{1/2}
        rng = np.random.default_rng(13)
        p = random_commuting_pair(4, rng, cond=1e3)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        solved = []
        real = np.linalg.eigh

        def recording(a, *args, **kwargs):
            solved.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        pw_primal(p, x, RULE)
        pw_dual(p, x, RULE)
        pw_oracle(p, x)
        assert not any(m.shape == (4, 4) and np.array_equal(m, q.mat) for m in solved for q in (p.A, p.B))
        assert [m.shape for m in solved] == [(4, 4)]
