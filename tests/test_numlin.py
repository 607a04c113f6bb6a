import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohlab.numlin import (
    BoundViolation,
    PositiveMatrix,
    commuting_pair,
    hermitian_part,
    opnorm,
    require,
    sqrt_commuting,
    violation,
)


# test-only oracles: nothing in the library calls them


def schatten_norm(x, p) -> float:
    """Schatten (quasi-)norm: (sum sigma_i^p)^(1/p), max sigma for p=inf.

    Supported exponents: p = 1/2 (quasi-norm) and p in [1, inf].
    """
    p = float(p)
    if not (p == 0.5 or p >= 1.0):
        raise ValueError(f"unsupported Schatten exponent p={p}; need p=1/2 or p>=1")
    sv = np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False)
    if np.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


def parallel_sum(c1, c2) -> PositiveMatrix:
    """(C1^{-1} + C2^{-1})^{-1} of two strictly positive matrices, computed
    stably as C1 (C1+C2)^{-1} C2: the pointwise minimiser of
    min over x=a+b of (C1 a,a) + (C2 b,b).  The result is dominated by both."""
    p1, p2 = PositiveMatrix(c1), PositiveMatrix(c2)
    if not (p1.strictly_positive and p2.strictly_positive):
        raise ValueError("strictly positive matrix required (min_eig too small)")
    if p1.dim != p2.dim:
        raise ValueError("dimension mismatch")
    return PositiveMatrix(hermitian_part(p1.mat @ np.linalg.solve(p1.mat + p2.mat, p2.mat)))


def random_positive(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


class TestHermEig:
    # the eigendecomposition a PositiveMatrix stores on ingest
    def test_identity(self):
        w, u = PositiveMatrix(np.eye(3)).eig
        assert np.allclose(w, 1.0)
        assert np.allclose((u * w) @ u.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted(self):
        w, _ = PositiveMatrix(np.diag([2.0, 0.5, 1.0])).eig
        assert np.allclose(w, [0.5, 1.0, 2.0])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            PositiveMatrix(np.diag([2.0, -1.0]))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(0)
        h = random_positive(rng, 6)
        w, u = PositiveMatrix(h).eig
        assert np.max(np.abs((u * w) @ u.conj().T - h)) < 1e-10 * opnorm(h)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    def test_reconstruction_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            dim = int(rng.integers(1, 33))
            h = random_positive(rng, dim)
            p = PositiveMatrix(h)
            w, u = p.eig
            resid = np.max(np.abs((u * w) @ u.conj().T - h))
            assert resid <= 1e-10 * dim * max(opnorm(h), 1.0)
            assert p.norm == pytest.approx(opnorm(h), rel=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            PositiveMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stored_arrays_are_read_only(self):
        p = PositiveMatrix(np.diag([1.0, -1e-12]))   # the clamped path too
        for arr in (p.mat, *p.eig):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        with pytest.raises(AttributeError):
            p.eig = None

    def test_clamped_spectrum_is_the_stored_one(self):
        p = PositiveMatrix(np.diag([1.0, -1e-12]))
        w, u = p.eig
        assert w[0] == 0.0 == p.min_eig
        assert np.max(np.abs((u * w) @ u.conj().T - p.mat)) < 1e-15


class TestSchatten:
    def test_identity_p2(self):
        for n in (1, 3, 7):
            assert schatten_norm(np.eye(n), 2) == pytest.approx(np.sqrt(n), rel=1e-14)

    def test_sup_norm(self):
        assert schatten_norm(np.diag([3.0, 4.0]), np.inf) == pytest.approx(4.0)

    def test_half_quasi_norm(self):
        assert schatten_norm(np.diag([1.0, 4.0]), 0.5) == pytest.approx(9.0, rel=1e-13)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert schatten_norm(x, 2) ** 2 == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-10)

    def test_unsupported_exponent(self):
        for p in (0.3, 0.75, 0.99, -1.0):
            with pytest.raises(ValueError, match="unsupported"):
                schatten_norm(np.eye(2), p)


class TestPositiveMatrix:
    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-12])
        p = PositiveMatrix(m)
        assert p.min_eig == 0.0
        assert not p.strictly_positive

    def test_rejects_real_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            PositiveMatrix(np.diag([1.0, -1e-3]))

    def test_strict_flag(self):
        assert PositiveMatrix(np.diag([2.0, 1.0])).strictly_positive

    def test_hermitian_symmetrised(self):
        h = PositiveMatrix(np.array([[1.0, 1e-14j], [0.0, 2.0]], dtype=complex))
        assert np.max(np.abs(h.mat - h.mat.conj().T)) == 0.0


class TestParallelSum:
    def test_identity_pair(self):
        p = parallel_sum(np.eye(2), np.eye(2))
        assert np.allclose(p.mat, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar_harmonic_mean(self):
        p = parallel_sum(np.array([[2.0]]), np.array([[2.0]]))
        assert p.mat[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_diagonal(self):
        p = parallel_sum(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
        assert np.allclose(np.diag(p.mat).real, [0.8, 0.8], atol=1e-14)

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="strictly positive"):
            parallel_sum(np.diag([1.0, 0.0]), np.eye(2))

    def test_symmetry_homogeneity_domination(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            c1 = (q * rng.uniform(0.5, 3.0, 4)) @ q.conj().T
            q2 = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            c2 = (q2 * rng.uniform(0.5, 3.0, 4)) @ q2.conj().T
            p12 = parallel_sum(c1, c2).mat
            p21 = parallel_sum(c2, c1).mat
            assert np.max(np.abs(p12 - p21)) < 1e-10
            lam = 1.7
            scaled = parallel_sum(lam * c1, lam * c2).mat
            assert np.max(np.abs(scaled - lam * p12)) < 1e-10
            for c in (c1, c2):
                w = np.linalg.eigvalsh(0.5 * (c - p12 + (c - p12).conj().T))
                assert w[0] > -1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=1e-3, max_value=1e3),
        b=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scalar_case_is_harmonic_mean(self, a, b):
        p = parallel_sum(np.array([[a]]), np.array([[b]]))
        assert p.mat[0, 0].real == pytest.approx(a * b / (a + b), rel=1e-10)


class TestSqrtCommuting:
    def test_identity(self):
        assert np.allclose(sqrt_commuting(np.eye(2), np.eye(2)).mat, np.eye(2))

    def test_diagonal(self):
        r = sqrt_commuting(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
        assert np.allclose(np.diag(r.mat).real, [3.0, 2.0], atol=1e-12)

    def test_scalar_homogeneity(self):
        r = sqrt_commuting(4.0 * np.eye(3), np.eye(3))
        assert np.allclose(r.mat, 2.0 * np.eye(3), atol=1e-12)

    def test_rejects_non_commuting(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="commute"):
            sqrt_commuting(a, b)

    def test_zero_pair_commutes(self):
        # commutator and bound are both 0, so the certificate passes
        pa, pb = commuting_pair(np.zeros((3, 3)), np.zeros((3, 3)))
        assert pa.norm == pb.norm == 0.0
        assert np.array_equal(sqrt_commuting(pa, pb).mat, np.zeros((3, 3)))

    def test_pair_dimensions_must_match(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commuting_pair(np.eye(2), np.eye(3))

    def test_square_recovers_product(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dim = int(rng.integers(1, 9))
            q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
            a = (q * rng.uniform(0.1, 10.0, dim)) @ q.conj().T
            b = (q * rng.uniform(0.1, 10.0, dim)) @ q.conj().T
            r = sqrt_commuting(a, b).mat
            assert opnorm(r @ r - a @ b) <= 1e-8 * opnorm(a) * opnorm(b)

    def test_degenerate_spectrum_grouping(self):
        # A = 2I has one eigenspace, in which any basis diagonalises A; the
        # root A^{1/2} B^{1/2} needs no common eigenbasis, so none is sought
        a = np.eye(3) * 2.0
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        b = (q * np.array([1.0, 4.0, 9.0])) @ q.conj().T
        r = sqrt_commuting(a, b).mat
        assert opnorm(r @ r - a @ b) < 1e-10


class TestVerdict:
    def test_holds_up_to_slack(self):
        assert violation("a <= b", 1.0, 1.0) is None
        assert violation("a <= b", 1.1, 1.0, 0.2) is None

    def test_line_names_claim_stage_and_sides(self):
        assert (violation("a <= b", 2.0, 1.0, trial=3, n=8)
                == "a <= b fails at trial=3, n=8: 2.000000e+00 > 1.000000e+00")

    def test_nan_fails_and_a_negative_slack_is_a_margin(self):
        assert violation("a <= b", float("nan"), 1.0) is not None
        with pytest.raises(BoundViolation, match=r"^a <= b fails: .* \(slack -1\.0e-03\)$"):
            require("a <= b", 1.0, 1.0, -1e-3)
