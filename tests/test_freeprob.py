import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.linalg import lapack_lite
from scipy.optimize import brentq as scipy_brentq

from ohlab import cli, freeprob
from ohlab.freeprob import (
    UNITARITY_SLACK,
    CLTResult,
    FreeFamily,
    TruncatedFock,
    catalan_numbers,
    clt_moments,
    fock_semicircular_moments,
    free_family,
    haar_unitary,
    semicircle_diag,
    unitarity_residual,
    voiculescu_check,
    voiculescu_converse_check,
)
from reference import family_from_members, vacuum


# test-only oracles: nothing in the library calls them


def gue(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE matrix normalised so tau(a^2) ~ 1."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0 * dim)
    return (g + g.conj().T) / np.sqrt(2.0)


def gue_spectrum(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The eigenvalues of a GUE matrix, the spectrum free_family rotates."""
    return np.linalg.eigvalsh(gue(dim, rng))


def trace_norm(a: np.ndarray) -> float:
    """Normalised trace norm tau(|a|), from a full SVD."""
    return float(np.sum(np.linalg.svd(a, compute_uv=False)) / a.shape[0])


def top_level_projection(fock: TruncatedFock) -> np.ndarray:
    """Projection onto the words of length ``fock.cutoff``."""
    return np.diag([1.0 if len(w) == fock.cutoff else 0.0 for w in fock.words])


def centred(spectrum) -> np.ndarray:
    """The centred spectrum, as free_family centred it before it streamed."""
    d = np.asarray(spectrum, dtype=float)
    return d - d.mean()


def rotated_members(spectra, dim: int, seed) -> list:
    """The members free_family(spectra, dim, seed) adds into its sum, each
    whole, rebuilt in member order: diag(d) for the first centred spectrum d,
    in its own frame, and (U * d) U^H for the others, U from the same seeded
    haar_unitary stream."""
    rng = np.random.default_rng(seed)
    members = [np.diag(centred(spectra[0])).astype(complex)]
    for spectrum in spectra[1:]:
        u = haar_unitary(dim, rng)
        members.append((u * centred(spectrum)) @ u.conj().T)
    return members


def summed_in_order(members) -> np.ndarray:
    total = members[0].copy()
    for a in members[1:]:
        total += a
    return total


def lower_sum(bases, dim: int, seed) -> np.ndarray:
    """The lower triangle of the whole members free_family(bases, dim, seed)
    rotates, summed in member order: what its sum must hold there."""
    return np.tril(summed_in_order(rotated_members(bases, dim, seed)))


def solved(build, monkeypatch, poison=False) -> tuple:
    """(family, arrays): the family build() returns, and every array its build
    handed to np.linalg.eigvalsh, in order, with np.linalg.svd failing, as
    the free path takes none.  The family holds no 2-D array, and its
    eigenvalues are the eigvalsh of the last array, the member sum, whose
    lower triangle is all that eigvalsh reads.  With ``poison`` each array's
    strict upper triangle is overwritten with NaN before it is solved."""
    seen = []
    real = np.linalg.eigvalsh

    def spy(a, UPLO="L"):
        assert UPLO == "L"
        if poison:
            a[np.triu_indices(len(a), 1)] = np.nan
        seen.append(a)
        return real(a)

    def no_svd(*args, **kwargs):
        raise AssertionError("the free path takes no SVD")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    fam = build()
    monkeypatch.undo()
    assert all(np.ndim(v) <= 1 for v in held_arrays(fam))
    assert np.array_equal(fam.eigenvalues, np.linalg.eigvalsh(seen[-1]))
    return fam, seen


def held_arrays(fam: FreeFamily):
    """Every array a FreeFamily holds, those in its tuples included."""
    for name in fam._fields:
        value = getattr(fam, name)
        yield from value if isinstance(value, tuple) else (value,)


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def draw_count(dim: int) -> int:
    """The normals one haar_unitary(dim) draws: 2 (dim - k) b per panel."""
    block = freeprob._BLOCK
    return sum(2 * (dim - k) * min(block, dim - k) for k in range(0, dim, block))


def reflector_columns(dim: int, rng: np.random.Generator) -> list:
    """Column j's reflector vector x = z[j:, j], drawn as haar_unitary draws
    them: per panel, the (dim - k) x b block of real parts, then imaginary
    parts, unscaled."""
    block = freeprob._BLOCK
    columns = []
    for k in range(0, dim, block):
        shape = (dim - k, min(block, dim - k))
        panel = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        columns.extend(panel[j:, j] for j in range(shape[1]))
    return columns


def dense_reflector_q(columns):
    """(Q, phases) applying each reflector to the identity in turn,
    Q = H_1 (H_2 (... H_dim)), H_j = I - tau v v^H on rows j.. from the closed
    form of x = columns[j]; a zero x leaves H_j = I with phase 1."""
    dim = len(columns)
    q = np.eye(dim, dtype=complex)
    phases = np.ones(dim, dtype=complex)
    for j in reversed(range(dim)):
        x = columns[j]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        e = x[0] / abs(x[0]) if x[0] != 0.0 else 1.0
        v = x / (e * (abs(x[0]) + norm))
        v[0] = 1.0
        tau = 1.0 + abs(x[0]) / norm
        q[j:] -= tau * np.outer(v, v.conj() @ q[j:])
        phases[j] = -e
    return q, phases


class TestHaar:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(48, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(48))) < 1e-12

    def test_column_norms(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(32, rng)
        assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-12

    def test_seed_determinism(self):
        a = haar_unitary(16, np.random.default_rng(7))
        b = haar_unitary(16, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 7, 64, 127, 128, 129, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_place_kernels_bit_equal(self, dim, seed):
        # zungqr's blocked WY products round differently from reflector-by-
        # reflector products, so the draw agrees with the dense oracle to
        # rounding (dims 127..129 and 300 cross panel edges), from the same
        # normals
        rng = np.random.default_rng(seed)
        u = haar_unitary(dim, rng)
        q, phases = dense_reflector_q(reflector_columns(dim, np.random.default_rng(seed)))
        assert np.max(np.abs(u - q * phases)) <= 64 * dim * np.finfo(float).eps
        twin = np.random.default_rng(seed)
        twin.standard_normal(draw_count(dim))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_draw_count(self):
        # panel k draws its (dim - k) x b block: 62.5 % of 2 dim^2 at dim 512
        assert [draw_count(d) for d in (1, 2, 128, 129)] == [2, 8, 2 * 128 * 128, 2 * (129 * 128 + 1)]
        assert draw_count(512) == 0.625 * 2 * 512 * 512

    @pytest.mark.parametrize("dim", [1, 5, 130, 300])
    def test_every_tau_zero_gives_identity(self, dim):
        # every reflector vector is zero: tau = 0 (H = I) and phase 1 for each,
        # so Q = I exactly
        q, phases = freeprob._reflector_q(np.zeros((dim, dim), dtype=complex))
        assert np.array_equal(q, np.eye(dim))
        assert np.array_equal(phases, np.ones(dim))

    @pytest.mark.parametrize("dim", [1, 5, 130, 300])
    def test_positive_diagonal_gives_identity(self, dim):
        # x = c e_1 with c > 0: H = I - 2 e_1 e_1^H (tau = 2) and phase -1, so
        # Q = -I and U = Q diag(phases) = I exactly; the strict lower triangle
        # (here NaN) is never read
        a = np.full((dim, dim), np.nan, dtype=complex)
        a[np.triu_indices(dim)] = 0.0
        np.fill_diagonal(a, 1.0 + np.arange(dim))
        q, phases = freeprob._reflector_q(a)
        assert np.array_equal(q, -np.eye(dim))
        assert np.array_equal(phases, -np.ones(dim))

    @pytest.mark.parametrize("dim,j", [(7, 3), (300, 133)])
    def test_one_zero_tail_drops_its_reflector(self, dim, j):
        # row j is zero from column j on: H_j = I with phase 1, and Q is the
        # product of the other reflectors
        a = ginibre(dim, np.random.default_rng(j))
        a[j, j:] = 0.0
        q_ref, phases_ref = dense_reflector_q([a[i, i:].copy() for i in range(dim)])
        q, phases = freeprob._reflector_q(a)
        assert phases[j] == 1.0
        tol = 64 * dim * np.finfo(float).eps
        assert np.max(np.abs(q - q_ref)) <= tol
        assert np.max(np.abs(phases - phases_ref)) <= tol

    def test_unread_entries_do_not_matter(self):
        # row j is read from column j on, so the strict lower triangle, which
        # zungqr sees as the part of A above its diagonal, is never read
        dim = 300
        a = ginibre(dim, np.random.default_rng(5))
        poisoned = a.copy()
        poisoned[np.tril_indices(dim, -1)] = np.nan
        q, phases = freeprob._reflector_q(a)
        q_poisoned, phases_poisoned = freeprob._reflector_q(poisoned)
        assert np.array_equal(q, q_poisoned)
        assert np.array_equal(phases, phases_poisoned)

    def test_input_becomes_q(self):
        # the C-contiguous input is LAPACK's column-major A, so it becomes Q^T,
        # and Q is its transposed view, not a copy
        a = ginibre(200, np.random.default_rng(3))
        q_ref, _ = dense_reflector_q([a[i, i:].copy() for i in range(200)])
        q, _ = freeprob._reflector_q(a)
        assert q.base is a
        assert np.max(np.abs(a.T - q_ref)) <= 64 * 200 * np.finfo(float).eps

    def test_lapack_failure_is_a_runtime_error(self, monkeypatch):
        # a nonzero info from zungqr is a numerical failure (exit 3), never a
        # factor; _reflector_q imports lapack_lite when it runs, so the patch
        # goes on numpy's module
        def failing_zungqr(m, n, k, a, lda, tau, work, lwork, info):
            work[0] = n
            return {"zungqr_": 0, "info": -5}

        monkeypatch.setattr(lapack_lite, "zungqr", failing_zungqr)
        with pytest.raises(RuntimeError, match="zungqr failed with info -5"):
            haar_unitary(8, np.random.default_rng(0))

    def test_trace_power_moments(self):
        # Diaconis-Shahshahani: E|tr U^k|^2 = min(k, n) for Haar U in U(n)
        n, draws = 8, 4000
        rng = np.random.default_rng(2024)
        eigs = np.array([np.linalg.eigvals(haar_unitary(n, rng)) for _ in range(draws)])
        for k in (1, 2, 3, 8, 10):
            samples = np.abs(np.sum(eigs ** k, axis=1)) ** 2
            z_score = (samples.mean() - min(k, n)) / (samples.std() / math.sqrt(draws))
            assert abs(z_score) < 4.0, (k, samples.mean(), z_score)

    def test_corner_entry_law(self):
        # |U_11|^2 of a Haar U in U(n) is Beta(1, n - 1)
        from scipy import stats

        n, draws = 8, 4000
        rng = np.random.default_rng(2025)
        corner = np.array([abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(draws)])
        assert stats.kstest(corner, stats.beta(1, n - 1).cdf).pvalue > 1e-3

    def test_draw_memory_peak(self):
        # the draw holds its dim x dim buffer, dim x _BLOCK panels of normals and
        # zungqr's dim x 32 workspace
        dim = 256
        haar_unitary(dim, np.random.default_rng(0))  # one-time state
        tracemalloc.start()
        try:
            haar_unitary(dim, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * dim * dim * 16


class TestFreeFamily:
    def test_members_centred(self, monkeypatch):
        spectra = [gue_spectrum(32, np.random.default_rng(2)) for _ in range(2)]
        _, (total,) = solved(lambda: free_family(spectra, 32, seed=3), monkeypatch)
        members = rotated_members(spectra, 32, seed=3)
        assert np.array_equal(np.tril(total), np.tril(summed_in_order(members)))
        assert all(abs(np.trace(a) / 32) < 1e-12 for a in members)
        assert abs(np.trace(total) / 32) < 1e-12

    def test_seed_reproducibility(self, monkeypatch):
        base = [gue_spectrum(24, np.random.default_rng(4)) for _ in range(3)]
        f1, (s1,) = solved(lambda: free_family(base, 24, seed=11), monkeypatch)
        f2, (s2,) = solved(lambda: free_family(base, 24, seed=11), monkeypatch)
        assert np.array_equal(s1, s2)
        assert np.array_equal(f1.eigenvalues, f2.eigenvalues)
        assert f1.second_moments == f2.second_moments
        assert all(np.array_equal(a, b) for a, b in zip(f1.spectra, f2.spectra))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            free_family([np.eye(3)], 4, seed=0)

    @pytest.mark.parametrize(
        "spectrum, match",
        [
            pytest.param(np.diag(np.arange(4.0)), "shape", id="dense"),
            pytest.param(np.arange(5.0), "shape", id="length"),
            pytest.param(np.array([0.0, np.nan, 1.0, 2.0]), "finite", id="nan"),
            pytest.param(np.array([0.0, np.inf, 1.0, 2.0]), "finite", id="inf"),
            pytest.param(np.array([1.0, 2.0, 3.0, 4.0 + 1.0j]), "real", id="complex"),
            pytest.param(np.arange(4.0).astype(complex), "real", id="complex-real-valued"),
        ],
    )
    def test_invalid_spectrum_rejected(self, spectrum, match, monkeypatch):
        # a complex spectrum is rejected, not cast (a cast would drop its
        # imaginary part with only a ComplexWarning), before any draw
        def no_draw(dim, rng):
            raise AssertionError("a Haar factor was drawn before the spectra were checked")

        monkeypatch.setattr(freeprob, "haar_unitary", no_draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                free_family([np.arange(4.0), spectrum], 4, seed=0)

    def test_empty_family_rejected(self, monkeypatch):
        def no_draw(dim, rng):
            raise AssertionError("a Haar factor was drawn for an empty family")

        monkeypatch.setattr(freeprob, "haar_unitary", no_draw)
        with pytest.raises(ValueError, match="nonempty"):
            free_family([], 8, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            family_from_members(())

    def test_uncentred_rejected(self):
        with pytest.raises(ValueError, match="centred"):
            family_from_members((np.eye(8, dtype=complex),))

    def test_non_hermitian_member_rejected(self):
        a = ginibre(8, np.random.default_rng(6))
        a -= np.trace(a) / 8 * np.eye(8)
        with pytest.raises(ValueError, match="Hermitian"):
            family_from_members((a + a.conj().T, a))

    def test_rotation_of_a_hermitian_base(self, monkeypatch):
        # for G = V diag(lam) V^H the second member free_family([lam, lam])
        # makes is W G W^H with W = U V^H, U the first draw of the seeded
        # haar_unitary stream (the first member, diag(lam), draws none): only
        # the spectrum of a Hermitian base matters
        dim = 64
        g = gue(dim, np.random.default_rng(7))
        g -= np.trace(g).real / dim * np.eye(dim)
        lam, v = np.linalg.eigh(g)
        _, (total,) = solved(lambda: free_family([lam, lam], dim, seed=8), monkeypatch)
        w = haar_unitary(dim, np.random.default_rng(8)) @ v.conj().T
        expected = np.diag(lam) + w @ g @ w.conj().T
        assert np.max(np.abs(np.tril(total - expected))) <= 1e-12 * np.linalg.norm(g, 2)

    def test_one_member_family_draws_nothing(self, monkeypatch):
        # the only member stays in its own frame: its sum is diag(a), solved
        # exactly, and no Haar factor is drawn or reported
        def no_draw(dim, rng):
            raise AssertionError("a one-member family drew a Haar factor")

        monkeypatch.setattr(freeprob, "haar_unitary", no_draw)
        spectrum = gue_spectrum(40, np.random.default_rng(9))
        fam = free_family([spectrum], 40, seed=10)
        assert fam.unitarity_residual is None
        assert np.array_equal(fam.eigenvalues, np.sort(centred(spectrum)))
        assert fam.second_moments == (float(centred(spectrum) @ centred(spectrum)) / 40,)

    def test_mixed_moment_vanishes(self):
        # alternating centred moment of two independently rotated elements
        rng = np.random.default_rng(5)
        a1, a2 = rotated_members([gue_spectrum(512, rng), gue_spectrum(512, rng)], 512, seed=6)
        mixed = abs(np.trace(a1 @ a2 @ a1 @ a2) / 512)
        assert mixed <= 0.05


def _sorted_sv(a):
    return np.sort(np.linalg.svd(a, compute_uv=False))


class TestKnownSpectra:
    """Member spectra come from the base; the eigensolve route is the oracle."""

    @pytest.mark.parametrize("kind", ["diagonal", "gue"])
    def test_known_spectra_match_members(self, kind):
        dim = 64
        base = semicircle_diag(dim) if kind == "diagonal" else gue_spectrum(dim, np.random.default_rng(20))
        fam = free_family([base] * 3, dim, seed=21)
        scale = float(np.max(np.abs(base)))
        for a, sv in zip(rotated_members([base] * 3, dim, seed=21), fam.spectra):
            assert np.max(np.abs(np.sort(sv) - _sorted_sv(a))) <= 1e-12 * scale
            assert np.max(np.abs(np.sort(sv) - np.sort(np.abs(np.linalg.eigvalsh(a))))) <= 1e-12 * scale

    def test_direct_family_keeps_eigensolve_route(self):
        dim, n = 48, 4
        rng = np.random.default_rng(22)
        bases = [gue_spectrum(dim, rng) for _ in range(n)]
        rotated = free_family(bases, dim, seed=23)
        members = rotated_members(bases, dim, seed=23)
        direct = family_from_members(members)
        assert direct.unitarity_residual is None
        # values as the eigensolve-per-member code computed them
        total = np.sum(members, axis=0)
        sum_sv = _sorted_sv(total)
        member_sv = [_sorted_sv(a) for a in members]
        col = math.sqrt(sum(np.vdot(a, a).real / dim for a in members))
        row = math.sqrt(sum(np.vdot(a.conj().T, a.conj().T).real / dim for a in members))
        voi = voiculescu_check(direct)
        assert voi.lhs == pytest.approx(sum_sv[-1], rel=1e-12)
        assert voi.max_member_norm == pytest.approx(max(sv[-1] for sv in member_sv), rel=1e-12)
        assert voi.col_term == pytest.approx(col, rel=1e-12)
        assert voi.row_term == pytest.approx(row, rel=1e-12)
        conv = voiculescu_converse_check(direct)
        l1 = sum_sv.sum() / dim
        assert conv.triangle == pytest.approx(sum(sv.sum() for sv in member_sv) / dim - l1, rel=1e-12)
        assert conv.row == pytest.approx(row - l1, rel=1e-12)
        assert trace_norm(total) == pytest.approx(l1, rel=1e-12)
        # the known-spectra route agrees with the eigensolve route
        for a, b in zip((voi, conv), (voiculescu_check(rotated), voiculescu_converse_check(rotated))):
            for x, y in zip(a, b):
                assert x == pytest.approx(y, rel=1e-12, abs=1e-12)

    def test_sum_is_built_once(self, monkeypatch):
        _, (total,) = solved(lambda: free_family([semicircle_diag(16)] * 3, 16, seed=24), monkeypatch)
        assert np.array_equal(np.tril(total), lower_sum([semicircle_diag(16)] * 3, 16, seed=24))


class TestStreaming:
    """free_family keeps no member: each member's lower block-triangle is
    streamed into one buffer, and the record holds what the whole members
    summed in order would give.  Dims below, at and off a multiple of
    ``_BLOCK`` (40, 128, 129, 300) take one panel, one full panel, a last
    panel one row wide and a last wider one.  Where no panel is one row the
    panel products round as the whole member's product does, so the lower
    triangle is bit equal; a one-row panel (dim 129) is a vector-matrix
    product in BLAS and rounds its own way, so there the lower triangle is
    compared within 8 eps of its largest entry (at most 2.9 eps measured
    over seeds 0-24 and every kind)."""

    DIMS = [40, 128, 129, 300]

    @staticmethod
    def bases(kind, dim):
        rng = np.random.default_rng(40)
        if kind == "diagonal":
            return [semicircle_diag(dim)] * 5
        if kind == "gue":
            return [gue_spectrum(dim, rng)] * 5
        # distinct spectra, an integer one among them
        signs = np.where(np.arange(dim) < dim // 2, 1, -1)
        return [semicircle_diag(dim), gue_spectrum(dim, rng), signs, semicircle_diag(dim)]

    @pytest.mark.parametrize("kind", ["diagonal", "gue", "mixed"])
    def test_sum_equals_members_summed_in_order(self, kind, monkeypatch):
        block = freeprob._BLOCK
        for dim in self.DIMS:
            bases = self.bases(kind, dim)
            _, (total,) = solved(lambda: free_family(bases, dim, seed=41), monkeypatch)
            want = lower_sum(bases, dim, seed=41)
            tol = 8 * np.finfo(float).eps * np.max(np.abs(want)) if dim % block == 1 else 0.0
            assert np.max(np.abs(np.tril(total) - want)) <= tol
            # above the diagonal blocks nothing is added
            assert all(not np.any(total[k:k + block, k + block:]) for k in range(0, dim, block))

    @pytest.mark.parametrize("kind", ["diagonal", "gue", "mixed"])
    def test_second_moments_are_the_member_vdots(self, kind):
        # a . a / dim, which no rotation moves: the whole rotated members'
        # vdots to rounding (at most 1.1e-15 relative measured)
        for dim in self.DIMS:
            bases = self.bases(kind, dim)
            fam = free_family(bases, dim, seed=42)
            members = rotated_members(bases, dim, seed=42)
            expected = [float(np.vdot(a, a).real) / dim for a in members]
            assert len(fam.second_moments) == len(expected)
            for got, want in zip(fam.second_moments, expected):
                assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("dim", DIMS)
    def test_upper_triangle_is_never_read(self, dim, monkeypatch):
        # NaN above the diagonal of the solved array leaves its eigenvalues
        bases = self.bases("mixed", dim)
        fam, _ = solved(lambda: free_family(bases, dim, seed=47), monkeypatch)
        poisoned, (total,) = solved(lambda: free_family(bases, dim, seed=47), monkeypatch, poison=True)
        assert np.isnan(total[0, -1]) == (dim > 1)
        assert np.array_equal(poisoned.eigenvalues, fam.eigenvalues)

    @pytest.mark.parametrize("kind", ["diagonal", "gue"])
    def test_known_spectra_and_centring_as_before(self, kind, monkeypatch):
        # a member's singular values are |centred spectrum|
        dim = 40
        base = self.bases(kind, dim)[0]
        fam, (total,) = solved(lambda: free_family([base] * 2, dim, seed=43), monkeypatch)
        assert all(np.array_equal(sv, np.abs(centred(base))) for sv in fam.spectra)
        assert np.array_equal(np.tril(total), lower_sum([base] * 2, dim, seed=43))

    @pytest.mark.parametrize("kind", ["diagonal", "gue", "mixed"])
    def test_each_distinct_spectrum_is_held_once(self, kind):
        # a [spectrum] * n family keeps one centred spectrum, so a trial holds
        # O(dim^2 + summands), not n vectors
        dim = 40
        bases = self.bases(kind, dim)
        fam = free_family(bases, dim, seed=46)
        if kind == "mixed":
            assert len({id(s) for s in fam.spectra}) == len(bases)
        else:
            assert all(s is fam.spectra[0] for s in fam.spectra)

    def test_from_members_matches_the_stream(self, monkeypatch):
        dim = 32
        bases = self.bases("gue", dim)
        members = rotated_members(bases, dim, seed=44)
        fam, (total,) = solved(lambda: free_family(bases, dim, seed=44), monkeypatch)
        direct, seen = solved(lambda: family_from_members(members), monkeypatch)
        assert np.array_equal(np.tril(seen[-1]), np.tril(total))
        assert np.array_equal(direct.eigenvalues, fam.eigenvalues)
        assert direct.second_moments == pytest.approx(fam.second_moments, rel=1e-14)

    def test_peak_memory_does_not_grow_with_summands(self):
        dim = 128
        unit = dim * dim * np.dtype(complex).itemsize
        base = semicircle_diag(dim)

        def peak(n):
            tracemalloc.start()
            try:
                voiculescu_check(free_family([base] * n, dim, seed=45))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # the first call also allocates one-time state
        small, large = peak(2), peak(24)
        assert abs(large - small) <= unit
        assert large < 12 * unit


class TestHermitianSum:
    """Every sum is Hermitian by construction and goes to one eigvalsh, which
    reads its lower triangle; no SVD is taken."""

    @pytest.mark.parametrize("kind", ["semicircle", "gue"])
    def test_sum_is_solved_once(self, kind, monkeypatch):
        # below _BLOCK one panel holds the whole sum, Hermitian to rounding
        dim = 48
        base = semicircle_diag(dim) if kind == "semicircle" else gue_spectrum(dim, np.random.default_rng(25))
        _, (total,) = solved(lambda: free_family([base] * 3, dim, seed=26), monkeypatch)
        assert np.array_equal(np.tril(total), lower_sum([base] * 3, dim, seed=26))
        assert np.max(np.abs(total - total.conj().T)) <= 1e-12 * np.max(np.abs(total))

    def test_direct_family_solves_each_member_and_the_sum(self, monkeypatch):
        dim = 24
        members = rotated_members([gue_spectrum(dim, np.random.default_rng(29))] * 2, dim, seed=30)
        _, seen = solved(lambda: family_from_members(members), monkeypatch)
        # each member once, for its own spectrum, then the sum
        assert len(seen) == 3 and seen[0] is members[0] and seen[1] is members[1]
        assert np.array_equal(seen[2], summed_in_order(members))


class TestUnitarity:
    def test_residual_within_bound(self):
        dim = 64
        fam = free_family([semicircle_diag(dim)] * 4, dim, seed=25)
        assert 0.0 < fam.unitarity_residual <= UNITARITY_SLACK * dim * np.finfo(float).eps

    def test_non_unitary_factor_raises(self, monkeypatch):
        real = freeprob.haar_unitary
        monkeypatch.setattr(freeprob, "haar_unitary", lambda dim, rng: 1.001 * real(dim, rng))
        with pytest.raises(RuntimeError, match="Haar factor 1 .* unitarity residual"):
            free_family([semicircle_diag(8)] * 2, 8, seed=0)

    def test_residual_of_identity(self):
        assert unitarity_residual(np.eye(5, dtype=complex)) == 0.0

    @pytest.mark.parametrize("dim", [1, 7, 40, 64, 127, 128, 129, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_is_the_full_gram_max(self, dim, seed):
        # the upper block-triangle holds every entry of the Hermitian Gram or
        # its conjugate: max |U^H U - I| over the whole Gram for a Haar
        # factor, a scaled one, one whose last column leans on its first (the
        # largest entry off the diagonal blocks), one whose last column alone
        # is long (the largest entry in the last panel) and a matrix far from
        # unitary.  Bit equal where no panel is one column wide; such a panel
        # (dim 129) is a matrix-vector product in BLAS and rounds its own
        # way, so there within 4 ulps of the largest Gram entry, 4 eps
        # (1 + max) (at most 1.0 eps (1 + max) measured over seeds 0-5)
        rng = np.random.default_rng(seed)
        u = haar_unitary(dim, rng)
        leaning = u.copy()
        leaning[:, -1] += 0.01 * u[:, 0]
        long = u.copy()
        long[:, -1] *= 1.001
        for v in (u, 1.001 * u, leaning, long, rng.standard_normal((dim, dim)).astype(complex)):
            full = float(np.max(np.abs(v.conj().T @ v - np.eye(dim))))
            tol = 4 * np.finfo(float).eps * (1 + full) if dim % freeprob._BLOCK == 1 else 0.0
            assert abs(unitarity_residual(v) - full) <= tol


class TestVoiculescu:
    def test_single_member_margin(self):
        # one member, in its own frame (a one-member free_family) or rotated
        # by a Haar factor: lhs is its norm, so the margin is 2 tau(a^2)^{1/2}
        spectrum = gue_spectrum(64, np.random.default_rng(7))
        _, a = rotated_members([spectrum] * 2, 64, seed=8)
        for fam in (free_family([spectrum], 64, seed=8), family_from_members([a])):
            res = voiculescu_check(fam)
            assert res.margin == pytest.approx(2 * math.sqrt(np.vdot(a, a).real / 64), rel=1e-12)
            assert res.margin >= 0

    def test_zero_family(self):
        fam = family_from_members((np.zeros((8, 8), dtype=complex),) * 3)
        res = voiculescu_check(fam)
        assert (res.lhs, res.rhs, res.margin) == (0.0, 0.0, 0.0)

    def test_semicircular_sum_norm(self):
        dim, n = 256, 8
        base = semicircle_diag(dim)
        fam = free_family([base] * n, dim, seed=9)
        res = voiculescu_check(fam)
        assert res.lhs == pytest.approx(2 * math.sqrt(n), rel=0.05)
        assert res.rhs == pytest.approx(res.max_member_norm + 2 * math.sqrt(n), rel=0.05)
        assert res.margin > 0

    def test_margin_never_materially_negative(self):
        dim = 128
        for seed in range(5):
            bases = [gue_spectrum(dim, np.random.default_rng(100 + seed))] * 6
            fam = free_family(bases, dim, seed=seed)
            res = voiculescu_check(fam)
            assert res.margin >= -0.01 * res.rhs


class TestConverse:
    def test_single_member_cauchy_schwarz(self):
        # a Haar-rotated member (member 0 of a family is not rotated)
        rng = np.random.default_rng(10)
        _, a = rotated_members([gue_spectrum(48, rng)] * 2, 48, seed=11)
        assert trace_norm(a) <= math.sqrt(np.vdot(a, a).real / 48) + 1e-12

    def test_zero_family(self):
        fam = family_from_members((np.zeros((6, 6), dtype=complex),) * 2)
        c = voiculescu_converse_check(fam)
        assert c.triangle == c.column == c.row == 0.0

    def test_rotated_gue_margins(self):
        dim, n = 256, 8
        rng = np.random.default_rng(12)
        fam = free_family([gue_spectrum(dim, rng) for _ in range(n)], dim, seed=13)
        c = voiculescu_converse_check(fam)
        assert c.triangle >= 0.0  # exact triangle inequality
        assert c.column >= -0.02 * c.column_rhs
        assert c.row >= -0.02 * c.row_rhs


class TestFock:
    def test_moments_match_catalan(self):
        moments = fock_semicircular_moments(8, 5)
        for m, c in zip(moments, catalan_numbers(5)):
            assert abs(m - c) < 1e-10

    def test_small_moments(self):
        assert fock_semicircular_moments(4, 3) == pytest.approx([1.0, 2.0, 5.0])

    def test_catalan_recurrence_values(self):
        assert catalan_numbers(6) == [1, 2, 5, 14, 42, 132]

    def test_odd_moments_vanish(self):
        fock = TruncatedFock(letter_dim=1, cutoff=7)
        s = fock.semicircular()
        omega = vacuum(fock)
        for k in (1, 3, 5):
            assert abs(omega @ np.linalg.matrix_power(s, k) @ omega) == 0.0

    def test_truncation_stability(self):
        assert fock_semicircular_moments(5, 5) == fock_semicircular_moments(9, 5)

    @pytest.mark.parametrize("cutoff, k_max", [(8, 5), (30, 30), (40, 30)])
    def test_walk_matches_the_dense_route(self, cutoff, k_max):
        # the dense (cutoff+1)^2 operator, in int64 so that every walk count
        # (at most binom(60, 30) < 2^63 here) is exact
        fock = TruncatedFock(letter_dim=1, cutoff=cutoff)
        s = fock.semicircular().astype(np.int64)
        vec = vacuum(fock).astype(np.int64)
        dense = []
        for _ in range(k_max):
            vec = s @ (s @ vec)
            dense.append(int(vec[0]))
        walk = fock_semicircular_moments(cutoff, k_max)
        assert all(type(m) is int for m in walk)
        assert walk == dense == catalan_numbers(k_max)

    def test_walk_is_exact_beyond_floats(self):
        # C_31 and above are not exact floats; the integer walk still is
        assert fock_semicircular_moments(120, 120) == catalan_numbers(120)

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="cutoff"):
            fock_semicircular_moments(3, 4)

    def test_creation_relations(self):
        fock = TruncatedFock(letter_dim=2, cutoff=4)
        l0, l1 = fock.creation(0), fock.creation(1)
        eye = np.eye(fock.dim)
        top = top_level_projection(fock)
        assert np.max(np.abs(l0.T @ l0 - (eye - top))) == 0.0
        assert np.max(np.abs(l0.T @ l1)) == 0.0

    def test_compression_identity(self):
        # off-diagonal compression of a mean-zero letter vanishes exactly
        fock = TruncatedFock(letter_dim=2, cutoff=5)
        a = fock.semicircular(letter=0)
        p1 = fock.letter_start_projection(0)
        comp = (np.eye(fock.dim) - p1) @ a @ (np.eye(fock.dim) - p1)
        assert np.max(np.abs(comp)) <= 1e-12

    @pytest.mark.parametrize("letter", [0, 1])
    def test_compression_defect_is_the_compressed_letter(self, letter):
        # the one producer the CLI and the demo read, against the products by hand
        fock = TruncatedFock(letter_dim=2, cutoff=5)
        q = np.eye(fock.dim) - fock.letter_start_projection(letter)
        comp = q @ fock.semicircular(letter) @ q
        assert fock.compression_defect(letter) == float(np.max(np.abs(comp))) == 0.0
        with pytest.raises(ValueError, match="letter"):
            fock.compression_defect(2)

    def test_vacuum_mean_zero(self):
        fock = TruncatedFock(letter_dim=2, cutoff=4)
        a = fock.semicircular(letter=1)
        omega = vacuum(fock)
        assert omega @ a @ omega == 0.0


def clt(n: int, dim: int, trials: int, seed: int, spectrum=None) -> CLTResult:
    """CLT moments of ``trials`` families of n copies of the spectrum (the
    semicircle quantiles by default), trial t rotated by child t of
    ``SeedSequence(seed).spawn``, as trial t of ``ohlab free`` is."""
    spectrum = semicircle_diag(dim) if spectrum is None else spectrum
    seeds = np.random.SeedSequence(seed).spawn(trials)
    return CLTResult.from_families([free_family([spectrum] * n, dim, seed=s) for s in seeds])


class TestCLT:
    def test_single_summand_variance(self):
        # one summand stays in its own frame, unrotated: variance 1 to
        # rounding (sums with rotated summands: test_semicircular_moments)
        res = clt(1, 128, trials=3, seed=0)
        assert res.moments[1] == pytest.approx(1.0, rel=1e-12)

    def test_semicircular_moments(self):
        res = clt(8, 256, trials=5, seed=1)
        assert res.moments[1] == pytest.approx(1.0, rel=0.02)
        assert res.moments[3] == pytest.approx(2.0, rel=0.05)
        assert abs(res.moments[0]) < 0.02 and abs(res.moments[2]) < 0.05

    def test_non_semicircular_base_converges(self):
        dim = 128
        signs = np.where(np.arange(dim) < dim // 2, 1.0, -1.0)
        res = clt(16, dim, trials=5, seed=2, spectrum=signs)
        # free convolution of +-1 masses: fourth moment 2 - 1/n
        assert res.moments[3] == pytest.approx(2.0 - 1.0 / 16.0, abs=0.08)

    def test_moments_match_power_traces(self):
        # reference: tau(S^k) from successive products, S = n^{-1/2} sum a_i
        dim, n = 64, 5
        rng = np.random.default_rng(26)
        bases = [gue_spectrum(dim, rng)] * n
        fam = free_family(bases, dim, seed=27)
        members = rotated_members(bases, dim, seed=27)
        s = np.sum(members, axis=0) / math.sqrt(sum(np.vdot(a, a).real / dim for a in members))
        power = np.eye(dim, dtype=complex)
        expected = []
        for _ in range(4):
            power = power @ s
            expected.append(np.trace(power).real / dim)
        assert np.max(np.abs(clt_moments(fam) - expected)) <= 1e-12

    def test_moments_read_the_spectrum_only(self):
        # a record made from a spectrum alone: S = lambda / sqrt(2.5)
        fam = FreeFamily(np.array([-2.0, -1.0, 1.0, 2.0]), (np.ones(4),), (2.5,))
        assert np.allclose(clt_moments(fam), [0.0, 1.0, 0.0, 8.5 / 6.25], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # `free` averages the CLT moments of its trial families: its parser
        # refuses a run of no trials, before the runner draws a family
        with pytest.raises(ValueError, match="argument --trials: must be >= 1"):
            cli.build_parser().parse_args(["free", "--dim", "8", "--summands", "2", "--trials", str(trials)])

    def test_no_families_rejected(self):
        with pytest.raises(ValueError, match="at least one family"):
            CLTResult.from_families([])

    def test_zero_centred_family_rejected(self):
        # constant spectra are zero after centring, so the CLT sum has no
        # variance to normalise by (`free` rejects --dim 1 before drawing)
        with pytest.raises(ValueError, match="no variance"):
            clt_moments(free_family([np.ones(4)] * 2, 4))

    def test_families_are_summed_in_order(self):
        # the sum in the order given, divided by the count: the arithmetic
        # `free` used when it accumulated the moments in its trial loop
        fams = [free_family([semicircle_diag(32)] * 3, 32, seed=s) for s in np.random.SeedSequence(4).spawn(3)]
        acc = np.zeros(4)
        for fam in fams:
            acc += clt_moments(fam)
        res = CLTResult.from_families(fams)
        assert res.moments == tuple(float(m) for m in acc / 3)
        assert res.targets == (0.0, 1.0, 0.0, 2.0)
        assert res.deviations == tuple(m - t for m, t in zip(res.moments, res.targets))

    def test_determinism(self):
        a = clt(4, 64, trials=2, seed=3)
        b = clt(4, 64, trials=2, seed=3)
        assert a.moments == b.moments


class TestBrentqPort:
    """freeprob.brentq against scipy.optimize.brentq, the routine it ports."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 512])
    def test_semicircle_quantiles_bit_equal(self, dim):
        ref = []
        for q in (np.arange(1, dim + 1) - 0.5) / dim:
            def f(x, q=q):
                return freeprob._semicircle_cdf(x) - q

            root = freeprob.brentq(f, -2.0, 2.0, xtol=1e-14)
            assert root == scipy_brentq(f, -2.0, 2.0, xtol=1e-14)
            ref.append(root)
        assert np.array_equal(semicircle_diag(dim), np.array(ref))

    def test_monotone_cubics_bit_equal(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            lead, slope, root = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0), rng.uniform(-1.5, 2.5)

            def cubic(x, lead=lead, slope=slope, root=root):
                return lead * (x - root) ** 3 + slope * (x - root)

            for xtol in (2e-12, 1e-14):
                assert freeprob.brentq(cubic, -2.0, 3.0, xtol=xtol) == scipy_brentq(cubic, -2.0, 3.0, xtol=xtol)

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            freeprob.brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_iteration_cap(self):
        with pytest.raises(RuntimeError, match="did not converge in 2"):
            freeprob.brentq(lambda x: x**3 - 0.3, 0.0, 1.0, xtol=1e-15, maxiter=2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            freeprob.brentq(lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0)
