"""Random-matrix and Fock-space models for sums of free mean-zero variables.

Two models of free independence are used side by side:

* an exact one -- creation operators on a truncated full Fock space, where
  the standard semicircular element s = l + l* has Catalan even moments and
  the off-diagonal compression identity (1-P_i) pi_i(a) (1-P_i) = 0 holds as
  an exact matrix identity (:meth:`TruncatedFock.compression_defect`);

* an asymptotic one -- independent Haar rotations U diag(a) U^H of
  trace-centred real spectra a (:func:`free_family`), free only in the
  large-dimension limit.  Haar and deterministic matrices are strongly
  asymptotically free (B. Collins and C. Male, "The strong asymptotic
  freeness of Haar and deterministic matrices", Ann. Sci. Ec. Norm. Super.
  47 (2014)): operator norms converge too, so the sum of n such
  variance-one semicircle spectra has norm tending to 2 sqrt(n), the norm
  of a semicircular element of variance n.  ``ohlab free`` reports its sum
  norm relative to this target.

The scalar expectation is the normalised trace throughout.  Voiculescu's
inequality for centred Hermitian a_i, whose row and column terms agree by
traciality, reads

    || sum_i a_i ||  <=  max_i ||a_i|| + 2 (sum_i tau(a_i^2))^{1/2},

which the matrix model meets up to a finite-dimension slack.  Of its
trace-norm converse for S = sum_i a_i, the triangle inequality
||S||_1 <= sum_i ||a_i||_1 holds in every model and is asserted, and
||S||_1 <= (sum_i tau(a_i^2))^{1/2} is reported (:class:`ConverseMargins`):
it is ||S||_1 <= ||S||_2 and ||S||_2^2 = sum_i tau(a_i^2) + sum_{i != j}
tau(a_i a_j), whose cross terms vanish for free members but under Haar
rotations only as dim -> oo, spread by (2(n-1)/(n(dim^2-1)))^{1/2} relative
to the first sum (B. Collins and P. Sniady, Comm. Math. Phys. 264 (2006)).

The free central limit moments are read from the spectra of the trial
families a run already built (:meth:`CLTResult.from_families`), so no trial
is drawn twice.  The semicircle quantiles of the rotated base are roots of
the closed-form CDF, found by :func:`brentq`, a port of scipy's Brent root
finder.  The reference routes the tests compare against (a family summed
from explicit member matrices, the dense Fock operators and the vacuum
vector) live under ``tests/``.

numpy is imported inside each function that handles an array, and
``numpy.linalg.lapack_lite`` inside :func:`_reflector_q`, not when the
module loads: :func:`brentq`, the Catalan numbers, the Fock moments and
:meth:`TruncatedFock.compression_defect` are pure Python.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .numlin import as_array

if TYPE_CHECKING:  # annotations only: numpy loads when an array is first handled
    import numpy as np

__all__ = [
    "haar_unitary",
    "semicircle_diag",
    "unitarity_residual",
    "FreeFamily",
    "free_family",
    "VoiculescuResult",
    "voiculescu_check",
    "ConverseMargins",
    "voiculescu_converse_check",
    "TruncatedFock",
    "fock_semicircular_moments",
    "catalan_numbers",
    "CLTResult",
    "clt_moments",
]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary by the subgroup algorithm (G. W. Stewart, SIAM
    J. Numer. Anal. 17 (1980); P. Diaconis and M. Shahshahani, Probab. Eng.
    Inf. Sci. 1 (1987)): Householder QR of a complex Ginibre matrix, with each
    column times the phase of R's diagonal entry (F. Mezzadri, Notices AMS 54
    (2007)), is Haar, and its k-th reflector reads column k of
    H_{k-1} ... H_1 G, rows k.. only.  The earlier reflectors depend only on
    the columns before k, so by unitary invariance those rows are iid complex
    normal and independent of them: drawn fresh, they keep the joint law of
    the reflectors, and so Haar, with no factorisation.  A reflector reads
    only the direction of its column, so the normals are not scaled.  LAPACK's
    ``zungqr`` forms Q (:func:`_reflector_q`); U is in Fortran order."""
    import numpy as np

    if dim < 1:
        raise ValueError("dim must be >= 1")
    a = np.empty((dim, dim), dtype=complex)  # row j holds column j's reflector
    for k in range(0, dim, _BLOCK):
        panel = a[k:k + _BLOCK, k:].T  # its (dim-k) x b block: real parts, then imaginary
        panel.real[...] = rng.standard_normal(panel.shape)
        panel.imag[...] = rng.standard_normal(panel.shape)
    q, phases = _reflector_q(a)
    return np.multiply(q, phases, out=q)


# columns per panel of normals, and rows per panel of the Gram and member
# products
_BLOCK = 128


def _reflector_q(a: np.ndarray):
    """(Q, phases) for the reflectors read from the rows of the C-contiguous
    square a, which becomes Q^T in place; Q is returned as its transposed
    view.  H_j reads only x = a[j, j:], and is H_j = I - tau v v^H on rows
    j.., with beta = -e^{i arg x_1} ||x||, v = (x - beta e_1)/(x_1 - beta)
    and tau = 1 + |x_1|/||x||, so H_j x = beta e_1 and its phase is
    beta/|beta|; a zero x gives tau = 0 (H_j = I) and phase 1.  Read
    column-major, a is LAPACK's A with v_j below its diagonal (v_1 = 1 is
    implicit), so one ``zungqr`` call forms Q = H_1 ... H_dim by the blocked
    WY method (LAPACK Users' Guide, 3rd ed., 1999) and reads nothing on or
    above the diagonal; RuntimeError if it reports a nonzero info."""
    import numpy as np
    from numpy.linalg import lapack_lite

    n = len(a)
    tau = np.zeros(n, dtype=complex)
    phases = np.empty(n, dtype=complex)
    for k in range(0, n, _BLOCK):
        p = a[k:k + _BLOCK, k:]
        b = len(p)
        np.copyto(p[:, :b], 0.0, where=np.tri(b, k=-1, dtype=bool))  # never read
        x1 = np.diagonal(p)  # read before p is scaled
        norm = np.sqrt(np.einsum("ij,ij->i", p.real, p.real) + np.einsum("ij,ij->i", p.imag, p.imag))
        a1 = np.abs(x1)
        e = np.ones(b, dtype=complex)  # e^{i arg x_1}, each part correctly rounded
        np.divide(x1.real, a1, out=e.real, where=a1 > 0.0)
        np.divide(x1.imag, a1, out=e.imag, where=a1 > 0.0)
        nonzero = norm > 0.0
        tau.real[k:k + b] = np.where(nonzero, 1.0 + a1 / np.where(nonzero, norm, 1.0), 0.0)
        phases[k:k + b] = np.where(nonzero, -e, 1.0)
        p /= np.where(nonzero, e * (a1 + norm), 1.0)[:, None]  # x_1 - beta = e (|x_1| + ||x||)
    work = np.empty(1, dtype=complex)
    lapack_lite.zungqr(n, n, n, a, n, tau, work, -1, 0)  # workspace query
    work = np.empty(int(work[0].real), dtype=complex)
    info = lapack_lite.zungqr(n, n, n, a, n, tau, work, len(work), 0)["info"]
    if info:
        raise RuntimeError(f"zungqr failed with info {info} (dim {n})")
    return a.T, phases


def _semicircle_cdf(x: float) -> float:
    return 0.5 + (x * math.sqrt(4.0 - x * x) + 4.0 * math.asin(x / 2.0)) / (4.0 * math.pi)


def brentq(f, a, b, xtol=2e-12, maxiter=100):
    """Root of f in [a, b] by Brent's method; f(a) and f(b) must differ in sign.

    A step-for-step port of ``brentq.c`` from scipy.optimize (BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers),
    so it returns scipy's root (at scipy's default rtol = 4 eps) bit for bit.
    It stops when half the bracket is below (xtol + rtol |x|)/2; ValueError on
    a same-sign bracket or a NaN value, RuntimeError after ``maxiter``
    iterations.
    """
    rtol = 4.0 * sys.float_info.epsilon

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant (linear interpolation)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations (last x = {xcur!r})")


def semicircle_diag(dim: int) -> np.ndarray:
    """Semicircle-law quantiles (variance 1, norm <= 2), ascending: the real
    spectrum of the free path's base."""
    import numpy as np

    if dim < 1:
        raise ValueError("dim must be >= 1")
    qs = (np.arange(1, dim + 1) - 0.5) / dim
    return np.array([brentq(lambda x, q=q: _semicircle_cdf(x) - q, -2.0, 2.0, xtol=1e-14) for q in qs])


# A product of computed Householder reflectors is unitary to O(dim * eps)
# (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
# Thm 19.4), and so is the blocked (WY) form zungqr builds (ibid., Sec. 19.5);
# a Haar factor may deviate from unitarity by at most UNITARITY_SLACK * dim *
# eps, entrywise.  Measured (seed = dim): at most 1.0 dim * eps over dims
# 1..256 (the worst at dim 2), and 1.3e-15 at dim 512, where the bound is 1.8e-12.
UNITARITY_SLACK = 16.0


def unitarity_residual(u: np.ndarray) -> float:
    """max |U^H U - I| over the entries.  The Gram is Hermitian, so only its
    upper block-triangle is formed, one ``_BLOCK``-row panel at a time."""
    import numpy as np

    worst = 0.0
    for k in range(0, len(u), _BLOCK):
        g = u[:, k:k + _BLOCK].conj().T @ u[:, k:]  # rows k..k+b of U^H U, columns k..
        i = np.arange(len(g))
        g[i, i] -= 1.0
        worst = max(worst, float(np.max(np.abs(g))))
        del g  # before the next panel's product
    return worst


class FreeFamily(NamedTuple):
    """What the checks read of a centred Hermitian family: spectra, no matrix.

    ``eigenvalues`` is the signed spectrum of the Hermitian member sum, from
    the one ``eigvalsh`` its builder takes before it drops the sum; the sum's
    norm, trace norm and CLT moments all read it.  ``spectra`` are each
    member's singular values and ``second_moments`` its
    tau(a_i^* a_i) = tau(a_i a_i^*).  ``unitarity_residual`` is the largest
    of the Haar factors', None when no factor was drawn: a family not built
    by rotation, or a one-member one, whose member stays in its own frame.
    """

    eigenvalues: np.ndarray
    spectra: tuple
    second_moments: tuple
    unitarity_residual: float | None = None


def free_family(spectra, dim: int, seed=0) -> FreeFamily:
    """Rotate each centred real spectrum but the first by an independent Haar
    unitary.

    Member i is U_i diag(a_i) U_i^H for the centred spectrum a_i, with the
    law of any Hermitian base G = V diag(a_i) V^H of that spectrum, as
    U V is again Haar.  Member 0 stays diag(a_0):
    conjugating the whole sum by U_0^H changes no eigenvalue, and turns
    member i into V_i diag(a_i) V_i^H with V_i = U_0^H U_i, again iid Haar,
    so the sum's spectrum has the same law with one draw fewer (the Haar and
    deterministic setting of Collins and Male).  The sum is Hermitian and
    ``eigvalsh`` reads its lower triangle only, so each member adds just its
    lower block-triangle into one sum buffer, one ``_BLOCK``-row panel at a
    time.  Its tau(a_i^* a_i) is a_i . a_i / dim, as no unitary rotation
    moves it; no member is formed whole, and memory is
    O(dim^2) whatever the number of spectra.  The sum goes to one
    ``eigvalsh`` and is dropped on return.  Each distinct spectrum (by
    identity) is checked and centred once, before any draw, so a
    ``[spectrum] * n`` family holds one.  An empty family raises ValueError;
    a Haar factor whose unitarity residual exceeds
    ``UNITARITY_SLACK * dim * eps`` raises RuntimeError.  A one-member family
    draws no factor, and its ``unitarity_residual`` is None.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    bound = UNITARITY_SLACK * dim * np.finfo(float).eps
    spectra = list(spectra)  # keeps every spectrum alive, so no id is reused
    if not spectra:
        raise ValueError("family must be nonempty")
    known = {}               # id(spectrum) -> (centred spectrum, its singular values, tau(a^2))
    for spectrum in spectra:
        if id(spectrum) not in known:
            a = as_array(spectrum, (dim,), "spectrum", real=True)
            a = a - a.mean()  # not in place: the ingest may return the caller's array
            known[id(spectrum)] = (a, np.abs(a), float(a @ a) / dim)
    total = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(total, known[id(spectra[0])][0])  # member 0, in its own frame
    residuals = []
    for i, spectrum in enumerate(spectra[1:], 1):
        a = known[id(spectrum)][0]
        u = haar_unitary(dim, rng)
        residual = unitarity_residual(u)
        if not residual <= bound:
            raise RuntimeError(
                f"free_family: Haar factor {i} (dim {dim}) has unitarity residual {residual:.3e} > {bound:.3e}"
            )
        residuals.append(residual)
        np.conjugate(u, out=u)  # U is needed no more, its conjugate is
        for k in range(0, dim, _BLOCK):
            rows = np.conjugate(u[k:k + _BLOCK])
            rows *= a
            # rows k..k+b of U diag(a) U^H, columns ..k+b
            total[k:k + _BLOCK, :k + _BLOCK] += rows @ u[:k + _BLOCK].T
            del rows  # before the next panel's conjugate
        del u  # so that it is not alive during the next draw
    return FreeFamily(
        np.linalg.eigvalsh(total, UPLO="L"),
        tuple(known[id(s)][1] for s in spectra),
        tuple(known[id(s)][2] for s in spectra),
        max(residuals, default=None),
    )


class VoiculescuResult(NamedTuple):
    lhs: float
    rhs: float
    margin: float
    max_member_norm: float
    col_term: float


def voiculescu_check(fam: FreeFamily) -> VoiculescuResult:
    """Norm inequality for the family sum; margin = rhs - lhs.  The row term
    is ``col_term`` (traciality), so rhs counts it twice."""
    import numpy as np

    lhs = float(np.max(np.abs(fam.eigenvalues)))
    max_norm = max(float(np.max(sv)) for sv in fam.spectra)
    col = math.sqrt(sum(fam.second_moments))
    rhs = max_norm + 2.0 * col
    return VoiculescuResult(lhs=lhs, rhs=rhs, margin=rhs - lhs, max_member_norm=max_norm, col_term=col)


class ConverseMargins(NamedTuple):
    """Trace-norm margins of S = sum_i a_i, and D = ||S||_2^2 / sum_i tau(a_i^2) - 1."""

    triangle: float           # sum_i ||a_i||_1 - ||S||_1: a theorem, up to triangle_slack
    column: float             # (sum tau(a_i^2))^{1/2} - ||S||_1: >= 0 if D <= 0, as for free members
    triangle_rhs: float
    column_rhs: float
    triangle_slack: float
    cross_term_defect: float


def voiculescu_converse_check(fam: FreeFamily) -> ConverseMargins:
    """Trace-norm margins, read from the stored spectra; D = 0 if every member is zero."""
    import numpy as np

    dim = len(fam.eigenvalues)
    n = len(fam.spectra)
    l1 = float(np.sum(np.abs(fam.eigenvalues))) / dim
    tri = sum(float(np.sum(sv)) / dim for sv in fam.spectra)
    var = sum(fam.second_moments)
    col = math.sqrt(var)
    m = sum(float(np.max(sv)) for sv in fam.spectra)
    # The triangle inequality holds for members W diag(a_i) W^H, W unitary. A
    # Haar factor U passes free_family only if max |U^H U - I| <= UNITARITY_SLACK
    # dim eps, so its polar factor W has ||U - W||_2 <= ||U^H U - I||_2 <= delta =
    # UNITARITY_SLACK dim^2 eps <= 0.01: a member moves by (2 delta + delta^2) ||a_i||.
    # Forming and adding members (dim-term dots, n terms) moves the sum by
    # dim (dim + n + 2) eps m, m = sum_i ||a_i||; eigvalsh is backward stable,
    # so by Weyl each eigenvalue moves by dim eps ||S|| (LAPACK Users' Guide, 3rd
    # ed., Sec. 4.7), and each mean rounds by (dim + n) eps m.  The trace norm
    # moves by at most the operator norm: in all < (33.2 dim^2 + 1.01 dim n + 6 dim + n) eps m <= slack.
    slack = 3.0 * ((UNITARITY_SLACK + 1.0) * dim + n) * dim * np.finfo(float).eps * m
    return ConverseMargins(
        triangle=tri - l1,
        column=col - l1,
        triangle_rhs=tri,
        column_rhs=col,
        triangle_slack=slack,
        cross_term_defect=float(fam.eigenvalues @ fam.eigenvalues) / dim / var - 1.0 if var else 0.0,
    )


class TruncatedFock:
    """Full Fock space over C^letter_dim truncated at tensor length ``cutoff``.

    Basis vectors are words over the letters; the creation operator l(i)
    prepends letter i and annihilates top-level words (the tracked truncation
    defect), so l(i)* l(j) = delta_ij (1 - top-level projection).
    """

    def __init__(self, letter_dim: int, cutoff: int):
        if letter_dim < 1 or cutoff < 0:
            raise ValueError("need letter_dim >= 1 and cutoff >= 0")
        self.letter_dim = letter_dim
        self.cutoff = cutoff
        words = [()]
        for length in range(1, cutoff + 1):
            words.extend(product(range(letter_dim), repeat=length))
        self.words = words
        self.dim = len(words)

    def compression_defect(self, letter: int) -> float:
        """max |(1 - P_i)(l_i + l_i^*)(1 - P_i)| over the entries, P_i the
        projection onto the words that start with i, read on the word basis:
        l_i + l_i^* is 1 at (iw, w) and (w, iw) for each word w below the
        cutoff and 0 elsewhere, and 1 - P_i keeps an entry only when neither
        word starts with i.  Zero, as iw does: (1 - P_i) l_i = 0 = l_i^* (1 - P_i)."""
        if not 0 <= letter < self.letter_dim:
            raise ValueError("letter out of range")
        i = (letter,)
        return float(any(len(w) < self.cutoff and (i + w)[:1] != i and w[:1] != i for w in self.words))


def catalan_numbers(k_max: int):
    """C_1..C_{k_max} through the convolution recurrence (independent of any
    binomial formula): C_0 = 1, C_{k+1} = sum_i C_i C_{k-i}."""
    cs = [1]
    for k in range(k_max):
        cs.append(sum(cs[i] * cs[k - i] for i in range(k + 1)))
    return cs[1:]


def fock_semicircular_moments(cutoff: int, k_max: int):
    """Vacuum moments <Omega, (l+l*)^{2k} Omega> for k = 1..k_max, as exact ints.

    On one letter the words are the heights 0, 1, 2, ... and l + l* is the
    path graph, (s v)[h] = v[h-1] + v[h+1].  A walk of length 2k from the
    vacuum back to it climbs no higher than k, so walking heights 0..k_max
    in Python integers gives, for any cutoff >= k_max, the untruncated
    (Catalan) values exactly, with no (cutoff+1)^2 matrix.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if cutoff < k_max:
        raise ValueError(f"cutoff {cutoff} too small for k_max {k_max}; need cutoff >= k_max")
    v = [1] + [0] * k_max
    moments = []
    for step in range(2 * k_max):
        padded = [0] + v + [0]
        v = [padded[h] + padded[h + 2] for h in range(k_max + 1)]
        if step % 2:
            moments.append(v[0])
    return moments


SEMICIRCLE_MOMENTS = (0.0, 1.0, 0.0, 2.0)


class CLTResult(NamedTuple):
    moments: tuple           # tau(S^k) for k = 1..4, trial-averaged
    targets: tuple           # semicircle moments (0, 1, 0, 2)
    deviations: tuple        # moments - targets

    @classmethod
    def from_families(cls, families) -> "CLTResult":
        """:func:`clt_moments` of each family of a sequence, summed in its
        order and divided by its length; ValueError for an empty one."""
        import numpy as np

        if not families:
            raise ValueError("need at least one family")
        acc = np.zeros(4)
        for fam in families:
            acc += clt_moments(fam)
        moments = tuple(float(m) for m in acc / len(families))
        devs = tuple(m - t for m, t in zip(moments, SEMICIRCLE_MOMENTS))
        return cls(moments=moments, targets=SEMICIRCLE_MOMENTS, deviations=devs)


def clt_moments(fam: FreeFamily) -> np.ndarray:
    """tau(S^k), k = 1..4, for S = sum_i a_i / (sum_i tau(a_i^* a_i))^{1/2}.

    For n members of one variance this is n^{-1/2} sum_i a_i at unit
    variance.  The sum is Hermitian with eigenvalues lambda, so
    tau(S^k) = mean(lambda^k) / var^{k/2}: no matrix is formed.
    """
    import numpy as np

    var = sum(fam.second_moments)
    if var == 0.0:
        raise ValueError("every member is zero after centring: the CLT sum has no variance to normalise by")
    s = fam.eigenvalues / math.sqrt(var)
    return np.array([np.mean(s**k) for k in range(1, 5)])
