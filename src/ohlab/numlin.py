"""Dense complex linear-algebra substrate.

Hermitian eigendecomposition, Kronecker products and square roots of
commuting positive pairs.  Everything operates on plain complex ndarrays;
the thin ``HermitianMatrix`` / ``PositiveMatrix`` wrappers certify structure
at construction (symmetrised ingest, eigenvalue clamping, strict-positivity
flag) and are accepted anywhere an ndarray is.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HermitianMatrix",
    "PositiveMatrix",
    "hermitian_part",
    "opnorm",
    "herm_eig",
    "kron",
    "conj",
    "sqrt_commuting",
]

# Relative tolerances for structure certification.
HERM_TOL = 1e-12        # Hermitian ingest check
PSD_CLAMP_TOL = 1e-10   # eigenvalues in [-tol*|H|, 0) are clamped to 0
EPS_PD = 1e-12          # strict positivity: min_eig > EPS_PD * |H|
COMMUTE_TOL = 1e-8      # ||AB-BA|| <= tol * ||A|| ||B||
EIG_GROUP_TOL = 1e-8    # relative gap merging eigenvalues into one eigenspace


def as_matrix(x) -> np.ndarray:
    """Coerce to a square complex 2-D array with finite entries."""
    if isinstance(x, HermitianMatrix):
        return x.mat
    a = np.asarray(x, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def hermitian_part(a) -> np.ndarray:
    a = as_matrix(a)
    return 0.5 * (a + a.conj().T)


def opnorm(a) -> float:
    """Operator (spectral) norm."""
    a = as_matrix(a)
    return float(np.linalg.norm(a, 2))


class HermitianMatrix:
    """Square complex matrix certified Hermitian; symmetrised on ingest."""

    __slots__ = ("mat", "dim")

    def __init__(self, entries):
        a = as_matrix(entries)
        scale = np.max(np.abs(a)) if a.size else 0.0
        if scale > 0 and np.max(np.abs(a - a.conj().T)) > HERM_TOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        m = 0.5 * (a + a.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])

    def __setattr__(self, *args):
        raise AttributeError("HermitianMatrix is immutable")

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PositiveMatrix(HermitianMatrix):
    """Hermitian PSD matrix.

    Eigenvalues in [-PSD_CLAMP_TOL*|H|, 0) are clamped to 0 on ingest (the
    matrix is rebuilt from the clamped spectrum); anything more negative is
    rejected.  ``strictly_positive`` requires min_eig > EPS_PD * |H|.
    """

    __slots__ = ("min_eig", "strictly_positive")

    def __init__(self, entries):
        super().__init__(entries)
        w, u = np.linalg.eigh(self.mat)
        scale = max(np.max(np.abs(w)), 0.0)
        if scale > 0 and w[0] < -PSD_CLAMP_TOL * scale:
            raise ValueError(
                f"matrix is not PSD: min eigenvalue {w[0]:.3e} below clamp "
                f"threshold {-PSD_CLAMP_TOL * scale:.3e}"
            )
        if np.any(w < 0.0):
            w = np.maximum(w, 0.0)
            m = (u * w) @ u.conj().T
            m = 0.5 * (m + m.conj().T)
            m.setflags(write=False)
            object.__setattr__(self, "mat", m)
        object.__setattr__(self, "min_eig", float(w[0]))
        object.__setattr__(self, "strictly_positive", bool(w[0] > EPS_PD * scale) if scale > 0 else False)


def _as_positive(x) -> PositiveMatrix:
    return x if isinstance(x, PositiveMatrix) else PositiveMatrix(x)


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns (w, u) with h = u diag(w) u*.  The reconstruction residual is
    checked against 1e-10 * dim * ||h||; failure raises with the residual.
    """
    m = HermitianMatrix(h).mat if not isinstance(h, HermitianMatrix) else h.mat
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    scale = max(float(np.max(np.abs(w))), 1.0) if m.size else 1.0
    resid = np.max(np.abs((u * w) @ u.conj().T - m))
    if resid > 1e-10 * m.shape[0] * scale:
        raise RuntimeError(f"eigendecomposition residual {resid:.3e} exceeds tolerance")
    return w, u


def kron(x, y) -> np.ndarray:
    """Kronecker product with row-major block convention."""
    return np.kron(as_matrix(x), as_matrix(y))


def conj(x) -> np.ndarray:
    """Entrywise complex conjugation."""
    return np.conj(as_matrix(x))


def _group_close(values: np.ndarray, rel_tol: float):
    """Split sorted eigenvalues into groups with relative gap < rel_tol."""
    groups = []
    start = 0
    scale = max(float(np.max(np.abs(values))), 1e-300)
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > rel_tol * scale:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, len(values)))
    return groups


def sqrt_commuting(a, b) -> PositiveMatrix:
    """Positive square root of AB for a commuting positive pair.

    A is diagonalised first; within each (numerically grouped) eigenspace of
    A the restriction of B is diagonalised, giving a simultaneous eigenbasis.
    Non-commuting input is rejected with the commutator norm.
    """
    pa = _as_positive(a)
    pb = _as_positive(b)
    if pa.dim != pb.dim:
        raise ValueError("dimension mismatch")
    na, nb = opnorm(pa.mat), opnorm(pb.mat)
    comm = opnorm(pa.mat @ pb.mat - pb.mat @ pa.mat)
    if comm > COMMUTE_TOL * max(na * nb, 1e-300):
        raise ValueError(
            f"matrices do not commute: ||AB-BA|| = {comm:.3e} > "
            f"{COMMUTE_TOL:.0e} * ||A|| ||B|| = {COMMUTE_TOL * na * nb:.3e}"
        )
    wa, ua = herm_eig(pa)
    v = ua.copy()
    kappa = np.empty_like(wa)
    lam = np.empty_like(wa)
    for grp in _group_close(wa, EIG_GROUP_TOL):
        cols = ua[:, grp]
        b_restr = hermitian_part(cols.conj().T @ pb.mat @ cols)
        wk, uk = np.linalg.eigh(b_restr)
        v[:, grp] = cols @ uk
        kappa[grp] = wk
        lam[grp] = float(np.mean(wa[grp]))
    prod = np.maximum(lam * kappa, 0.0)
    root = (v * np.sqrt(prod)) @ v.conj().T
    return PositiveMatrix(hermitian_part(root))
