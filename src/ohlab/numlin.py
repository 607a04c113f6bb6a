"""Dense complex linear-algebra substrate, and the one verdict path.

Every inequality ohlab claims is decided by ``violation`` (hard invariants
raise its line through ``require``), and ``Bounded`` is the one interval type.

One certified matrix type, ``PositiveMatrix``, the one commuting-pair check
(``commuting_pair``), the one Hermitian part and square roots of commuting
positive pairs.  A ``PositiveMatrix`` is symmetrised on ingest and factorised
once: its eigendecomposition ``eig`` is checked by its reconstruction
residual, eigenvalues just below zero are clamped, and callers read its norm
and functions of it (``PositiveMatrix.func``: the square roots of
``sqrt_commuting`` and ``geomean.pw_dual``) from the stored spectrum.

All values are immutable after construction and every operation is pure.

The verdicts and the interval type are pure ``math``: numpy is imported inside
the four functions that handle an array (``as_array``, ``opnorm``,
``PositiveMatrix.__init__`` and ``sqrt_commuting``), so a command that checks
only scalar inequalities, such as ``bracket``, never loads it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: numpy loads when a matrix is first handled
    import numpy as np

__all__ = [
    "ROUNDING",
    "BoundViolation",
    "Bounded",
    "violation",
    "require",
    "PositiveMatrix",
    "commuting_pair",
    "hermitian_part",
    "opnorm",
    "sqrt_commuting",
]

# Relative tolerances for structure certification.
HERM_TOL = 1e-12        # Hermitian ingest check
PSD_CLAMP_TOL = 1e-10   # eigenvalues in [-tol*|H|, 0) are clamped to 0
EPS_PD = 1e-12          # strict positivity: min_eig > EPS_PD * |H|
COMMUTE_TOL = 1e-8      # ||AB-BA|| <= tol * ||A|| ||B||

# c eps per unit of term magnitude: the rounding bound on a closed form summed
# from a handful of terms (tensorlog) and on a computed derivative (kfunc)
ROUNDING = 64 * sys.float_info.epsilon


class BoundViolation(RuntimeError):
    """A numerically computed quantity violated an analytically proved bound."""


class Bounded(NamedTuple):
    """A computed value and a bound on its distance from the exact one."""

    value: float
    err: float

    @classmethod
    def from_terms(cls, terms, trunc=0.0, factor=1.0) -> Bounded:
        """factor * sum(terms), off by at most factor * (trunc + ROUNDING sum |term|)."""
        return cls(factor * math.fsum(terms), factor * (trunc + ROUNDING * math.fsum(abs(x) for x in terms)))

    @property
    def lo(self) -> float:
        return self.value - self.err

    @property
    def hi(self) -> float:
        return self.value + self.err


def violation(claim: str, lhs: float, rhs: float, slack: float = 0.0, **params) -> str | None:
    """None when lhs <= rhs + slack; otherwise one line naming ``claim``, both
    sides, the slack and ``params`` (the stage: trial, n, delta, ...).  A NaN
    side fails.  A negative slack is a margin the claim must clear."""
    if lhs <= rhs + slack:
        return None
    where = f" at {', '.join(f'{k}={v}' for k, v in params.items())}" if params else ""
    return f"{claim} fails{where}: {lhs:.6e} > {rhs:.6e}" + (f" (slack {slack:.1e})" if slack else "")


def require(claim: str, lhs: float, rhs: float, slack: float = 0.0, **params) -> None:
    """A hard invariant: raise ``violation``'s line as BoundViolation."""
    line = violation(claim, lhs, rhs, slack, **params)
    if line is not None:
        raise BoundViolation(line)


def as_array(x, shape, name: str, real: bool = False, positive: bool = False) -> np.ndarray:
    """The one array ingest: ``x`` as a complex array, or with ``real`` a float
    one (a complex input is rejected, not cast, which would drop its imaginary
    part), of ``shape``, with finite entries, all > 0 with ``positive``.  In
    ``shape`` an int fixes an axis's length, and a str names a length >= 1 that
    is the same wherever the name recurs.  ValueError names ``name``."""
    import numpy as np

    a = np.asarray(x)
    if real and a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got dtype {a.dtype}")
    a = a.astype(float if real else complex, copy=False)
    sizes = {}
    if a.ndim != len(shape) or not all(
            sizes.setdefault(want, got) == got >= 1 if isinstance(want, str) else want == got
            for want, got in zip(shape, a.shape)):
        raise ValueError(f"{name} has shape {a.shape}, expected shape ({', '.join(map(str, shape))})")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if positive and not np.all(a > 0.0):
        raise ValueError(f"{name} must be strictly positive")
    return a


def as_matrix(x) -> np.ndarray:
    """Coerce to a square complex 2-D array with finite entries."""
    return x.mat if isinstance(x, PositiveMatrix) else as_array(x, ("m", "m"), "matrix")


def hermitian_part(a) -> np.ndarray:
    a = as_matrix(a)
    return 0.5 * (a + a.conj().T)


def opnorm(a) -> float:
    """Operator (spectral) norm."""
    import numpy as np

    a = as_matrix(a)
    return float(np.linalg.norm(a, 2))


class PositiveMatrix:
    """Hermitian PSD matrix, symmetrised and factorised once on ingest.

    ``eig = (w, u)``, read-only, holds the eigenvalues in ascending order and
    the eigenvectors, with mat = u diag(w) u*; the reconstruction residual of
    the solve is checked against 1e-10 * dim * max(|H|, 1).  Eigenvalues in
    [-PSD_CLAMP_TOL*|H|, 0) are clamped to 0 (the matrix is rebuilt from the
    clamped spectrum); anything more negative is rejected.
    ``strictly_positive`` requires min_eig > EPS_PD * |H|, and ``norm`` is the
    top eigenvalue.
    """

    __slots__ = ("mat", "dim", "eig", "min_eig", "strictly_positive")

    def __init__(self, entries):
        import numpy as np

        a = as_matrix(entries)
        if np.max(np.abs(a - a.conj().T)) > HERM_TOL * np.max(np.abs(a)):
            raise ValueError("matrix is not Hermitian within tolerance")
        m = hermitian_part(a)
        try:
            w, u = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
        scale = float(np.max(np.abs(w)))
        resid = np.max(np.abs((u * w) @ u.conj().T - m))
        if resid > 1e-10 * m.shape[0] * max(scale, 1.0):
            raise RuntimeError(f"eigendecomposition residual {resid:.3e} exceeds tolerance")
        if w[0] < -PSD_CLAMP_TOL * scale:
            raise ValueError(
                f"matrix is not PSD: min eigenvalue {w[0]:.3e} below clamp "
                f"threshold {-PSD_CLAMP_TOL * scale:.3e}"
            )
        if w[0] < 0.0:
            w = np.maximum(w, 0.0)
            m = hermitian_part((u * w) @ u.conj().T)
        for arr in (m, w, u):
            arr.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "eig", (w, u))
        object.__setattr__(self, "min_eig", float(w[0]))
        object.__setattr__(self, "strictly_positive", bool(w[0] > EPS_PD * scale))

    @property
    def norm(self) -> float:
        """Operator norm: the top stored eigenvalue."""
        return float(self.eig[0][-1])

    def func(self, f) -> np.ndarray:
        """f(H) = u diag(f(w)) u* from the stored spectrum, Hermitian part taken."""
        w, u = self.eig
        return hermitian_part((u * f(w)) @ u.conj().T)

    def __setattr__(self, *args):
        raise AttributeError("PositiveMatrix is immutable")

    def __reduce__(self):
        # copy and pickle re-ingest mat (__setattr__ refuses slot-by-slot restores):
        # bit for bit the same, unless a clamped spectrum's rebuilt mat rounds anew
        return type(self), (self.mat,)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def commuting_pair(a, b) -> tuple[PositiveMatrix, PositiveMatrix]:
    """(A, B) as PositiveMatrix, of one dimension, with ||AB-BA|| <= COMMUTE_TOL ||A|| ||B||."""
    pa, pb = (m if isinstance(m, PositiveMatrix) else PositiveMatrix(m) for m in (a, b))
    if pa.dim != pb.dim:
        raise ValueError("dimension mismatch between A and B")
    comm = opnorm(pa.mat @ pb.mat - pb.mat @ pa.mat)
    bound = COMMUTE_TOL * pa.norm * pb.norm
    if comm > bound:
        raise ValueError(f"matrices do not commute: ||AB-BA|| = {comm:.3e} > "
                         f"{COMMUTE_TOL:.0e} * ||A|| ||B|| = {bound:.3e}")
    return pa, pb


def sqrt_commuting(a, b) -> PositiveMatrix:
    """Positive square root of AB for a commuting positive pair.

    Commuting positive matrices have commuting positive roots, so
    (AB)^{1/2} = A^{1/2} B^{1/2}, each root read from its matrix's stored
    spectrum: no common eigenbasis is needed, so close eigenvalues of A are
    never merged.  The pair is certified by ``commuting_pair``.
    """
    import numpy as np

    pa, pb = commuting_pair(a, b)
    return PositiveMatrix(hermitian_part(pa.func(np.sqrt) @ pb.func(np.sqrt)))
