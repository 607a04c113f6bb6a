"""Matrix-tuple norms for the operator Hilbert space and its quotient model.

For a tuple x = (x_1, ..., x_n) of m x m matrices the norm of the associated
map is

    ||x||_oh = || sum_k conj(x_k) (x) x_k ||^{1/2}

with the operator norm taken on the m^2 x m^2 Kronecker sum (the direct
spectral oracle), and equivalently

    ||x||_oh^2 = sup { sum_k tr(A x_k^* B x_k) : A, B >= 0, ||A||_2, ||B||_2 <= 1 }.

The supremum is computed by alternating maximisation: for fixed B the
objective is the Hilbert-Schmidt pairing of A with  M = sum_k x_k^* B x_k,
a PSD matrix, so the optimal A is M / ||M||_2 and the half-step value is
||M||_2; symmetrically for B.  Each half-step is an exact maximisation, so
the objective is monotone nondecreasing, and every iterate is feasible.

``fn_scalar_norm`` computes the first-level norm of a coefficient vector
against the canonical basis of the two-density quotient: representatives
(sqrt(t) a, (1 - sqrt(t)) a) with the constraint that scalar profiles sum to
one, reduced by projection onto span(a) to the +_1 sum norm of the constant
1 with densities g = 1/t and h = 1/(1-t).  That norm is the square root of
the minimum over theta in [0, 1] of the convex ratio objective of
:mod:`ohlab.kfunc`, which here reads

    F(theta) = sum_j w_j / (theta t_j + (1 - theta)(1 - t_j)),
    F'(1/2)  = -4 sum_j w_j (2 t_j - 1).

F'(1/2) vanishes exactly when the rule's mean sum_j w_j t_j / sum_j w_j is
1/2, which an arcsine rule meets because it integrates degree 1 exactly (its
nodes are symmetric under t -> 1-t).  A convex function is least where its
derivative vanishes, so the minimum is F(1/2) = 2 sum_j w_j with no search,
and the norm is ||a||_2 sqrt(2 sum_j w_j) = sqrt(2) ||a||_2.  A rule whose
mean is not 1/2 to within rounding is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numlin import hermitian_part, opnorm
from .quad import ArcsineRule

__all__ = [
    "BallPoint",
    "VariationalResult",
    "oh_norm_direct",
    "oh_norm_variational",
    "fn_scalar_norm",
]


@dataclass(frozen=True)
class BallPoint:
    """PSD pair (A, B) in the Schatten-2 unit ball.

    ``min_eig_a`` and ``min_eig_b`` are the least eigenvalues of the
    Hermitian parts, kept from the PSD check.
    """

    a_pos: np.ndarray
    b_pos: np.ndarray
    min_eig_a: float = field(init=False)
    min_eig_b: float = field(init=False)

    def __post_init__(self):
        for name, mat in (("a", self.a_pos), ("b", self.b_pos)):
            if np.linalg.norm(mat, "fro") > 1.0 + 1e-12:
                raise ValueError(f"{name}_pos lies outside the Schatten-2 unit ball")
            least = float(np.min(np.linalg.eigvalsh(hermitian_part(mat))))
            if least < -1e-10:
                raise ValueError(f"{name}_pos is not PSD")
            object.__setattr__(self, f"min_eig_{name}", least)


@dataclass(frozen=True)
class VariationalResult:
    value: float
    argmax: BallPoint
    converged: bool
    iterations: int
    restart_values: tuple
    objective_trace: np.ndarray = field(repr=False)


def _tuple_array(x) -> np.ndarray:
    """x as a tuple of n >= 1 finite complex m x m matrices, an (n, m, m) array."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected shape (n, m, m), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("tuple entries must be finite")
    return a


def oh_norm_direct(x) -> float:
    """Largest singular value of sum_k conj(x_k) (x) x_k, square-rooted.

    Entry ((i,j),(p,q)) is sum_k conj(x_k[i,p]) x_k[j,q]: one GEMM, axes reordered."""
    xs = _tuple_array(x)
    n, m, _ = xs.shape
    flat = xs.reshape(n, m * m)
    big = (flat.conj().T @ flat).reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)
    return float(np.sqrt(opnorm(big)))


def _phi(xs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k x_k^* B x_k (completely positive, so PSD output for PSD B).

    Two GEMMs, O(n m^3): the stacked x_k^* rows times the stacked B x_k.
    """
    n, m, _ = xs.shape
    return xs.conj().reshape(n * m, m).T @ (b @ xs).reshape(n * m, m)


def _phi_adj(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k x_k A x_k^*, as two GEMMs like :func:`_phi`."""
    n, m, _ = xs.shape
    return (xs @ a).transpose(1, 0, 2).reshape(m, n * m) @ xs.conj().transpose(0, 2, 1).reshape(n * m, m)


# a restart stops once an iteration raises its value by less than
# VARIATIONAL_TOL relative (and converged is False after VARIATIONAL_MAX_ITER)
VARIATIONAL_TOL = 1e-10
VARIATIONAL_MAX_ITER = 500


def oh_norm_variational(x, restarts: int = 8, seed: int = 0) -> VariationalResult:
    """Alternating maximisation over the PSD Schatten-2 ball.

    Restart 0 starts from B = I/sqrt(m); the remaining restarts use random
    Wishart matrices normalised in Schatten-2, with generators drawn from a
    seeded stream.  The best restart wins, ties broken by lowest index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    xs = _tuple_array(x)
    n, m, _ = xs.shape
    # per-restart derived seeds keep results independent of execution order
    seeds = np.random.SeedSequence(seed).spawn(restarts)

    best_val = -1.0
    best = None
    restart_values = []
    for r in range(restarts):
        if r == 0:
            b = np.eye(m, dtype=complex) / np.sqrt(m)
        else:
            rng = np.random.default_rng(seeds[r])
            g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            b = g @ g.conj().T
            b /= np.linalg.norm(b, "fro")
        a = np.eye(m, dtype=complex) / np.sqrt(m)
        trace = []
        value = 0.0
        converged = False
        it = 0
        for it in range(1, VARIATIONAL_MAX_ITER + 1):
            mten = _phi(xs, b)
            nm = np.linalg.norm(mten, "fro")
            if nm == 0.0:
                value = 0.0
                converged = True
                break
            a = mten / nm
            trace.append(nm)
            nten = _phi_adj(xs, a)
            nn = np.linalg.norm(nten, "fro")
            b = nten / nn
            trace.append(nn)
            if nn - value < VARIATIONAL_TOL * max(nn, 1e-300) and it >= 2:
                value = nn
                converged = True
                break
            value = nn
        restart_values.append(float(np.sqrt(max(value, 0.0))))
        if value > best_val:
            best_val = value
            best = (a, b, converged, it, np.asarray(trace))

    a, b, converged, iterations, trace = best
    a, b = hermitian_part(a), hermitian_part(b)
    return VariationalResult(
        value=float(np.sqrt(max(best_val, 0.0))),
        argmax=BallPoint(a_pos=a, b_pos=b),
        converged=converged,
        iterations=iterations,
        restart_values=tuple(restart_values),
        objective_trace=trace,
    )


def fn_scalar_norm(a, rule: ArcsineRule) -> float:
    """First-level quotient norm of a coefficient vector against the f-basis.

    Decompositions f(t) + g(t) = a reduce by projection onto span(a) to
    scalar profiles phi + psi = 1, giving

        ||a||_2 * inf_{phi+psi=1} [ (int |phi|^2/t dmu)^{1/2}
                                    + (int |psi|^2/(1-t) dmu)^{1/2} ],

    the +_1 sum norm of the constant function 1 with densities 1/t, 1/(1-t).
    Its ratio search is solved at theta = 1/2 (see the module docstring).
    """
    t, w = rule.nodes, rule.weights
    # F'(1/2) = -4 * sum w (2t - 1), zero when the rule's mean is 1/2; each
    # term of the sum rounds by at most about eps
    if abs(float(np.dot(w, 2.0 * t - 1.0))) > rule.n_nodes * np.finfo(float).eps:
        mean = float(np.dot(w, t) / np.sum(w))
        raise ValueError(f"rule mean {mean:.17g} is not 1/2, so theta = 1/2 is not the minimiser")
    v = np.asarray(a, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("coefficients must be finite")
    return float(np.linalg.norm(v)) * float(np.sqrt(2.0 * np.sum(w)))
