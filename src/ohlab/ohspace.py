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
The restarts run as one (R, m, m) stack of B's (in stacks of at most
``STACK_BYTES`` for large tuples): each step is one batched product per
half-step for all restarts still iterating, and a restart leaves the stack
once its own stop rule fires.  Each slice's products and Frobenius norm are
bit for bit those of a restart iterated alone, so the result does not depend
on the stacking.

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

numpy is imported inside each function that handles an array, not when the
module loads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .numlin import as_array, hermitian_part, opnorm

if TYPE_CHECKING:  # annotations only: numpy loads when an array is first
    # handled, and `ohnorm` runs without loading quad
    import numpy as np

    from .quad import ArcsineRule

__all__ = [
    "BallPoint",
    "VariationalResult",
    "oh_norm_direct",
    "oh_norm_variational",
    "fn_scalar_norm",
]


class BallPoint(NamedTuple("BallPoint", [("a_pos", "np.ndarray"), ("b_pos", "np.ndarray"),
                                           ("min_eig_a", float), ("min_eig_b", float)])):
    """PSD pair (A, B) in the Schatten-2 unit ball.

    ``min_eig_a`` and ``min_eig_b`` are the least eigenvalues of the
    Hermitian parts, kept from the PSD check.
    """

    __slots__ = ()

    def __new__(cls, a_pos, b_pos):
        import numpy as np

        mins = []
        for name, mat in (("a", a_pos), ("b", b_pos)):
            if np.linalg.norm(mat, "fro") > 1.0 + 1e-12:
                raise ValueError(f"{name}_pos lies outside the Schatten-2 unit ball")
            least = float(np.min(np.linalg.eigvalsh(hermitian_part(mat))))
            if least < -1e-10:
                raise ValueError(f"{name}_pos is not PSD")
            mins.append(least)
        return super().__new__(cls, a_pos, b_pos, *mins)

    def __getnewargs__(self):
        # copy and pickle rebuild the point from its inputs, as __new__ takes them
        return self.a_pos, self.b_pos


class VariationalResult(NamedTuple):
    value: float
    argmax: BallPoint
    converged: bool
    iterations: int
    restart_values: tuple
    objective_trace: np.ndarray


def _scaled_tuple(x) -> tuple[np.ndarray, int]:
    """(x / 2^e, e) for a tuple x of n >= 1 finite complex m x m matrices, an
    (n, m, m) array, with e the frexp exponent of its largest real or
    imaginary part (not of |x_ij|, which can overflow).  The scaling is exact
    and the norm homogeneous, so scaling the result back by 2^e changes no
    bit where the products stay in the normal range, and keeps them there."""
    import numpy as np

    a = as_array(x, ("n", "m", "m"), "tuple")
    e = math.frexp(float(max(np.max(np.abs(a.real)), np.max(np.abs(a.imag)))))[1]
    scaled = np.empty_like(a)
    np.ldexp(a.real, -e, out=scaled.real)
    np.ldexp(a.imag, -e, out=scaled.imag)
    return scaled, e


def _unscaled(root: float, e: int) -> float:
    """root 2^e, the norm of a tuple whose copy divided by 2^e
    (:func:`_scaled_tuple`) has norm root; RuntimeError where it lies beyond
    the float range."""
    try:
        return math.ldexp(root, e)
    except OverflowError:
        raise RuntimeError(f"the norm {root!r} * 2^{e} exceeds the float range") from None


def oh_norm_direct(x) -> float:
    """Largest singular value of sum_k conj(x_k) (x) x_k, square-rooted.

    Entry ((i,j),(p,q)) is sum_k conj(x_k[i,p]) x_k[j,q]: one GEMM, axes
    reordered, on the tuple scaled by :func:`_scaled_tuple`."""
    import numpy as np

    xs, e = _scaled_tuple(x)
    n, m, _ = xs.shape
    flat = xs.reshape(n, m * m)
    big = (flat.conj().T @ flat).reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)
    return _unscaled(float(np.sqrt(opnorm(big))), e)


def _phi(xs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k x_k^* B_r x_k for each B_r of an (R, m, m) stack (completely positive,
    so PSD output for PSD B_r).

    Two GEMMs per B_r, O(n m^3): the stacked x_k^* rows times the stacked B_r x_k.
    """
    n, m, _ = xs.shape
    return xs.conj().reshape(n * m, m).T @ (b[:, None] @ xs).reshape(len(b), n * m, m)


def _phi_adj(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k x_k A_r x_k^* for each A_r of an (R, m, m) stack, as two GEMMs like :func:`_phi`."""
    n, m, _ = xs.shape
    rows = (xs @ a[:, None]).transpose(0, 2, 1, 3).reshape(len(a), m, n * m)
    return rows @ xs.conj().transpose(0, 2, 1).reshape(n * m, m)


def _fro(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice of an (R, m, m) stack.

    Bit for bit np.linalg.norm(slice, "fro"), which sums the real and the
    imaginary parts by one dot product each: here each (1, m^2) @ (m^2, 1)
    product is that same dot product.
    """
    import numpy as np

    r, m, _ = stack.shape
    flat = stack.reshape(r, 1, m * m)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


# a restart stops once an iteration raises its value by less than
# VARIATIONAL_TOL relative (and converged is False after VARIATIONAL_MAX_ITER)
VARIATIONAL_TOL = 1e-10
VARIATIONAL_MAX_ITER = 500
# restarts iterate in stacks of at most this many bytes: each holds its GEMM
# operands (about 2 n m^2 complex entries) and its objective trace
STACK_BYTES = 2**22


def _ascend(xs: np.ndarray, b: np.ndarray) -> list:
    """Alternating maximisation from each start B_r of an (R, m, m) stack.

    The restarts iterate as one stack, and each leaves it once its stop rule
    fires, so it keeps the iterates it would have alone.  Returns, per
    restart, (value, A, B, converged, iterations, objective trace).
    """
    import numpy as np

    restarts, m, _ = b.shape
    a = np.repeat(np.eye(m, dtype=complex)[None] / np.sqrt(m), restarts, axis=0)
    value = np.zeros(restarts)
    converged = np.zeros(restarts, dtype=bool)
    iterations = np.full(restarts, VARIATIONAL_MAX_ITER)
    # step-major, so the pages written are those of the steps taken
    trace = np.empty((2 * VARIATIONAL_MAX_ITER, restarts))
    trace_len = np.zeros(restarts, dtype=int)
    active = np.arange(restarts)
    for it in range(1, VARIATIONAL_MAX_ITER + 1):
        mten = _phi(xs, b[active])
        nm = _fro(mten)
        # M = 0 ends a restart at value 0, with A and B as they were
        zero = nm == 0.0
        done = active[zero]
        value[done], converged[done], iterations[done] = 0.0, True, it
        live, mten, nm = active[~zero], mten[~zero], nm[~zero]
        a_live = mten / nm[:, None, None]
        nten = _phi_adj(xs, a_live)
        nn = _fro(nten)
        a[live], b[live] = a_live, nten / nn[:, None, None]
        trace[2 * it - 2, live], trace[2 * it - 1, live] = nm, nn
        trace_len[live] = 2 * it
        stop = (nn - value[live] < VARIATIONAL_TOL * np.maximum(nn, 1e-300)) & (it >= 2)
        value[live] = nn
        done = live[stop]
        converged[done], iterations[done] = True, it
        active = live[~stop]
        if not active.size:
            break
    return [(value[r], a[r], b[r], bool(converged[r]), int(iterations[r]), trace[: trace_len[r], r])
            for r in range(restarts)]


def oh_norm_variational(x, restarts: int = 8, seed: int = 0) -> VariationalResult:
    """Alternating maximisation over the PSD Schatten-2 ball.

    Restart 0 starts from B = I/sqrt(m); the remaining restarts use random
    Wishart matrices normalised in Schatten-2, with generators drawn from a
    seeded stream.  The restarts iterate in stacks of at most ``STACK_BYTES``
    (all of them at once for small tuples).  The best restart wins, ties
    broken by lowest index.  The restarts run on the tuple scaled by
    :func:`_scaled_tuple`, where every objective is finite, and the value,
    ``restart_values`` and ``objective_trace`` are scaled back exactly.
    """
    import numpy as np

    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    xs, e = _scaled_tuple(x)
    n, m, _ = xs.shape
    # per-restart derived seeds keep results independent of execution order
    seeds = np.random.SeedSequence(seed).spawn(restarts)

    def start(r):
        if r == 0:
            return np.eye(m, dtype=complex) / np.sqrt(m)
        rng = np.random.default_rng(seeds[r])
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = g @ g.conj().T
        return b / np.linalg.norm(b, "fro")

    stack = max(1, STACK_BYTES // (32 * n * m * m + 16 * VARIATIONAL_MAX_ITER))
    best_val = -1.0
    best = None
    restart_values = []
    for lo in range(0, restarts, stack):
        starts = np.array([start(r) for r in range(lo, min(lo + stack, restarts))])
        for value, *state in _ascend(xs, starts):
            restart_values.append(_unscaled(float(np.sqrt(max(value, 0.0))), e))
            if value > best_val:
                best_val = value
                best = state

    a, b, converged, iterations, trace = best
    a, b = hermitian_part(a), hermitian_part(b)
    with np.errstate(over="ignore"):  # an entry beyond the float range reads inf
        trace = np.ldexp(trace, 2 * e)
    return VariationalResult(
        value=_unscaled(float(np.sqrt(max(best_val, 0.0))), e),
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
    import numpy as np

    t, w = rule.nodes, rule.weights
    # F'(1/2) = -4 * sum w (2t - 1), zero when the rule's mean is 1/2; each
    # term of the sum rounds by at most about eps
    if abs(float(np.dot(w, 2.0 * t - 1.0))) > rule.n_nodes * np.finfo(float).eps:
        mean = float(np.dot(w, t) / np.sum(w))
        raise ValueError(f"rule mean {mean:.17g} is not 1/2, so theta = 1/2 is not the minimiser")
    v = as_array(a, ("n",), "coefficients")
    return float(np.linalg.norm(v)) * float(np.sqrt(2.0 * np.sum(w)))
