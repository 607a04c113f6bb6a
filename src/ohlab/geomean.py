"""Variational formulas for ((AB)^{1/2} x, x) with A, B commuting and positive.

Primal (Pusz-Woronowicz): the infimum over decompositions x = a(t) + b(t) of

    int [ (A a(t), a(t))/t + (B b(t), b(t))/(1-t) ] dmu(t)

has the pointwise closed-form minimiser given by the parallel sum of A/t and
B/(1-t), so the primal value is the quadrature of
(x, (t A^{-1} + (1-t) B^{-1})^{-1} x) against the arcsine measure.  No inner
optimisation loop is needed.

Dual: minimise int (A f, f)/t dmu + int (B g, g)/(1-t) dmu over pairs with
A f(t)/t = B g(t)/(1-t) and the linear constraint
int A^{1/2} f(t)/t dmu = B^{1/2} y.  Writing h(t) for the common ratio value
the problem is an equality-constrained quadratic programme solved in closed
form: h(t) = W(t)^{-1} A^{-1/2} lam with W(t) = t A^{-1} + (1-t) B^{-1} and
lam fixed by one dim x dim solve against the quadrature-assembled Gram
operator  G = int A^{-1/2} W(t)^{-1} A^{-1/2} dmu.

Both formulas need W(t)^{-1} at every quadrature node.  One congruence per
problem diagonalises the whole pencil: with B^{-1} = L L^H and
L^{-1} A^{-1} L^{-H} = V diag(lam) V^H,

    W(t)^{-1} = X diag(1 / (t lam + 1 - t)) X^H,   X = L^{-H} V,

for every t, and for any strictly positive pair (commuting or not), so no
node needs an inverse of its own.

Both formulas are discretised on the same ArcsineRule so that primal/dual
agreement isolates algebra bugs from quadrature error.

numpy is imported inside each function that handles an array, not when the
module loads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .freeprob import haar_unitary
from .numlin import PositiveMatrix, as_array, commuting_pair, hermitian_part, sqrt_commuting
from .quad import ArcsineRule

if TYPE_CHECKING:  # annotations only: numpy loads when an array is first handled
    import numpy as np

__all__ = [
    "PWProblem",
    "DualWitness",
    "pw_primal",
    "pw_dual",
    "pw_oracle",
    "dual_witness_validate",
    "random_commuting_pair",
]


class PWProblem(NamedTuple("PWProblem", [("A", PositiveMatrix), ("B", PositiveMatrix),
                                           ("pencil", "tuple[np.ndarray, np.ndarray]")])):
    """A commuting, strictly positive pair (A, B).

    ``pencil`` is (lam, X) with
    (t A^{-1} + (1-t) B^{-1})^{-1} = X diag(1/(t lam + 1 - t)) X^H.
    From the Cholesky factors B = R R^H and A = S S^H: L = R^{-H} gives
    B^{-1} = L L^H, and L^{-1} A^{-1} L^{-H} = R^H A^{-1} R = C^H C with
    C = S^{-1} R.  The SVD C = U diag(sqrt(lam)) V^H gives lam and V, and
    X = L^{-H} V = R V.  Neither A^{-1} nor B^{-1} is formed, and the SVD
    keeps the small lam to a relative accuracy that eigh of C^H C loses.
    Read-only; computed once, when the problem is built, whatever the rule.
    """

    __slots__ = ()

    def __new__(cls, A, B):
        import numpy as np

        r = np.linalg.cholesky(B.mat)
        c = np.linalg.solve(np.linalg.cholesky(A.mat), r)
        _, sv, vh = np.linalg.svd(c)
        lam, x = sv**2, r @ vh.conj().T
        lam.flags.writeable = False
        x.flags.writeable = False
        return super().__new__(cls, A, B, (lam, x))

    def __getnewargs__(self):
        # copy and pickle rebuild the problem from its inputs, as __new__ takes them
        return self.A, self.B

    @classmethod
    def build(cls, a, b) -> "PWProblem":
        pa, pb = commuting_pair(a, b)
        for name, p in (("A", pa), ("B", pb)):
            if not p.strictly_positive:
                raise ValueError(f"{name} must be strictly positive")
        return cls(pa, pb)

    @property
    def dim(self) -> int:
        return self.A.dim


class DualWitness(NamedTuple):
    """Closed-form dual minimiser, stored through the common ratio value h.

    The pair (f, g) is recovered as f(t) = t A^{-1} h(t),
    g(t) = (1-t) B^{-1} h(t), so the ratio constraint
    A f(t)/t = B g(t)/(1-t) = h(t) holds exactly by construction.
    """

    h_values: np.ndarray     # (n_nodes, dim)


def _resolvent_weights(lam: np.ndarray, rule: ArcsineRule) -> np.ndarray:
    """1/(t lam_j + 1 - t) at every node, shape (n_nodes, dim)."""
    t = rule.nodes[:, None]
    return 1.0 / (t * lam + (1.0 - t))


def pw_primal(p: PWProblem, x, rule: ArcsineRule) -> float:
    """Quadrature of the pointwise parallel-sum integrand (x, W(t)^{-1} x) at x."""
    import numpy as np

    v = as_array(x, (p.dim,), "vector")
    lam, xs = p.pencil
    coeff = np.abs(xs.conj().T @ v) ** 2
    return float(rule.weights @ (_resolvent_weights(lam, rule) @ coeff))


def pw_dual(p: PWProblem, y, rule: ArcsineRule):
    """Closed-form dual value and its witness.

    Returns (value, witness) where value equals ((AB)^{1/2} y, y) up to
    quadrature error and the witness realises it.
    """
    import numpy as np

    v = as_array(y, (p.dim,), "vector")
    lam, xs = p.pencil
    res = _resolvent_weights(lam, rule)
    s = (xs * (rule.weights @ res)) @ xs.conj().T          # int W(t)^{-1} dmu
    # B^{1/2} and A^{-1/2} from the spectra the problem's matrices hold
    b_root = p.B.func(np.sqrt)
    a_invroot = p.A.func(lambda w: 1.0 / np.sqrt(w))
    gram = hermitian_part(a_invroot @ s @ a_invroot)
    rhs = b_root @ v
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e14:
        raise RuntimeError(f"Gram operator numerically singular (cond={cond:.3e})")
    multiplier = np.linalg.solve(gram, rhs)
    value = float(np.vdot(rhs, multiplier).real)
    # h(t_n) = W(t_n)^{-1} A^{-1/2} multiplier, all nodes in one (N, dim) product
    h_values = (res * (xs.conj().T @ (a_invroot @ multiplier))) @ xs.T
    return value, DualWitness(h_values=h_values)


def dual_witness_validate(w: DualWitness, p: PWProblem, rule: ArcsineRule):
    """Two-energy norm of the recovered pair (f, g) and the max ratio residual.

    The functional norm is (||f||^2_{L2(nu1,H_A)} + ||g||^2_{L2(nu2,H_B)})^{1/2};
    the residual max_t ||A f(t)/t - B g(t)/(1-t)|| is zero by construction and
    reported as a sanity figure.
    """
    import numpy as np

    h = as_array(w.h_values, (rule.n_nodes, p.dim), "witness")
    t = rule.nodes
    # rows of h A^{-T}, h B^{-T} are A^{-1} h(t) = f(t)/t, B^{-1} h(t) = g(t)/(1-t), by the spectra
    ah = h @ p.A.func(np.reciprocal).T
    bh = h @ p.B.func(np.reciprocal).T
    # ||f||^2_{L2(nu1,H_A)} = int (A f, f)/t dmu = int t (A^{-1} h, h) dmu
    e_a = np.einsum("ni,ni->n", h.conj(), ah).real
    e_b = np.einsum("ni,ni->n", h.conj(), bh).real
    energy = rule.weights @ (t * e_a + (1.0 - t) * e_b)
    ratio = ah @ p.A.mat.T - bh @ p.B.mat.T
    residual = float(np.max(np.abs(ratio))) if ratio.size else 0.0
    return float(np.sqrt(max(energy, 0.0))), residual


def pw_oracle(p: PWProblem, x) -> float:
    """Direct ((AB)^{1/2} x, x) with (AB)^{1/2} = A^{1/2} B^{1/2} (``sqrt_commuting``)."""
    import numpy as np

    v = as_array(x, (p.dim,), "vector")
    root = sqrt_commuting(p.A, p.B)
    return float(np.vdot(v, root.mat @ v).real)


def random_commuting_pair(dim: int, rng: np.random.Generator, cond: float = 100.0):
    """Commuting-by-construction strictly positive pair with a common Haar eigenbasis.

    Eigenvalues are log-uniform with condition number at most ``cond`` for
    each factor.
    """
    import numpy as np

    if not cond >= 1.0:
        raise ValueError(f"cond must be >= 1, got {cond}")
    q = haar_unitary(dim, rng)
    span = np.log(cond)
    wa = np.exp(rng.uniform(0.0, span, size=dim))
    wb = np.exp(rng.uniform(0.0, span, size=dim))
    a = hermitian_part((q * wa) @ q.conj().T)
    b = hermitian_part((q * wb) @ q.conj().T)
    return PWProblem.build(a, b)
