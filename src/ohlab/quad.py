"""Quadrature for the arcsine probability measure and its singular relatives.

The base measure is mu(dt) = dt / (pi * sqrt(t(1-t))) on [0,1].  The two
weighted companions nu1 = t^{-1} mu and nu2 = (1-t)^{-1} mu are never
materialised as separate rules: callers fold the densities 1/t and 1/(1-t)
into the integrands.  Under t = (1+x)/2 the measure mu becomes the
Chebyshev weight on [-1,1], so Gauss-Chebyshev nodes of the first kind
integrate polynomials of degree <= 2N-1 against mu exactly and absorb the
endpoint singularities of the weight.  Callers integrate by summing their
integrand's node values against ``weights``; the module holds the rule and
its 2-D product, nothing that integrates.

The bracket needs no rule: its corner strips' nu1/nu2 masses are closed
forms in ``tensorlog``.

numpy is imported inside the three functions that handle an array
(``ArcsineRule.__new__``, ``Grid2D.meshes`` and ``arcsine_rule``), so
importing this module does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .numlin import as_array

if TYPE_CHECKING:  # annotations only: numpy loads when an array is first handled
    import numpy as np

__all__ = [
    "ArcsineRule",
    "Grid2D",
    "arcsine_rule",
]


class ArcsineRule(NamedTuple("ArcsineRule", [("n_nodes", int), ("nodes", "np.ndarray"),
                                               ("weights", "np.ndarray")])):
    """Nodes and weights integrating against mu(dt) = dt/(pi sqrt(t(1-t)))."""

    __slots__ = ()

    def __new__(cls, n_nodes, nodes, weights):
        import numpy as np

        if n_nodes < 1:
            raise ValueError("rule needs at least one node")
        self = super().__new__(cls, n_nodes, as_array(nodes, (n_nodes,), "nodes", real=True),
                               as_array(weights, (n_nodes,), "weights", real=True))
        if not (np.all(self.nodes > 0.0) and np.all(self.nodes < 1.0)):
            raise ValueError("nodes must lie strictly inside (0,1)")
        if abs(self.weights.sum() - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1 (probability measure)")
        return self


class Grid2D(NamedTuple("Grid2D", [("rule_t", ArcsineRule), ("rule_s", ArcsineRule)])):
    """Product rule for mu x mu on [0,1]^2.  Each rule's weights were checked
    to sum to 1 within 1e-14 when it was built, so the product's sum to 1."""

    __slots__ = ()

    def meshes(self):
        """Meshgrids (T, S) of nodes and the matching weight matrix W."""
        import numpy as np

        t = self.rule_t.nodes
        s = self.rule_s.nodes
        T, S = np.meshgrid(t, s, indexing="ij")
        W = np.outer(self.rule_t.weights, self.rule_s.weights)
        return T, S, W


def arcsine_rule(n_nodes: int) -> ArcsineRule:
    """Gauss-Chebyshev (first kind) rule mapped onto [0,1].

    Nodes t_j = (1 + cos((2j-1) pi / (2N))) / 2 with uniform weights 1/N.
    The node set is symmetric under t -> 1-t.
    """
    import numpy as np

    j = np.arange(1, n_nodes + 1)  # empty for n_nodes < 1, which ArcsineRule rejects
    nodes = 0.5 * (1.0 + np.cos((2 * j - 1) * np.pi / (2 * n_nodes)))
    return ArcsineRule(n_nodes, nodes, np.ones(j.size) / n_nodes)
