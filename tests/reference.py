"""Reference routes the tests compare the library against; nothing in
``src/ohlab`` or the demos calls them.

* :func:`family_from_members` builds a :class:`ohlab.freeprob.FreeFamily`
  the direct way, from explicit member matrices, for ``free_family`` to
  match;
* :func:`integrate_mu` sums an integrand against an arcsine rule;
* :func:`vacuum` is the vacuum vector of a truncated Fock space;
* :func:`witness_v` and :func:`witness_quadruple` are the bracket's
  rectangle witness pointwise, which ``tensorlog``'s closed forms integrate.
"""

import numpy as np

from ohlab.freeprob import FreeFamily, TruncatedFock
from ohlab.quad import ArcsineRule


def family_from_members(members) -> FreeFamily:
    """The direct route, the reference for ``free_family``: each member's
    spectrum from its own ``eigvalsh``, the sum added in member order.
    ValueError unless the members are square of one dimension, Hermitian and
    trace-centred to 1e-12 of their largest entries."""
    members = tuple(members)
    dim = len(members[0]) if members else 0
    if not members or any(a.shape != (dim, dim) for a in members):
        raise ValueError("need a nonempty family of square members of one dimension")
    for a in members:
        scale = float(np.max(np.abs(a)))
        if np.max(np.abs(a - a.conj().T)) > 1e-12 * scale:
            raise ValueError("members must be Hermitian")
        if abs(np.mean(np.diagonal(a))) > 1e-12 * max(scale, 1.0):
            raise ValueError("members must be trace-centred")
    spectra = tuple(np.abs(np.linalg.eigvalsh(a)) for a in members)
    moments = tuple(float(np.vdot(a, a).real) / dim for a in members)
    return FreeFamily(np.linalg.eigvalsh(sum(members[1:], members[0].copy())), spectra, moments)


def _values_at_nodes(f, nodes: np.ndarray) -> np.ndarray:
    vals = f(nodes) if callable(f) else np.asarray(f)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError(f"integrand values have shape {vals.shape}, expected {nodes.shape}")
    return vals


def integrate_mu(f, rule: ArcsineRule) -> float:
    """Integrate f against mu.  f is a vectorised callable or a node array.

    Singular densities (1/t, 1/(1-t), ...) are the caller's responsibility:
    compose them into f.  Summation is numpy's pairwise reduction, so the
    result is deterministic at fixed N.
    """
    vals = _values_at_nodes(f, rule.nodes)
    if not np.all(np.isfinite(vals)):
        bad = rule.nodes[~np.isfinite(vals)][0]
        raise ValueError(f"integrand is not finite at node t={bad!r}")
    return float(np.sum(vals * rule.weights))


def vacuum(fock: TruncatedFock) -> np.ndarray:
    """The vacuum vector Omega, the empty word's basis vector."""
    v = np.zeros(fock.dim)
    v[0] = 1.0
    return v


def witness_v(delta, t, s):
    """v(t,s) = 1/(ts + (1-t)(1-s)) on I = [delta, 1/2] x [1/2, 1-delta] and zero
    outside, the common ratio value of the rectangle witness of
    :class:`ohlab.tensorlog.WitnessQuadruple`; scalars keep their type (mpmath too)."""
    t, s = np.asarray(t), np.asarray(s)
    inside = (t >= delta) & (t <= 0.5) & (s >= 0.5) & (s <= 1.0 - delta)
    return np.where(inside, 1.0 / (t * s + (1.0 - t) * (1.0 - s)), 0.0)[()]


def witness_quadruple(delta, t, s):
    """The unscaled witness (f, g, h, k) = (ts, (1-t)(1-s), t(1-s), (1-t)s) v at (t, s)."""
    v = witness_v(delta, t, s)
    return t * s * v, (1.0 - t) * (1.0 - s) * v, t * (1.0 - s) * v, (1.0 - t) * s * v
