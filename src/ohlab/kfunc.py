"""Sum-space norms on finite weighted grids.

Three norms of an element k of a sum of weighted L2 spaces (and one with an
extra L1 slot), all over a common base measure nu given by point weights:

* ``l2sum2_norm`` -- the Hilbertian sum L2(g nu) +_2 L2(h nu).  Closed form:
  the infimum over k = k1 + k2 of ||k1||^2 + ||k2||^2 decouples pointwise and
  equals the integral of |k|^2 / (g^{-1} + h^{-1}).

* ``l2sum1_norm`` -- the convex sum L2(g nu) +_1 L2(h nu), i.e. the infimum
  of ||k1|| + ||k2||.  Using  u + v = min_{theta in (0,1)} (u^2/theta +
  v^2/(1-theta))^{1/2}  the decomposition infimum for fixed theta is again
  the Hilbertian closed form with reweighted densities g/theta, h/(1-theta),
  leaving a single smooth convex ratio minimisation for the outer search.

* ``ik_t_norm`` -- the three-term functional: infimum over
  x = x1 + x2 d^{1/2} + d^{1/2} x3 of sqrt(t) ||x1||_1 + ||x2||_2 + ||x3||_2
  in the commutative model (functions on the grid, d acting pointwise).  The
  two quadratic slots are kept separate via scale parameters (s, u); for
  fixed scales the pointwise problem is a quadratic with an L1 term solved by
  soft-thresholding, and the outer objective depends on the scales only
  through s + u, so the outer search is one-dimensional.

``k_d1d2_norm`` re-expresses the two-density quotient norm as l2sum1_norm
with densities 1/d1 and 1/d2.

Both outer objectives are convex with closed-form derivatives, and
:func:`minimize_scalar` solves F' = 0 by safeguarded Newton-bisection, so
this module needs numpy only.  numpy is imported inside each function that
handles an array, not when the module loads; :func:`minimize_scalar` is pure
``math``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .numlin import ROUNDING, as_array, require

if TYPE_CHECKING:  # annotations only: numpy loads when an array is first handled
    import numpy as np

__all__ = [
    "WeightedGrid",
    "ThreeTermSpec",
    "l2sum2_norm",
    "l2sum1_norm",
    "ik_t_norm",
    "ik_t_parts",
    "two_term_k_norm",
    "k_d1d2_norm",
]

# result of minimize_scalar: the minimiser and the number of derivative evaluations
ScalarMinimum = namedtuple("ScalarMinimum", "x nfev")


def minimize_scalar(dfun, bounds) -> ScalarMinimum:
    """Minimiser on [a, b] of a convex F, given dfun(x) = (F'(x), F''(x), err).

    err bounds the rounding error of F'(x).  An endpoint whose slope points
    outward is the minimiser.  Otherwise, from the midpoint, a Newton step on
    F' is taken if it lands inside the sign bracket and is at most half the
    previous step, else a bisection: Newton runs are finite (steps halve and
    are at least one ulp) and bisections halve the bracket, so the loop ends
    without a cap, when |F'| <= err or the bracket is two adjacent floats.
    A NaN derivative raises RuntimeError.
    """
    nfev = 0

    def slope(x):
        nonlocal nfev
        nfev += 1
        d1, d2, err = dfun(x)
        if math.isnan(d1):
            raise RuntimeError(f"derivative is NaN at x={x!r}")
        return d1, d2, err

    lo, hi = (float(v) for v in bounds)
    d_lo, _, err = slope(lo)
    if d_lo >= -err:
        return ScalarMinimum(lo, nfev)
    d_hi, _, err = slope(hi)
    if d_hi <= err:
        return ScalarMinimum(hi, nfev)
    step, x = 0.5 * (hi - lo), 0.5 * (lo + hi)
    while lo < x < hi:
        d1, d2, err = slope(x)
        if abs(d1) <= err:
            return ScalarMinimum(x, nfev)
        if d1 < 0.0:
            lo, d_lo = x, d1
        else:
            hi, d_hi = x, d1
        newton = x - d1 / d2 if d2 > 0.0 else x
        if lo < newton < hi and abs(newton - x) <= 0.5 * step:
            step, x = abs(newton - x), newton
        else:
            step, x = 0.5 * (hi - lo), 0.5 * (lo + hi)
    return ScalarMinimum(lo if -d_lo <= d_hi else hi, nfev)


class WeightedGrid(NamedTuple("WeightedGrid", [("base_weights", "np.ndarray"), ("g", "np.ndarray"),
                                                 ("h", "np.ndarray")])):
    """Base weights nu and two positive densities g, h on a finite point set."""

    __slots__ = ()

    def __new__(cls, base_weights, g, h):
        base = as_array(base_weights, ("points",), "base_weights", real=True, positive=True)
        return super().__new__(cls, base, *(as_array(a, base.shape, name, real=True, positive=True)
                                            for name, a in (("g", g), ("h", h))))

    @property
    def points(self) -> int:
        return self.base_weights.size


class ThreeTermSpec(NamedTuple("ThreeTermSpec", [("t_param", float), ("d", "np.ndarray"),
                                                   ("base_weights", "np.ndarray")])):
    """Parameter t, pointwise density d and base weights for ik_t_norm."""

    __slots__ = ()

    def __new__(cls, t_param, d, base_weights):
        if not (math.isfinite(t_param) and t_param > 0.0):
            raise ValueError("t_param must be finite and > 0")
        d = as_array(d, ("points",), "d", real=True, positive=True)
        return super().__new__(cls, t_param, d, as_array(base_weights, d.shape, "base_weights", real=True,
                                                         positive=True))


def _weighted_l2(absk: np.ndarray, weights, denom=1.0) -> float:
    """sqrt(sum weights |k|^2 / denom), summed on |k| 2^-e with max |k| 2^-e
    in [1/2, 1) and then scaled by 2^e.  Power-of-two scaling is exact, so no
    square under- or overflows, and where the unscaled squares are normal
    numbers the result has the bits of the unscaled sum."""
    import numpy as np

    e = int(np.frexp(np.max(absk))[1])
    return math.ldexp(float(np.sqrt(np.sum(weights * np.ldexp(absk, -e) ** 2 / denom))), e)


def l2sum2_norm(k, w: WeightedGrid) -> float:
    """Exact norm in L2(g nu) +_2 L2(h nu)."""
    import numpy as np

    v = as_array(k, (w.points,), "function values")
    return _weighted_l2(np.abs(v), w.base_weights, 1.0 / w.g + 1.0 / w.h)


def l2sum1_norm(k, w: WeightedGrid) -> float:
    """Norm in L2(g nu) +_1 L2(h nu): sqrt of the minimum over [0, 1] of the
    convex F(theta) = sum w |k|^2 / D, D = theta/g + (1-theta)/h, with
    F' = -sum w |k|^2 (1/g - 1/h) / D^2 and F'' = 2 sum w |k|^2 (1/g - 1/h)^2 / D^3."""
    import numpy as np

    absk = np.abs(as_array(k, (w.points,), "function values"))
    if not absk.any():
        return 0.0
    # F in the units of _weighted_l2, 2^{2e}: the minimiser theta is the same
    wk2 = w.base_weights * np.ldexp(absk, -np.frexp(np.max(absk))[1]) ** 2
    diff = 1.0 / w.g - 1.0 / w.h

    def slope(theta: float):
        inv = 1.0 / (theta / w.g + (1.0 - theta) / w.h)
        terms = wk2 * diff * inv**2
        curvature = 2.0 * float(np.sum(terms * diff * inv))
        return -float(np.sum(terms)), curvature, ROUNDING * float(np.sum(np.abs(terms)))

    theta = minimize_scalar(slope, (0.0, 1.0)).x
    return _weighted_l2(absk, w.base_weights, theta / w.g + (1.0 - theta) / w.h)


def ik_t_parts(x, spec: ThreeTermSpec):
    """Three-term functional with a realising decomposition.

    For fixed quadratic scales (s, u) the decomposition infimum is pointwise:
    the two L2 slots combine through the scalar parallel sum (their optimal
    split costs |r|^2 / (2 (s+u) d_j) for residual r), and the remaining L1
    slot is a soft-threshold.  The outer surrogate

        Phi(s, u) = (s + u)/2 + sum_j w_j * huber_t(x_j; (s+u) d_j)

    depends only on sigma = s + u: a convex phi(sigma) whose sigma -> 0 limit
    is the L1 route sqrt(t) ||x||_1, with
    phi'(sigma) = 1/2 - sum_j w_j d_j min(|x_j|^2 / (2 sigma^2 d_j^2), t/2).
    The first term holds on the quadratic branch |x_j| <= sqrt(t) sigma d_j,
    where phi'' gains w_j |x_j|^2 / (sigma^3 d_j).  At sigma = 0+ every x_j != 0
    is linear, and phi'(0+) >= 0 picks the L1 route.  The linear branch has
    t/2 < |x_j|^2 / (2 sigma^2 d_j^2), so phi'(sigma) >= 1/2 - K^2 / (2 sigma^2),
    K the two-term K-norm, and [0, K] brackets the minimiser.  The returned
    value is the exact objective of the decomposition recovered at the optimal
    sigma (never above the surrogate), so the returned (x1, x2, x3) attain it.
    """
    import numpy as np

    v = as_array(x, spec.d.shape, "function values")
    absx = np.abs(v)
    w = spec.base_weights
    if not absx.any():
        z = np.zeros_like(v)
        return 0.0, (z, z.copy(), z.copy())
    sqrt_t = float(np.sqrt(spec.t_param))
    half_t = 0.5 * spec.t_param
    wd = w * spec.d
    k_route = _weighted_l2(absx, w, spec.d)

    def slope(sigma: float):
        if sigma == 0.0:
            terms, curvature = np.where(absx > 0.0, half_t * wd, 0.0), 0.0
        else:
            c = 0.5 * (absx / (sigma * spec.d)) ** 2
            terms = wd * np.minimum(c, half_t)
            curvature = 2.0 / sigma * float(np.sum(terms[c <= half_t]))
        total = float(np.sum(terms))
        return 0.5 - total, curvature, ROUNDING * (0.5 + total)

    sigma = minimize_scalar(slope, (0.0, k_route)).x
    # soft-threshold for x1; the residual is carried by the L2 slots
    shrink = np.maximum(absx - sqrt_t * sigma * spec.d, 0.0)
    x1 = v * (shrink / np.where(absx > 0.0, absx, 1.0))
    y = (v - x1) / np.sqrt(spec.d)
    value = sqrt_t * float(np.sum(w * np.abs(x1))) + _weighted_l2(np.abs(y), w)
    # the identity route (x1 = 0) is always feasible, so the three-term value
    # can never exceed the two-term K-norm
    require("three-term value <= two-term K-norm", value, k_route, 1e-9 * max(k_route, 1.0),
            t=spec.t_param, points=v.size)
    return value, (x1, 0.5 * y, 0.5 * y)


def ik_t_norm(x, spec: ThreeTermSpec) -> float:
    """Three-term functional value; see :func:`ik_t_parts` for the witness."""
    value, _ = ik_t_parts(x, spec)
    return value


def two_term_k_norm(x, spec: ThreeTermSpec) -> float:
    """K-norm with the L1 slot disabled: ||x / sqrt(d)||_{L2(nu)}."""
    import numpy as np

    return _weighted_l2(np.abs(as_array(x, spec.d.shape, "function values")), spec.base_weights, spec.d)


def k_d1d2_norm(k, d1, d2, base_weights) -> float:
    """Two-density quotient norm: l2sum1_norm with densities 1/d1 and 1/d2.

    ``d1``, ``d2`` and ``base_weights`` are arrays over a common point set
    (e.g. densities evaluated at the nodes of an arcsine rule, with the rule
    weights as base).
    """
    d1, d2 = (as_array(d, ("points",), name, real=True, positive=True) for name, d in (("d1", d1), ("d2", d2)))
    return l2sum1_norm(k, WeightedGrid(base_weights, 1.0 / d1, 1.0 / d2))
