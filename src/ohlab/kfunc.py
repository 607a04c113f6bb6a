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

Both outer searches run :func:`minimize_scalar`, a numpy-free port of
scipy's bounded Brent method, so this module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundViolation",
    "WeightedGrid",
    "ThreeTermSpec",
    "l2sum2_norm",
    "l2sum1_norm",
    "ik_t_norm",
    "ik_t_parts",
    "two_term_k_norm",
    "k_d1d2_norm",
]

DEFAULT_OUTER_TOL = 1e-8


class BoundViolation(RuntimeError):
    """A numerically computed quantity violated an analytically proved bound."""


@dataclass(frozen=True)
class ScalarMinimum:
    """Result of :func:`minimize_scalar`, named as scipy's OptimizeResult."""

    x: float
    fun: float
    nfev: int
    success: bool
    message: str


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def minimize_scalar(fun, bounds, method="bounded", options=None) -> ScalarMinimum:
    """Minimum of fun on the interval ``bounds`` by Brent's bounded method.

    A step-for-step port of ``_minimize_scalar_bounded`` from scipy.optimize
    (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
    Developers), so it returns scipy's x, fun and nfev bit for bit: golden
    section steps safeguard parabolic ones, and the search stops when x is
    within 2 (sqrt(eps) |x| + xatol/3) of the bracket midpoint.  Only
    ``method="bounded"`` and the options ``xatol`` (default 1e-5) and
    ``maxiter`` (default 500) are supported; ``success`` is false when the
    search stops at ``maxiter`` evaluations or meets a NaN.
    """
    if method != "bounded":
        raise ValueError(f"unsupported method {method!r}; only 'bounded' is implemented")
    options = options or {}
    xatol = options.get("xatol", 1e-5)
    maxfun = options.get("maxiter", 500)
    a, b = (float(v) for v in bounds)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = fun(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    status = 0
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (_sign(xm - xf) + (xm - xf == 0.0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (_sign(rat) + (rat == 0.0)) * max(abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            status = 1
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        status = 2
    message = ("Solution found.", "Maximum number of function calls reached.", "NaN result encountered.")[status]
    return ScalarMinimum(x=xf, fun=fx, nfev=num, success=status == 0, message=message)


@dataclass(frozen=True)
class WeightedGrid:
    """Base weights nu and two positive densities g, h on a finite point set."""

    base_weights: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for name in ("base_weights", "g", "h"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive")
        if not (self.base_weights.shape == self.g.shape == self.h.shape):
            raise ValueError("base_weights, g, h must share one shape")

    @property
    def points(self) -> int:
        return self.base_weights.size


@dataclass(frozen=True)
class ThreeTermSpec:
    """Parameter t, pointwise density d and base weights for ik_t_norm."""

    t_param: float
    d: np.ndarray
    base_weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.t_param) and self.t_param > 0.0):
            raise ValueError("t_param must be finite and > 0")
        for name in ("d", "base_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive")
        if self.d.shape != self.base_weights.shape:
            raise ValueError("d and base_weights must share one shape")


def _values(k, n: int) -> np.ndarray:
    v = np.asarray(k, dtype=complex).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"function values have shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("function values must be finite")
    return v


def l2sum2_norm(k, w: WeightedGrid) -> float:
    """Exact norm in L2(g nu) +_2 L2(h nu)."""
    v = _values(k, w.points)
    val = np.sum(w.base_weights * np.abs(v) ** 2 / (1.0 / w.g + 1.0 / w.h))
    return float(np.sqrt(val))


def _ratio_objective(k2, w: WeightedGrid):
    """F(theta) = integral |k|^2 / (theta/g + (1-theta)/h) dnu, convex on [0,1]."""

    def F(theta: float) -> float:
        denom = theta / w.g + (1.0 - theta) / w.h
        return float(np.sum(w.base_weights * k2 / denom))

    return F


def l2sum1_norm(k, w: WeightedGrid, outer_tol: float = DEFAULT_OUTER_TOL) -> float:
    """Norm in L2(g nu) +_1 L2(h nu) via the convex ratio search."""
    v = _values(k, w.points)
    k2 = np.abs(v) ** 2
    if not k2.any():
        return 0.0
    F = _ratio_objective(k2, w)
    res = minimize_scalar(F, bounds=(0.0, 1.0), method="bounded", options={"xatol": outer_tol})
    if not res.success:
        raise RuntimeError(f"outer ratio search did not converge: {res.message}")
    # theta = 0 / 1 put everything into a single slot; the bounded search
    # keeps xatol away from the endpoints, so compare explicitly.
    best = min(float(res.fun), F(0.0), F(1.0))
    return float(np.sqrt(best))


def _huber_value(absx: np.ndarray, radius: np.ndarray, sqrt_t: float) -> np.ndarray:
    """min over y of sqrt(t) |y| + |x - y|^2 / (2 r): soft-threshold closed form."""
    quad = absx**2 / (2.0 * radius)
    lin = sqrt_t * absx - 0.5 * sqrt_t**2 * radius
    return np.where(absx <= sqrt_t * radius, quad, lin)


def ik_t_parts(x, spec: ThreeTermSpec, outer_tol: float = DEFAULT_OUTER_TOL):
    """Three-term functional with a realising decomposition.

    For fixed quadratic scales (s, u) the decomposition infimum is pointwise:
    the two L2 slots combine through the scalar parallel sum (their optimal
    split costs |r|^2 / (2 (s+u) d_j) for residual r), and the remaining L1
    slot is a soft-threshold.  The outer surrogate

        Phi(s, u) = (s + u)/2 + sum_j w_j * huber_t(x_j; (s+u) d_j)

    depends only on sigma = s + u, so coordinate descent over (s, u)
    collapses to a 1-D convex minimisation over sigma, with the sigma -> 0
    limit sqrt(t) ||x||_1 as an endpoint.  The returned value is the exact
    objective of the decomposition recovered at the optimal sigma (never
    above the surrogate), so it is attained by the returned (x1, x2, x3).
    """
    v = _values(x, spec.d.size)
    absx = np.abs(v)
    w = spec.base_weights
    if not absx.any():
        z = np.zeros_like(v)
        return 0.0, (z, z.copy(), z.copy())
    sqrt_t = float(np.sqrt(spec.t_param))
    l1_route = sqrt_t * float(np.sum(w * absx))
    k_route = float(np.sqrt(np.sum(w * absx**2 / spec.d)))

    def phi(sigma: float) -> float:
        if sigma <= 0.0:
            return l1_route
        return 0.5 * sigma + float(np.sum(w * _huber_value(absx, sigma * spec.d, sqrt_t)))

    def recover(sigma: float):
        # soft-threshold for x1; the residual is carried by the L2 slots
        shrink = np.maximum(absx - sqrt_t * sigma * spec.d, 0.0)
        x1 = v * (shrink / np.where(absx > 0.0, absx, 1.0))
        y = (v - x1) / np.sqrt(spec.d)
        obj = sqrt_t * float(np.sum(w * np.abs(x1))) + float(np.sqrt(np.sum(w * np.abs(y) ** 2)))
        return obj, x1, y

    hi = 2.0 * k_route + 1e-12
    res = minimize_scalar(phi, bounds=(0.0, hi), method="bounded", options={"xatol": outer_tol})
    if not res.success:
        raise RuntimeError(f"outer scale search did not converge: {res.message}")
    value, x1, y = recover(float(res.x))
    if l1_route < value:
        value = l1_route
        x1, y = v.copy(), np.zeros_like(v)
    x2 = 0.5 * y
    x3 = 0.5 * y
    # the identity route (x1 = 0) is always feasible, so the three-term value
    # can never exceed the two-term K-norm
    if not value <= k_route + 1e-9 * max(k_route, 1.0):
        raise BoundViolation(
            f"three-term value {value:.6e} exceeds the two-term K-norm {k_route:.6e} "
            f"(t={spec.t_param:g}, {v.size} points)"
        )
    return value, (x1, x2, x3)


def ik_t_norm(x, spec: ThreeTermSpec, outer_tol: float = DEFAULT_OUTER_TOL) -> float:
    """Three-term functional value; see :func:`ik_t_parts` for the witness."""
    value, _ = ik_t_parts(x, spec, outer_tol=outer_tol)
    return value


def two_term_k_norm(x, spec: ThreeTermSpec) -> float:
    """K-norm with the L1 slot disabled: ||x / sqrt(d)||_{L2(nu)}."""
    v = _values(x, spec.d.size)
    return float(np.sqrt(np.sum(spec.base_weights * np.abs(v) ** 2 / spec.d)))


def k_d1d2_norm(k, d1, d2, base_weights, outer_tol: float = DEFAULT_OUTER_TOL) -> float:
    """Two-density quotient norm: l2sum1_norm with densities 1/d1 and 1/d2.

    ``d1``, ``d2`` and ``base_weights`` are arrays over a common point set
    (e.g. densities evaluated at the nodes of an arcsine rule, with the rule
    weights as base).
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    w = WeightedGrid(base_weights=np.asarray(base_weights, dtype=float), g=1.0 / d1, h=1.0 / d2)
    return l2sum1_norm(k, w, outer_tol=outer_tol)
