"""Certified lower and upper brackets for the diagonal two-density tensor norm.

The object being bracketed is the norm of sum_{i,j} a_ij f_i (x) f_j in the
projective tensor square of the two-density quotient space; for the diagonal
a = I_n it grows like sqrt(n (1 + ln n)).  Both routes work on the four-slot
decomposition of the tensor square (two Hilbertian slots with densities
1/(ts) and 1/((1-t)(1-s)), two trace-class slots mixing the densities).

Lower route: a rectangle witness.  On I = [delta, 1/2] x [1/2, 1-delta] put
v(t,s) = 1 / (ts + (1-t)(1-s)) and split it into the ratio-constrained
quadruple f = ts v, g = (1-t)(1-s) v, h = t(1-s) v, k = (1-t)s v.  After a
single scale division the quadruple is feasible for the duality pairing and
the lower bound is sqrt(n) times the (scaled) pairing integral of v over I.
The analytic estimates certified in ``witness_validate``:

    ||f||^2 + ||g||^2           <= 16 pi^-2 (-ln delta)   (Hilbertian slots)
    ||h||^2_{L2(nu1 x nu2)}     <= 16 / (3 pi^2)
    ||k||^2_{L2(nu2 x nu1)}     <= 32 pi^-2 / delta
    pairing integral over I     >= (-ln 8 delta) / pi^2

(the h, k operator norms are dominated by their L2 norms, which is how the
trace-class constraints are discharged).  Any numerical violation of these
inequalities indicates a quadrature or formula bug and raises hard.

Upper route: a (x) 1 = a1 + a2.  a1 lives on a region R of four rectangles
avoiding the corners (0,1) and (1,0), in the +_1 sum of the Hilbertian
slots, where 1_R has norm min_theta F(theta)^{1/2} for the convex F(theta) =
int_R 1/(theta ts + (1-theta)(1-t)(1-s)).  R, mu x mu and the nodes are
symmetric under (t,s) -> (1-t,1-s), so F(theta) = F(1-theta) and the
minimum is F(1/2) = 2 int_R v.  The corner remainder a2 is four rank-one
strips, charged in the trace-class slots by exact 1-D interval masses.  With
delta = 1/(e^2 n^2) the total is at most 18 sqrt(1 + ln n) ||a||_2.

I and R are unions of node blocks of the product rule (delta never falls on a
node), so each 2-D integral is a sum over blocks; the cut-off at the block
edges costs accuracy, and the tests monitor convergence by resolution
doubling.  Bracket runs default to DEFAULT_BRACKET_GRID = 1024 nodes per
axis, shared with ``ohlab bracket --grid``; the CLI rejects grids above 2048.

``bracket_report`` computes the two brackets once per n and derives the rest
by arithmetic: the completely-1-summing norm of the identity lies in
[lower/18, 6 upper] (below n = 7, where the witness route does not apply, its
floor is banach_c sqrt(n)), and by trace duality the projection constant lies
in [fac/psc_c, min(gamma_c fac, n/pi1_lo)] with fac = sqrt(n/(1 + ln n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kfunc import BoundViolation
from .quad import Grid2D, arcsine_rule, nu1_mass, nu2_mass

__all__ = [
    "BoundViolation",
    "WitnessQuadruple",
    "WitnessNorms",
    "BracketConstants",
    "CONSTANTS",
    "UpperBoundParts",
    "BracketReport",
    "default_grid",
    "witness_build",
    "witness_validate",
    "diag_lower_bound",
    "diag_upper_bound",
    "bracket_report",
]

DEFAULT_BRACKET_GRID = 1024


@dataclass(frozen=True)
class BracketConstants:
    """Fixed constants entering the brackets, with the inequalities they certify."""

    lower_c: float = 1.0 / (16.0 * math.sqrt(2.0) * math.pi)
    upper_c: float = 18.0
    pi1_lo_factor: float = 1.0 / 18.0
    pi1_hi_factor: float = 6.0
    psc_c: float = 108.0
    gamma_c: float = 288.0 * math.sqrt(2.0) * math.pi
    banach_c: float = 2.0 / math.sqrt(math.pi)
    witness_scale_c: float = 4.0 * math.sqrt(2.0) / math.pi

    def provenance(self):
        """name/value/citation rows for machine-readable reports."""
        return [
            {
                "name": "lower_c",
                "value": self.lower_c,
                "citation": "diagonal tensor norm >= lower_c * sqrt(n(1+ln n)) for n >= 7",
            },
            {
                "name": "upper_c",
                "value": self.upper_c,
                "citation": "tensor norm <= upper_c * sqrt(1+ln n) * ||a||_2",
            },
            {
                "name": "pi1_lo_factor",
                "value": self.pi1_lo_factor,
                "citation": "completely-1-summing norm of the identity >= pi1_lo_factor * tensor norm",
            },
            {
                "name": "pi1_hi_factor",
                "value": self.pi1_hi_factor,
                "citation": "completely-1-summing norm of the identity <= pi1_hi_factor * tensor norm",
            },
            {
                "name": "psc_c",
                "value": self.psc_c,
                "citation": "projection constant >= (1/psc_c) * sqrt(n/(1+ln n))",
            },
            {
                "name": "gamma_c",
                "value": self.gamma_c,
                "citation": "projection constant <= gamma_c * sqrt(n/(1+ln n))",
            },
            {
                "name": "banach_c",
                "value": self.banach_c,
                "citation": "completely-1-summing norm of the identity >= banach_c * sqrt(n) (small-n fallback)",
            },
            {
                "name": "witness_scale_c",
                "value": self.witness_scale_c,
                "citation": "witness scale divisor witness_scale_c * sqrt(-ln delta) makes the quadruple feasible",
            },
        ]


CONSTANTS = BracketConstants()


def _v(t, s):
    """Common ratio value 1/(ts + (1-t)(1-s)) of the witness and the upper route."""
    return 1.0 / (t * s + (1.0 - t) * (1.0 - s))


def _block_integral(grid: Grid2D, t_sel, s_sel, integrand=lambda t, s, v: v) -> float:
    """Sum of (w_t (x) w_s) * integrand(t, s, v) over the node block t[t_sel] x s[s_sel]."""
    t = grid.rule_t.nodes[t_sel][:, None]
    s = grid.rule_s.nodes[s_sel][None, :]
    w = np.outer(grid.rule_t.weights[t_sel], grid.rule_s.weights[s_sel])
    return float(np.sum(integrand(t, s, _v(t, s)) * w))


@dataclass(frozen=True)
class WitnessQuadruple:
    """Analytic rectangle witness (f, g, h, k) = (ts, (1-t)(1-s), t(1-s), (1-t)s) * v.

    The common factor v(t,s) = 1/(ts + (1-t)(1-s)) restricted to
    I = [delta, 1/2] x [1/2, 1-delta] makes the four ratio constraints hold
    identically; ``scale`` divides all four components for feasibility.
    """

    delta: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta={self.delta} outside (0, 1/2)")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")

    def indicator(self, t, s):
        return (t >= self.delta) & (t <= 0.5) & (s >= 0.5) & (s <= 1.0 - self.delta)

    def v(self, t, s):
        """Common ratio value on I, zero outside."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return np.where(self.indicator(t, s), _v(t, s), 0.0)

    def f(self, t, s):
        return t * s * self.v(t, s)

    def g(self, t, s):
        return (1.0 - t) * (1.0 - s) * self.v(t, s)

    def h(self, t, s):
        return t * (1.0 - s) * self.v(t, s)

    def k(self, t, s):
        return (1.0 - t) * s * self.v(t, s)


def default_grid(n_nodes: int = DEFAULT_BRACKET_GRID) -> Grid2D:
    rule = arcsine_rule(n_nodes)
    return Grid2D(rule, rule)


def witness_build(n: int, delta: float | None = None) -> WitnessQuadruple:
    """Witness for size n with the canonical delta = 1/(n e) and scale."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta is None:
        delta = 1.0 / (n * math.e)
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta={delta} outside (0, 1/2)")
    scale = CONSTANTS.witness_scale_c * math.sqrt(-math.log(delta))
    return WitnessQuadruple(delta=delta, scale=scale)


@dataclass(frozen=True)
class WitnessNorms:
    """Unscaled witness integrals, their analytic bounds, and feasibility flags."""

    delta: float
    f_sq: float             # ||f||^2_{L2(nu1xnu1)}
    g_sq: float             # ||g||^2_{L2(nu2xnu2)}
    fg_sq: float            # their sum, which collapses to the pairing
    h_sq: float             # ||h||^2_{L2(nu1xnu2)}
    k_sq: float             # ||k||^2_{L2(nu2xnu1)}
    pairing: float          # integral of v over I against mu x mu
    fg_bound: float
    h_bound: float
    k_bound: float
    pairing_bound: float
    scaled_fg_feasible: bool
    scaled_hk_feasible: bool


def witness_validate(q: WitnessQuadruple, grid: Grid2D, n: int | None = None,
                     slack: float = 1e-8) -> WitnessNorms:
    """Compute the four witness integrals and enforce the analytic bounds.

    A computed value above its proved bound (beyond ``slack``) is a hard
    failure.  When ``n`` is given the feasibility of the scaled quadruple for
    the size-n pairing is also flagged.
    """
    # I is a product, so its node block is its sections through (1/2, 1/2)
    t_sel = q.indicator(grid.rule_t.nodes, 0.5)
    s_sel = q.indicator(0.5, grid.rule_s.nodes)
    if not (t_sel.any() and s_sel.any()):
        raise ValueError("grid does not resolve the witness rectangle (no nodes inside)")
    # f^2/(ts) + g^2/((1-t)(1-s)) = v, so the Hilbertian slots sum to the pairing
    pairing = _block_integral(grid, t_sel, s_sel)
    f_sq = _block_integral(grid, t_sel, s_sel, lambda t, s, v: t * s * v * v)
    g_sq = _block_integral(grid, t_sel, s_sel, lambda t, s, v: (1.0 - t) * (1.0 - s) * v * v)
    h_sq = _block_integral(grid, t_sel, s_sel, lambda t, s, v: t * (1.0 - s) * v * v)
    k_sq = _block_integral(grid, t_sel, s_sel, lambda t, s, v: (1.0 - t) * s * v * v)
    fg_bound = 16.0 / math.pi**2 * (-math.log(q.delta))
    h_bound = 16.0 / (3.0 * math.pi**2)
    k_bound = 32.0 / math.pi**2 / q.delta
    pairing_bound = (-math.log(8.0 * q.delta)) / math.pi**2

    def _check_upper(value, bound, label):
        if value > bound * (1.0 + 1e-12) + slack:
            raise BoundViolation(f"{label} = {value:.6e} exceeds analytic bound {bound:.6e}")

    _check_upper(f_sq + g_sq, fg_bound, "||f||^2 + ||g||^2")
    _check_upper(h_sq, h_bound, "||h||^2")
    _check_upper(k_sq, k_bound, "||k||^2")
    if pairing < pairing_bound - slack:
        raise BoundViolation(
            f"pairing {pairing:.6e} below analytic floor {pairing_bound:.6e}"
        )

    sc2 = q.scale**2
    fg_ok = pairing / sc2 <= 1.0 + slack
    hk_ok = True
    if n is not None:
        hk_ok = max(h_sq, k_sq) / sc2 <= float(n) + slack
    return WitnessNorms(
        delta=q.delta,
        f_sq=f_sq,
        g_sq=g_sq,
        fg_sq=f_sq + g_sq,
        h_sq=h_sq,
        k_sq=k_sq,
        pairing=pairing,
        fg_bound=fg_bound,
        h_bound=h_bound,
        k_bound=k_bound,
        pairing_bound=pairing_bound,
        scaled_fg_feasible=fg_ok,
        scaled_hk_feasible=hk_ok,
    )


def _lower_route(n: int, grid: Grid2D) -> tuple[float, WitnessQuadruple]:
    """Certified lower bracket for n >= 7 and the witness that proves it."""
    if n < 7:
        raise ValueError("quadrature lower route needs n >= 7")
    q = witness_build(n)
    norms = witness_validate(q, grid, n=n)
    value = math.sqrt(n) * norms.pairing / q.scale
    if not (norms.scaled_fg_feasible and norms.scaled_hk_feasible):
        raise BoundViolation(
            f"scaled witness infeasible at n={n}: the pairing does not certify a lower bracket"
        )
    floor = CONSTANTS.lower_c * math.sqrt(n * (1.0 + math.log(n)))
    if value < floor - 1e-8:
        raise BoundViolation(f"lower bracket {value:.6e} below analytic floor {floor:.6e}")
    return value, q


def diag_lower_bound(n: int, grid: Grid2D | None = None) -> float:
    """sqrt(n) times the scaled witness pairing; certified lower bracket.

    For n >= 7 the value dominates lower_c * sqrt(n (1 + ln n)); the witness
    bounds, the feasibility of the scaled quadruple and that floor are
    checked, and a violation raises BoundViolation.
    """
    if grid is None:
        grid = default_grid()
    return _lower_route(n, grid)[0]


@dataclass(frozen=True)
class UpperBoundParts:
    value: float            # sharper numeric total (rectangle part + corner part)
    rectangle_part: float
    corner_part: float
    analytic_value: float   # same split estimated with the proved constants
    log_ceiling: float      # upper_c * sqrt(1+ln n) * ||a||_2
    delta: float


def diag_upper_bound(
    n: int,
    a: np.ndarray | None = None,
    grid: Grid2D | None = None,
    delta: float | None = None,
) -> UpperBoundParts:
    """Upper bracket for sum a_ij f_i (x) f_j via the corner decomposition.

    ``a`` defaults to the n x n identity (the diagonal case).  The rectangle
    part is the +_1 sum norm over R (densities 1/(ts) and 1/((1-t)(1-s))) at
    the optimal theta = 1/2, sqrt(2 int_R v); the four corner strips are
    rank-one products charged by exact interval masses of nu1 and nu2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid is None:
        grid = default_grid()
    if delta is None:
        delta = 1.0 / (math.e**2 * n**2)
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta={delta} outside (0, 1/2)")
    if a is None:
        fro = math.sqrt(n)
        nuc = float(n)
    else:
        a = np.asarray(a, dtype=complex)
        if a.shape != (n, n):
            raise ValueError(f"coefficient matrix must be {n} x {n}")
        fro = float(np.linalg.norm(a, "fro"))
        nuc = float(np.sum(np.linalg.svd(a, compute_uv=False)))
    if fro == 0.0:
        return UpperBoundParts(0.0, 0.0, 0.0, 0.0, 0.0, delta)

    # R row by row: the s nodes each run of t nodes meets (t = 1/2 meets all)
    t, s = grid.rule_t.nodes, grid.rule_s.nodes
    r_integral = sum(_block_integral(grid, t_sel, s_sel) for t_sel, s_sel in (
        (t < delta, s <= 0.5),
        ((t >= delta) & (t < 0.5), s <= 1.0 - delta),
        (t == 0.5, slice(None)),
        ((t > 0.5) & (t <= 1.0 - delta), s >= delta),
        (t > 1.0 - delta, s >= 0.5),
    ))
    # F(1/2) = 2 int_R v is the minimum of the convex, symmetric F(theta)
    rectangle_part = fro * math.sqrt(2.0 * r_integral)

    # corner strips: [0,d]x[1/2,1] and [1/2,1]x[0,d] sit in the mixed slots
    # with masses nu2([0,d]) * nu1([1/2,1]); the thin strips [d,1/2]x[1-d,1]
    # and [1-d,1]x[d,1/2] contribute nu2([d,1/2]) * nu1([1-d,1]).
    strip_a = math.sqrt(nu2_mass(0.0, delta) * nu1_mass(0.5, 1.0))
    strip_b = math.sqrt(nu2_mass(delta, 0.5) * nu1_mass(1.0 - delta, 1.0))
    corner_part = nuc * 2.0 * (strip_a + strip_b)

    # the same split with the proved constants instead of numerics
    analytic_rect = (4.0 * math.sqrt(2.0)
                     + 8.0 * math.sqrt(2.0) / math.pi * math.sqrt(-math.log(delta))) * fro
    analytic_corner = 4.0 * 2.0 ** (13.0 / 4.0) / math.pi * delta**0.25 * nuc
    log_ceiling = CONSTANTS.upper_c * math.sqrt(1.0 + math.log(n)) * fro

    return UpperBoundParts(
        value=rectangle_part + corner_part,
        rectangle_part=rectangle_part,
        corner_part=corner_part,
        analytic_value=analytic_rect + analytic_corner,
        log_ceiling=log_ceiling,
        delta=delta,
    )


@dataclass(frozen=True)
class BracketReport:
    n: int
    lower: float
    upper: float
    pi1_lo: float
    pi1_hi: float
    pi1_lo_method: str
    lambda_lo: float
    lambda_hi: float
    grid: int
    delta_lower: float | None   # None below n = 7, where no witness is built
    delta_upper: float
    upper_parts: UpperBoundParts = field(repr=False)

    def __post_init__(self):
        if self.lower > self.upper:
            raise BoundViolation(
                f"bracket inverted at n={self.n}: lower={self.lower:.6e} > upper={self.upper:.6e}"
            )
        if self.lambda_lo > self.lambda_hi:
            raise BoundViolation(
                f"projection bracket inverted at n={self.n}: "
                f"lo={self.lambda_lo:.6e} hi={self.lambda_hi:.6e}"
            )

    def row(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": self.upper,
            "pi1": {"lo": self.pi1_lo, "hi": self.pi1_hi, "lo_method": self.pi1_lo_method},
            "lambda_cb": {"lo": self.lambda_lo, "hi": self.lambda_hi},
            "grid": self.grid,
            "delta": {"lower": self.delta_lower, "upper": self.delta_upper},
        }


def bracket_report(n: int, grid_nodes: int = DEFAULT_BRACKET_GRID) -> BracketReport:
    """Full bracket bundle for one n on a grid_nodes^2 product rule.

    One upper pass and, for n >= 7, one witness pass; the pi1 and
    projection-constant brackets are derived from those two values.
    """
    grid = default_grid(grid_nodes)
    upper = diag_upper_bound(n, grid=grid)
    if n >= 7:
        lower, witness = _lower_route(n, grid)
        pi1_lo = CONSTANTS.pi1_lo_factor * lower
        pi1_lo_method = "tensor-lower/18"
        delta_lower = witness.delta
    else:
        # below the quadrature route, chain the small-n summing-norm floor
        # back through the tensor-norm comparison: norm >= pi1 / 6
        pi1_lo = CONSTANTS.banach_c * math.sqrt(n)
        lower = pi1_lo / CONSTANTS.pi1_hi_factor
        pi1_lo_method = "banach-sqrt(n)"
        delta_lower = None
    # trace duality: pi1 times the dual factorisation norm is n, so the
    # projection constant is at most n / pi1_lo
    fac = math.sqrt(n / (1.0 + math.log(n)))
    return BracketReport(
        n=n,
        lower=lower,
        upper=upper.value,
        pi1_lo=pi1_lo,
        pi1_hi=CONSTANTS.pi1_hi_factor * upper.value,
        pi1_lo_method=pi1_lo_method,
        lambda_lo=fac / CONSTANTS.psc_c,
        lambda_hi=min(CONSTANTS.gamma_c * fac, n / pi1_lo),
        grid=grid_nodes,
        delta_lower=delta_lower,
        delta_upper=upper.delta,
        upper_parts=upper,
    )
