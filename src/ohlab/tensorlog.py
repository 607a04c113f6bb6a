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
trace-class constraints are discharged).  A violation raises hard, through
``numlin.require``, naming delta and n.

Upper route: a (x) 1 = a1 + a2 for a = I_n.  a1 lives on a region R of four
rectangles avoiding the corners (0,1) and (1,0), in the +_1 sum of the
Hilbertian slots, where 1_R has norm min_theta F(theta)^{1/2} for the convex
F(theta) = int_R 1/(theta ts + (1-theta)(1-t)(1-s)).  R and mu x mu are
symmetric under (t,s) -> (1-t,1-s), so F(theta) = F(1-theta) and the minimum
is F(1/2) = 2 int_R v.  The corner remainder a2 is four rank-one strips,
charged in the trace-class slots by 1-D interval masses of nu1 = t^{-1} mu
and nu2 = (1-t)^{-1} mu.  With delta = 1/(e^2 n^2) the total is at most
18 sqrt(1 + ln n) ||a||_2 = 18 sqrt(n (1 + ln n)), the paper's upper
constant, which ``diag_upper_bound`` checks through ``numlin.require``.

Closed forms.  Under t = (1 - cos alpha)/2, s = (1 - cos beta)/2 the measure
mu x mu becomes d alpha d beta / pi^2 and v = 2 / (1 + cos alpha cos beta).
The inner integral is (2 / sin alpha) atan(tan(alpha/2) tan(beta/2)), and
with x = tan(alpha/2) the outer one is the inverse tangent integral
Ti2(x) = int_0^x atan(y)/y dy, closed by the reflection Ti2(x) - Ti2(1/x) =
(pi/2) ln x (Lewin, Polylogarithms and Associated Functions, 1981, ch. 2).
With u = sqrt(delta/(1-delta)) = tan(alpha_delta/2) and Catalan's constant G:

    pairing P = ||f||^2 + ||g||^2 = (4/pi^2) [(pi/2) ln(1/u) + 2 Ti2(u) - 2G]
    int_R v                       = (8/pi^2) [(pi/2) ln(1/u) + 2 Ti2(u) - G]
    ||h||^2 = (1-u) [(1+u)(pi/2 - 2 atan u) - (1-u)] / pi^2,  ||k||^2 = ||h||^2 / u^2

and nu1([a,1]) = (2/pi) sqrt((1-a)/a) gives the strip masses

    nu2([0,delta]) = nu1([1-delta,1]) = (2/pi) u,   nu1([1/2,1]) = 2/pi,
    nu2([delta,1/2]) = (2/pi) (1-u),

so the four strips, each charged sqrt of its two masses, cost
n (4/pi) sqrt(u) (1 + sqrt(1-u)), with no difference 1 - (1 - delta) formed.

For u <= 1/2 (delta <= 1/5; a larger delta raises ValueError) Ti2(u) is the
alternating series sum_{k<25} (-1)^k u^(2k+1)/(2k+1)^2, off by less than its
first omitted term, u^51/51^2 <= 1.7e-19.  Each value carries that bound plus
an outward slack of c eps times the magnitudes of the terms it sums
(``numlin.Bounded.from_terms``); a term takes a handful of roundings, u's
included (libm's log and atan are within one ulp), so c = 64
(``numlin.ROUNDING``) also covers the final scaling.  Lower, upper and every
check take the safe end of each enclosure, each check clears its analytic
bound by c eps |bound|, and the corner part, a few roundings from u, gets
1 + c eps.

``bracket_report`` computes the two brackets once per n and derives the rest
by arithmetic: the completely-1-summing norm of the identity lies in
[lower/18, 6 upper] (below n = 7, where the witness route does not apply, its
floor is banach_c sqrt(n)), and by trace duality the projection constant lies
in [fac/psc_c, min(gamma_c fac, n/pi1_lo)] with fac = sqrt(n/(1 + ln n)).

Every bracket is a closed form in ``math``, so a cold ``bracket`` command
never loads numpy.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .numlin import ROUNDING, Bounded, require

__all__ = [
    "WitnessQuadruple",
    "WitnessNorms",
    "CONSTANT_TABLE",
    "CONSTANTS",
    "provenance",
    "UpperBoundParts",
    "BracketReport",
    "ti2",
    "pairing",
    "r_integral",
    "hk_sq",
    "witness_build",
    "witness_validate",
    "diag_upper_bound",
    "bracket_report",
]


# (name, value, the inequality it certifies), in report order
CONSTANT_TABLE = (
    ("lower_c", 1.0 / (16.0 * math.sqrt(2.0) * math.pi),
     "diagonal tensor norm >= lower_c * sqrt(n(1+ln n)) for n >= 7"),
    ("upper_c", 18.0,
     "tensor norm <= upper_c * sqrt(1+ln n) * ||a||_2"),
    ("pi1_lo_factor", 1.0 / 18.0,
     "completely-1-summing norm of the identity >= pi1_lo_factor * tensor norm"),
    ("pi1_hi_factor", 6.0,
     "completely-1-summing norm of the identity <= pi1_hi_factor * tensor norm"),
    ("psc_c", 108.0,
     "projection constant >= (1/psc_c) * sqrt(n/(1+ln n))"),
    ("gamma_c", 288.0 * math.sqrt(2.0) * math.pi,
     "projection constant <= gamma_c * sqrt(n/(1+ln n))"),
    ("banach_c", 2.0 / math.sqrt(math.pi),
     "completely-1-summing norm of the identity >= banach_c * sqrt(n) (small-n fallback)"),
    ("witness_scale_c", 4.0 * math.sqrt(2.0) / math.pi,
     "witness scale divisor witness_scale_c * sqrt(-ln delta) makes the quadruple feasible"),
)

# read-only attribute access to the table's values: CONSTANTS.lower_c, ...
CONSTANTS = NamedTuple("Constants", [(name, float) for name, _, _ in CONSTANT_TABLE])(
    *(value for _, value, _ in CONSTANT_TABLE))


def provenance() -> list[dict]:
    """name/value/citation rows of the constant table, for machine-readable reports."""
    return [{"name": name, "value": value, "citation": citation} for name, value, citation in CONSTANT_TABLE]

CATALAN = 0.915965594177219015054603514932384110774
TI2_TERMS = 25


def _u(delta: float) -> float:
    """u = tan(alpha_delta / 2) = sqrt(delta / (1 - delta)), inside the series' domain."""
    if not 0.0 < delta <= 0.2:
        raise ValueError(f"delta={delta} outside (0, 1/5]: the Ti2 series needs u <= 1/2")
    return math.sqrt(delta / (1.0 - delta))


def ti2(u: float) -> Bounded:
    """Inverse tangent integral int_0^u atan(y)/y dy for 0 <= u <= 1/2, by its series."""
    if not 0.0 <= u <= 0.5:
        raise ValueError(f"u={u} outside [0, 1/2]")
    terms = [(-1) ** k * u ** (2 * k + 1) / (2 * k + 1) ** 2 for k in range(TI2_TERMS)]
    m = 2 * TI2_TERMS + 1
    return Bounded.from_terms(terms, trunc=u**m / m**2)


def _log_form(delta: float, catalans: float, factor: float) -> Bounded:
    """factor [(pi/2) ln(1/u) + 2 Ti2(u) - catalans G], the shape of both v integrals."""
    u = _u(delta)
    t = ti2(u)
    return Bounded.from_terms([-0.5 * math.pi * math.log(u), 2.0 * t.value, -catalans * CATALAN],
                              2.0 * t.err, factor)


def pairing(delta: float) -> Bounded:
    """Witness pairing P = int_I v d(mu x mu), which also equals ||f||^2 + ||g||^2."""
    return _log_form(delta, 2.0, 4.0 / math.pi**2)


def r_integral(delta: float) -> Bounded:
    """int_R v d(mu x mu) over the upper route's region R."""
    return _log_form(delta, 1.0, 8.0 / math.pi**2)


def hk_sq(delta: float) -> tuple[Bounded, Bounded]:
    """The trace-class slot norms ||h||^2 and ||k||^2 = ||h||^2 / u^2 of the witness."""
    u = _u(delta)
    terms = [0.5 * math.pi * (1.0 + u), -2.0 * (1.0 + u) * math.atan(u), u - 1.0]
    return (Bounded.from_terms(terms, factor=(1.0 - u) / math.pi**2),
            Bounded.from_terms(terms, factor=(1.0 - u) / (math.pi * u) ** 2))


class WitnessQuadruple(NamedTuple("WitnessQuadruple", [("delta", float), ("scale", float)])):
    """Analytic rectangle witness (f, g, h, k) = (ts, (1-t)(1-s), t(1-s), (1-t)s) * v.

    The common factor v(t,s) = 1/(ts + (1-t)(1-s)) restricted to
    I = [delta, 1/2] x [1/2, 1-delta] makes the four ratio constraints hold
    identically; ``scale`` divides all four components for feasibility.
    The closed forms integrate it; its pointwise form, which the tests
    compare them against, is ``witness_v`` in ``tests/reference.py``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta={self.delta} outside (0, 1/2)")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        return self


def witness_build(n: int, delta: float | None = None) -> WitnessQuadruple:
    """Witness for size n with the canonical delta = 1/(n e) and scale."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta is None:
        delta = 1.0 / (n * math.e)
    scale = CONSTANTS.witness_scale_c * math.sqrt(-math.log(delta))
    return WitnessQuadruple(delta=delta, scale=scale)


class WitnessNorms(NamedTuple):
    """Unscaled witness integrals as enclosures, and their analytic bounds."""

    pairing: Bounded        # int_I v d(mu x mu), which is also ||f||^2 + ||g||^2
    h_sq: Bounded           # ||h||^2_{L2(nu1xnu2)}
    k_sq: Bounded           # ||k||^2_{L2(nu2xnu1)}
    fg_bound: float         # ceiling of the pairing as ||f||^2 + ||g||^2
    h_bound: float
    k_bound: float
    pairing_bound: float    # floor of the pairing


def witness_validate(q: WitnessQuadruple, n: int | None = None) -> WitnessNorms:
    """Witness integrals in closed form; the safe end of each enclosure must
    clear its analytic bound by ROUNDING |bound| or raise.  Given ``n``, the
    scaled quadruple must also be feasible for the size-n pairing, with the
    same margin."""
    p = pairing(q.delta)
    h, k = hk_sq(q.delta)
    norms = WitnessNorms(
        pairing=p,
        h_sq=h,
        k_sq=k,
        fg_bound=16.0 / math.pi**2 * (-math.log(q.delta)),
        h_bound=16.0 / (3.0 * math.pi**2),
        k_bound=32.0 / math.pi**2 / q.delta,
        pairing_bound=(-math.log(8.0 * q.delta)) / math.pi**2,
    )
    at = {"delta": q.delta} if n is None else {"n": n, "delta": q.delta}
    for claim, value, bound in (("||f||^2 + ||g||^2 <= 16 pi^-2 (-ln delta)", p.hi, norms.fg_bound),
                                ("||h||^2 <= 16 / (3 pi^2)", h.hi, norms.h_bound),
                                ("||k||^2 <= 32 pi^-2 / delta", k.hi, norms.k_bound)):
        require(claim, value, bound, -ROUNDING * abs(bound), **at)
    require("(-ln 8 delta) / pi^2 <= pairing", norms.pairing_bound, p.lo,
            -ROUNDING * abs(norms.pairing_bound), **at)
    if n is not None:
        sc2 = q.scale**2
        require("||f||^2 + ||g||^2 <= scale^2", p.hi, sc2, -ROUNDING * sc2, **at)
        require("max(||h||^2, ||k||^2) <= n scale^2", max(h.hi, k.hi), n * sc2, -ROUNDING * n * sc2, **at)
    return norms


def _lower_route(n: int) -> tuple[float, WitnessQuadruple]:
    """Certified lower bracket for n >= 7 and the witness that proves it."""
    if n < 7:
        raise ValueError("witness lower route needs n >= 7")
    q = witness_build(n)
    value = math.sqrt(n) * witness_validate(q, n=n).pairing.lo / q.scale
    floor = CONSTANTS.lower_c * math.sqrt(n * (1.0 + math.log(n)))
    require("lower_c sqrt(n (1 + ln n)) <= lower bracket", floor, value, -ROUNDING * floor,
            n=n, delta=q.delta)
    return value, q


class UpperBoundParts(NamedTuple):
    value: float            # certified total (rectangle part + corner part)
    rectangle_part: float
    corner_part: float
    log_ceiling: float      # upper_c * sqrt(1+ln n) * ||a||_2, which value must clear
    delta: float


def diag_upper_bound(n: int, delta: float | None = None) -> UpperBoundParts:
    """Upper bracket for sum_i f_i (x) f_i (a = I_n) via the corner decomposition.

    The rectangle part is the +_1 sum norm over R (densities 1/(ts) and
    1/((1-t)(1-s))) at the optimal theta = 1/2, ||a||_2 sqrt(2 int_R v) with
    int_R v at the upper end of its enclosure; the four corner strips are
    rank-one products charged by their nu1 and nu2 masses, closed forms in u.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta is None:
        # delta is subnormal above n ~ 2.47e153, and e^2 n^2 overflows above n ~ 1.3e154
        delta = 1.0 / (math.e**2 * n**2) if n <= 1e154 else 0.0
        if delta < sys.float_info.min:
            raise ValueError(f"n={n} too large: delta = 1/(e^2 n^2) is not a positive normal float")
    region = r_integral(delta)
    fro = math.sqrt(n)  # ||I_n||_2; its nuclear norm is n

    # F(1/2) = 2 int_R v is the minimum of the convex, symmetric F(theta)
    rectangle_part = fro * math.sqrt(2.0 * region.hi)

    # corner strips: [0,d]x[1/2,1] and [1/2,1]x[0,d] sit in the mixed slots
    # with masses nu2([0,d]) nu1([1/2,1]) = (2/pi)^2 u; the thin strips
    # [d,1/2]x[1-d,1] and [1-d,1]x[d,1/2] with nu2([d,1/2]) nu1([1-d,1]) =
    # (2/pi)^2 (1-u) u.  Each of the four costs n sqrt(its masses' product).
    u = _u(delta)
    corner_part = 4.0 / math.pi * n * math.sqrt(u) * (1.0 + math.sqrt(1.0 - u)) * (1.0 + ROUNDING)
    value = rectangle_part + corner_part

    # the paper's upper constant: the bracket must clear it by ROUNDING |ceiling|
    log_ceiling = CONSTANTS.upper_c * math.sqrt(1.0 + math.log(n)) * fro
    require("upper <= upper_c sqrt(1 + ln n) ||a||_2", value, log_ceiling, -ROUNDING * log_ceiling,
            n=n, delta=delta)

    return UpperBoundParts(
        value=value,
        rectangle_part=rectangle_part,
        corner_part=corner_part,
        log_ceiling=log_ceiling,
        delta=delta,
    )


class BracketReport(NamedTuple("BracketReport", [
    ("n", int),
    ("lower", float),
    ("upper", float),
    ("pi1_lo", float),
    ("pi1_hi", float),
    ("pi1_lo_method", str),
    ("lambda_lo", float),
    ("lambda_hi", float),
    ("delta_lower", float | None),   # None below n = 7, where no witness is built
    ("delta_upper", float),
    ("upper_parts", UpperBoundParts),
])):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        at = {"n": self.n, "delta_lower": self.delta_lower, "delta_upper": self.delta_upper}
        require("lower <= upper", self.lower, self.upper, **at)
        require("lambda_cb.lo <= lambda_cb.hi", self.lambda_lo, self.lambda_hi, **at)
        # every projection onto a nonzero space has norm >= 1, and the
        # identity of an n-dimensional space has pi1 <= n
        require("1 <= lambda_cb.hi", 1.0, self.lambda_hi, **at)
        require("pi1.lo <= n", self.pi1_lo, self.n, **at)
        return self

    def row(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": self.upper,
            "pi1": {"lo": self.pi1_lo, "hi": self.pi1_hi, "lo_method": self.pi1_lo_method},
            "lambda_cb": {"lo": self.lambda_lo, "hi": self.lambda_hi},
            "delta": {"lower": self.delta_lower, "upper": self.delta_upper},
        }


def bracket_report(n: int) -> BracketReport:
    """Full bracket bundle for one n: one upper-route and, for n >= 7, one
    witness evaluation, from which the pi1 and projection brackets follow."""
    upper = diag_upper_bound(n)
    if n >= 7:
        lower, witness = _lower_route(n)
        pi1_lo = CONSTANTS.pi1_lo_factor * lower
        pi1_lo_method = "tensor-lower/18"
        delta_lower = witness.delta
    else:
        # below the witness route, chain the small-n summing-norm floor
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
        delta_lower=delta_lower,
        delta_upper=upper.delta,
        upper_parts=upper,
    )
