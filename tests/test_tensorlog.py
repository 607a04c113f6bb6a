import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from ohlab import kfunc, quad, tensorlog
from ohlab.numlin import ROUNDING, Bounded, BoundViolation
from ohlab.tensorlog import (
    CONSTANTS,
    TI2_TERMS,
    BracketReport,
    bracket_report,
    diag_upper_bound,
    hk_sq,
    pairing,
    r_integral,
    ti2,
    witness_build,
    witness_validate,
)
from reference import integrate_mu, witness_quadruple, witness_v


class TestConstants:
    def test_fixed_values(self):
        assert CONSTANTS.lower_c == pytest.approx(1 / (16 * math.sqrt(2) * math.pi), rel=1e-15)
        assert CONSTANTS.upper_c == 18.0
        assert CONSTANTS.pi1_lo_factor == pytest.approx(1 / 18)
        assert CONSTANTS.pi1_hi_factor == 6.0
        assert CONSTANTS.psc_c == 108.0
        assert CONSTANTS.gamma_c == pytest.approx(288 * math.sqrt(2) * math.pi, rel=1e-15)
        assert CONSTANTS.banach_c == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)

    def test_provenance_rows(self):
        rows = tensorlog.provenance()
        assert {r["name"] for r in rows} >= {"lower_c", "upper_c", "psc_c", "gamma_c"}
        assert all(set(r) == {"name", "value", "citation"} for r in rows)

    def test_read_only(self):
        with pytest.raises(AttributeError):
            CONSTANTS.lower_c = 1.0
        assert CONSTANTS.lower_c == tensorlog.CONSTANT_TABLE[0][1]


def oracle_strip_masses(delta):
    """nu2([0,delta]), nu1([1/2,1]), nu2([delta,1/2]) and nu1([1-delta,1]) at 40 digits.

    In the angle variable t = sin^2(a/2) the measure mu is da/pi and the
    density 1/(1-t) of nu2 is 1/cos^2(a/2); the symmetry t -> 1-t of mu gives
    nu1([x,y]) = nu2([1-y,1-x]).  So each mass is a quadrature between two
    angles, and the angle of delta, 2 asin(sqrt(delta)), keeps its digits at
    any delta, where 1 - delta would not.  Each quadrature runs on [0, 1],
    scaled from its angles, so that a tiny interval keeps its relative accuracy.
    """
    with mp.workdps(40):
        def nu2(lo, hi):
            return (hi - lo) * mp.quad(lambda x: 1 / mp.cos((lo + (hi - lo) * x) / 2) ** 2, [0, 1]) / mp.pi

        angle = 2 * mp.asin(mp.sqrt(mp.mpf(delta)))
        edge = nu2(0, angle)
        return edge, nu2(0, mp.pi / 2), nu2(angle, mp.pi / 2), edge


def oracle_corner_part(n, delta):
    """The upper route's four corner strips, each charged n sqrt(its nu2 mass x its nu1 mass)."""
    edge, half, thin, far = oracle_strip_masses(delta)
    with mp.workdps(40):
        return 2 * n * (mp.sqrt(edge * half) + mp.sqrt(thin * far))


class TestStripMasses:
    """The corner strips' masses are (2/pi) u, 2/pi, (2/pi)(1-u) and (2/pi) u
    with u = sqrt(delta/(1-delta)), the closed forms ``diag_upper_bound`` charges."""

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.2])
    def test_against_quadrature(self, delta):
        r = quad.arcsine_rule(2**16)
        t = r.nodes
        u = tensorlog._u(delta)
        for (lo, hi), density, closed in [((0.0, delta), 1.0 / (1.0 - t), u),
                                          ((0.5, 1.0), 1.0 / t, 1.0),
                                          ((delta, 0.5), 1.0 / (1.0 - t), 1.0 - u),
                                          ((1.0 - delta, 1.0), 1.0 / t, u)]:
            mass = integrate_mu(np.where((t >= lo) & (t <= hi), density, 0.0), r)
            # the rule is the midpoint rule in angle: each end of the interval
            # misplaces less than one node's weight 1/N times a density <= 2
            assert mass == pytest.approx(2.0 / math.pi * closed, abs=4.0 / r.n_nodes)

    def test_against_mpmath(self):
        # at the upper route's delta = 1/(e^2 n^2), where 1 - (1 - delta) loses
        # every digit from n ~ 5e7 on; the corner part is at least its oracle
        # by the outward factor 1 + ROUNDING, less its few roundings
        for n in (8, 4096, 10**7, 49375943, 10**8, 10**12, 10**150):
            parts = diag_upper_bound(n)
            masses = oracle_strip_masses(parts.delta)
            with mp.workdps(40):
                u = mp.sqrt(mp.mpf(parts.delta) / (1 - mp.mpf(parts.delta)))
                for mass, closed in zip(masses, (u, 1, 1 - u, u)):
                    assert abs(mass / (2 / mp.pi * closed) - 1) < mp.mpf(10) ** -35, n
                ratio = parts.corner_part / oracle_corner_part(n, parts.delta)
                assert 1 + ROUNDING / 2 <= ratio <= 1 + 2 * ROUNDING, n


class TestWitness:
    def test_ratio_value_at_center(self):
        q = witness_build(8, delta=0.1)
        assert witness_v(q.delta, 0.25, 0.75) > 0.0
        # v(1/2,1/2) = 2, on the rectangle boundary
        assert witness_v(q.delta, 0.5, 0.5) == pytest.approx(2.0)

    def test_component_sums_on_rectangle(self):
        q = witness_build(16)
        t = np.linspace(q.delta + 1e-3, 0.5 - 1e-3, 7)
        s = np.linspace(0.5 + 1e-3, 1 - q.delta - 1e-3, 7)
        T, S = np.meshgrid(t, s, indexing="ij")
        # the Hilbertian pair adds up to (ts + (1-t)(1-s)) v = 1 on I, and the
        # four coefficient polynomials add up to 1, so the quadruple sums to v
        f, g, h, k = witness_quadruple(q.delta, T, S)
        assert np.max(np.abs(f + g - 1.0)) < 1e-12
        assert np.max(np.abs(f + g + h + k - witness_v(q.delta, T, S))) < 1e-12

    def test_ratio_constraints_identical(self):
        q = witness_build(9)
        t, s = 0.3, 0.8
        v = witness_v(q.delta, t, s)
        f, g, h, k = witness_quadruple(q.delta, t, s)
        assert f / (t * s) == pytest.approx(v, rel=1e-14)
        assert g / ((1 - t) * (1 - s)) == pytest.approx(v, rel=1e-14)
        assert h / (t * (1 - s)) == pytest.approx(v, rel=1e-14)
        assert k / ((1 - t) * s) == pytest.approx(v, rel=1e-14)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            witness_build(8, delta=0.7)
        with pytest.raises(ValueError):
            witness_build(8, delta=0.0)

    def test_validate_canonical_n7(self):
        q = witness_build(7)
        # given n, the scaled quadruple's feasibility is checked too
        norms = witness_validate(q, n=7)
        assert norms.pairing.hi <= norms.fg_bound
        assert norms.h_sq.hi <= norms.h_bound
        assert norms.k_sq.hi <= norms.k_bound
        assert norms.pairing.lo >= norms.pairing_bound

    @pytest.mark.parametrize("delta", [1e-2, 1e-4])
    def test_validate_audit_deltas(self, delta):
        q = witness_build(8, delta=delta)
        norms = witness_validate(q)
        # strictly below the analytic ceilings, strictly above the floor
        assert norms.pairing.hi < norms.fg_bound
        assert norms.h_sq.hi < norms.h_bound
        assert norms.k_sq.hi < norms.k_bound
        assert norms.pairing.lo > norms.pairing_bound

    @pytest.mark.parametrize("delta", [0.15, 0.2])
    def test_validate_negative_pairing_floor(self, delta):
        # -ln(8 delta) / pi^2 < 0 for delta > 1/8: the floor's rounding margin
        # is |floor|, so the check stays stricter than the floor itself
        norms = witness_validate(witness_build(8, delta=delta))
        assert norms.pairing_bound < 0.0 < norms.pairing.lo

    @pytest.mark.parametrize("delta", [0.2000001, 0.3, 0.499])
    def test_delta_above_one_fifth_rejected(self, delta):
        # the Ti2 series covers u = sqrt(delta/(1-delta)) <= 1/2 only
        with pytest.raises(ValueError, match="1/5"):
            witness_validate(witness_build(8, delta=delta))
        with pytest.raises(ValueError, match="1/5"):
            diag_upper_bound(8, delta=delta)

    @pytest.mark.parametrize("shift, claim", [
        (1e3, "||f||^2 + ||g||^2 <= 16 pi^-2 (-ln delta)"),
        (-1e3, "(-ln 8 delta) / pi^2 <= pairing"),
    ])
    def test_violation_names_delta_and_n(self, shift, claim, monkeypatch):
        # a shifted pairing enclosure breaks one analytic bound; the raised
        # line names that inequality and delta, and n once the lower route
        # passes it
        closed = tensorlog.pairing

        def shifted(delta):
            p = closed(delta)
            return Bounded(p.value + shift, p.err)

        monkeypatch.setattr(tensorlog, "pairing", shifted)
        q = witness_build(8)
        with pytest.raises(BoundViolation) as exc:
            witness_validate(q)
        assert str(exc.value).startswith(f"{claim} fails at delta={q.delta}: ")
        with pytest.raises(BoundViolation) as exc:
            tensorlog._lower_route(8)
        assert str(exc.value).startswith(f"{claim} fails at n=8, delta={q.delta}: ")

    def test_lower_floor_violation_names_n_and_delta(self, monkeypatch):
        monkeypatch.setattr(tensorlog, "CONSTANTS", CONSTANTS._replace(lower_c=1.0))
        with pytest.raises(BoundViolation) as exc:
            tensorlog._lower_route(8)
        assert str(exc.value).startswith(
            f"lower_c sqrt(n (1 + ln n)) <= lower bracket fails at n=8, delta={witness_build(8).delta}: ")


def diag_lower_bound(n: int) -> float:
    """Certified lower bracket for n >= 7 from the rectangle witness; it
    dominates lower_c * sqrt(n (1 + ln n)), and every check raises BoundViolation."""
    return tensorlog._lower_route(n)[0]


class TestLowerBound:
    def test_floor_at_n7(self):
        val = diag_lower_bound(7)
        assert val >= CONSTANTS.lower_c * math.sqrt(7 * (1 + math.log(7)))

    def test_requires_n7(self):
        with pytest.raises(ValueError):
            diag_lower_bound(6)

    def test_monotone_under_doubling(self):
        vals = [diag_lower_bound(n) for n in (8, 16, 32, 64, 128)]
        assert np.all(np.diff(vals) > 0)

    def test_ratio_window_large_n(self):
        n = 4096
        val = diag_lower_bound(n)
        target = math.sqrt(n * (1 + math.log(n)))
        assert CONSTANTS.lower_c <= val / target <= 1.0


class TestUpperBound:
    def test_log_ceiling_diagonal(self):
        for n in (1, 4, 8, 64):
            parts = diag_upper_bound(n)
            assert parts.value <= parts.log_ceiling
            assert parts.log_ceiling == pytest.approx(CONSTANTS.upper_c * math.sqrt(n * (1 + math.log(n))), rel=1e-15)

    def test_upper_above_the_paper_constant_raises(self, monkeypatch):
        # the upper sits at about a tenth of 18 sqrt(1 + ln n) ||a||_2; with
        # a constant of 1 the ceiling is below it, and the check names n
        monkeypatch.setattr(tensorlog, "CONSTANTS", CONSTANTS._replace(upper_c=1.0))
        with pytest.raises(BoundViolation, match=r"upper <= upper_c sqrt\(1 \+ ln n\) \|\|a\|\|_2 fails at n=8"):
            diag_upper_bound(8)

    def test_orders_against_lower(self):
        lo = diag_lower_bound(8)
        up = diag_upper_bound(8)
        assert lo <= up.value


class TestBrackets:
    def test_pi1_consistency(self):
        methods = {}
        for n in (4, 8, 64):
            rep = bracket_report(n)
            assert 0 < rep.pi1_lo <= rep.pi1_hi
            assert rep.pi1_lo <= n  # trivial trace-duality ceiling on the summing norm
            methods[n] = rep.pi1_lo_method
        assert methods[4] == "banach-sqrt(n)"
        assert methods[8] == "tensor-lower/18"

    def test_lambda_bracket_contains_scaled_target(self):
        for n in (8, 64, 256):
            rep = bracket_report(n)
            lo, hi = rep.lambda_lo, rep.lambda_hi
            fac = math.sqrt(n / (1 + math.log(n)))
            assert lo == pytest.approx(fac / CONSTANTS.psc_c, rel=1e-12)
            assert hi <= CONSTANTS.gamma_c * fac * (1 + 1e-12)
            assert lo <= hi

    def test_trace_duality_arithmetic(self):
        for n in (4, 64):
            rep = bracket_report(n)
            fac = math.sqrt(n / (1 + math.log(n)))
            assert rep.lambda_hi == min(CONSTANTS.gamma_c * fac, n / rep.pi1_lo)
            assert rep.pi1_hi == 6 * rep.upper
            if n >= 7:
                assert rep.pi1_lo == pytest.approx(rep.lower / 18, rel=1e-15)
            else:
                assert rep.pi1_lo == CONSTANTS.banach_c * math.sqrt(n)
            assert n / rep.pi1_lo >= rep.lambda_lo

    # no quadrature grid and no theta search: one upper and one witness evaluation
    @pytest.mark.parametrize("n, counts", [(8, (1, 1, 0, 0)), (4, (1, 0, 0, 0))])
    def test_each_bracket_computed_once_per_n(self, n, counts, monkeypatch):
        calls = {"upper": 0, "witness": 0, "meshes": 0, "theta_search": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tensorlog, "diag_upper_bound", counting("upper", tensorlog.diag_upper_bound))
        monkeypatch.setattr(tensorlog, "witness_validate", counting("witness", tensorlog.witness_validate))
        monkeypatch.setattr(quad.Grid2D, "meshes", counting("meshes", quad.Grid2D.meshes))
        # l2sum1_norm runs its theta search through kfunc's own minimize_scalar
        monkeypatch.setattr(kfunc, "minimize_scalar", counting("theta_search", kfunc.minimize_scalar))
        bracket_report(n)
        assert tuple(calls.values()) == counts

    def test_inverted_lambda_bracket_raises(self):
        with pytest.raises(BoundViolation, match=r"lambda_cb\.lo <= lambda_cb\.hi fails at n=8"):
            BracketReport(
                n=8, lower=1.0, upper=2.0, pi1_lo=0.1, pi1_hi=1.0,
                pi1_lo_method="x", lambda_lo=2.0, lambda_hi=1.0,
                delta_lower=0.01, delta_upper=0.001,
                upper_parts=diag_upper_bound(8),
            )

    def test_report_row_schema(self):
        rep = bracket_report(8)
        row = rep.row()
        assert set(row) == {"n", "lower", "upper", "pi1", "lambda_cb", "delta"}
        assert set(row["pi1"]) == {"lo", "hi", "lo_method"}
        assert set(row["lambda_cb"]) == {"lo", "hi"}

    def test_inverted_bracket_raises(self):
        with pytest.raises(BoundViolation):
            BracketReport(
                n=8, lower=2.0, upper=1.0, pi1_lo=0.1, pi1_hi=1.0,
                pi1_lo_method="x", lambda_lo=0.1, lambda_hi=1.0,
                delta_lower=0.01, delta_upper=0.001,
                upper_parts=diag_upper_bound(8),
            )

    @pytest.mark.parametrize("n", [8, 4096])
    def test_traced_memory_bounded(self, n):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            bracket_report(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_loglog_slope(self):
        ns = [8, 32, 128, 512]
        mids, targets = [], []
        for n in ns:
            rep = bracket_report(n)
            mids.append(0.5 * (rep.lower + rep.upper))
            targets.append(math.sqrt(n * (1 + math.log(n))))
        slope = np.polyfit(np.log(targets), np.log(mids), 1)[0]
        assert abs(slope - 1.0) <= 0.1


# Oracles for the closed forms.  They never use the Ti2 series or the
# antiderivatives: Ti2(u) is Im Li2(iu) from mpmath's polylog, and the
# trace-class slot norms are 2-D quadratures of the pointwise witness.

SIZES = [7, 8, 64, 4096, 2**14, 2**20]
WITNESS_DELTAS = [1.0 / (n * math.e) for n in SIZES] + [1e-2, 1e-4]  # the last two: criterion 7
UPPER_DELTAS = [1.0 / (math.e**2 * n**2) for n in SIZES]


def oracle_log_part(delta, catalans):
    """(pi/2) ln(1/u) + 2 Ti2(u) - catalans G at u = sqrt(delta/(1-delta)), 40 digits."""
    with mp.workdps(40):
        d = mp.mpf(delta)
        u = mp.sqrt(d / (1 - d))
        return mp.pi / 2 * mp.log(1 / u) + 2 * mp.polylog(2, 1j * u).imag - catalans * mp.catalan


def oracle_pairing(delta):
    return 4 / mp.pi**2 * oracle_log_part(delta, 2)


def oracle_r_integral(delta):
    return 8 / mp.pi**2 * oracle_log_part(delta, 1)


def oracle_slot(q, slot):
    """||h||^2 = int_I h^2/(t(1-s)) or ||k||^2 = int_I k^2/((1-t)s) against mu x mu.

    In the angle variables t = (1 - cos a)/2, s = (1 - cos b)/2 the measure is
    da db / pi^2; a = e^x and pi - b = e^y then spread the peak of v at the
    corner (delta, 1 - delta) over a square on which the integrand is smooth.
    The witness is evaluated at 30 digits, so that 1 - s keeps its digits
    next to s = 1 - delta; the quadrature itself stops at about 1e-13.
    """
    index, density = {"h": (2, lambda t, s: t * (1 - s)), "k": (3, lambda t, s: (1 - t) * s)}[slot]

    @functools.lru_cache(maxsize=None)
    def angle(x, sign):
        with mp.workdps(30):
            a = mp.exp(x)
            return (1 - sign * mp.cos(a)) / 2, a

    def integrand(x, y):
        (t, a), (s, b) = angle(x, 1), angle(y, -1)
        with mp.workdps(30):
            return witness_quadruple(q.delta, t, s)[index] ** 2 / density(t, s) * a * b

    with mp.workdps(30):
        edges = [mp.log(mp.acos(1 - 2 * mp.mpf(q.delta))), mp.log(mp.pi / 2)]
    with mp.workdps(13):
        return mp.quad(integrand, edges, edges, method="gauss-legendre") / mp.pi**2


class TestClosedFormsAgainstOracle:
    def test_ti2_at_half_within_its_bound(self):
        exact = mp.polylog(2, 0.5j).imag
        got = ti2(0.5)
        assert abs(got.value - exact) <= got.err
        # the series itself, in 40 digits, is within its first omitted term
        m = 2 * TI2_TERMS + 1
        with mp.workdps(40):
            half = mp.mpf(0.5)
            series = sum((-1) ** k * half ** (2 * k + 1) / (2 * k + 1) ** 2 for k in range(TI2_TERMS))
            assert abs(series - mp.polylog(2, 1j * half).imag) <= half**m / m**2 < 1.8e-19

    @pytest.mark.parametrize("delta", WITNESS_DELTAS + UPPER_DELTAS)
    def test_pairing_and_region(self, delta):
        for closed, oracle in ((pairing(delta), oracle_pairing(delta)),
                               (r_integral(delta), oracle_r_integral(delta))):
            assert abs(closed.value / oracle - 1) <= 1e-13
            assert closed.lo <= oracle <= closed.hi

    @pytest.mark.parametrize("delta", WITNESS_DELTAS)
    def test_trace_class_slots(self, delta):
        q = witness_build(8, delta=delta)
        for closed, slot in zip(hk_sq(delta), "hk"):
            oracle = oracle_slot(q, slot)
            assert abs(closed.value / oracle - 1) <= 1e-13, slot
            assert closed.hi >= oracle, slot


# the criterion-8 ladder, then sizes where the corner strips lost digits to
# 1 - (1 - delta): the corner part was 0.39 % low at 1e7 and 0 from 49375943 on
BRACKET_SIZES = [8 * 2**k for k in range(10)] + [10**5, 10**6, 10**7, 49375943, 10**8, 10**12,
                                                  pytest.param(10**150, id="1e150")]


@pytest.mark.parametrize("n", BRACKET_SIZES)
def test_reported_brackets_are_bounds(n):
    # lower <= what the witness proves, upper >= what the decomposition
    # proves, every part of both from the oracles at the report's own deltas
    rep = bracket_report(n)
    q = witness_build(n)
    with mp.workdps(40):
        assert rep.lower <= mp.sqrt(n) * oracle_pairing(q.delta) / q.scale
        rectangle = mp.sqrt(n) * mp.sqrt(2 * oracle_r_integral(rep.delta_upper))
        assert rep.upper >= rectangle + oracle_corner_part(n, rep.delta_upper)
