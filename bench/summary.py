"""Strict JSON parsing and the order statistics the benchmark reports."""

from __future__ import annotations

import json
import statistics


class StrictJSONError(ValueError):
    """Text that RFC 8259 does not allow, such as NaN or Infinity."""


def _reject_constant(token: str):
    raise StrictJSONError(f"non-finite number {token} is not valid JSON")


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise StrictJSONError(str(exc)) from exc


def tail(samples) -> tuple[float, float | None]:
    """The highest percentile with at least ten samples beyond it.

    With samples sorted as x_1 <= ... <= x_n, the nearest-rank p-th
    percentile is x_ceil(pn/100) and n - ceil(pn/100) samples lie beyond it,
    so the highest qualifying percentile is p = 100 (n - 10) / n with value
    x_(n-10).  Returns (value, p).  Below eleven samples no percentile has
    ten samples beyond it; the maximum is returned with p = None.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n < 11:
        return xs[-1], None
    return xs[n - 11], 100.0 * (n - 10) / n


def tail_label(p: float | None, n: int) -> str:
    if p is None:
        return f"max of {n} samples (fewer than 11, so no percentile has ten beyond it)"
    return f"p{p:.1f} of {n} samples (10 beyond it)"


def median(samples) -> float:
    return statistics.median(samples)

