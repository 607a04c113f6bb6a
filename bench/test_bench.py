"""Tests of the benchmark's own arithmetic.  Run with: python -m pytest bench -q"""

import json
import math
from pathlib import Path

import pytest

import run
import summary
import tracing
import workloads


def test_tail_has_ten_samples_beyond_it():
    for n in (11, 12, 45, 100, 1000):
        xs = [float(i) for i in range(n, 0, -1)]
        value, p = summary.tail(xs)
        assert sum(x > value for x in xs) == 10
        assert p == pytest.approx(100.0 * (n - 10) / n)
    assert summary.tail(list(range(100)))[1] == 90.0
    # the next-higher nearest-rank percentile would leave only nine beyond
    value, p = summary.tail(list(range(50)))
    assert value == 39 and p == 80.0


def test_tail_below_eleven_samples_is_the_maximum():
    assert summary.tail([3.0, 1.0, 2.0]) == (3.0, None)
    assert "fewer than 11" in summary.tail_label(None, 3)


def test_self_time_of_nested_spans():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "op": 0, "attrs": None}

    records = [
        span("op", 0.0, 10.0, None),
        span("kfunc.a", 1.0, 4.0, 0),
        span("linalg.b", 2.0, 3.0, 1),
        span("quad.c", 5.0, 9.0, 0),
        span("quad.d", 3.5, 6.0, 0),     # overlaps both siblings: counted once
        span("quad.e", 8.0, 12.0, 3),    # runs past its parent: clipped
    ]
    assert tracing.self_times(records) == pytest.approx([2.0, 2.0, 1.0, 3.0, 2.5, 4.0])
    m = tracing.layer_metrics(records, n_ops=2)
    assert m["op.self_s"] == pytest.approx(1.0)
    assert m["quad.self_s"] == pytest.approx((3.0 + 2.5 + 4.0) / 2)


def test_strict_json_rejects_non_finite_numbers():
    assert summary.strict_loads('{"a": 1.5}') == {"a": 1.5}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(summary.StrictJSONError):
            summary.strict_loads('{"delta": {"lower": %s}}' % token)


def test_nan_bracket_row_is_a_known_defect_failure():
    [op] = workloads.defect_checks("bracket-ladder", 0)
    payload = json.dumps({"experiment": "bracket", "rows": [{"n": 4, "lower": math.nan}]}).encode()
    reason = workloads.check_output(op, 0, payload)
    assert reason.startswith("invalid JSON")
    assert workloads.known_defect(op.label, reason)
    assert workloads.known_defect(op.label, "exit code 1") is None


def test_no_op_of_a_workload_is_a_defect_check():
    for w in workloads.WORKLOADS:
        labels = {op.label for op in workloads.cycle(w, 0, Path("."))}
        assert not labels & {op.label for op in workloads.defect_checks(w, 0)}
        assert not labels & set(workloads.KNOWN_DEFECTS)


def test_import_time_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     _ctypes",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy",
        "import time:        10 |         10 |       pickle",
        "import time:        30 |         90 |     scipy.optimize",
        "import time:        40 |        130 |   ohlab.kfunc",
        "import time:         5 |        435 | ohlab",
    ])
    got = run.import_times(text)
    assert got["numpy"] == pytest.approx(300e-6)
    assert got["scipy"] == pytest.approx(90e-6)     # pickle was imported by scipy.optimize
    assert got["ohlab"] == pytest.approx(45e-6)


def test_benchmark_json_declares_the_metrics_the_code_reports():
    run.check_spec()
