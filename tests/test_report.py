"""Report.to_json writes exactly the bytes of json.dumps(indent=2, sort_keys=True)."""

import json
import re

import numpy as np
import pytest

from ohlab import cli
from ohlab.report import Report


def reference(rep: Report) -> str:
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def run(argv) -> Report:
    report, _ = cli.RUNNERS[argv[0]](cli.build_parser().parse_args(argv))
    return report


@pytest.mark.parametrize("argv", [
    ["pw", "--dim", "2", "--trials", "2", "--nodes", "256", "--seed", "5"],
    ["ohnorm", "--n", "2", "--m", "2", "--trials", "2", "--seed", "5"],
    ["basis", "--n", "2", "--nodes", "256", "--vectors", "3", "--seed", "5"],
    ["sumspace", "--points", "6", "--t-sweep", "0.1,1", "--seed", "5"],
    ["bracket", "--n-list", "4,8,4096", "--grid", "128", "--seed", "5"],
    ["free", "--dim", "32", "--summands", "3", "--trials", "2", "--seed", "5"],
    ["fock", "--cutoff", "5", "--kmax", "3", "--seed", "5"],
], ids=lambda argv: argv[0])
def test_seeded_reports_match_json(argv):
    rep = run(argv)
    assert rep.to_json() == reference(rep)


def test_merged_report_matches_json(tmp_path):
    paths = []
    for n in ("16", "8"):
        path = tmp_path / f"b{n}.json"
        path.write_text(run(["bracket", "--n-list", n]).to_json())
        paths.append(str(path))
    rep = run(["report", *paths])
    assert rep.to_json() == reference(rep)


ODD = "q\"b\\s/c\x00\x1f\x7f\n\té☃\U0001f600"

EDGE_VALUES = [
    pytest.param({}, id="empty-dict"),
    pytest.param([], id="empty-list"),
    pytest.param([{"b": [1, {}], "a": []}, [[], [{}]]], id="nested-lists-of-dicts"),
    pytest.param((1, (2.5, "x"), ()), id="tuples"),
    pytest.param([True, False, None], id="bool-and-none"),
    pytest.param([2**53 + 1, -(2**64), 10**40], id="big-ints"),
    pytest.param([-0.0, 0.0, 1e-320, 5e-324, 1.7976931348623157e308, 0.1 + 0.2], id="floats"),
    pytest.param([np.float64(0.1), np.float64(-0.0), np.float64(1e-320)], id="np-float64"),
    pytest.param({ODD: ODD, "": "", "é": [ODD]}, id="escaped-strings"),
]


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_edge_shapes_match_json(value):
    rep = Report("edge", {"value": value, ODD: [value]}, [{"v": value}, value])
    assert rep.to_json() == reference(rep)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                         ids=["nan", "inf", "-inf", "np-nan"])
def test_non_finite_raises_like_json(bad):
    rep = Report("demo", {}, [{"x": [bad]}])
    with pytest.raises(ValueError) as theirs:
        reference(rep)
    with pytest.raises(ValueError, match=f"^{re.escape(str(theirs.value))}$"):
        rep.to_json()


@pytest.mark.parametrize("params", [
    pytest.param({"x": np.int64(3)}, id="np-int64"),
    pytest.param({"x": {1, 2}}, id="set"),
    pytest.param({1: "int key"}, id="int-key"),
])
def test_other_types_raise_type_error(params):
    with pytest.raises(TypeError):
        Report("demo", params, []).to_json()
