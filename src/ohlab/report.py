"""Machine-readable experiment reports.

JSON is the canonical serialisation.  The canonical bytes are those of
``json.dumps(d, indent=2, sort_keys=True, allow_nan=False) + "\n"``: keys
sorted, two-space indent, ASCII-escaped strings, floats written with Python's
shortest round-trip repr, and NaN or infinities refused with ``ValueError``.
One private emitter, behind :meth:`Report.to_json`, writes them; it exists
because ``json.dumps`` with ``indent`` skips the C encoder and runs the
pure-Python one.  Identical configurations produce byte-identical JSON, so
wall-clock timing is never part of the canonical document (runners print it
to stderr instead).  CSV is a flat projection of the rows for plotting; it
encodes exactly the same numeric values as the JSON.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

__all__ = ["Report", "MergeError", "report_merge", "flatten_row"]

SCHEMA_VERSION = "0.1.0"


class MergeError(ValueError):
    """Incompatible reports offered for merging."""


class Report(NamedTuple):
    experiment: str
    params: dict
    rows: list
    constants: list | tuple = ()
    version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "version": self.version,
            "params": self.params,
            "rows": self.rows,
        }
        if self.constants:
            out["constants"] = self.constants
        return out

    def to_json(self) -> str:
        out = []
        _emit(self.to_dict(), out, "\n")
        out.append("\n")
        return "".join(out)

    def to_csv(self) -> str:
        import csv
        import io

        flat = [flatten_row(r) for r in self.rows]
        keys = sorted({k for r in flat for k in r})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for r in flat:
            writer.writerow([_csv_cell(r.get(k)) for k in keys])
        return buf.getvalue()


def _emit(value, out, newline) -> None:
    """Append the canonical JSON of ``value`` to ``out``; ``newline`` is the
    line break and indent of the line that ``value`` starts on."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = comma
            _emit(value[key], out, inner)
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = comma
            _emit(item, out, inner)
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)   # shortest round-trip decimal, same as the JSON encoder
    return str(v)


def flatten_row(row: dict, prefix: str = "") -> dict:
    """Flatten nested dicts into dotted keys; lists are JSON-encoded."""
    out = {}
    for k, v in row.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(flatten_row(v, prefix=f"{key}."))
        elif isinstance(v, (list, tuple)):
            out[key] = json.dumps(v)
        else:
            out[key] = v
    return out


def report_merge(reports, sources) -> Report:
    """Concatenate compatible reports into one, tagging each report's rows
    with its name in ``sources``.

    All inputs must agree on experiment id and schema version; constants with
    the same name must carry the same value.  Rows are sorted by their "n"
    field when every row has one, otherwise input order is kept; n values
    that do not compare raise MergeError.
    """
    reports = list(reports)
    if not reports:
        raise MergeError("nothing to merge")
    head = reports[0]
    merged_rows = []
    constants = {}
    params = {}
    for rep, src in zip(reports, sources):
        if rep.experiment != head.experiment:
            raise MergeError(
                f"{src}: experiment {rep.experiment!r} differs from {head.experiment!r}"
            )
        if rep.version != head.version:
            raise MergeError(f"{src}: version {rep.version!r} differs from {head.version!r}")
        for c in rep.constants:
            name = c.get("name")
            if name in constants and constants[name] != c:
                raise MergeError(f"{src}: constant {name!r} conflicts with an earlier input")
            constants[name] = c
        params[src] = rep.params
        for row in rep.rows:
            if not isinstance(row, dict):
                raise MergeError(f"{src}: rows must be objects")
            tagged = dict(row)
            tagged["source"] = src
            merged_rows.append(tagged)
    if merged_rows and all("n" in r for r in merged_rows):
        try:
            merged_rows.sort(key=lambda r: r["n"])
        except TypeError as exc:
            raise MergeError(f"rows' n values do not compare ({exc})") from exc
    return Report(
        experiment=head.experiment,
        params={"merged": params},
        rows=merged_rows,
        constants=list(constants.values()),
        version=head.version,
    )


def report_from_dict(d: dict, source: str) -> Report:
    if not isinstance(d, dict):
        raise MergeError(f"{source}: a report must be a JSON object")
    for key in ("experiment", "version", "params", "rows"):
        if key not in d:
            raise MergeError(f"{source}: missing required field {key!r}")
    if not isinstance(d["rows"], list):
        raise MergeError(f"{source}: rows must be a list")
    constants = d.get("constants", [])
    if not (isinstance(constants, list) and all(isinstance(c, dict) for c in constants)):
        raise MergeError(f"{source}: constants must be a list of objects")
    return Report(
        experiment=d["experiment"],
        params=d["params"],
        rows=d["rows"],
        constants=constants,
        version=d["version"],
    )
