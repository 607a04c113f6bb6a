"""A cold ohlab command with the span recorder installed.

Usage: python bench/traced_cli.py SPANS_OUT <ohlab arguments>

Equivalent to ``python -m ohlab.cli <ohlab arguments>`` except that the
public functions are wrapped in spans, which are written to SPANS_OUT as one
JSON list when the command ends.  The worker hangs them under the op's root
span, whose remaining self time is interpreter start, imports and exit.
"""

import json
import sys

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import ohlab.cli

    rec = tracing.Recorder()
    rec.op = 0
    try:
        with tracing.tracing(rec):
            return ohlab.cli.main(argv)
    finally:
        rec.op = None
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(rec.records(), fh)


if __name__ == "__main__":
    sys.exit(main())
