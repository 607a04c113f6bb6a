"""One workload in one process: a single client in a closed loop.

Usage (started by run.py, which sets PYTHONPATH and the BLAS thread caps):

    python bench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

First the workload's defect checks (workloads.defect_checks) run once each,
untimed and untraced.  Untraced (--trace 0): the op cycle repeats, each op starting when the
previous one ends (after a few milliseconds of the speed probe, see
probe.py), until S seconds have passed.  Traced (--trace 1): pairs
of whole cycles, the first untraced and the second traced, while another
pair fits in S seconds (at least one pair); per-layer counts are therefore
exact, and the tracing overhead is the difference of the two halves' median
op times.

The last line of stdout is one JSON object with the op samples, the defect
check outcomes, the peak RSS, the machine facts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import machine
import probe
import summary
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
COLD_TIMEOUT_S = 60


def run_in_process(argv):
    import ohlab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            returncode = ohlab.cli.main(list(argv))
        except SystemExit as exc:
            returncode = exc.code
    return returncode, out.getvalue().encode("utf-8")


def run_cold(argv, spans_path=None):
    if spans_path is None:
        cmd = [sys.executable, "-m", "ohlab.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans_path), *argv]
    proc = subprocess.run(cmd, capture_output=True, timeout=COLD_TIMEOUT_S, cwd=ROOT)
    return proc.returncode, proc.stdout


class Loop:
    def __init__(self, workload, seed, workdir):
        self.cold = workload in workloads.COLD
        self.ops = workloads.cycle(workload, seed, workdir)
        self.workdir = workdir
        self.samples = []
        self.first_output = {}
        if not self.cold:
            import ohlab.cli  # noqa: F401  (imported before timing, as a user's session would)

            run_in_process(workloads.WARMUP[workload] + ("--seed", str(seed)))

    def check_defects(self, workload, seed):
        """Run each defect check once, untimed; return why each one failed (or None)."""
        outcomes = []
        for op in workloads.defect_checks(workload, seed):
            try:
                returncode, stdout = run_cold(op.argv) if self.cold else run_in_process(op.argv)
                error = workloads.check_output(op, returncode, stdout)
            except Exception as exc:
                error = f"raised {type(exc).__name__}: {exc}"
            outcomes.append({"label": op.label, "error": error})
        return outcomes

    def run(self, op, rec=None):
        """Run one op, time it, check it and record the sample."""
        spans_path = self.workdir / "spans.json" if rec is not None else None
        span = rec.op_span(len(self.samples)) if rec is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span as root:
                if self.cold:
                    returncode, stdout = run_cold(op.argv, spans_path)
                else:
                    returncode, stdout = run_in_process(op.argv)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            returncode, stdout, error = None, b"", f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if self.cold and spans_path is not None and spans_path.is_file():
            rec.attach(root, json.loads(spans_path.read_text()))
            spans_path.unlink()
        if error is None:
            error = workloads.check_output(op, returncode, stdout)
        if error is None:
            first = self.first_output.setdefault(op.label, stdout)
            if stdout != first:
                error = "output differs from an earlier run with the same seed"
        if op.save_as is not None:
            op.save_as.write_bytes(stdout)
        self.samples.append({"label": op.label, "seconds": seconds, "traced": rec is not None, "error": error})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    loop = Loop(args.workload, args.seed, args.workdir)
    result = {"defect_checks": loop.check_defects(args.workload, args.seed)}
    start = time.perf_counter()
    if not args.trace:
        probes = []
        i = 0
        while time.perf_counter() - start < args.seconds:
            loop.run(loop.ops[i % len(loop.ops)])
            probe.probe_for(workloads.PROBE[args.workload], loop.samples[-1]["seconds"], probes)
            i += 1
        result["probes"] = probes
    else:
        rec = tracing.Recorder()
        while True:
            pair_start = time.perf_counter()
            for op in loop.ops:
                loop.run(op)
            with tracing.tracing(rec):
                for op in loop.ops:
                    loop.run(op, rec)
            now = time.perf_counter()
            if now + (now - pair_start) - start > args.seconds:  # the next pair would overrun
                break
        traced = [s["seconds"] for s in loop.samples if s["traced"]]
        untraced = [s["seconds"] for s in loop.samples if not s["traced"]]
        layers = tracing.layer_metrics(rec.records(), len(traced))
        layers["trace.overhead_s"] = summary.median(traced) - summary.median(untraced)
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / summary.median(untraced)
        result["layers"] = layers
        spans_out = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
        spans_out.write_text(json.dumps(rec.records()))
        result["spans_file"] = str(spans_out.relative_to(ROOT))

    who = resource.RUSAGE_CHILDREN if loop.cold else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["samples"] = loop.samples
    result["machine"] = machine.facts(ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
