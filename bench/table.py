"""Every metric of every workload, from one command.

Usage, from the root of a checkout:

    python3 bench/table.py [--seconds S] [--seed N]

For each workload it makes one untraced run and two traced runs with the same
seed (each through bench/run.py, which checks every op's output).  It prints
the end-to-end metrics, then the per-layer metrics, one row per workload and
each metric by name with its unit, followed by the tail percentiles, the
failed ops and whether every work counter repeated exactly across the two
traced runs, and the outcome of each defect check.  Exit status 1 if a run fails, reports incorrect output, or a
counter differs between the traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import summary
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return summary.strict_loads(lines[-2])["detail"], summary.strict_loads(lines[-1])


def row(workload, metrics, width):
    cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in metrics.items()]
    return f"{workload:<{width}}  " + "  ".join(cells)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="run every workload and print every metric")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    counters = [name for name, unit, _ in tracing.PER_LAYER if unit in tracing.COUNTER_UNITS]
    width = max(map(len, workloads.WORKLOADS))
    plain, traced, notes, ok = {}, {}, [], True
    for w in workloads.WORKLOADS:
        detail, plain[w] = run(w, args.seed, args.seconds, 0)
        notes.append(f"{w}: op_s_tail is the {detail['op_s_tail']}; fail_ratio {detail['fail_ratio']:.4f}")
        for label, entry in detail["failed_ops"].items():
            notes.append(f"{w}: failed {entry['count']}x `{label}`: {entry['reason']}")
        for label, entry in detail["defect_checks"].items():
            outcome = (f"fails: {entry['reason']} [{entry['known_defect'] or 'UNEXPECTED'}]"
                       if entry["reason"] is not None else "passes: its listed defect no longer shows")
            notes.append(f"{w}: defect check `{label}` {outcome}")
        _, traced[w] = run(w, args.seed, args.seconds, 1)
        _, again = run(w, args.seed, args.seconds, 1)
        differ = [c for c in counters if traced[w]["metrics"][c]["value"] != again["metrics"][c]["value"]]
        notes.append(f"{w}: {len(counters)} counters repeat exactly across two traced runs"
                     if not differ else f"{w}: counters differ between traced runs: {', '.join(differ)}")
        ok = ok and not differ and all(r["correct"] for r in (plain[w], traced[w], again))
    print(f"machine: {json.dumps(detail['machine'])}")
    print(f"\nend to end (untraced, {args.seconds:g} s per run, seed {args.seed})")
    for w in workloads.WORKLOADS:
        print(row(w, plain[w]["metrics"], width))
    print(f"\nper layer (traced; times and counts per op unless the name says otherwise)")
    for w in workloads.WORKLOADS:
        print(row(w, traced[w]["metrics"], width))
    print()
    print("\n".join(notes))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
