"""ohlab benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {bracket-ladder,free-haar,cli-small} \
        --seed N --seconds S --trace {0,1}

The program is called only through ``ohlab.cli``, from ``src/`` of the
checkout.  The workload runs in its own child process (bench/worker.py) with
the BLAS threads capped at nproc.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  End-to-end times and
rates are scaled to the reference machine speed of probe.py.  The line before
it holds the details: the raw times and the slowdown factors, the tail
percentile and its sample count, every failed op with its reason, the outcome
of each defect check (an input that hits a ROADMAP defect, run once outside
the timed ops; see workloads.py), and the machine facts.  ``correct`` is
false if an op fails or a defect check fails in another way than its listed
defect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import probe
import summary
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
SETUP_RUNS = 5
IMPORT_RUNS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]
# after "ready", SETUP_PROBES runs of the speed probe of kind argv[2], from the bench dir argv[1]
SETUP_PROBES = 3
SETUP_CODE = ("import ohlab.cli; ohlab.cli.build_parser(); print('ready', flush=True); "
              "import json, sys; sys.path.insert(0, sys.argv[1]); import probe; out = []; "
              f"[probe.probe_for(sys.argv[2], 0, out) for _ in range({SETUP_PROBES})]; print(json.dumps(out))")
TRACKED_PACKAGES = ("numpy", "scipy", "ohlab")


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def setup_seconds(env) -> tuple[list, list]:
    """Fresh interpreter until ohlab.cli is imported and its parser is built.

    Returns the set-up times and the speed probe times.  Each started
    interpreter runs the probe after it is ready, so the probe sees the
    conditions of a fresh process, as the set-up did.
    """
    times, probes = [], []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(HERE), workloads.SETUP_PROBE],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != b"ready":
            raise RuntimeError("cannot import ohlab.cli from src/")
        if i:  # the first start may compile bytecode; users pay that once
            times.append(elapsed)
            probes.extend(json.loads(rest))
    return times, probes


def import_times(stderr_text: str) -> dict:
    """Seconds of `python -X importtime` attributed to each tracked package.

    A module's own (self) time goes to the nearest tracked package among the
    module itself and the modules that imported it, so the stdlib modules
    numpy pulls in count for numpy, and scipy's time is not part of ohlab's.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(own), name.strip()))
    totals = dict.fromkeys(TRACKED_PACKAGES, 0)
    stack = []  # (depth, owner) of the enclosing imports, outermost first
    for depth, own, name in reversed(rows):  # parents are printed after children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        owner = top if top in totals else (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        if owner is not None:
            totals[owner] += own
    return {pkg: us / 1e6 for pkg, us in totals.items()}


def measure_imports(env) -> dict:
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ohlab.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("cannot import ohlab.cli from src/")
        runs.append(import_times(proc.stderr))
    return {f"cli.import_{pkg}_s": summary.median([r[pkg] for r in runs]) for pkg in TRACKED_PACKAGES}


def run_worker(args, env, workdir, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return summary.strict_loads(out.decode().splitlines()[-1])


def check_spec():
    """The metric tables here must be the ones BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != END_TO_END:
        raise RuntimeError("BENCHMARK.json end_to_end differs from run.py END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [tuple(m) for m in tracing.PER_LAYER]:
        raise RuntimeError("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise RuntimeError("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one run of one ohlab benchmark workload")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ohlab" / "cli.py").is_file():
        print(f"error: no src/ohlab/cli.py under {ROOT}; run from an ohlab checkout", file=sys.stderr)
        return 2

    env = child_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_spec()
        metrics, detail = {}, {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace}
        if args.trace:
            metrics.update(measure_imports(env))
        else:
            setups, setup_probes = setup_seconds(env)
            setup_speed = probe.slowdown(workloads.SETUP_PROBE, setup_probes)
            metrics["setup_s"] = summary.median(setups) / setup_speed
            detail["setup_raw_s"] = setups
        result = run_worker(args, env, workdir, deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = result["samples"]
    failures = [s for s in samples if s["error"] is not None]
    failed_ops = {}
    for s in failures:
        entry = failed_ops.setdefault(s["label"], {"count": 0, "reason": s["error"]})
        entry["count"] += 1
    defect_checks = {}
    for c in result["defect_checks"]:
        known = workloads.known_defect(c["label"], c["error"]) if c["error"] is not None else None
        defect_checks[c["label"]] = {"reason": c["error"], "known_defect": known}
        if c["error"] is None:
            print(f"defect check `{c['label']}` passes: its listed defect no longer shows", file=sys.stderr)
        else:
            print(f"defect check `{c['label']}` fails: {c['error']} [{known or 'UNEXPECTED'}]", file=sys.stderr)
    correct = not failures and all(c["reason"] is None or c["known_defect"] for c in defect_checks.values())

    if args.trace:
        metrics.update(result["layers"])
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        detail["traced_ops"] = sum(s["traced"] for s in samples)
        detail["spans_file"] = result["spans_file"]
    else:
        times = [s["seconds"] for s in samples]
        value, pct = summary.tail(times)
        raw = {"ops_per_s": len(times) / sum(times), "op_s_p50": summary.median(times), "op_s_tail": value}
        speed = probe.slowdown(workloads.PROBE[args.workload], result["probes"])
        metrics["ops_per_s"] = raw["ops_per_s"] * speed
        metrics["op_s_p50"] = raw["op_s_p50"] / speed
        metrics["op_s_tail"] = raw["op_s_tail"] / speed
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["ok_ratio"] = 1.0 - len(failures) / len(samples)
        units = dict(END_TO_END)
        detail["op_s_tail"] = summary.tail_label(pct, len(times))
        detail["slowdown"] = {"setup": setup_speed, "ops": speed, "probes": len(result["probes"])}
        detail["raw"] = raw
    if args.workload == "free-haar":
        detail["free_trials_per_op"] = workloads.FREE_TRIALS
        detail["clt_families_per_op"] = workloads.FREE_CLT_FAMILIES
    detail["fail_ratio"] = len(failures) / len(samples)
    detail["failed_ops"] = failed_ops
    detail["defect_checks"] = defect_checks
    detail["machine"] = result["machine"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
