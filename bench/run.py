"""The cyclesets benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: abelian-census, full-census, classify-reports, cli-session (see
bench/README.md).  Each pass runs in a fresh interpreter (bench/worker.py),
one at a time.  With --trace 0 the last line of standard output carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced pass plus the tracing overhead against an untraced pass of the same
work.  Every operation's output is checked exactly; an operation that fails
its check counts in "failed".  Raw results, the environment and the span
file go to bench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("abelian-census", "full-census", "classify-reports", "cli-session")
# Workloads that must not repeat inside one interpreter: brute_force_enumerate
# caches restricted-mode results (the census, and the oracle of classify
# --p 3 --q 3), so a repeat would time a cache lookup.
FRESH_PER_CYCLE = {"abelian-census", "full-census", "classify-reports"}
SETUP_SAMPLES = 5  # setup_s is the median of this many interpreter starts
MIN_SESSION_OPS = 200  # leaves at least ten samples above the 95th percentile
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p95_ms": "ms", "peak_rss_mb": "MB"}  # the end-to-end metrics


class BenchError(Exception):
    pass


def spawn(job: dict, deadline: float) -> dict:
    job = dict(job, out_dir=OUT, spawn_unit=speed.unit_time())
    job["spawn"] = time.monotonic()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", WORKER, json.dumps(job)],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time budget: {job['mode']}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cyclesets", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies(passes: list[dict], suffix: str, per_pass: bool) -> list[float]:
    """Operation latencies: one per call on cli-session, one per pass on the
    job workloads, whose calls differ too much in kind for one distribution."""
    return [t for p in passes for t in p[("cycle" if per_pass else "op") + suffix]]


def timing(passes: list[dict], suffix: str, per_pass: bool) -> dict[str, float]:
    """wall_s, ops_per_s and latency percentiles from the passes' timings."""
    lat = latencies(passes, suffix, per_pass)
    return {
        "wall_s": statistics.median(c for p in passes for c in p["cycle" + suffix]),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": percentile(lat, 0.50) * 1000,
        "op_p95_ms": percentile(lat, 0.95) * 1000,
    }


def measure(workload: str, seed: int, seconds: float, deadline: float):
    base = {"workload": workload, "seed": seed, "mode": "run"}
    passes, per_pass = [], workload in FRESH_PER_CYCLE
    if per_pass:
        while not passes or sum(sum(p["cycle_raw_s"]) for p in passes) < seconds:
            passes.append(spawn(dict(base, cycles=1), deadline))
    else:
        passes.append(spawn(dict(base, seconds=seconds, min_ops=MIN_SESSION_OPS), deadline))
    setups = passes + [
        spawn(dict(base, mode="setup"), deadline)
        for _ in range(SETUP_SAMPLES - len(passes))
    ]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        **timing(passes, "_s", per_pass),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    lat = latencies(passes, "_s", per_pass)
    info = {
        "op_samples": len(lat),
        "samples_above_p95": sum(1 for t in lat if t * 1000 > values["op_p95_ms"]),
        "raw": {
            "setup_s": statistics.median(p["setup_raw_s"] for p in setups),
            **timing(passes, "_raw_s", per_pass),
        },
    }
    return passes, {k: (v, UNITS[k]) for k, v in values.items()}, info


def measure_traced(workload: str, seed: int, deadline: float):
    base = {"workload": workload, "seed": seed, "mode": "run", "cycles": 1}
    plain = spawn(base, deadline)
    trace_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    traced = spawn(dict(base, trace_file=trace_file), deadline)
    units = dict(tracing.METRICS)
    metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
    name, unit = tracing.OVERHEAD
    metrics[name] = (sum(traced["cycle_s"]) / sum(plain["cycle_s"]), unit)
    return [plain, traced], metrics, {"span_file": os.path.relpath(trace_file, ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclesets", "__init__.py")):
        print("error: src/cyclesets not found next to bench/", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        # untimed: fills the bytecode and file caches before any sample
        spawn({"workload": args.workload, "seed": args.seed, "mode": "setup"}, deadline)
        if args.trace:
            passes, metrics, info = measure_traced(args.workload, args.seed, deadline)
        else:
            passes, metrics, info = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "info": dict(info, fail_ratio=failed / attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": passes,
    }
    out_file = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for p in passes:
        for reason in p["reasons"]:
            print(f"FAILED {reason}")
    print("env " + json.dumps(env))
    print("info " + json.dumps(record["info"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
