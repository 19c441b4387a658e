"""One benchmark pass in a fresh interpreter; started by run.py.

Usage: python3 -I bench/worker.py '<json job>'

The job names the workload, the seed, the parent's monotonic clock reading
and calibration unit time (speed.py) just before the spawn, and either
"setup" (set up, report setup_s, exit) or "run".  A run repeats the workload's operations in whole cycles, either a
fixed number of cycles or until `seconds` have passed and at least
`min_ops` operations are done.  Outputs are checked after the timed region.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import speed  # noqa: E402
import workloads  # noqa: E402  (imports cyclesets)


def timed_loop(wl, ops, job, tracer):
    """Run whole cycles of `ops`; return the outcomes and the timings.

    Latencies exclude the speed sampler's handler time.  `op_s` and
    `cycle_s` are normalized to the reference host speed (speed.py);
    the `_raw_` lists are the plain wall-clock figures.
    """
    outcomes, stamps = [], []  # (op index, result, error); (cycle, start, end, handler s)
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    with speed.Sampler() as sampler:
        start, cycle = clock(), 0
        while True:
            for i, op in enumerate(ops):
                spent = sampler.spent
                t0 = clock()
                try:
                    result, error = wl.run(op), None
                except Exception:  # the op failed; record it and keep measuring
                    result, error = None, traceback.format_exc(limit=3)
                t1 = clock()
                outcomes.append((i, result, error))
                stamps.append((cycle, t0, t1, sampler.spent - spent))
            cycle += 1
            if job.get("cycles"):
                if cycle >= job["cycles"]:
                    break
            elif clock() - start >= job["seconds"] and len(outcomes) >= job["min_ops"]:
                break
    if tracer is not None:
        tracer.uninstall()
    raw = [t1 - t0 - held for _, t0, t1, held in stamps]
    norm = [sampler.normalize(r, t0, t1) for r, (_, t0, t1, _) in zip(raw, stamps)]
    cycle_raw, cycle_norm = [0.0] * cycle, [0.0] * cycle
    for (c, *_), r, n in zip(stamps, raw, norm):
        cycle_raw[c] += r
        cycle_norm[c] += n
    timings = {
        "op_s": norm, "op_raw_s": raw, "cycle_s": cycle_norm, "cycle_raw_s": cycle_raw,
        "speed_samples": len(sampler.units),
    }
    return outcomes, timings


def check_all(wl, ops, samples):
    """Count failed ops; an op whose output equals one already passed passes."""
    passed: dict[int, object] = {}
    failed, reasons = 0, []
    for i, result, error in samples:
        if error is None and i in passed and passed[i] == result:
            continue
        reason = error
        if reason is None:
            try:
                reason = wl.check(ops[i], result)
            except Exception:  # malformed output the checker did not foresee
                reason = "checker raised: " + traceback.format_exc(limit=2)
        if reason is None:
            passed[i] = result
        else:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"op {i} ({ops[i].get('kind', ops[i].get('argv'))}): {reason}")
    return failed, reasons


def main() -> None:
    job = json.loads(sys.argv[1])
    wl = workloads.WORKLOADS[job["workload"]]()
    workdir = tempfile.mkdtemp(prefix="session-", dir=job["out_dir"])
    try:
        ops = wl.setup(job["seed"], workdir)
        setup_raw = time.monotonic() - job["spawn"]
        unit = (speed.unit_time() + job["spawn_unit"]) / 2
        report = {"setup_s": setup_raw * speed.REF_UNIT_S / unit, "setup_raw_s": setup_raw}
        if job["mode"] == "run":
            tracer = None
            if job.get("trace_file"):
                import tracing

                tracer = tracing.Tracer()
            outcomes, timings = timed_loop(wl, ops, job, tracer)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failed, reasons = check_all(wl, ops, outcomes)
            report.update(timings, attempted=len(outcomes), failed=failed,
                          reasons=reasons, rss_mb=rss_mb)
            if tracer is not None:
                report["layers"] = tracer.metrics()
                tracer.write(job["trace_file"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
