"""Self-tests of the benchmark itself (not of cyclesets).

    python3 bench/selftest.py                      # quick checks, a few seconds
    python3 bench/selftest.py --trace-repeat cli-session classify-reports

Quick checks:
  * the benchmark sources use no underscore name from cyclesets;
  * BENCHMARK.json declares exactly the workloads and metrics the code reports;
  * the cli-session corpus is a function of the seed: the same seed gives the
    same corpus, another seed a different one with the same op-kind mix and
    sizes;
  * tampered outputs are counted as failed: a wrong count, a wrong witness
    and a wrong exit code, next to the untampered outputs that pass.
--trace-repeat runs a traced pass of each named workload twice and requires
every count metric (.calls and the work counters) to repeat exactly.
"""

from __future__ import annotations

import argparse
import ast
import collections
import glob
import json
import os
import shutil
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def private_uses(path: str) -> list[str]:
    """Underscore names reached through a cyclesets import in one source file."""
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "cyclesets":
                    aliases.add(a.asname or "cyclesets")
                    found += [a.name for part in a.name.split(".") if part.startswith("_")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cyclesets":
            names = node.module.split(".") + [a.name for a in node.names]
            found += [f"{node.module}.{n}" for n in names if n.startswith("_")]
            aliases.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and str(node.args[1].value).startswith("_")):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


def check_private_names() -> list[str]:
    errors = []
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        errors += [f"{os.path.basename(path)}: {u}" for u in private_uses(path)]
    names = [n for mod, fns in tracing.LAYERS.items() for n in (mod, *fns)]
    errors += [f"tracing.LAYERS names {n}" for n in names if any(p.startswith("_") for p in n.split("."))]
    return errors


def check_declaration() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        decl = json.load(fh)
    errors = []
    if [w["name"] for w in decl["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in decl["end_to_end"]} != run.UNITS:
        errors.append("BENCHMARK.json end_to_end differs from run.UNITS")
    declared = [(m["name"], m["unit"]) for m in decl["per_layer"]]
    if declared != [*tracing.METRICS, tracing.OVERHEAD]:
        errors.append("BENCHMARK.json per_layer differs from tracing.METRICS")
    return errors


def check_corpus() -> list[str]:
    a, again, b = (workloads.make_corpus(s) for s in (11, 11, 12))
    errors = []
    if a != again:
        errors.append("the same seed gave different corpora")
    if a == b or a[0] == b[0]:
        errors.append("two seeds gave the same corpus")

    def shape(corpus):
        ops = corpus[1]
        return collections.Counter(op["kind"] for op in ops), sorted(op["n"] for op in ops)

    if shape(a) != shape(b):
        errors.append("two seeds gave different op-kind mixes or sizes")
    sizes = shape(a)[1]
    if (sizes[0], sizes[-1]) != (16, 64):
        errors.append(f"corpus sizes span {sizes[0]}..{sizes[-1]}, expected 16..64")
    return errors


def failed_count(wl, ops, results) -> int:
    return worker.check_all(wl, ops, [(i, r, None) for i, r in results])[0]


def check_tampering(workdir: str) -> list[str]:
    errors = []

    def expect(label, wl, ops, results, n_failed):
        got = failed_count(wl, ops, results)
        if got != n_failed:
            errors.append(f"{label}: {got} failed, expected {n_failed}")

    census = workloads.AbelianCensus()
    expect("abelian-census wrong raw count", census, census.setup(0, workdir),
           [(0, (census.RAW - 1, census.INDECOMPOSABLE, None))], 1)
    full = workloads.FullCensus()
    expect("full-census wrong labeled count", full, full.setup(0, workdir),
           [(0, (full.LABELED + 1, None))], 1)

    reports = workloads.ClassifyReports()
    ops = reports.setup(0, workdir)
    i = next(j for j, op in enumerate(ops) if op["argv"][2:] == ["5", "--k", "2"])
    code, text = reports.run(ops[i])
    payload = json.loads(text)
    payload["classes"].pop()
    short = json.dumps(payload, separators=(",", ":")) + "\n"
    expect("classify-reports untampered", reports, ops, [(i, (code, text))], 0)
    expect("classify-reports wrong class count", reports, ops, [(i, (code, short))], 1)
    expect("classify-reports wrong bytes", reports, ops, [(i, (code, text + " "))], 1)
    expect("classify-reports wrong exit code", reports, ops, [(i, (1, text))], 1)

    session = workloads.CliSession()
    ops = session.setup(5, workdir)
    picks = {}
    for j, op in enumerate(ops):
        if op["n"] <= 25:
            picks.setdefault(op["kind"], j)
    real = {kind: session.run(ops[j]) for kind, j in picks.items()}
    expect("cli-session untampered", session, ops,
           [(picks[k], real[k]) for k in picks], 0)
    code, text = real["iso"]
    payload = json.loads(text)
    w = payload["witness"]
    w[0], w[1] = w[1], w[0]
    expect("iso wrong witness", session, ops,
           [(picks["iso"], (code, json.dumps(payload, separators=(",", ":")) + "\n"))], 1)
    expect("iso malformed witness", session, ops,
           [(picks["iso"], (0, '{"isomorphic":true,"witness":5}\n'))], 1)
    expect("verify-corrupt wrong exit code", session, ops,
           [(picks["verify-corrupt"], (0, real["verify-corrupt"][1]))], 1)
    expect("iso-non wrong exit code", session, ops,
           [(picks["iso-non"], (0, real["iso-non"][1]))], 1)
    expect("verify wrong exit code", session, ops,
           [(picks["verify"], (1, real["verify"][1]))], 1)
    expect("repeat of a tampered output still fails", session, ops,
           [(picks["verify"], real["verify"]), (picks["verify"], (1, real["verify"][1]))], 1)
    return errors


def check_trace_repeat(workload: str) -> list[str]:
    deadline = time.monotonic() + 600
    os.makedirs(run.OUT, exist_ok=True)
    job = {"workload": workload, "seed": 7, "mode": "run", "cycles": 1}
    counts = []
    for k in range(2):
        spans = os.path.join(run.OUT, f"selftest-spans-{workload}-{k}.json")
        layers = run.spawn(dict(job, trace_file=spans), deadline)["layers"]
        counts.append({n: v for n, v in layers.items() if not n.endswith(".self_s")})
    if counts[0] != counts[1]:
        diff = sorted(n for n in counts[0] if counts[0][n] != counts[1][n])
        return [f"{workload}: traced counts differ between two runs: {diff}"]
    print(f"  {workload}: {len(counts[0])} count metrics repeat exactly")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description="self-tests of the benchmark")
    parser.add_argument("--trace-repeat", nargs="*", default=[], choices=run.WORKLOADS)
    args = parser.parse_args()
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        checks = [
            ("no underscore names from cyclesets", check_private_names),
            ("BENCHMARK.json matches the code", check_declaration),
            ("corpus is a function of the seed", check_corpus),
            ("tampered outputs count as failed", lambda: check_tampering(workdir)),
            *((f"trace counts repeat: {w}", lambda w=w: check_trace_repeat(w))
              for w in args.trace_repeat),
        ]
        failures = 0
        for label, fn in checks:
            errors = fn()
            print(("ok   " if not errors else "FAIL ") + label)
            for e in errors:
                print("     " + e)
            failures += bool(errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
