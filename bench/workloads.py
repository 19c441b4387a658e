"""The four benchmark workloads: inputs, one timed operation, exact checks.

A workload has three methods.  ``setup(seed, workdir)`` builds the list of
operations; its cost is part of ``setup_s``.  ``run(op)`` is the timed
operation.  ``check(op, result)`` returns None or the reason the output is
wrong, and runs after the timed region.

Library functions are always looked up as ``cyclesets.<name>`` or
``cli.main`` at call time, never bound here by ``from ... import``, so the
traced run (tracing.py) sees every call the benchmark makes.  Only public
names are used; selftest.py enforces that.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import cyclesets
import cyclesets.cli as cli

import checks

# -- shared ------------------------------------------------------------------


def invoke(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- abelian-census ------------------------------------------------------------


class AbelianCensus:
    """The oracle pipeline of classify_pq at n = 16, through public calls."""

    name = "abelian-census"
    RAW, INDECOMPOSABLE, CLASSES = 64384, 960, 16

    def setup(self, seed, workdir):
        return [{"kind": "abelian-census"}]

    def run(self, op):
        raw = cyclesets.brute_force_enumerate(16)
        indecomposable = [X for X in raw if cyclesets.is_indecomposable(X)]
        report = cyclesets.dedupe_by_isomorphism(indecomposable)
        return len(raw), len(indecomposable), report

    def check(self, op, result):
        n_raw, n_ind, report = result
        if n_raw != self.RAW:
            return f"{n_raw} raw tables, expected {self.RAW}"
        if n_ind != self.INDECOMPOSABLE:
            return f"{n_ind} indecomposable tables, expected {self.INDECOMPOSABLE}"
        if len(report.classes) != self.CLASSES:
            return f"{len(report.classes)} classes, expected {self.CLASSES}"
        if sum(e.raw_count for e in report.classes) != self.INDECOMPOSABLE:
            return "class sizes do not sum to the indecomposable count"
        cyclic = [e.witness for e in report.classes if e.group_type == "cyclic"]
        unmatched = [e.witness for e in cyclesets.classify_cyclic_prime_power(2, 4).classes]
        if len(cyclic) != len(unmatched):
            return f"{len(cyclic)} cyclic-group classes, expected {len(unmatched)}"
        for X in cyclic:
            for Y in unmatched:
                f = cyclesets.are_isomorphic(X, Y)
                if f is not None and cyclesets.relabel(X, f) == Y:
                    unmatched.remove(Y)
                    break
            else:
                return "a cyclic-group class has no parameterized match"
        return None


# -- full-census ---------------------------------------------------------------


class FullCensus:
    """Full-Sym(n) search at n = 5 and dedupe; the published counts."""

    name = "full-census"
    # Etingof-Schedler-Soloviev (1999); Akgun-Mereb-Vendramin (arXiv:2008.04483)
    LABELED, CLASSES, INDECOMPOSABLE_CLASSES = 2640, 88, 1

    def setup(self, seed, workdir):
        return [{"kind": "full-census"}]

    def run(self, op):
        raw = cyclesets.brute_force_enumerate(
            5, cyclesets.SearchConfig(mode="full-bruteforce")
        )
        return len(raw), cyclesets.dedupe_by_isomorphism(raw)

    def check(self, op, result):
        n_raw, report = result
        if n_raw != self.LABELED:
            return f"{n_raw} labeled tables, expected {self.LABELED}"
        if len(report.classes) != self.CLASSES:
            return f"{len(report.classes)} classes, expected {self.CLASSES}"
        if sum(e.raw_count for e in report.classes) != self.LABELED:
            return "class sizes do not sum to the labeled count"
        ind = sum(1 for e in report.classes if cyclesets.is_indecomposable(e.witness))
        if ind != self.INDECOMPOSABLE_CLASSES:
            return f"{ind} indecomposable classes, expected {self.INDECOMPOSABLE_CLASSES}"
        return None


# -- classify-reports ----------------------------------------------------------


class ClassifyReports:
    """Seven `classify` CLI calls; closed-form class counts and report digests."""

    name = "classify-reports"
    # (flag, p, q-or-k, class count by closed form, sha256 of stdout)
    CALLS = (
        ("--q", 3, 3, 4, "b6fd70d2e3db5eb11ad2b2cf5b2c6369d832ed4548590dcd2d1ca2f6dfccf846"),
        ("--q", 7, 7, 8, "aa43c4a4d50e5940c26dea55b958d6804389eab5d85ca7d243c7a19d5be5eb67"),
        ("--q", 11, 11, 12, "335ba6c924248e8ee26a0da680845702e34974773ff69bc710ebe5828d8cad91"),
        ("--k", 3, 3, 5, "deaf6ad88360b4608be3058c2b8add9081f0cff83433deb679c0f1a5c9ec1229"),
        ("--k", 7, 2, 7, "bc21af08163f565948069b29c6df05dafd56f8abe33bb38688c3c45ffd14285a"),
        ("--k", 2, 4, 4, "988f54d152b8b0044d05c1281101ef8eb9a614a40aa5c2c692392e4cbd86893e"),
        ("--k", 5, 2, 5, "976acb121d4c1cf6f38c39c5e41c8c7b47d49a4ff55f6c99ecea2f20a7344700"),
    )

    def setup(self, seed, workdir):
        return [
            {"argv": ["classify", "--p", str(p), flag, str(v)], "classes": c, "sha256": h}
            for flag, p, v, c, h in self.CALLS
        ]

    def run(self, op):
        return invoke(op["argv"])

    def check(self, op, result):
        return checks.check_report(op, *result)


# -- cli-session -----------------------------------------------------------------

# name -> (family, parameters); every member is indecomposable.
MEMBERS = {
    "triv16": ("trivial", 16),
    "triv64": ("trivial", 64),
    "s16a": ("spec", 2, 4, (4, 2, 0), ((0, 1, 2, 3),)),
    "s16b": ("spec", 2, 4, (4, 2, 0), ((0, 3, 2, 1),)),
    "s16c": ("spec", 2, 4, (4, 1, 0), ((0, 4),)),
    "s27a": ("spec", 3, 3, (3, 2, 1, 0), ((0, 0, 1, 1, 1, 2, 2, 2, 0), (0, 1, 2))),
    "s27b": ("spec", 3, 3, (3, 1, 0), ((0, 3, 6),)),
    "s32a": ("spec", 2, 5, (5, 2, 0), ((0, 2, 4, 6),)),
    "s32b": ("spec", 2, 5, (5, 1, 0), ((0, 8),)),
    "s64a": ("spec", 2, 6, (6, 2, 0), ((0, 4, 8, 12),)),
    "s64b": ("spec", 2, 6, (6, 1, 0), ((0, 16),)),
    **{f"p5t{t}": ("p2-level2", 5, t) for t in range(1, 5)},
    **{f"p7t{t}": ("p2-level2", 7, t) for t in range(1, 7)},
    "ea5": ("elementary-abelian", 5),
    "ea7": ("elementary-abelian", 7),
}

# One cycle of the closed loop: 48 calls with a fixed mix of kinds and sizes.
# The seed only picks relabelings, corruptions and the order.  Four n = 64
# verifies (8% of calls) keep the 95th percentile inside one cluster.
# Non-isomorphic pairs are distinct-t members of the p^2 family and the three
# level-2 classes at 16 = 2^4: all rows are n-cycles, so row types are equal.
SCHEDULE = (
    *(("verify", m) for m in (
        "triv16", "s16a", "p5t2", "ea5", "s27a", "s32a", "p7t3", "ea7",
        "s64a", "s64b", "triv64", "triv64")),
    *(("verify-corrupt", m) for m in ("s16b", "p5t3", "s32b", "p7t5")),
    *(("iso", m) for m in ("s16c", "ea5", "s27b", "s32a", "p7t1", "s64b")),
    *(("iso-non", pair) for pair in (
        ("s16a", "s16b"), ("s16b", "s16c"), ("p5t1", "p5t2"),
        ("p5t3", "p5t4"), ("p7t2", "p7t5"), ("p7t1", "p7t6"))),
    *(("retract", m) for m in ("s16a", "s27a", "ea5", "p7t4", "s32b", "s64a", "ea7", "triv64")),
    *(("solution", m) for m in ("s16c", "p5t4", "s27b", "s32a", "ea7", "s64b")),
    *(("solution-invert", m) for m in ("s16a", "ea5", "s27a", "p7t2", "s32b", "p7t6")),
)


def build_member(name: str):
    """(table, expected verify invariants) from the construction's closed forms."""
    family, *params = MEMBERS[name]
    if family == "trivial":
        (m,) = params
        X = cyclesets.trivial_cycle_set(m)
        inv = {"n": m, "mpl": 1, "tower": [m, 1], "group_order": m, "group_type": "cyclic"}
    elif family == "spec":
        p, k, exps, fs = params
        spec = cyclesets.CyclicBuildSpec(
            p=p, k=k, level=len(exps) - 1, exponents=exps, digit_functions=fs
        )
        X = cyclesets.build_prime_power(spec)
        inv = {"n": p ** k, "mpl": len(exps) - 1, "tower": [p ** e for e in exps],
               "group_order": p ** k, "group_type": "cyclic"}
    elif family == "p2-level2":
        p, t = params
        X = cyclesets.build_p2_level2(p, t)
        inv = {"n": p * p, "mpl": 2, "tower": [p * p, p, 1], "group_order": p * p,
               "group_type": "cyclic"}
    else:
        (p,) = params
        X = cyclesets.build_elementary_abelian(p)
        inv = {"n": p * p, "mpl": 2, "tower": [p * p, p, 1], "group_order": p * p,
               "group_type": "abelian-noncyclic"}
    return X, inv


def relabeled(name: str, rng: random.Random):
    X, inv = build_member(name)
    images = list(range(X.n))
    rng.shuffle(images)
    table = [list(row) for row in cyclesets.relabel(X, tuple(images)).table]
    if checks.own_retract_payload(table)["sizes"] != inv["tower"]:
        raise RuntimeError(f"benchmark retraction disagrees with the closed form for {name}")
    return table, inv


def corrupt(table, rng: random.Random):
    """Swap two entries inside one row until the axiom fails somewhere."""
    n = len(table)
    while True:
        bad = [row[:] for row in table]
        x = rng.randrange(n)
        i, j = rng.sample(range(n), 2)
        bad[x][i], bad[x][j] = bad[x][j], bad[x][i]
        first = checks.first_violation(bad)
        if first is not None:
            return bad, first


def make_corpus(seed: int):
    """The cli-session operations for one seed: (file name -> text, ops)."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    ops = []

    def put(payload) -> str:
        name = f"in{len(files):03d}.json"
        files[name] = checks.dumps(payload)
        return name

    for kind, member in SCHEDULE:
        op = {"kind": kind}
        if kind in ("iso", "iso-non"):
            a, b = (member, member) if kind == "iso" else member
            left, _ = relabeled(a, rng)
            right, _ = relabeled(b, rng)
            op.update(left=left, right=right, n=len(left), argv=[
                "iso", put({"n": len(left), "table": left}),
                put({"n": len(right), "table": right})])
            ops.append(op)
            continue
        table, inv = relabeled(member, rng)
        op["n"] = len(table)
        if kind == "verify":
            op["expect"] = {
                "valid": True, "n": inv["n"],
                "square_free": all(table[x][x] == x for x in range(len(table))),
                "nondegenerate": True, "indecomposable": True,
                "group_order": inv["group_order"], "group_type": inv["group_type"],
                "mpl": inv["mpl"], "tower": inv["tower"], "solution_checks": True,
            }
        elif kind == "verify-corrupt":
            table, op["first"] = corrupt(table, rng)
            op["table"] = table
        elif kind == "retract":
            op["expect_text"] = checks.dumps(checks.own_retract_payload(table))
        elif kind == "solution":
            op["expect_text"] = checks.dumps(checks.own_solution_payload(table))
        source = {"n": len(table), "table": table}
        if kind == "solution-invert":
            op["expect_text"] = checks.dumps(source)
            op["argv"] = ["solution", "--invert", "-i", put(checks.own_solution_payload(table))]
        else:
            sub = "verify" if kind.startswith("verify") else kind
            op["argv"] = [sub, "-i", put(source)]
        ops.append(op)
    order = list(range(len(ops)))
    rng.shuffle(order)
    return files, [ops[i] for i in order]


class CliSession:
    """A closed loop with one client over a seeded corpus of n = 16..64."""

    name = "cli-session"

    def setup(self, seed, workdir):
        files, ops = make_corpus(seed)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for op in ops:
            op["argv"] = [os.path.join(workdir, a) if a in files else a for a in op["argv"]]
        return ops

    def run(self, op):
        return invoke(op["argv"])

    def check(self, op, result):
        return checks.check_session_op(op, *result)


WORKLOADS = {w.name: w for w in (AbelianCensus, FullCensus, ClassifyReports, CliSession)}
