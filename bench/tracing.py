"""Span tracing for the benchmark's traced run.

`Tracer.install` replaces every public binding of each listed function in
the `cyclesets.*` module namespaces with a wrapper, so calls made from
inside the library are caught as well as the benchmark's own.  A span is
(name, start, end, parent); spans stay in memory and are written out by
`Tracer.write`.  A span's self time is its duration minus the time covered
by its child spans.  No span is recorded per Permutation method.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time

# module -> traced public functions; a span is named "<module>.<function>"
# without the "cyclesets." prefix.
LAYERS = {
    "cyclesets.perm": ("generate_group",),
    "cyclesets.cycleset": (
        "find_violations", "validate_solution", "permutation_group",
        "is_indecomposable", "retraction_tower", "f_invariant", "are_isomorphic",
    ),
    "cyclesets.construct": (
        "build_prime_power", "phi_injectivity_check", "exponent_symmetry_check",
    ),
    "cyclesets.classify": (
        "brute_force_enumerate", "enumerate_specs", "dedupe_by_isomorphism",
    ),
    "cyclesets.jsonio": ("load", "dumps"),
    "cyclesets.cli": ("main",),
}
SPAN_NAMES = tuple(
    f"{mod.split('.', 1)[1]}.{fn}" for mod, fns in LAYERS.items() for fn in fns
)

# The per-layer metrics of BENCHMARK.json, in order, with their units.
METRICS = (
    ("perm.generate_group.calls", "count"),
    ("perm.generate_group.self_s", "s"),
    ("perm.group_elements", "count"),
    ("cycleset.find_violations.calls", "count"),
    ("cycleset.find_violations.self_s", "s"),
    ("cycleset.validate_solution.calls", "count"),
    ("cycleset.validate_solution.self_s", "s"),
    ("cycleset.axiom.cubic_triples", "count"),
    ("cycleset.permutation_group.calls", "count"),
    ("cycleset.permutation_group.self_s", "s"),
    ("cycleset.is_indecomposable.calls", "count"),
    ("cycleset.is_indecomposable.self_s", "s"),
    ("cycleset.retraction_tower.calls", "count"),
    ("cycleset.retraction_tower.self_s", "s"),
    ("cycleset.f_invariant.calls", "count"),
    ("cycleset.f_invariant.self_s", "s"),
    ("cycleset.are_isomorphic.calls", "count"),
    ("cycleset.are_isomorphic.self_s", "s"),
    ("cycleset.are_isomorphic.hit_ratio", "ratio"),
    ("construct.build_prime_power.calls", "count"),
    ("construct.build_prime_power.self_s", "s"),
    ("construct.phi_injectivity_check.calls", "count"),
    ("construct.phi_injectivity_check.self_s", "s"),
    ("construct.exponent_symmetry_check.calls", "count"),
    ("construct.exponent_symmetry_check.self_s", "s"),
    ("classify.brute_force_enumerate.calls", "count"),
    ("classify.brute_force_enumerate.self_s", "s"),
    ("classify.search.tables_out", "count"),
    ("classify.enumerate_specs.calls", "count"),
    ("classify.enumerate_specs.self_s", "s"),
    ("classify.search.spec_yield", "ratio"),
    ("classify.dedupe_by_isomorphism.calls", "count"),
    ("classify.dedupe_by_isomorphism.self_s", "s"),
    ("classify.dedupe.tables_in", "count"),
    ("classify.dedupe.classes_out", "count"),
    ("classify.dedupe.iso_calls_per_table", "ratio"),
    ("jsonio.load.calls", "count"),
    ("jsonio.load.self_s", "s"),
    ("jsonio.dumps.calls", "count"),
    ("jsonio.dumps.self_s", "s"),
    ("jsonio.bytes_in", "bytes"),
    ("jsonio.bytes_out", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
)
# Reported by run.py from a traced and an untraced pass of the same work.
OVERHEAD = ("trace.overhead", "ratio")


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name index, start, end, parent index or -1)
        self._stack: list[int] = []
        self._patched: list = []
        self.counts: collections.Counter = collections.Counter()

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "perm.generate_group":
            c["perm.group_elements"] += result.order
        elif name in ("cycleset.find_violations", "cycleset.validate_solution"):
            c["cycleset.axiom.cubic_triples"] += len(_first_arg(args, kwargs)) ** 3
        elif name == "cycleset.are_isomorphic":
            c["cycleset.are_isomorphic.hits"] += result is not None
        elif name == "classify.brute_force_enumerate":
            c["classify.search.tables_out"] += len(result)
        elif name == "classify.enumerate_specs":
            c["classify.search.specs_out"] += len(result)
        elif name == "classify.dedupe_by_isomorphism":
            c["classify.dedupe.tables_in"] += len(args[0])
            c["classify.dedupe.classes_out"] += len(result.classes)
        elif name == "jsonio.load":
            c["jsonio.bytes_in"] += len(_first_arg(args, kwargs))
        elif name == "jsonio.dumps":
            c["jsonio.bytes_out"] += len(result)

    def _wrap(self, index: int, fn):
        name = SPAN_NAMES[index]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "classify.dedupe_by_isomorphism":
                # count the input; the library sorts it into a list anyway
                args = (list(args[0]),) + args[1:]
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for index, name in enumerate(SPAN_NAMES):
            mod_name, fn = name.rsplit(".", 1)
            orig = getattr(importlib.import_module(f"cyclesets.{mod_name}"), fn)
            wrappers[id(orig)] = (orig, self._wrap(index, orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cyclesets" and not mod_name.startswith("cyclesets."):
                continue
            for attr in dir(mod):
                if attr.startswith("_"):
                    continue
                value = getattr(mod, attr)
                hit = wrappers.get(id(value))
                if hit is not None and value is hit[0]:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, orig in self._patched:
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        n = len(SPAN_NAMES)
        calls, child = [0] * n, [0.0] * len(self.spans)
        dedupe = SPAN_NAMES.index("classify.dedupe_by_isomorphism")
        iso = SPAN_NAMES.index("cycleset.are_isomorphic")
        iso_in_dedupe = 0
        for index, start, end, parent in self.spans:
            calls[index] += 1
            if parent >= 0:
                child[parent] += end - start
                if index == iso and self.spans[parent][0] == dedupe:
                    iso_in_dedupe += 1
        self_s = [0.0] * n
        for (index, start, end, _), covered in zip(self.spans, child):
            self_s[index] += end - start - covered
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        c = self.counts
        phi_calls = out["construct.phi_injectivity_check.calls"]
        out.update(
            {
                "perm.group_elements": c["perm.group_elements"],
                "cycleset.axiom.cubic_triples": c["cycleset.axiom.cubic_triples"],
                "cycleset.are_isomorphic.hit_ratio": (
                    c["cycleset.are_isomorphic.hits"] / calls[iso] if calls[iso] else 0.0
                ),
                "classify.search.tables_out": c["classify.search.tables_out"],
                "classify.search.spec_yield": (
                    c["classify.search.specs_out"] / phi_calls if phi_calls else 0.0
                ),
                "classify.dedupe.tables_in": c["classify.dedupe.tables_in"],
                "classify.dedupe.classes_out": c["classify.dedupe.classes_out"],
                "classify.dedupe.iso_calls_per_table": (
                    iso_in_dedupe / c["classify.dedupe.tables_in"]
                    if c["classify.dedupe.tables_in"] else 0.0
                ),
                "jsonio.bytes_in": c["jsonio.bytes_in"],
                "jsonio.bytes_out": c["jsonio.bytes_out"],
            }
        )
        return {name: out[name] for name, _ in METRICS}

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [i, round(s - origin, 7), round(e - origin, 7), p]
                        for i, s, e, p in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
