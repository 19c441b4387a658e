"""JSON wire formats.

These dictionaries are the interchange contract between the CLI, the golden
test fixtures, and any external tooling:

* cycle set   {"n": int, "table": [[int]]}
* solution    {"n": int, "lambda": [[int]], "rho": [[int]]}
* build spec  {"p": int, "k": int, "level": int, "exponents": [int],
               "digit_functions": [[int]]}
* cocycle     {"base": <cycle set>, "fiber": int, "alpha": [[[[int]]]]}
               (alpha indexed i, j, s -> image list)
* report      {"size": int, "constraint": str, "templates_searched": [str],
               "classes": [{"witness": <cycle set>, "mpl": int|null,
                            "group_order": int, "group_type": str,
                            "f_invariant": [int]|null, "raw_count": int}]}

Tables are row-major and 0-based throughout.  Structural problems (wrong
keys or types) raise :class:`FormatError`; mathematically invalid content
raises the domain errors of the owning modules.
"""

from __future__ import annotations

import json

from .classify import ClassEntry, ClassificationReport
from .construct import CyclicBuildSpec, DynamicalCocycle
from .cycleset import CycleSet, Solution, validate, validate_solution
from .errors import FormatError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _int_matrix(obj, name: str) -> list[list[int]]:
    _require(isinstance(obj, list) and obj, f"{name} must be a non-empty list of rows")
    for row in obj:
        _require(isinstance(row, list), f"{name} rows must be lists")
        for v in row:
            _require(isinstance(v, int) and not isinstance(v, bool),
                     f"{name} entries must be integers")
    return obj


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def table_from_dict(d) -> list[list[int]]:
    """Extract the raw table from a cycle-set payload without validating it."""
    _require(isinstance(d, dict), "cycle set payload must be an object")
    _require("table" in d, 'cycle set payload needs a "table" key')
    table = _int_matrix(d["table"], "table")
    if "n" in d:
        _require(isinstance(d["n"], int) and d["n"] == len(table),
                 '"n" must match the number of rows')
    return table


def cycleset_to_dict(X: CycleSet) -> dict:
    return {"n": X.n, "table": [list(row) for row in X.table]}


def cycleset_from_dict(d) -> CycleSet:
    return validate(table_from_dict(d))


def solution_to_dict(s: Solution) -> dict:
    return {
        "n": s.n,
        "lambda": [list(row) for row in s.lam],
        "rho": [list(row) for row in s.rho],
    }


def solution_from_dict(d) -> Solution:
    _require(isinstance(d, dict), "solution payload must be an object")
    _require("lambda" in d and "rho" in d,
             'solution payload needs "lambda" and "rho" keys')
    lam = _int_matrix(d["lambda"], "lambda")
    rho = _int_matrix(d["rho"], "rho")
    if "n" in d:
        _require(isinstance(d["n"], int) and d["n"] == len(lam),
                 '"n" must match the number of rows')
    return validate_solution(lam, rho)


def spec_to_dict(spec: CyclicBuildSpec) -> dict:
    return {
        "p": spec.p,
        "k": spec.k,
        "level": spec.level,
        "exponents": list(spec.exponents),
        "digit_functions": [list(f) for f in spec.digit_functions],
    }


def spec_from_dict(d) -> CyclicBuildSpec:
    _require(isinstance(d, dict), "spec payload must be an object")
    for key in ("p", "k", "level", "exponents", "digit_functions"):
        _require(key in d, f'spec payload needs a "{key}" key')
    for key in ("p", "k", "level"):
        _require(_is_int(d[key]), f'"{key}" must be an integer')
    _require(isinstance(d["exponents"], list) and all(map(_is_int, d["exponents"])),
             '"exponents" must be a list of integers')
    _require(
        isinstance(d["digit_functions"], list)
        and all(isinstance(f, list) and all(map(_is_int, f))
                for f in d["digit_functions"]),
        '"digit_functions" must be a list of lists of integers',
    )
    return CyclicBuildSpec(
        p=d["p"],
        k=d["k"],
        level=d["level"],
        exponents=tuple(d["exponents"]),
        digit_functions=tuple(tuple(f) for f in d["digit_functions"]),
    )


def cocycle_to_dict(c: DynamicalCocycle) -> dict:
    return {
        "base": cycleset_to_dict(c.base),
        "fiber": c.fiber,
        "alpha": [
            [[list(img) for img in per_s] for per_s in per_j] for per_j in c.alpha
        ],
    }


def cocycle_from_dict(d) -> DynamicalCocycle:
    _require(isinstance(d, dict), "cocycle payload must be an object")
    for key in ("base", "fiber", "alpha"):
        _require(key in d, f'cocycle payload needs a "{key}" key')
    _require(_is_int(d["fiber"]), '"fiber" must be an integer')
    _require(isinstance(d["alpha"], list), '"alpha" must be nested lists')
    base = cycleset_from_dict(d["base"])
    alpha = tuple(
        tuple(tuple(tuple(img) for img in per_s) for per_s in per_j)
        for per_j in d["alpha"]
    )
    return DynamicalCocycle(base=base, fiber=d["fiber"], alpha=alpha)


def class_entry_to_dict(entry: ClassEntry) -> dict:
    return {
        "witness": cycleset_to_dict(entry.witness),
        "mpl": entry.mpl,
        "group_order": entry.group_order,
        "group_type": entry.group_type,
        "f_invariant": list(entry.f_invariant) if entry.f_invariant else None,
        "raw_count": entry.raw_count,
    }


def report_to_dict(report: ClassificationReport) -> dict:
    return {
        "size": report.size,
        "constraint": report.constraint,
        "templates_searched": list(report.templates_searched),
        "classes": [class_entry_to_dict(e) for e in report.classes],
    }


def load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def dumps(payload, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(payload, indent=2)
    return json.dumps(payload, separators=(",", ":"))
