"""JSON wire formats.

These dictionaries are the interchange contract between the CLI, the golden
test fixtures, and any external tooling:

* cycle set   {"n": int, "table": [[int]]}
* solution    {"n": int, "lambda": [[int]], "rho": [[int]]}
* build spec  {"p": int, "k": int, "level": int, "exponents": [int],
               "digit_functions": [[int]]}
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
from itertools import chain
from json.encoder import encode_basestring_ascii

from .classify import ClassEntry, ClassificationReport
from .construct import CyclicBuildSpec
from .cycleset import _INT, CycleSet, Solution, validate, validate_solution
from .errors import FormatError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _int_matrix(obj, name: str) -> list[list[int]]:
    _require(isinstance(obj, list) and obj, f"{name} must be a non-empty list of rows")
    for row in obj:
        _require(isinstance(row, list), f"{name} rows must be lists")
        # a row of plain ints passes at C level; other int subclasses than
        # bool pass the per-entry check
        _require(set(map(type, row)) <= _INT or all(map(_is_int, row)),
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
        _require(_is_int(d["n"]) and d["n"] == len(table),
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


def solution_tables_from_dict(d) -> tuple[list[list[int]], list[list[int]]]:
    """Extract the raw lambda and rho tables from a solution payload without
    validating them."""
    _require(isinstance(d, dict), "solution payload must be an object")
    _require("lambda" in d and "rho" in d,
             'solution payload needs "lambda" and "rho" keys')
    lam = _int_matrix(d["lambda"], "lambda")
    rho = _int_matrix(d["rho"], "rho")
    if "n" in d:
        _require(_is_int(d["n"]) and d["n"] == len(lam),
                 '"n" must match the number of rows')
    return lam, rho


def solution_from_dict(d) -> Solution:
    return validate_solution(*solution_tables_from_dict(d))


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
        exponents=d["exponents"],
        digit_functions=d["digit_functions"],
    )


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
    except ValueError as exc:  # bad syntax, or an integer past Python's digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


_COMPACT = (",", ":")
_MAX_DEPTH = 32  # deeper payloads, circular ones among them, go to json.dumps
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,  # raises ValueError past the digit limit, as json.dumps does
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dumps(payload, pretty: bool = False) -> str:
    """The JSON text of ``payload``: indented, or else compact.

    Compact text is that of ``json.dumps(payload, separators=(",", ":"))``,
    bytes and exceptions alike, but a table's rows repeat: each distinct
    list of plain ints is encoded once per call, and the text is one join of
    cached pieces.  Only exact dicts with ``str`` keys and exact lists, to a
    bounded depth, holding such containers, ``str``, plain ints, ``bool``
    and None, are encoded here; any other payload, or an error on the way,
    goes to ``json.dumps`` whole.
    """
    if pretty:
        return json.dumps(payload, indent=2)
    parts: list[str] = []
    try:
        _compact(payload, parts, _RowTexts(), 0)
    except (TypeError, ValueError):
        return json.dumps(payload, separators=_COMPACT)
    return "".join(parts)


class _RowTexts(dict):
    """Row of plain ints -> its compact text, encoded when first looked up."""

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = "[" + ",".join(map(int.__repr__, row)) + "]"
        return text


def _compact(obj, parts: list[str], rows: _RowTexts, depth: int) -> None:
    """Append the compact pieces of the container ``obj``, with the text of
    each row of plain ints from ``rows``; raise TypeError or ValueError on
    anything :func:`dumps` leaves to json.dumps."""
    if depth > _MAX_DEPTH:
        raise ValueError("nested too deeply")
    kind = type(obj)
    if kind is list:
        kinds = set(map(type, obj))
        if kinds <= _INT:  # one row
            parts.append(rows[tuple(obj)])
            return
        if kinds == {list} and _INT.issuperset(map(type, chain.from_iterable(obj))):
            pieces = [","] * (2 * len(obj) + 1)  # rows only: interleave them with commas
            pieces[0], pieces[-1] = "[", "]"
            pieces[1::2] = map(rows.__getitem__, map(tuple, obj))
            parts += pieces
            return
        items = obj
    elif kind is dict:
        items = obj.items()
    else:
        raise TypeError("not a container")
    parts.append("[" if kind is list else "{")
    for i, item in enumerate(items):
        if i:
            parts.append(",")
        if kind is dict:
            key, item = item
            if type(key) is not str:
                raise TypeError("a key that is not a str")
            parts += (encode_basestring_ascii(key), ":")
        scalar = _SCALARS.get(type(item))
        if scalar is None:
            _compact(item, parts, rows, depth + 1)
        else:
            parts.append(scalar(item))
    parts.append("]" if kind is list else "}")

