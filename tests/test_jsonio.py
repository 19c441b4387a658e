import enum
import json

import pytest

from cyclesets import (
    FormatError,
    InvalidCycleSet,
    classify_pq,
    to_solution,
    trivial_cycle_set,
)
from cyclesets.jsonio import (
    cycleset_from_dict,
    cycleset_to_dict,
    dumps,
    load,
    report_to_dict,
    solution_from_dict,
    solution_to_dict,
    spec_from_dict,
    spec_to_dict,
    table_from_dict,
)
from conftest import GOLDEN4_SPEC


def test_cycleset_roundtrip(golden4):
    assert cycleset_from_dict(cycleset_to_dict(golden4)) == golden4


def test_cycleset_format_errors():
    with pytest.raises(FormatError):
        cycleset_from_dict({"n": 2})
    with pytest.raises(FormatError):
        cycleset_from_dict({"table": [[0, "x"], [1, 0]]})
    with pytest.raises(FormatError):
        cycleset_from_dict({"n": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(FormatError):
        cycleset_from_dict([[0]])
    with pytest.raises(FormatError):
        cycleset_from_dict({"n": True, "table": [[0]]})


def test_cycleset_math_errors_are_not_format_errors():
    with pytest.raises(InvalidCycleSet):
        cycleset_from_dict({"n": 2, "table": [[0, 1], [1, 0]]})


def test_table_extraction_skips_validation():
    assert table_from_dict({"table": [[0, 1], [1, 0]]}) == [[0, 1], [1, 0]]


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1


@pytest.mark.parametrize("entry", [True, 1.0])
def test_table_entries_must_be_integers(entry):
    # a bool or a float fails after a well-formed first row
    with pytest.raises(FormatError, match="^table entries must be integers$"):
        table_from_dict({"table": [[0, 1], [entry, 0]]})


def test_table_entries_may_be_int_subclasses():
    table = [[Small.ZERO, 1], [Small.ONE, Small.ZERO]]
    assert table_from_dict({"table": table}) is table


def test_solution_roundtrip(golden4):
    sol = to_solution(golden4)
    assert solution_from_dict(solution_to_dict(sol)) == sol


def test_solution_format_errors():
    with pytest.raises(FormatError):
        solution_from_dict({"lambda": [[0]]})
    with pytest.raises(FormatError):
        solution_from_dict({"n": True, "lambda": [[0]], "rho": [[0]]})


def test_spec_roundtrip():
    payload = spec_to_dict(GOLDEN4_SPEC)
    assert spec_from_dict(payload) == GOLDEN4_SPEC
    assert payload == {
        "p": 2,
        "k": 2,
        "level": 2,
        "exponents": [2, 1, 0],
        "digit_functions": [[0, 1]],
    }


def test_spec_format_errors():
    with pytest.raises(FormatError):
        spec_from_dict({"p": 2, "k": 2, "level": 2, "exponents": [2, 1, 0]})
    with pytest.raises(FormatError):
        spec_from_dict({"p": "2", "k": 2, "level": 2, "exponents": [], "digit_functions": []})


@pytest.mark.parametrize("key, value", [
    ("p", True),
    ("level", 2.0),
    ("exponents", [2, "1", 0]),
    ("exponents", [2, True, 0]),
    ("digit_functions", [[0, "a"]]),
    ("digit_functions", [[0, False]]),
    ("digit_functions", [0, 1]),
])
def test_spec_fields_must_be_integers(key, value):
    payload = {**spec_to_dict(GOLDEN4_SPEC), key: value}
    with pytest.raises(FormatError):
        spec_from_dict(payload)


def test_report_serialization_is_self_describing():
    report = classify_pq(2, 2)
    payload = report_to_dict(report)
    assert payload["size"] == 4
    assert payload["constraint"] == "abelian-group"
    assert len(payload["classes"]) == 3
    for entry in payload["classes"]:
        X = cycleset_from_dict(entry["witness"])
        assert X.n == 4
    # byte-identical dumps for identical reports
    assert dumps(payload) == dumps(report_to_dict(classify_pq(2, 2)))


def test_dumps_modes():
    payload = cycleset_to_dict(trivial_cycle_set(2))
    compact = dumps(payload)
    assert "\n" not in compact and json.loads(compact) == payload
    pretty = dumps(payload, pretty=True)
    assert "\n" in pretty and json.loads(pretty) == payload


def test_load_rejects_bad_json():
    with pytest.raises(FormatError):
        load("{")
