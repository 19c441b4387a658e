import enum
import json

import pytest
from hypothesis import example, given, settings, strategies as st

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


def _outcome(encode, payload):
    try:
        return encode(payload)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def _reference(payload):
    return json.dumps(payload, separators=(",", ":"))


# rows of small ints repeat, and some compare equal to a row of plain ints
# but encode differently: [1] against [True] and [1.0]
_ROWS = st.one_of(
    st.lists(st.integers(0, 2), max_size=3),
    st.sampled_from([[1], [True], [1.0], [1, True], [Small.ONE], []]),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([Small.ONE, object()]),
)
_KEYS = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.booleans(), st.none(),
                  st.floats(allow_nan=False), st.just(Small.ONE))
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _ROWS, st.lists(_ROWS, max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(_PAYLOADS)
@example([[1], [True], [1.0], [1]])
@example({"a": [[0, 1], [1, 0]], "b": [[True, 1], [1, 0]], "c": [[1.0, 1]]})
@example({"table": [[1, 0]] * 3, 2: [[]], None: [{"n": 1}, {"n": 2}]})
def test_compact_dumps_is_json_dumps(payload):
    assert _outcome(dumps, payload) == _outcome(_reference, payload)


def test_compact_dumps_of_an_int_past_the_digit_limit():
    for payload in ({"n": 10 ** 5000}, [[0, 10 ** 5000]]):
        outcome = _outcome(dumps, payload)
        assert outcome == _outcome(_reference, payload) and outcome[0] is ValueError


def test_compact_dumps_of_a_circular_payload():
    looped_list, looped_dict = [[0, 1]], {"table": [[0]]}
    looped_list.append(looped_list)
    looped_dict["classes"] = [looped_dict]
    for payload in (looped_list, looped_dict):
        with pytest.raises(ValueError) as ours:
            dumps(payload)
        with pytest.raises(ValueError) as theirs:
            _reference(payload)
        assert str(ours.value) == str(theirs.value) == "Circular reference detected"


def test_load_rejects_bad_json():
    with pytest.raises(FormatError):
        load("{")
