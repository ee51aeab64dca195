"""The writers: ``atomic_write_bytes`` leaves the old file or the new one,
and ``json_text`` must give exactly ``json.dumps(obj, indent=2)``."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicsi.cli import _result_dict
from bicsi.evaluation import EvalReport, PositionBreakdown, report_to_json, reports_to_json
from bicsi.ioutil import atomic_write_bytes, json_text
from bicsi.matcher import MatchResult
from bicsi.similarity import MetricKind

NASTY_KEYS = ["é", "ключ", "\x00", "\n", "a\tb", '", "', "[", "{", "}", '"', "\\", " ", "💡"]

scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2**63 - 2, max_value=2**80) | st.floats() | st.text())
keys = st.text() | st.sampled_from(NASTY_KEYS)
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(keys, children, max_size=6)),
    max_leaves=40,
)
int_rows = st.lists(st.integers() | st.booleans(), max_size=12)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({"é": [[], {}, ()], "\x00": {'", "': ["a, b", "[", "{"]}})
@example([1, True, 2**64, -0.0, math.nan, math.inf, -math.inf])
@example([[1, 2], [3, [4]], [], [5, "6"]])
@example([1, [2], {"a": 3}])
@example([1, {"a": 2}])
@example({"a": 1, "b": "[x", "c": None})
def test_equals_json_dumps(obj):
    assert json_text(obj) == dumps(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(int_rows, max_size=8))
def test_int_rows_equal_json_dumps(rows):
    assert json_text(rows) == dumps(rows)
    assert json_text({"confusion": rows}) == dumps({"confusion": rows})


def test_non_finite_floats_are_written_as_json_writes_them():
    assert json_text([math.nan, math.inf, -math.inf, -0.0]) == (
        "[\n  NaN,\n  Infinity,\n  -Infinity,\n  -0.0\n]")


@pytest.mark.parametrize("obj", [
    {1: "int", 2.5: "float", True: "bool", None: "none", -0.0: "negative zero"},
    {math.nan: 1, math.inf: [2], -math.inf: {}},
    {2**70: [1, 2]},
])
def test_number_keys_equal_json_dumps(obj):
    assert json_text(obj) == dumps(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 3}, {"a": {(1,): [4]}}, [object()], {"a": object()}])
def test_unwritable_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        json_text(obj)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def reports(draw):
    p = draw(st.integers(1, 12))
    labels = draw(st.lists(st.text(min_size=1, max_size=6) | st.sampled_from(NASTY_KEYS),
                           min_size=p, max_size=p))
    return EvalReport(
        metric=draw(st.sampled_from(list(MetricKind))),
        n=draw(st.integers(0, 10**6)),
        mae_m=draw(finite),
        accuracy=draw(st.floats(0, 1)),
        per_position=tuple(PositionBreakdown(label, draw(st.integers(0, 999)),
                                             draw(st.integers(0, 999)), draw(finite))
                           for label in labels),
        confusion=tuple(tuple(draw(st.lists(st.integers(0, 10**9), min_size=p, max_size=p)))
                        for _ in range(p)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(reports(), min_size=1, max_size=4))
def test_report_json_equals_json_dumps(batch):
    assert report_to_json(batch[0]) == dumps(batch[0].to_json_dict())
    assert reports_to_json(batch) == dumps([r.to_json_dict() for r in batch])


match_results = st.builds(
    MatchResult,
    window_index=st.integers(0, 10**6),
    predicted_label=st.text() | st.sampled_from(NASTY_KEYS),
    predicted_coord=st.tuples(finite, finite),
    best_distance=st.floats(allow_nan=False),
    runner_up_margin=st.floats(allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(match_results, max_size=8))
def test_match_results_equal_json_dumps(results):
    rows = [_result_dict(r) for r in results]
    assert json_text(rows) == dumps(rows)


def test_failed_atomic_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(target, "text, not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert target.read_bytes() == b"old"
