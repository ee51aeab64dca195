"""The writers: ``atomic_write_bytes`` leaves the old file or the new one,
with the mode the umask gives, and ``json_text`` is ``json.dumps(obj,
indent=2)`` for each shape the CLI writes."""

import json
import math
import os

import pytest

from bicsi.cli import _result_dict
from bicsi.evaluation import EvalReport, PositionBreakdown
from bicsi.ioutil import atomic_write_bytes, json_text
from bicsi.matcher import MatchResult
from bicsi.similarity import MetricKind

REPORT = EvalReport(
    metric=MetricKind.HAMMING, n=5, mae_m=0.4, accuracy=0.8,
    per_position=(PositionBreakdown("é", 3, 3, 0.0), PositionBreakdown("ключ💡", 2, 1, 1.0)),
    confusion=((3, 0), (1, 1)),
)
MATCH_ROWS = [_result_dict(MatchResult(0, "é", (1.5, -2.0), 3.0, 4.0)),
              _result_dict(MatchResult(1, "p02", (0.0, 0.0), 0.0, math.inf))]


@pytest.mark.parametrize("obj", [REPORT.to_json_dict(), MATCH_ROWS], ids=["report", "match-rows"])
def test_cli_shapes_equal_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_non_finite_floats_are_written_as_json_writes_them():
    assert json_text([math.nan, math.inf, -math.inf, -0.0]) == (
        "[\n  NaN,\n  Infinity,\n  -Infinity,\n  -0.0\n]")


@pytest.mark.parametrize("obj", [
    {1: "int", 2.5: "float", True: "bool", None: "none", -0.0: "negative zero"},
    {math.nan: 1, math.inf: [2], -math.inf: {}},
    {2**70: [1, 2]},
])
def test_number_keys_equal_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{(1, 2): 3}, {"a": {(1,): [4]}}, [object()], {"a": object()}])
def test_unwritable_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def test_failed_atomic_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(target, "text, not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert target.read_bytes() == b"old"


@pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_file_takes_its_mode_from_the_umask(tmp_path, umask, mode):
    fresh, rewritten = tmp_path / "fresh.bin", tmp_path / "rewritten.bin"
    rewritten.write_bytes(b"old")
    rewritten.chmod(0o640)  # a rewrite does not keep the old file's mode
    old = os.umask(umask)
    try:
        atomic_write_bytes(fresh, b"new")
        atomic_write_bytes(rewritten, b"new")
    finally:
        os.umask(old)
    for path in (fresh, rewritten):
        assert path.stat().st_mode & 0o777 == mode
        assert path.read_bytes() == b"new"


def test_a_file_at_the_temp_name_is_neither_overwritten_nor_removed(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "urandom", bytes)  # every temp name is .tmp-0000000000000000~
    other = tmp_path / f".tmp-{'00' * 8}~"
    other.write_bytes(b"not ours")
    with pytest.raises(FileExistsError):
        atomic_write_bytes(tmp_path / "out.bin", b"new")
    assert sorted(p.name for p in tmp_path.iterdir()) == [other.name]
    assert other.read_bytes() == b"not ours"
