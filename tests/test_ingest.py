"""Trace loading, I/Q magnitude extraction and matrix assembly tests."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicsi.errors import (
    BicsiError,
    ConfigError,
    DataDomainError,
    EmptyTraceError,
    LengthMismatchError,
    TraceParseError,
)
from bicsi.encoding import GeneMatrix
from bicsi.ingest import (
    AMPLITUDE_CSV,
    IQ_CSV,
    AmplitudeMatrix,
    LabeledTrace,
    SubcarrierFilter,
    _validate_lines,
    build_matrix,
    load_filter,
    load_trace,
)
from bicsi.ioutil import read_lines
from bicsi.synth import SynthDataset

# every magnitude stays below 2**63, the int64 bound build_matrix enforces
finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e18, max_value=1e18)


def iq_amplitude(i: float, q: float) -> int:
    """The amplitude ``build_matrix`` makes of one packet holding one I/Q pair."""
    return int(build_matrix(np.array([[[i, q]]], dtype=float)).data[0, 0])


class TestAmplitudeFromIq:
    """The I/Q rule: the integer part of the magnitude sqrt(i^2 + q^2)."""

    def test_pythagorean_triple(self):
        assert iq_amplitude(3.0, 4.0) == 5 == math.floor(math.hypot(3.0, 4.0))

    def test_zero(self):
        assert iq_amplitude(0.0, 0.0) == 0

    def test_floor_of_sqrt2(self):
        assert iq_amplitude(1.0, 1.0) == 1

    @pytest.mark.parametrize("i,q", [(float("nan"), 0.0), (0.0, float("inf")),
                                     (float("-inf"), 1.0)])
    def test_non_finite_rejected(self, i, q):
        with pytest.raises(DataDomainError):
            iq_amplitude(i, q)

    @given(finite_floats, finite_floats)
    def test_magnitude_symmetry(self, i, q):
        assert iq_amplitude(i, q) == iq_amplitude(-i, q) == iq_amplitude(q, i)

    # math.hypot and np.hypot may round a magnitude one ulp apart; far below
    # 2**53 an ulp is too small to move the floor
    @given(*[st.floats(allow_nan=False, min_value=-1e6, max_value=1e6)] * 2)
    def test_matches_the_scalar_rule(self, i, q):
        assert iq_amplitude(i, q) == math.floor(math.hypot(i, q))

    @given(finite_floats, finite_floats)
    def test_non_negative(self, i, q):
        assert iq_amplitude(i, q) >= 0


def write_trace(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTrace:
    def test_amplitude_rows(self, tmp_path):
        path = write_trace(tmp_path, "1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        trace = load_trace(path)
        assert trace.shape == (3, 4)
        assert trace[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert trace[:, 0].tolist() == [1.0, 5.0, 9.0]  # rows in packet order

    def test_header_line_skipped(self, tmp_path):
        path = write_trace(tmp_path, "# amplitudes\n1,2\n3,4\n")
        assert len(load_trace(path)) == 2

    def test_ragged_row_names_line(self, tmp_path):
        path = write_trace(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(TraceParseError, match="line 2"):
            load_trace(path)

    def test_negative_amplitude(self, tmp_path):
        path = write_trace(tmp_path, "1,2\n-3,4\n")
        with pytest.raises(DataDomainError):
            load_trace(path)

    def test_empty_file(self, tmp_path):
        path = write_trace(tmp_path, "# only a header\n")
        with pytest.raises(EmptyTraceError):
            load_trace(path)

    def test_non_numeric_field(self, tmp_path):
        path = write_trace(tmp_path, "1,two\n")
        with pytest.raises(TraceParseError, match="line 1"):
            load_trace(path)

    def test_non_finite_field(self, tmp_path):
        path = write_trace(tmp_path, "1,nan\n")
        with pytest.raises(DataDomainError):
            load_trace(path)

    def test_iq_pairs(self, tmp_path):
        path = write_trace(tmp_path, "1,0,0,2,3,4,-3,-4\n")
        trace = load_trace(path, IQ_CSV)
        assert trace.shape == (1, 4, 2)
        assert trace[0].tolist() == [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [-3.0, -4.0]]

    def test_iq_odd_field_count(self, tmp_path):
        path = write_trace(tmp_path, "1,2,3\n")
        with pytest.raises(TraceParseError):
            load_trace(path, IQ_CSV)

    def test_unknown_format(self, tmp_path):
        path = write_trace(tmp_path, "1,2\n")
        with pytest.raises(ConfigError):
            load_trace(path, "json")

    def test_iq_negative_components_allowed(self, tmp_path):
        path = write_trace(tmp_path, "-3,4\n")
        trace = load_trace(path, IQ_CSV)
        assert trace[0].tolist() == [[-3.0, 4.0]]

    def test_digit_separator_parsed_like_float(self, tmp_path):
        path = write_trace(tmp_path, "1_000,2\n")
        assert load_trace(path).tolist() == [[1000.0, 2.0]]

    def test_trailing_comment_rejected(self, tmp_path):
        path = write_trace(tmp_path, "1,2\n3,4 # note\n")
        with pytest.raises(TraceParseError, match="line 2: non-numeric"):
            load_trace(path)

    def test_integer_trace_returns_int64(self, tmp_path):
        path = write_trace(tmp_path, "0,7\n1023,4095\n")
        trace = load_trace(path)
        assert trace.dtype == np.int64
        assert trace.tolist() == [[0, 7], [1023, 4095]]


VALID_TOKENS = ["0", "7", "1023", "2.5", " 3 ", "+1", "1.", ".5", "1e3", "-0", "\t4"]
ODD_TOKENS = ["-2", "nan", "inf", "-inf", "1e400", "1_000", "\u0661\u0662", "x", "",
              "0x10", "5 # note"]


@st.composite
def trace_texts(draw):
    """Trace CSV text: mostly well-formed rows of one width, with comment and
    blank lines, CRLF endings and a share of odd tokens and ragged rows."""
    width = draw(st.integers(1, 4))
    odd_percent = draw(st.sampled_from([0, 0, 3, 30]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("# comment")
        elif kind == 1:
            lines.append(draw(st.sampled_from(["", "   "])))
        else:
            n = width if draw(st.integers(0, 9)) else draw(st.integers(1, 5))
            fields = [draw(st.sampled_from(ODD_TOKENS if draw(st.integers(0, 99)) < odd_percent
                                           else VALID_TOKENS)) for _ in range(n)]
            lines.append(",".join(fields) + (" # note" if draw(st.integers(0, 19)) == 0 else ""))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def integer_text(text: str) -> bool:
    """Whether ``text`` is in the integer tier's grammar: rows of ASCII
    digits and commas, one field count, LF or CRLF line ends, blank and
    full-line '#' lines aside, and every value at most the int64 maximum."""
    if "\r" in text.replace("\r\n", ""):
        return False
    rows = [line for line in text.replace("\r\n", "\n").split("\n")
            if line and not line.startswith("#")]
    return (bool(rows) and all(re.fullmatch(r"[0-9]+(,[0-9]+)*", row) for row in rows)
            and len({row.count(",") for row in rows}) == 1
            and all(int(token) <= 2**63 - 1 for row in rows for token in row.split(",")))


def _outcome(fn):
    try:
        return fn()
    except BicsiError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(trace_texts(), st.sampled_from([AMPLITUDE_CSV, IQ_CSV]))
@example("1_000,2\r\n# c\n\n+1,.5\n", AMPLITUDE_CSV)
@example("1,2\n3,4 # note\n", AMPLITUDE_CSV)
@example("1,-0,1e3\n", IQ_CSV)
@example("-0,5\n", AMPLITUDE_CSV)
@example("007,+1\n", AMPLITUDE_CSV)
@example("9007199254740993,1\n", AMPLITUDE_CSV)  # 2**53 + 1 rounds like float()
@example("99999999999999999999,1\n", AMPLITUDE_CSV)  # beyond int64
@example("1,2\n3,4\n5,6\n7,2.5\n", AMPLITUDE_CSV)
@example("-3,-4\n0,-12\n", IQ_CSV)
@example("5\x1c,1\n", AMPLITUDE_CSV)  # the integer parse must hand 0x1c to the validator
@example("1,2\n3\x1f,4\n", IQ_CSV)
@example("# a\r5,6\n1,2\n", AMPLITUDE_CSV)  # a lone CR ends a comment line for the reader
@example("1,2,3\n4\n5\n", AMPLITUDE_CSV)  # ragged rows whose line ends fill whole rows
@example("1,2,3,4\n5\n6,7\n", IQ_CSV)
@example("2.5,1\n3,4\n", AMPLITUDE_CSV)  # float text in the first data line
@example("+1,2\n3,4\n", AMPLITUDE_CSV)
@example("\ufeff1,2\n3,4\n", AMPLITUDE_CSV)  # a UTF-8 BOM is no '#'
@example("# caf\u00e9, 2.5 -x\n1,2\n3,4\n", AMPLITUDE_CSV)  # a comment keeps int64 rows
def test_fast_parse_matches_per_line_validator(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            expected = _outcome(lambda: _validate_lines(path, fh.readlines(), fmt))
        actual = _outcome(lambda: load_trace(path, fmt))
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        if fmt == IQ_CSV:
            expected = expected.reshape(len(expected), -1, 2)
        assert isinstance(actual, np.ndarray)
        assert actual.shape == expected.shape
        # integer text stays integer; its float64 cast is the validator's bits
        assert (actual.dtype == np.int64) == (fmt == AMPLITUDE_CSV and integer_text(text))
        assert actual.astype(np.float64).tobytes() == expected.tobytes()  # -0.0 included


# 360 KB of desk-width rows, one np.fromstring call; a defect sits 10 rows
# from the start or the end of it
LARGE_ROWS = 400


def large_trace_rows(seed=0) -> list:
    rng = np.random.default_rng(seed)
    return [",".join(map(str, row)).encode()
            for row in rng.integers(0, 1024, size=(LARGE_ROWS, 230)).tolist()]


def _set_field(row: bytes, token: bytes, index: int = 5) -> bytes:
    fields = row.split(b",")
    fields[index] = token
    return b",".join(fields)


# defect -> (rows, i) -> trace bytes, the defect placed at row i
LARGE_DEFECTS = {
    "ragged row": lambda rows, i: rows[:i] + [rows[i].rsplit(b",", 1)[0]] + rows[i + 1:],
    "rows of two widths": lambda rows, i: (rows[:i] + [rows[i].rsplit(b",", 1)[0]]
                                           + [rows[i + 1] + b",7"] + rows[i + 2:]),
    # two short rows whose fields and line ends fill exactly one full row
    "row split short": lambda rows, i: (rows[:i] + [b",".join(rows[i].split(b",")[:5]),
                                                    b",".join(rows[i].split(b",")[5:-1])]
                                        + rows[i + 1:]),
    "-0 token": lambda rows, i: rows[:i] + [_set_field(rows[i], b"-0")] + rows[i + 1:],
    "19-digit token": lambda rows, i: (rows[:i] + [_set_field(rows[i], b"9999999999999999999")]
                                       + rows[i + 1:]),
    "int64 maximum": lambda rows, i: (rows[:i] + [_set_field(rows[i], b"9223372036854775807")]
                                      + rows[i + 1:]),
    "empty field": lambda rows, i: rows[:i] + [_set_field(rows[i], b"")] + rows[i + 1:],
    "# comment": lambda rows, i: rows[:i] + [b"# a comment"] + rows[i:],
    "blank line": lambda rows, i: rows[:i] + [b""] + rows[i:],
    "CRLF": lambda rows, i: [row + b"\r" for row in rows],
    "lone CR": lambda rows, i: rows[:i] + [rows[i] + b"\r" + rows[i + 1]] + rows[i + 2:],
    "non-UTF-8 comment": lambda rows, i: rows[:i] + [b"# caf\xe9"] + rows[i:],
}


def write_large_trace(tmp_path, rows) -> Path:
    path = tmp_path / "large.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    return path


class TestSplitParse:
    """Large integer traces, each parsed by one ``np.fromstring`` call. The
    class name and the "main"/"worker" ids date from a two-thread split of
    the parse; they are kept so that the suite's test ids stay the same."""

    def test_matches_loadtxt(self, tmp_path):
        path = write_large_trace(tmp_path, large_trace_rows())
        trace = load_trace(path)
        expected = np.loadtxt(path, delimiter=",", dtype=np.int64)
        assert (trace.shape, trace.dtype) == (expected.shape, np.int64)
        assert np.array_equal(trace, expected)

    # "main" puts the defect near the start of the trace, "worker" near the end
    @pytest.mark.parametrize("where", ["main", "worker"])
    @pytest.mark.parametrize("defect", sorted(LARGE_DEFECTS))
    def test_defect_gives_the_validators_outcome(self, tmp_path, defect, where):
        rows = large_trace_rows()
        data = LARGE_DEFECTS[defect](rows, 10 if where == "main" else LARGE_ROWS - 10)
        path = write_large_trace(tmp_path, data)
        expected = _outcome(lambda: _validate_lines(path, read_lines(path, TraceParseError),
                                                    AMPLITUDE_CSV))
        actual = _outcome(lambda: load_trace(path))
        if isinstance(expected, tuple):
            assert actual == expected
            return
        assert actual.shape == expected.shape
        assert (actual.dtype == np.int64) == integer_text(path.read_bytes().decode())
        assert actual.astype(np.float64).tobytes() == expected.tobytes()


def amp_rows(rows):
    return np.asarray([list(row) for row in rows], dtype=float)


class TestBuildMatrix:
    def test_filter_removes_columns(self):
        rows = [range(256) for _ in range(3)]
        flt = SubcarrierFilter(frozenset(range(26)))
        matrix = build_matrix(amp_rows(rows), flt)
        assert matrix.subcarrier_count == 230
        assert matrix.subcarrier_mask == tuple(range(26, 256))

    def test_empty_filter_keeps_width(self):
        matrix = build_matrix(amp_rows([[1, 2, 3]]), SubcarrierFilter())
        assert matrix.subcarrier_count == 3

    def test_no_filter_argument(self):
        matrix = build_matrix(amp_rows([[1, 2, 3]]))
        assert matrix.subcarrier_count == 3

    def test_integer_passthrough(self):
        matrix = build_matrix(amp_rows([[7, 0, 1023]]))
        assert matrix.data.tolist() == [[7, 0, 1023]]

    def test_floor_applied(self):
        matrix = build_matrix(amp_rows([[7.9, 0.2, 1023.99]]))
        assert matrix.data.tolist() == [[7, 0, 1023]]

    def test_floor_idempotent(self):
        once = build_matrix(amp_rows([[7.9, 0.2]]))
        twice = build_matrix(amp_rows([once.data[0].tolist()]))
        assert once.data.tolist() == twice.data.tolist()

    def test_filter_out_of_range(self):
        with pytest.raises(ConfigError):
            build_matrix(amp_rows([[1, 2, 3]]), SubcarrierFilter(frozenset({3})))

    def test_filter_everything_rejected(self):
        with pytest.raises(ConfigError):
            build_matrix(amp_rows([[1, 2]]), SubcarrierFilter(frozenset({0, 1})))

    def test_ragged_records(self):
        with pytest.raises(LengthMismatchError, match="packet 1"):
            build_matrix([[1.0, 2.0], [1.0]])

    def test_no_records(self):
        with pytest.raises(EmptyTraceError):
            build_matrix([])

    @pytest.mark.parametrize(("trace", "error", "message"), [
        # rows of one length that numpy cannot stack: its own error, re-raised
        ([[1, 2], [3, [4]]], ValueError, "^setting an array element with a sequence"),
        (np.array([1, 2]), ValueError,
         r"^trace must be \(packets, subcarriers\) or \(packets, subcarriers, 2\)$"),
        (np.zeros((2, 3, 3)), ValueError,
         r"^trace must be \(packets, subcarriers\) or \(packets, subcarriers, 2\)$"),
        (np.zeros((2, 0), dtype=np.int64), EmptyTraceError, "^records have zero subcarriers$"),
        (np.zeros((2, 0, 2)), EmptyTraceError, "^records have zero subcarriers$"),
    ], ids=["unstackable", "1-D", "last-axis-3", "zero-columns", "zero-iq-columns"])
    def test_shape_checks_are_named(self, trace, error, message):
        with pytest.raises(error, match=message) as caught:
            build_matrix(trace)
        assert caught.type is error

    @pytest.mark.parametrize(("fmt", "text"), [
        (AMPLITUDE_CSV, "5,1e19\n"),
        (IQ_CSV, "1e308,1e308,3,4\n"),  # the magnitude overflows to inf
    ])
    def test_amplitude_beyond_int64_names_the_bound(self, tmp_path, fmt, text):
        trace = load_trace(write_trace(tmp_path, text), fmt)
        with pytest.raises(DataDomainError, match=r"2\*\*63"):
            build_matrix(trace)

    @pytest.mark.parametrize(("rows", "excluded", "message"), [
        ([[math.nan, -1.0]], (), "values must be finite"),
        ([[-1.0, math.inf]], (), "values must be finite"),
        ([[-math.inf, 1.0]], (), "values must be finite"),  # not "negative amplitude"
        ([[1.0, math.nan]], (1,), "values must be finite"),  # checked over every raw column
        ([[1.0, -1.0]], (1,), "negative amplitude"),  # checked over every raw column
        ([[1e19, -1.0]], (), "negative amplitude"),  # before the int64 bound
        ([[1.0, 1e19]], (), r"below 2\*\*63"),
        (np.array([[1, -1]]), (1,), "negative amplitude"),  # the integer path
        (np.array([[1, 2**63]], dtype=np.uint64), (), r"below 2\*\*63"),
    ])
    def test_domain_checks_keep_their_order(self, rows, excluded, message):
        with pytest.raises(DataDomainError, match=message):
            build_matrix(np.asarray(rows), SubcarrierFilter(frozenset(excluded)))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    def test_int64_bound_is_checked_over_kept_columns_only(self, dtype):
        matrix = build_matrix(np.array([[3, 2**63]], dtype=dtype), SubcarrierFilter(frozenset({1})))
        assert matrix.data.tolist() == [[3]]

    @pytest.mark.parametrize("token", ["9223372036854775807", "0009223372036854775807"])
    def test_int64_maximum_loads_as_int64(self, tmp_path, token):
        trace = load_trace(write_trace(tmp_path, f"{token},5\n7,8\n"))
        assert trace.dtype == np.int64
        assert build_matrix(trace).data.tolist() == [[2**63 - 1, 5], [7, 8]]

    def test_integer_trace_keeps_its_values(self):
        trace = np.array([[2**53 + 1, 0], [7, 2**63 - 1]], dtype=np.int64)
        matrix = build_matrix(trace)
        assert matrix.data.dtype == np.int64
        assert matrix.data.tolist() == trace.tolist()

    def test_iq_records_match_scalar_op(self):
        rng = np.random.default_rng(5)
        iq = rng.normal(0, 100, size=(6, 4, 2))
        matrix = build_matrix(iq)
        for r, row in enumerate(iq.tolist()):
            for c, (i_val, q_val) in enumerate(row):
                assert matrix.data[r, c] == math.floor(math.hypot(i_val, q_val))

    @given(st.integers(2, 30), st.sets(st.integers(0, 29), max_size=20))
    def test_width_contract(self, width, excluded):
        excluded = {i for i in excluded if i < width}
        if len(excluded) == width:
            excluded.pop()
        matrix = build_matrix(
            amp_rows([range(width)]), SubcarrierFilter(frozenset(excluded))
        )
        assert matrix.subcarrier_count == width - len(excluded)


class TestAmplitudeMatrix:
    def test_rejects_negative(self):
        with pytest.raises(DataDomainError):
            AmplitudeMatrix(data=np.array([[-1]], dtype=np.int64), subcarrier_mask=(0,))

    def test_rejects_float_dtype(self):
        with pytest.raises(ValueError):
            AmplitudeMatrix(data=np.ones((1, 1)), subcarrier_mask=(0,))

    @pytest.mark.parametrize("entry", [0.7, "3"])
    def test_mask_entry_not_an_integer_is_named(self, entry):
        with pytest.raises(ValueError, match=rf"^subcarrier_mask entry 1 is {entry!r}, not an"):
            AmplitudeMatrix(data=np.zeros((1, 2), dtype=np.int64), subcarrier_mask=(4, entry))

    @pytest.mark.parametrize(("data", "mask", "message"), [
        (np.zeros(2, dtype=np.int64), (0, 1),
         r"^amplitude data must be 2-D \(packets x subcarriers\)$"),
        (np.zeros((1, 2), dtype=np.int64), (0,),
         "^subcarrier_mask length must equal the column count$"),
    ], ids=["1-D", "mask-length"])
    def test_shape_checks_are_named(self, data, mask, message):
        with pytest.raises(ValueError, match=message) as caught:
            AmplitudeMatrix(data=data, subcarrier_mask=mask)
        assert caught.type is ValueError

    def test_numpy_mask_entries_become_ints(self):
        mask = np.array([4, 7], dtype=np.int64)
        matrix = AmplitudeMatrix(data=np.zeros((1, 2), dtype=np.int64), subcarrier_mask=mask)
        assert matrix.subcarrier_mask == (4, 7)
        assert [type(i) for i in matrix.subcarrier_mask] == [int, int]

    def test_data_read_only(self):
        matrix = build_matrix(amp_rows([[1, 2]]))
        with pytest.raises(ValueError):
            matrix.data[0, 0] = 5


class TestLabeledTrace:
    @staticmethod
    def trace(coord) -> LabeledTrace:
        return LabeledTrace(AmplitudeMatrix(np.ones((1, 2), dtype=np.int64), (0, 1)), "p1", coord)

    @pytest.mark.parametrize("coord", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_coordinate_rejected(self, coord):
        with pytest.raises(ValueError, match=r"^trace 'p1': coordinates must be finite$"):
            self.trace(coord)

    @pytest.mark.parametrize("coord", [(0, 0, 9), (1,), 5])
    def test_coordinate_not_a_pair_rejected(self, coord):
        message = r"^trace 'p1': coordinates must be an \(x, y\) pair$"
        with pytest.raises(ValueError, match=message):
            self.trace(coord)


FROZEN_ARRAY_OWNERS = {
    "AmplitudeMatrix": (lambda a: AmplitudeMatrix(a, (0, 1)), "data", np.int64),
    "GeneMatrix": (lambda a: GeneMatrix(a, 1), "packed", np.uint8),
    "SynthDataset": (lambda a: SynthDataset((), a, 0.0), "profiles", np.float64),
}


@pytest.mark.parametrize("owner", sorted(FROZEN_ARRAY_OWNERS))
def test_constructor_leaves_the_callers_array_writable(owner):
    make, field, dtype = FROZEN_ARRAY_OWNERS[owner]
    shape = (2, 1) if owner == "GeneMatrix" else (2, 2)
    caller = np.zeros(shape, dtype=dtype)
    held = getattr(make(caller), field)
    assert not held.flags.writeable
    assert caller.flags.writeable
    caller[0, 0] = 3  # the caller may still write its own array


class TestSubcarrierFilter:
    def test_load_filter(self, tmp_path):
        path = tmp_path / "filter.txt"
        path.write_text("# pilots\n0\n5\n17  # trailing comment\n\n")
        assert load_filter(path).excluded_indices == frozenset({0, 5, 17})

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "filter.txt"
        path.write_text("3\n3\n")
        with pytest.raises(ConfigError):
            load_filter(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "filter.txt"
        path.write_text("-2\n")
        with pytest.raises(ConfigError):
            load_filter(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "filter.txt"
        path.write_text("abc\n")
        with pytest.raises(ConfigError):
            load_filter(path)

    def test_constructor_validates(self):
        with pytest.raises(ConfigError):
            SubcarrierFilter(frozenset({-1}))

    @pytest.mark.parametrize(("index", "message"), [
        ("3", "^subcarrier index '3' is not an integer$"),
        (2.0, "^subcarrier index 2.0 is not an integer$"),
    ])
    def test_constructor_names_a_non_integer_index(self, index, message):
        with pytest.raises(ConfigError, match=message):
            SubcarrierFilter(frozenset({index}))
