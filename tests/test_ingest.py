"""Trace loading, I/Q magnitude extraction and matrix assembly tests."""

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
from bicsi.ingest import (
    AMPLITUDE_CSV,
    IQ_CSV,
    AmplitudeMatrix,
    SubcarrierFilter,
    _validate_lines,
    amplitude_from_iq,
    build_matrix,
    load_filter,
    load_trace,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e150, max_value=1e150)


class TestAmplitudeFromIq:
    def test_pythagorean_triple(self):
        assert amplitude_from_iq(3.0, 4.0) == 5

    def test_zero(self):
        assert amplitude_from_iq(0.0, 0.0) == 0

    def test_floor_of_sqrt2(self):
        assert amplitude_from_iq(1.0, 1.0) == 1

    @pytest.mark.parametrize("i,q", [(float("nan"), 0.0), (0.0, float("inf")),
                                     (float("-inf"), 1.0)])
    def test_non_finite_rejected(self, i, q):
        with pytest.raises(DataDomainError):
            amplitude_from_iq(i, q)

    @given(finite_floats, finite_floats)
    def test_magnitude_symmetry(self, i, q):
        assert amplitude_from_iq(i, q) == amplitude_from_iq(-i, q) == amplitude_from_iq(q, i)

    @given(finite_floats, finite_floats)
    def test_non_negative(self, i, q):
        assert amplitude_from_iq(i, q) >= 0


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

    def test_integer_trace_returns_float64(self, tmp_path):
        path = write_trace(tmp_path, "0,7\n1023,4095\n")
        trace = load_trace(path)
        assert trace.dtype == np.float64
        assert trace.tolist() == [[0.0, 7.0], [1023.0, 4095.0]]


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
@example("5\x1c,1\n", AMPLITUDE_CSV)  # loadtxt strips the ASCII separators, float() does not
@example("1,2\n3\x1f,4\n", IQ_CSV)
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
        assert (actual.shape, actual.dtype) == (expected.shape, expected.dtype)
        assert actual.tobytes() == expected.tobytes()  # bit-exact, -0.0 included


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
        matrix = build_matrix(amp_rows([[1, 2, 3]]), SubcarrierFilter.empty())
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

    @pytest.mark.parametrize(("fmt", "text"), [
        (AMPLITUDE_CSV, "5,1e19\n"),
        (IQ_CSV, "1e308,1e308,3,4\n"),  # the magnitude overflows to inf
    ])
    def test_amplitude_beyond_int64_names_the_bound(self, tmp_path, fmt, text):
        trace = load_trace(write_trace(tmp_path, text), fmt)
        with pytest.raises(DataDomainError, match=r"2\*\*63"):
            build_matrix(trace)

    def test_iq_records_match_scalar_op(self):
        rng = np.random.default_rng(5)
        iq = rng.normal(0, 100, size=(6, 4, 2))
        matrix = build_matrix(iq)
        for r, row in enumerate(iq.tolist()):
            for c, (i_val, q_val) in enumerate(row):
                assert matrix.data[r, c] == amplitude_from_iq(i_val, q_val)

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

    def test_data_read_only(self):
        matrix = build_matrix(amp_rows([[1, 2]]))
        with pytest.raises(ValueError):
            matrix.data[0, 0] = 5


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
