"""Loading CSI traces from CSV files and assembling integer amplitude matrices.

A trace file is read once, as bytes. Integer text parses to int64 with one
``np.fromstring`` call, so the common path pays for no per-packet Python
objects; all other text goes to the per-line validator, which keeps parse
errors' line numbers.
Phase information is never used: I/Q inputs are reduced to their magnitude
and floored to integers when the matrix is built, float amplitudes are
floored and integer amplitudes kept as they are.
Excluded subcarriers (pilots, invariant bins) are dropped by a configurable
index filter; there is no built-in exclusion list because the indices are
hardware-specific. A labeled trace tags a matrix with its finite (x, y) truth.
"""

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataDomainError,
    EmptyTraceError,
    LengthMismatchError,
    TraceParseError,
)
from .ioutil import decode_lines, read_lines

AMPLITUDE_CSV = "amplitude-csv"
IQ_CSV = "iq-csv"
TRACE_FORMATS = (AMPLITUDE_CSV, IQ_CSV)


@dataclass(frozen=True)
class SubcarrierFilter:
    """Set of 0-based raw subcarrier indices to drop before encoding."""

    excluded_indices: frozenset = frozenset()

    def __post_init__(self):
        normalized = set()
        for idx in self.excluded_indices:
            try:
                idx = operator.index(idx)
            except TypeError:
                raise ConfigError(f"subcarrier index {idx!r} is not an integer") from None
            if idx < 0:
                raise ConfigError(f"subcarrier index {idx} is negative")
            normalized.add(idx)
        object.__setattr__(self, "excluded_indices", frozenset(normalized))


def load_filter(path) -> SubcarrierFilter:
    """Read a filter file: one 0-based index per line, '#' comments allowed."""
    seen = set()
    for lineno, line in enumerate(read_lines(path, ConfigError), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            idx = int(text)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: not an integer index: {text!r}") from None
        if idx < 0:
            raise ConfigError(f"{path}: line {lineno}: negative subcarrier index {idx}")
        if idx in seen:
            raise ConfigError(f"{path}: line {lineno}: duplicate subcarrier index {idx}")
        seen.add(idx)
    return SubcarrierFilter(frozenset(seen))


def _mask_tuple(entries) -> tuple:
    """Mask entries as Python ints; an entry ``int()`` would truncate (0.7)
    or parse ("3") raises ValueError naming it."""
    mask = []
    for i, entry in enumerate(entries):
        try:
            mask.append(operator.index(entry))
        except TypeError:
            raise ValueError(f"subcarrier_mask entry {i} is {entry!r}, not an integer") from None
    return tuple(mask)


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Integer CSI amplitudes, packets by retained subcarriers.

    ``subcarrier_mask`` lists the retained raw column indices in order, so
    the matrix remembers which physical subcarriers its columns came from.
    ``data`` is checked once, here, and kept as a read-only view; the
    caller's array stays writable. ``encode_matrix`` trusts the checks, so
    do not write to the array it views.
    """

    data: np.ndarray
    subcarrier_mask: tuple

    def __post_init__(self):
        data = np.asarray(self.data).view()  # a view: the caller's array stays writable
        if data.ndim != 2:
            raise ValueError("amplitude data must be 2-D (packets x subcarriers)")
        if data.dtype.kind not in "iu":  # signed or unsigned integers; not bool
            raise ValueError("amplitude data must have an integer dtype")
        if data.dtype.kind == "i" and data.size and int(data.min()) < 0:
            raise DataDomainError("amplitudes must be non-negative")
        mask = self.subcarrier_mask
        # a tuple of exact ints, what build_matrix makes, passes as it is
        if type(mask) is not tuple or list(map(type, mask)).count(int) != len(mask):
            mask = _mask_tuple(mask)
        if len(mask) != data.shape[1]:
            raise ValueError("subcarrier_mask length must equal the column count")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "subcarrier_mask", mask)

    @property
    def packet_count(self) -> int:
        return int(self.data.shape[0])

    @property
    def subcarrier_count(self) -> int:
        return int(self.data.shape[1])


def finite_coord(coord, owner: str) -> tuple:
    """``coord`` as an (x, y) pair of finite floats; a ValueError names ``owner``."""
    try:
        x, y = coord
    except (TypeError, ValueError):
        raise ValueError(f"{owner}: coordinates must be an (x, y) pair") from None
    coord = (float(x), float(y))
    if not all(map(math.isfinite, coord)):
        raise ValueError(f"{owner}: coordinates must be finite")
    return coord


@dataclass(frozen=True)
class LabeledTrace:
    """An amplitude matrix tagged with its ground-truth position and, when
    it was read from a file, that file's path."""

    matrix: AmplitudeMatrix
    true_label: str
    true_coord: tuple
    path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "true_coord",
                           finite_coord(self.true_coord, f"trace {self.true_label!r}"))

    @property
    def name(self) -> str:
        """How errors name the trace: its file, when known, then its label."""
        label = f"trace {self.true_label!r}"
        return label if self.path is None else f"{self.path}: {label}"


def _validate_lines(path, lines, format: str) -> np.ndarray:
    """Per-line parse of a trace's raw lines into a (packets, fields) array.

    The reference grammar: each data line is checked in file order and the
    first violation raises with its line number. :func:`load_trace` calls it
    for all text that its integer parse does not take, so every error
    message comes from here.
    """
    rows = []
    width = None
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        try:
            numbers = [float(f) for f in fields]
        except ValueError:
            raise TraceParseError(f"{path}: line {lineno}: non-numeric field") from None
        if any(not math.isfinite(v) for v in numbers):
            raise DataDomainError(f"{path}: line {lineno}: non-finite value")
        if width is None:
            width = len(numbers)
            if format == IQ_CSV and width % 2:
                raise TraceParseError(
                    f"{path}: line {lineno}: I/Q rows need an even field count, got {width}"
                )
        elif len(numbers) != width:
            raise TraceParseError(
                f"{path}: line {lineno}: expected {width} fields, got {len(numbers)}"
            )
        if format == AMPLITUDE_CSV and any(v < 0 for v in numbers):
            raise DataDomainError(f"{path}: line {lineno}: negative amplitude")
        rows.append(numbers)
    if not rows:
        raise EmptyTraceError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


# Integer text: one row per line, nothing but ASCII digits and commas
_INT_GRAMMAR = b"0123456789,\n"
# Each line end becomes a -1 field, which integer text cannot hold, so one
# parse gives every row's field count: the rows check by their shape.
_ROW_END = b",-1,"
_INT64_MAX = int(np.iinfo(np.int64).max)  # np.fromstring saturates an overflowing token here


def _int_tier(raw: bytes) -> np.ndarray | None:
    """The fast path of :func:`load_trace`: the trace's integers as int64, or None.

    It accepts only ASCII digits and commas in LF- or CRLF-ended rows of one
    field count with no empty field; blank lines and lines starting with
    '#' (UTF-8 text) are skipped. Anything else (a sign, a point, a space, a
    lone CR) and a value past the int64 maximum give None.
    """
    text = raw
    if b"\r" in text:
        if text.count(b"\r") != text.count(b"\r\n"):
            return None  # a lone CR, which the text reader also takes as a line end
        text = text.replace(b"\r\n", b"\n")
    if not text.endswith(b"\n"):
        text += b"\n"
    newline = np.frombuffer(text, dtype=np.uint8) == 10
    if b"#" in text or newline[0] or bool((newline[1:] & newline[:-1]).any()):
        if not raw.isascii():
            try:
                raw.decode("utf-8")  # only a comment can hold a non-ASCII byte
            except UnicodeDecodeError:
                return None
        text = b"".join(line for line in text.splitlines(keepends=True)
                        if line != b"\n" and not line.startswith(b"#"))
    if text.translate(None, _INT_GRAMMAR):
        return None
    fields = text[:text.find(b"\n")].count(b",") + 1
    try:
        values = np.fromstring(text.replace(b"\n", _ROW_END), dtype=np.int64, sep=",")
    except ValueError:
        return None
    if values.size % (fields + 1):
        return None
    rows = values.reshape(-1, fields + 1)
    if (rows[:, -1] != -1).any():
        return None
    values = rows[:, :-1]
    # integer text holds no '-', so a -1 among the values is a line end that
    # ragged rows moved off the end of its row
    if not values.size or values.min() < 0:
        return None
    if values.max() == _INT64_MAX and any(
            int(token) > _INT64_MAX for token in re.findall(rb"[0-9]{19,}", text)):
        return None  # a token past the bound, saturated: not the literal maximum
    return values


def load_trace(path, format: str = AMPLITUDE_CSV) -> np.ndarray:
    """Parse a trace CSV into an array, one row per packet.

    Grammar: UTF-8, comma-separated numeric fields; lines starting with '#'
    and blank lines are skipped; every data row must have the same field
    count. ``amplitude-csv`` returns shape (packets, subcarriers) of
    non-negative values. In ``iq-csv`` each row holds 2r fields read as
    (I1, Q1, ..., Ir, Qr), returned as float64 of shape (packets, r, 2).

    The file is read once, as bytes. Integer text (ASCII digits, commas, LF
    or CRLF, '#' comments and blank lines) parses to int64 in one
    ``np.fromstring`` call. All other text, and an I/Q trace of odd width,
    goes to the per-line validator, which returns float64 or raises the
    first line-numbered error.
    """
    if format not in TRACE_FORMATS:
        raise ConfigError(f"unknown trace format {format!r}; expected one of {TRACE_FORMATS}")
    with open(path, "rb") as fh:
        raw = fh.read()
    arr = _int_tier(raw)
    if arr is None or (format == IQ_CSV and arr.shape[1] % 2):
        arr = _validate_lines(path, decode_lines(path, raw, TraceParseError), format)
    if format == IQ_CSV:
        return arr.astype(np.float64, copy=False).reshape(len(arr), -1, 2)
    return arr


def _trace_array(trace) -> np.ndarray:
    """``trace`` as an integer or float array; ragged rows name the first bad packet."""
    try:
        arr = np.asarray(trace)
        return arr if arr.dtype.kind in "iu" else arr.astype(np.float64)
    except ValueError:
        rows = list(trace)
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise LengthMismatchError(
                    f"packet {i}: expected {width} values, got {len(row)}"
                ) from None
        raise


def build_matrix(trace, subcarrier_filter: SubcarrierFilter | None = None) -> AmplitudeMatrix:
    """Integer amplitude matrix with excluded raw columns removed.

    ``trace`` is a :func:`load_trace` array: (packets, subcarriers)
    amplitudes, or (packets, subcarriers, 2) I/Q pairs, each reduced to the
    integer part of its magnitude, floor(hypot(i, q)). Integer amplitudes
    are kept as they are (an int64 trace with every column kept is viewed,
    not copied); float amplitudes are floored. Retained columns keep their
    original relative order.
    """
    arr = _trace_array(trace)
    if arr.ndim and arr.shape[0] == 0:
        raise EmptyTraceError("no records to assemble")
    iq = arr.ndim == 3 and arr.shape[2] == 2
    if not (arr.ndim == 2 or iq):
        raise ValueError("trace must be (packets, subcarriers) or (packets, subcarriers, 2)")
    width = arr.shape[1]
    if width == 0:
        raise EmptyTraceError("records have zero subcarriers")

    flt = subcarrier_filter if subcarrier_filter is not None else SubcarrierFilter()
    out_of_range = sorted(i for i in flt.excluded_indices if i >= width)
    if out_of_range:
        raise ConfigError(
            f"excluded subcarrier indices {out_of_range} out of range for width {width}"
        )
    keep = tuple(i for i in range(width) if i not in flt.excluded_indices)
    if not keep:
        raise ConfigError("filter excludes every subcarrier")

    # finiteness and sign are checked over every raw column, the int64 bound
    # over the kept ones; min and max are NaN when any value is
    lo, hi = arr.min(), arr.max()
    if arr.dtype.kind == "f" and not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataDomainError("values must be finite")
    if iq:
        amplitudes = np.hypot(arr[..., 0], arr[..., 1])
    else:
        if lo < 0:
            raise DataDomainError("negative amplitude")
        amplitudes = arr
    if len(keep) < width:  # keeping every column needs no copy
        amplitudes = amplitudes[:, keep]
    if iq or len(keep) < width:
        hi = amplitudes.max()
    if hi >= 2**63:  # also catches an I/Q magnitude that overflows to inf
        raise DataDomainError("amplitudes must be below 2**63, the int64 bound")
    # the cast truncates, which is floor for non-negative amplitudes
    return AmplitudeMatrix(data=amplitudes.astype(np.int64, copy=False), subcarrier_mask=keep)
