"""Loading CSI traces from CSV files and assembling integer amplitude matrices.

A trace is parsed into one float array by vectorized ``loadtxt`` calls
plus vectorized domain checks, in this order: the integer parser (traces
are integer amplitudes or I/Q components, and it is about twice as fast),
then the float parser, then the per-line validator. The validator runs only
when both vectorized parses fail, a check fails or the text holds an ASCII
separator 0x1c-0x1f (``loadtxt`` strips it, ``float()`` rejects it), so
parse errors keep their line numbers without the common path paying for
per-packet Python objects. Phase information is never used: I/Q inputs are
reduced to their magnitude and floored to integers when the matrix is built,
amplitude inputs are floored directly.
Excluded subcarriers (pilots, invariant bins) are dropped by a configurable
index filter; there is no built-in exclusion list because the indices are
hardware-specific.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataDomainError,
    EmptyTraceError,
    LengthMismatchError,
    TraceParseError,
)

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

    @classmethod
    def empty(cls) -> "SubcarrierFilter":
        return cls(frozenset())


def load_filter(path) -> SubcarrierFilter:
    """Read a filter file: one 0-based index per line, '#' comments allowed."""
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Integer CSI amplitudes, packets by retained subcarriers.

    ``subcarrier_mask`` lists the retained raw column indices in order, so
    the matrix remembers which physical subcarriers its columns came from.
    """

    data: np.ndarray
    subcarrier_mask: tuple
    position_label: str | None = None

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError("amplitude data must be 2-D (packets x subcarriers)")
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError("amplitude data must have an integer dtype")
        if data.size and int(data.min()) < 0:
            raise DataDomainError("amplitudes must be non-negative")
        mask = tuple(map(int, self.subcarrier_mask))
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


def amplitude_from_iq(i: float, q: float) -> int:
    """Integer part of the complex-channel magnitude sqrt(i^2 + q^2)."""
    i = float(i)
    q = float(q)
    if not (math.isfinite(i) and math.isfinite(q)):
        raise DataDomainError("I/Q components must be finite")
    return int(math.floor(math.hypot(i, q)))


def _validate_lines(path, lines, format: str) -> np.ndarray:
    """Per-line parse of a trace's raw lines into a (packets, fields) array.

    The reference grammar: each data line is checked in file order and the
    first violation raises with its line number. :func:`load_trace` calls it
    only when its vectorized parse fails a check, so every error message
    comes from here.
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


def load_trace(path, format: str = AMPLITUDE_CSV) -> np.ndarray:
    """Parse a trace CSV into a float array, one row per packet.

    Grammar: UTF-8, comma-separated numeric fields; lines starting with '#'
    and blank lines are skipped; every data row must have the same field
    count. ``amplitude-csv`` returns shape (packets, subcarriers) of
    non-negative values. In ``iq-csv`` each row holds 2r fields read as
    (I1, Q1, ..., Ir, Qr), returned as shape (packets, r, 2).
    """
    if format not in TRACE_FORMATS:
        raise ConfigError(f"unknown trace format {format!r}; expected one of {TRACE_FORMATS}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    data = [text for text in map(str.strip, lines) if text and not text.startswith("#")]
    if not data:
        raise EmptyTraceError(f"{path}: no data rows")
    arr = None
    # loadtxt strips the separators \x1c-\x1f that float() rejects: validator only
    vectorized = not any(sep in text for text in data for sep in "\x1c\x1d\x1e\x1f")
    # comments=None: a trailing "# note" must fail the row, as it does per line
    if vectorized and not any("-" in text for text in data):
        # integer parsing is about twice as fast; the float64 cast equals
        # float() on every int64 token except "-0", so any "-" skips it
        try:
            arr = np.loadtxt(data, delimiter=",", ndmin=2, comments=None,
                             dtype=np.int64).astype(np.float64)
        except ValueError:
            pass
    if vectorized and arr is None:
        try:
            arr = np.loadtxt(data, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            pass
    valid = (arr is not None and bool(np.isfinite(arr).all())
             and (arr.shape[1] % 2 == 0 if format == IQ_CSV else not (arr < 0).any()))
    if not valid:
        # raises the line-numbered error, or returns the rows loadtxt cannot
        # read but float() can (digit separators, non-ASCII digits)
        arr = _validate_lines(path, lines, format)
    return arr.reshape(len(arr), -1, 2) if format == IQ_CSV else arr


def _trace_array(trace) -> np.ndarray:
    """``trace`` as a float array; ragged rows name the first bad packet."""
    try:
        return np.asarray(trace, dtype=float)
    except ValueError:
        rows = list(trace)
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise LengthMismatchError(
                    f"packet {i}: expected {width} values, got {len(row)}"
                ) from None
        raise


def build_matrix(trace, subcarrier_filter: SubcarrierFilter | None = None,
                 position_label: str | None = None) -> AmplitudeMatrix:
    """Integer amplitude matrix with excluded raw columns removed.

    ``trace`` is a :func:`load_trace` array: (packets, subcarriers)
    amplitudes, floored, or (packets, subcarriers, 2) I/Q pairs, which go
    through the magnitude-then-floor rule of :func:`amplitude_from_iq`.
    Retained columns keep their original relative order.
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

    flt = subcarrier_filter if subcarrier_filter is not None else SubcarrierFilter.empty()
    out_of_range = sorted(i for i in flt.excluded_indices if i >= width)
    if out_of_range:
        raise ConfigError(
            f"excluded subcarrier indices {out_of_range} out of range for width {width}"
        )
    keep = tuple(i for i in range(width) if i not in flt.excluded_indices)
    if not keep:
        raise ConfigError("filter excludes every subcarrier")

    if not np.all(np.isfinite(arr)):
        raise DataDomainError("values must be finite")
    if iq:
        amplitudes = np.floor(np.hypot(arr[..., 0], arr[..., 1]))
    else:
        if float(arr.min()) < 0:
            raise DataDomainError("negative amplitude")
        amplitudes = np.floor(arr)
    amplitudes = amplitudes[:, keep]
    if float(amplitudes.max()) >= 2.0**63:  # also catches an I/Q magnitude that overflows to inf
        raise DataDomainError("amplitudes must be below 2**63, the int64 bound")
    data = amplitudes.astype(np.int64)
    return AmplitudeMatrix(data=data, subcarrier_mask=keep, position_label=position_label)
