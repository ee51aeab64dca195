"""Fingerprint derivation and the on-disk fingerprint database.

Offline, per position: every bit column of the training gene sequences is
either fixed to its dominant value (when the zero/one count gap reaches the
threshold) or left open, in which case the first ancestor records 1 and the
second 0. A position may accumulate one ancestor pair per training session.
Online, a parent sequence summarizes a packet window by plain column
majority with ties going to 1: no threshold, mirroring the offline
else-branch convention. Every group of sequences here is one packed
:class:`~bicsi.encoding.GeneMatrix`: a position's training packets, a
trace's parents (a row per window, all the way to the matcher) and an
ancestor pair alike; a single sequence is a one-row GeneMatrix.

The database keeps every ancestor in one packed GeneMatrix whose row order
is the file's payload order, and serializes to a compact little-endian
binary format (magic ``BFPD``) dominated by those packed bits, keeping
whole multi-position databases in the low kilobytes.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoding import GeneMatrix
from .errors import (
    ConfigError,
    DbLengthError,
    DbMagicError,
    DbTruncatedError,
    DbVersionError,
    EmptyInputError,
    LengthMismatchError,
)
from .ingest import finite_coord
from .ioutil import atomic_write_bytes
from .similarity import popcount

DB_MAGIC = b"BFPD"
DB_VERSION = 1
MICRO_UNITS = 1_000_000
DEFAULT_WINDOW_SIZE = 120
DEFAULT_THRESHOLD_FRACTION = 0.05

_HEADER = struct.Struct("<4sBHII")  # magic, version, subcarriers, threshold micro, entries
_U16 = struct.Struct("<H")
_COORDS = struct.Struct("<dd")


def fraction_to_micro(fraction: float) -> int:
    """Threshold fraction as integer micro-units (5% -> 50000)."""
    fraction = float(fraction)
    if not math.isfinite(fraction) or fraction < 0:
        raise ConfigError("threshold fraction must be finite and non-negative")
    micro = round(fraction * MICRO_UNITS)
    if micro > 0xFFFFFFFF:
        raise ConfigError(f"threshold fraction {fraction} does not fit the format")
    return int(micro)


def threshold_count(micro: int, training_count: int) -> int:
    """Materialize a micro-unit fraction as a count: ceil(fraction * n).

    Integer arithmetic throughout, so 5% of 12000 is exactly 600.
    """
    if micro < 0 or training_count < 0:
        raise ConfigError("threshold micro-units and training count must be non-negative")
    return -(-micro * training_count // MICRO_UNITS)


@dataclass(frozen=True)
class FingerprintDb:
    """Offline store of every reference position's ancestors.

    ``labels``, ``coords`` and ``set_counts`` hold one value per position.
    ``ancestors`` holds every ancestor as one packed GeneMatrix in file
    order: a position's rows are contiguous, each of its sets a first
    ancestor followed by its second (open columns hold 1 in the first and 0
    in the second). ``starts`` is each position's first row and
    ``ancestor_ones`` each ancestor row's one-count, both computed once here
    and read-only. ``threshold_micro`` records the threshold used during
    training as a fraction of the training size, in micro-units (the
    serialized form).
    """

    threshold_micro: int
    labels: tuple
    coords: tuple
    set_counts: tuple
    ancestors: GeneMatrix
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    ancestor_ones: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.threshold_micro <= 0xFFFFFFFF:
            raise ValueError("threshold_micro out of range")
        labels, counts = tuple(self.labels), tuple(map(int, self.set_counts))
        if not len(labels) == len(self.coords) == len(counts):
            raise LengthMismatchError("labels, coords and set counts must align")
        coords, seen = [], set()
        for label, coord, count in zip(labels, self.coords, counts):
            if not isinstance(label, str):  # save_db writes each label as UTF-8
                raise ValueError(f"position label {label!r} is not a str")
            if label in seen:
                raise ValueError(f"duplicate position label {label!r}")
            seen.add(label)
            coords.append(finite_coord(coord, f"position {label!r}"))
            if count < 1:
                raise ValueError(f"position {label!r}: needs at least one ancestor set")
        if 2 * sum(counts) != len(self.ancestors):
            raise LengthMismatchError(
                f"{len(self.ancestors)} ancestor rows, the set counts need {2 * sum(counts)}")
        starts = 2 * np.cumsum((0,) + counts, dtype=np.intp)[:-1]
        ancestor_ones = popcount(self.ancestors.packed)
        for array in (starts, ancestor_ones):
            array.setflags(write=False)
        for name, value in (("labels", labels), ("coords", tuple(coords)), ("set_counts", counts),
                            ("starts", starts), ("ancestor_ones", ancestor_ones)):
            object.__setattr__(self, name, value)

    @property
    def subcarrier_count(self) -> int:
        return self.ancestors.subcarrier_count

    @property
    def threshold_fraction(self) -> float:
        return self.threshold_micro / MICRO_UNITS


def _run_counts(packed: np.ndarray) -> np.ndarray:
    """uint8 one-count of every bit column over axis -2 of at most 255 packed
    ``uint8`` rows; leading axes are groups.

    Each unpacked bit is a byte lane of a uint64 word, so one word add counts
    eight columns; a lane holds at most 255, hence the run length.
    """
    return np.unpackbits(packed, axis=-1).view(np.uint64).sum(axis=-2).view(np.uint8)


def _column_counts(packed: np.ndarray) -> np.ndarray:
    """int64 one-count of every bit column over axis -2 of packed ``uint8``
    rows, leading axes being groups, summed one :func:`_run_counts` run of
    255 rows at a time."""
    counts = np.zeros(packed.shape[:-2] + (8 * packed.shape[-1],), dtype=np.int64)
    for lo in range(0, packed.shape[-2], 255):
        counts += _run_counts(packed[..., lo:lo + 255, :])
    return counts


def training_counts(positions) -> tuple:
    """Sizes ``(P,)`` and bit-column one-counts ``(P, 2k)`` of P training
    positions given as (label, (x, y), GeneMatrix), as :func:`build_db` takes
    them; an empty set or one whose bit length differs from the first raises
    an error naming its position."""
    sets = [(f"position {label!r}", gm) for label, _, gm in positions]
    for name, gm in sets:
        if not len(gm):
            raise EmptyInputError(f"{name}: no training sequences")
        if gm.bit_length != sets[0][1].bit_length:
            raise LengthMismatchError(
                f"{name}: {gm.bit_length} bits, expected {sets[0][1].bit_length}")
    return (np.array([len(gm) for _, gm in sets], dtype=np.int64),
            np.stack([_column_counts(gm.packed)[: gm.bit_length] for _, gm in sets]))


def ancestor_matrices(sizes, ones, trs) -> tuple:
    """First and second ancestors of P training sets at once, as two P-row
    GeneMatrix, from their sizes n ``(P,)``, bit-column one-counts N1
    ``(P, 2k)`` and integer thresholds tr ``(P,)`` (or one for all).

    A column with |n - 2 N1| >= tr is decided: both ancestors take its
    majority bit, exact ties giving 1. Any other column is balanced and
    keeps (1, 0), so a tr above n leaves the pair all-ones / all-zeros.
    """
    trs = np.asarray(trs, dtype=np.int64).reshape(-1, 1)
    if (trs < 0).any():
        raise ConfigError("threshold count must be non-negative")
    majority = 2 * ones >= sizes[:, None]
    decided = np.abs(sizes[:, None] - 2 * ones) >= trs
    return GeneMatrix._pack(majority | ~decided), GeneMatrix._pack(majority & decided)


def check_window_size(size: int) -> None:
    if size < 1:
        raise ConfigError("window size must be >= 1")


def _too_short(owner: str, packets: int, size: int) -> EmptyInputError:
    """The error for a trace of ``packets`` that gives no ``size``-packet window."""
    return EmptyInputError(f"{owner}: {packets} packets, too few for one {size}-packet window "
                           "(a window needs at least half its size)")


def windows(gm: GeneMatrix, size: int = DEFAULT_WINDOW_SIZE) -> GeneMatrix:
    """Parent sequences of consecutive ``size``-row windows of a trace's
    GeneMatrix, one row per window. The rows left over are a last, shorter
    window when they are at least half a window long, else they are dropped:
    the one place the tail rule is written. A trace shorter than half a
    window gives zero rows.

    Each parent is the column majority of its window, exact ties giving 1:
    ones >= ceil(len/2). A window of at most 255 rows is one
    :func:`_run_counts` run, read from the uint8 lane sums; only the widened
    :func:`_column_counts` are exact past that.
    """
    check_window_size(size)
    count = _run_counts if size <= 255 else _column_counts
    packed, full = gm.packed, len(gm.packed) // size
    bits = count(packed[: full * size].reshape(full, size, packed.shape[1])) >= (size + 1) // 2
    tail = packed[full * size:]
    if 2 * len(tail) >= size:
        bits = np.concatenate([bits, (count(tail) >= (len(tail) + 1) // 2)[None]])
    return GeneMatrix._pack(bits[:, : gm.bit_length])


def build_db(positions, threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION) -> FingerprintDb:
    """Derive one ancestor set per position and assemble the database.

    ``positions`` yields (label, (x, y), training GeneMatrix); the threshold
    count for each position is ceil(fraction * its own training size).
    """
    micro = fraction_to_micro(threshold_fraction)
    positions = list(positions)
    if not positions:
        raise EmptyInputError("no positions to train on")
    sizes, ones = training_counts(positions)
    as1, as2 = ancestor_matrices(sizes, ones, [threshold_count(micro, n) for n in sizes])
    labels, coords, _ = zip(*positions)
    rows = np.stack([as1.packed, as2.packed], axis=1).reshape(-1, as1.packed.shape[1])
    return FingerprintDb(micro, labels, coords, (1,) * len(labels),
                         GeneMatrix(rows, as1.subcarrier_count))


def db_to_bytes(db: FingerprintDb) -> bytes:
    """Serialize to the binary database format (see the package README):
    each entry's ancestors are one row slice of ``db.ancestors``."""
    if db.subcarrier_count > 0xFFFF:
        raise ConfigError("subcarrier count does not fit the format (u16)")
    if len(db.labels) > 0xFFFFFFFF:
        raise ConfigError("entry count does not fit the format (u32)")
    chunks = [_HEADER.pack(DB_MAGIC, DB_VERSION, db.subcarrier_count,
                           db.threshold_micro, len(db.labels))]
    for label, coord, count, start in zip(db.labels, db.coords, db.set_counts, db.starts):
        raw = label.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ConfigError(f"label {label!r} exceeds the format limit")
        if count > 0xFFFF:
            raise ConfigError(f"position {label!r} has too many ancestor sets")
        chunks += [_U16.pack(len(raw)), raw, _COORDS.pack(*coord), _U16.pack(count),
                   db.ancestors.packed[start:start + 2 * count].tobytes()]
    return b"".join(chunks)


def save_db(db: FingerprintDb, path) -> None:
    """Write the database atomically (temp file + rename)."""
    atomic_write_bytes(path, db_to_bytes(db))


def db_from_bytes(buf: bytes) -> FingerprintDb:
    """Parse the binary database format, rejecting each corruption class
    with its own error type."""
    pos = 0

    def take(count: int, what: str) -> bytes:
        nonlocal pos
        if pos + count > len(buf):
            raise DbTruncatedError(f"file ends inside {what}: need {count} bytes at offset "
                                   f"{pos}, have {len(buf) - pos}")
        pos += count
        return buf[pos - count:pos]

    magic, version, k, micro, entry_count = _HEADER.unpack(take(_HEADER.size, "header"))
    if magic != DB_MAGIC:
        raise DbMagicError(f"bad magic {magic!r}, expected {DB_MAGIC!r}")
    if version != DB_VERSION:
        raise DbVersionError(f"unsupported format version {version}, expected {DB_VERSION}")
    seq_bytes = (2 * k + 7) // 8
    labels, coords, counts, blocks = [], [], [], []
    for i in range(entry_count):
        where = f"entry {i}"
        (label_len,) = _U16.unpack(take(_U16.size, f"{where} label length"))
        raw_label = take(label_len, f"{where} label")
        try:
            labels.append(raw_label.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DbLengthError(f"{where}: label is not valid UTF-8") from exc
        coord = _COORDS.unpack(take(_COORDS.size, f"{where} coordinates"))
        (set_count,) = _U16.unpack(take(_U16.size, f"{where} set count"))
        if set_count == 0:
            raise DbLengthError(f"{where} ({labels[-1]!r}): zero ancestor sets")
        counts.append(set_count)
        blocks.append(take(2 * set_count * seq_bytes, f"{where} ancestors"))
        try:  # the coordinate and padding checks, naming the entry
            coords.append(finite_coord(coord, f"position {labels[-1]!r}"))
            GeneMatrix(np.frombuffer(blocks[-1], np.uint8).reshape(2 * set_count, seq_bytes), k)
        except ValueError as exc:
            raise DbLengthError(f"{where}: {exc}") from exc
    if pos != len(buf):
        raise DbLengthError(f"{len(buf) - pos} trailing bytes after the last entry")
    try:
        rows = np.frombuffer(b"".join(blocks), np.uint8).reshape(2 * sum(counts), seq_bytes)
        return FingerprintDb(micro, labels, coords, counts, GeneMatrix(rows, k))
    except (ValueError, LengthMismatchError) as exc:
        raise DbLengthError(str(exc)) from exc


def load_db(path) -> FingerprintDb:
    with open(path, "rb") as fh:
        return db_from_bytes(fh.read())
