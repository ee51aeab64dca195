"""Fingerprint derivation and the on-disk fingerprint database.

Offline, per position: every bit column of the training gene sequences is
either fixed to its dominant value (when the zero/one count gap reaches the
threshold) or left open, in which case the first ancestor records 1 and the
second 0. A position may accumulate one ancestor pair per training session.
Online, a parent sequence summarizes a packet window by plain column
majority with ties going to 1: no threshold, mirroring the offline
else-branch convention. A trace's parents stay one packed
:class:`~bicsi.encoding.GeneMatrix`, a row per window, all the way to the
matcher.

The database serializes to a compact little-endian binary format (magic
``BFPD``) whose payload is dominated by the packed ancestor bits, keeping
whole multi-position databases in the low kilobytes.
"""

import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .encoding import GeneMatrix, GeneSequence, _packed_bytes
from .errors import (
    ConfigError,
    DbLengthError,
    DbMagicError,
    DbTruncatedError,
    DbVersionError,
    EmptyInputError,
    LengthMismatchError,
    UnknownLabelError,
)
from .ioutil import atomic_write_bytes

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
class AncestorPair:
    """The two offline fingerprint sequences of one position and session.

    Where the training columns were decisive both sequences agree; open
    columns hold 1 in ``as1`` and 0 in ``as2``, so bitwise ``as1 >= as2``
    everywhere.
    """

    as1: GeneSequence
    as2: GeneSequence

    def __post_init__(self):
        if self.as1.bit_length != self.as2.bit_length:
            raise LengthMismatchError(
                f"ancestor lengths differ: {self.as1.bit_length} vs {self.as2.bit_length}"
            )

    @property
    def bit_length(self) -> int:
        return self.as1.bit_length


@dataclass(frozen=True)
class PositionEntry:
    """A reference position: label, coordinates, and its ancestor sets."""

    label: str
    coord: tuple
    ancestor_sets: tuple

    def __post_init__(self):
        coord = (float(self.coord[0]), float(self.coord[1]))
        if not all(math.isfinite(c) for c in coord):
            raise ValueError(f"position {self.label!r}: coordinates must be finite")
        sets = tuple(self.ancestor_sets)
        if not sets:
            raise ValueError(f"position {self.label!r}: needs at least one ancestor set")
        length = sets[0].bit_length
        for pair in sets:
            if pair.bit_length != length:
                raise LengthMismatchError(
                    f"position {self.label!r}: ancestor sets have mixed bit lengths"
                )
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "ancestor_sets", sets)

    @property
    def bit_length(self) -> int:
        return self.ancestor_sets[0].bit_length


@dataclass(frozen=True)
class FingerprintDb:
    """Offline store mapping positions to ancestor sets.

    ``threshold_micro`` records the threshold used during training as a
    fraction of the training size, in micro-units (the serialized form).
    """

    subcarrier_count: int
    threshold_micro: int
    entries: tuple

    def __post_init__(self):
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")
        if not 0 <= self.threshold_micro <= 0xFFFFFFFF:
            raise ValueError("threshold_micro out of range")
        entries = tuple(self.entries)
        labels = set()
        for entry in entries:
            if entry.label in labels:
                raise ValueError(f"duplicate position label {entry.label!r}")
            labels.add(entry.label)
            if entry.bit_length != 2 * self.subcarrier_count:
                raise LengthMismatchError(
                    f"position {entry.label!r}: {entry.bit_length} bits, "
                    f"database stores {2 * self.subcarrier_count}"
                )
        object.__setattr__(self, "entries", entries)

    @property
    def threshold_fraction(self) -> float:
        return self.threshold_micro / MICRO_UNITS

    @cached_property
    def ancestor_stack(self) -> tuple:
        """Every ancestor as one read-only ``(A, ceil(2k / 8))`` uint8 array in
        the matcher's scan order (entries in stored order; per entry, first
        ancestors before second, sets in stored order) and the row at which
        each entry starts. Built on first use, once per database."""
        stacked = np.frombuffer(
            b"".join([(p.as2 if second else p.as1).packed
                      for e in self.entries for second in (False, True) for p in e.ancestor_sets]),
            np.uint8).reshape(-1, _packed_bytes(self.subcarrier_count))
        starts = list(accumulate((2 * len(e.ancestor_sets) for e in self.entries[:-1]), initial=0))
        return stacked, starts

    def entry(self, label: str) -> PositionEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise UnknownLabelError(f"no position labelled {label!r}")


def as_gene_matrix(seqs, empty_message: str) -> GeneMatrix:
    """``seqs`` packed once into a GeneMatrix (one passes through as is).

    Raises EmptyInputError(empty_message) when there are no sequences and
    LengthMismatchError when their lengths differ.
    """
    if not isinstance(seqs, GeneMatrix):
        seqs = list(seqs)
    if not len(seqs):
        raise EmptyInputError(empty_message)
    return GeneMatrix.from_sequences(seqs)


def ancestors_from_counts(ones: np.ndarray, n: int, tr: int) -> AncestorPair:
    """Ancestor pair from the per-bit-column one-counts of ``n`` training
    sequences at integer threshold ``tr`` (see :func:`derive_ancestors`)."""
    if tr < 0:
        raise ConfigError("threshold count must be non-negative")
    n0 = n - ones
    majority = (ones >= n0).astype(np.uint8)
    decided = np.abs(n0 - ones) >= tr
    as1 = np.where(decided, majority, np.uint8(1))
    as2 = np.where(decided, majority, np.uint8(0))
    return AncestorPair(GeneSequence.from_bits(as1), GeneSequence.from_bits(as2))


def derive_ancestors(training, tr: int) -> AncestorPair:
    """Ancestor pair from training gene sequences at integer threshold ``tr``.

    Per bit column with zero-count N0 and one-count N1: when |N0 - N1| >= tr
    both ancestors take the dominant bit (0 only when N0 > N1, so exact ties
    give 1); otherwise the column is balanced and the pair keeps (1, 0).
    ``tr`` may exceed the training size, in which case every column is
    balanced and the pair degenerates to all-ones / all-zeros.
    """
    gm = as_gene_matrix(training, "training set is empty")
    return ancestors_from_counts(gm.bits().sum(axis=0, dtype=np.int64), len(gm), tr)


def derive_parent(window) -> GeneSequence:
    """Column-majority summary of a packet window; exact ties produce 1."""
    gm = as_gene_matrix(window, "window is empty")
    return windows(gm, len(gm))[0]


def window_slices(total: int, size: int) -> list[tuple[int, int]]:
    """Consecutive non-overlapping (start, stop) windows over ``total`` items.

    A trailing remainder at least half a window long is kept; anything
    shorter is dropped.
    """
    if size < 1:
        raise ConfigError("window size must be >= 1")
    full = total // size
    slices = [(i * size, (i + 1) * size) for i in range(full)]
    rem = total - full * size
    if rem and 2 * rem >= size:
        slices.append((full * size, total))
    return slices


def windows(trace, size: int = DEFAULT_WINDOW_SIZE) -> GeneMatrix:
    """Parent sequences of consecutive windows of a gene-sequence trace, one
    row per window; a trace shorter than half a window gives zero rows.

    Each parent is the column majority of its window, exact ties giving 1.
    """
    gm = GeneMatrix.from_sequences(trace)
    slices = window_slices(len(gm), size)
    bits = gm.bits()
    full = len(gm) // size
    # int32 sums halve the reduction time; no window holds 2**30 packets
    ones = bits[: full * size].reshape(full, size, gm.bit_length).sum(axis=1, dtype=np.int32)
    counts = np.full(full, size)
    if len(slices) > full:  # the kept short tail window
        lo, hi = slices[-1]
        ones = np.vstack([ones, bits[lo:hi].sum(axis=0, dtype=np.int32)])
        counts = np.append(counts, hi - lo)
    return GeneMatrix(np.packbits(2 * ones >= counts[:, None], axis=1), gm.subcarrier_count)


def build_db(positions, threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION) -> FingerprintDb:
    """Derive one ancestor set per position and assemble the database.

    ``positions`` yields (label, (x, y), training sequences); the threshold
    count for each position is ceil(fraction * its own training size).
    """
    micro = fraction_to_micro(threshold_fraction)
    entries = []
    k = None
    for label, coord, seqs in positions:
        seqs = as_gene_matrix(seqs, f"position {label!r} has no training sequences")
        pair = derive_ancestors(seqs, threshold_count(micro, len(seqs)))
        if k is None:
            k = pair.as1.subcarrier_count
        entries.append(PositionEntry(label=label, coord=coord, ancestor_sets=(pair,)))
    if not entries:
        raise EmptyInputError("no positions to train on")
    return FingerprintDb(subcarrier_count=k, threshold_micro=micro, entries=tuple(entries))


def append_ancestor_set(db: FingerprintDb, label: str, pair: AncestorPair) -> FingerprintDb:
    """New database with ``pair`` appended to the labelled entry's sets."""
    if pair.bit_length != 2 * db.subcarrier_count:
        raise LengthMismatchError(
            f"ancestor pair has {pair.bit_length} bits, database stores {2 * db.subcarrier_count}"
        )
    for i, entry in enumerate(db.entries):
        if entry.label == label:
            updated = replace(entry, ancestor_sets=entry.ancestor_sets + (pair,))
            return replace(db, entries=db.entries[:i] + (updated,) + db.entries[i + 1:])
    raise UnknownLabelError(f"no position labelled {label!r}")


def db_to_bytes(db: FingerprintDb) -> bytes:
    """Serialize to the binary database format (see the package README)."""
    if db.subcarrier_count > 0xFFFF:
        raise ConfigError("subcarrier count does not fit the format (u16)")
    if len(db.entries) > 0xFFFFFFFF:
        raise ConfigError("entry count does not fit the format (u32)")
    chunks = [_HEADER.pack(DB_MAGIC, DB_VERSION, db.subcarrier_count,
                           db.threshold_micro, len(db.entries))]
    for entry in db.entries:
        label = entry.label.encode("utf-8")
        if len(label) > 0xFFFF:
            raise ConfigError(f"label {entry.label!r} exceeds the format limit")
        if len(entry.ancestor_sets) > 0xFFFF:
            raise ConfigError(f"position {entry.label!r} has too many ancestor sets")
        chunks.append(_U16.pack(len(label)))
        chunks.append(label)
        chunks.append(_COORDS.pack(*entry.coord))
        chunks.append(_U16.pack(len(entry.ancestor_sets)))
        for pair in entry.ancestor_sets:
            chunks.append(pair.as1.packed)
            chunks.append(pair.as2.packed)
    return b"".join(chunks)


def save_db(db: FingerprintDb, path) -> None:
    """Write the database atomically (temp file + rename)."""
    atomic_write_bytes(path, db_to_bytes(db))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.buf):
            raise DbTruncatedError(
                f"file ends inside {what}: need {count} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        piece = self.buf[self.pos:self.pos + count]
        self.pos += count
        return piece

    def unpack(self, fmt: struct.Struct, what: str):
        return fmt.unpack(self.take(fmt.size, what))


def db_from_bytes(buf: bytes) -> FingerprintDb:
    """Parse the binary database format, rejecting each corruption class
    with its own error type."""
    reader = _Reader(buf)
    magic, version, k, micro, entry_count = reader.unpack(_HEADER, "header")
    if magic != DB_MAGIC:
        raise DbMagicError(f"bad magic {magic!r}, expected {DB_MAGIC!r}")
    if version != DB_VERSION:
        raise DbVersionError(f"unsupported format version {version}, expected {DB_VERSION}")
    seq_bytes = (2 * k + 7) // 8
    entries = []
    for i in range(entry_count):
        where = f"entry {i}"
        (label_len,) = reader.unpack(_U16, f"{where} label length")
        raw_label = reader.take(label_len, f"{where} label")
        try:
            label = raw_label.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DbLengthError(f"{where}: label is not valid UTF-8") from exc
        x, y = reader.unpack(_COORDS, f"{where} coordinates")
        (set_count,) = reader.unpack(_U16, f"{where} set count")
        if set_count == 0:
            raise DbLengthError(f"{where} ({label!r}): zero ancestor sets")
        sets = []
        for s in range(set_count):
            as1 = reader.take(seq_bytes, f"{where} set {s} first ancestor")
            as2 = reader.take(seq_bytes, f"{where} set {s} second ancestor")
            try:
                sets.append(AncestorPair(
                    GeneSequence(packed=as1, subcarrier_count=k),
                    GeneSequence(packed=as2, subcarrier_count=k),
                ))
            except ValueError as exc:
                raise DbLengthError(f"{where} set {s}: {exc}") from exc
        try:
            entries.append(PositionEntry(label=label, coord=(x, y), ancestor_sets=tuple(sets)))
        except (ValueError, LengthMismatchError) as exc:
            raise DbLengthError(f"{where}: {exc}") from exc
    if reader.pos != len(buf):
        raise DbLengthError(
            f"{len(buf) - reader.pos} trailing bytes after the last entry"
        )
    try:
        return FingerprintDb(subcarrier_count=k, threshold_micro=micro, entries=tuple(entries))
    except (ValueError, LengthMismatchError) as exc:
        raise DbLengthError(str(exc)) from exc


def load_db(path) -> FingerprintDb:
    with open(path, "rb") as fh:
        return db_from_bytes(fh.read())
