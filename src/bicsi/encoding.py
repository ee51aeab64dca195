"""Binary quantization of integer CSI amplitudes into per-packet gene sequences.

Each amplitude expands to a ten-bit code (anything at or above the 1024
cutoff collapses to all zeros), which is then compressed to two bits by
majority vote over the high and low five-bit halves. A packet row of k
amplitudes becomes a packed bit vector of 2k bits, the packet's gene
sequence. The two-bit stage is what shrinks fingerprint storage by 80%
relative to keeping the ten-bit codes.

A whole trace encodes to one :class:`GeneMatrix`, a packed ``uint8`` array
with a row per packet; a :class:`GeneSequence` object is made only when a
single row is asked for.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, LengthMismatchError

ENCODER_OVERFLOW = 1024  # amplitudes at or above this encode as the all-zero code
TEN_BITS = 10

TenBitCode = tuple[int, ...]
TwoBitCode = tuple[int, int]

# two-bit code (H << 1) | L of every amplitude below the cutoff, then one last
# entry, the all-zero code that every amplitude at or above it collapses to
_CODE2 = np.array([2 * (bin(v >> 5).count("1") >= 3) + (bin(v & 31).count("1") >= 3)
                   for v in range(ENCODER_OVERFLOW)] + [0], dtype=np.uint8)


def _packed_bytes(subcarrier_count: int) -> int:
    return (2 * subcarrier_count + 7) // 8


@dataclass(frozen=True)
class GeneSequence:
    """Packed 2-bit-per-subcarrier code for one packet (or derived window).

    Bits are packed MSB-first into bytes; pair j holds the high-half bit
    followed by the low-half bit for subcarrier j, subcarriers in matrix
    column order. Padding bits past ``bit_length`` in the final byte must be
    zero so that popcounts over whole packed rows stay exact.
    """

    packed: bytes
    subcarrier_count: int

    def __post_init__(self):
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")
        expected = _packed_bytes(self.subcarrier_count)
        if len(self.packed) != expected:
            raise ValueError(
                f"packed payload is {len(self.packed)} bytes, "
                f"{self.bit_length} bits need {expected}"
            )
        tail = self.bit_length % 8
        if tail and self.packed[-1] & ((1 << (8 - tail)) - 1):
            raise ValueError("padding bits past the bit length must be zero")

    @property
    def bit_length(self) -> int:
        return 2 * self.subcarrier_count

    @classmethod
    def from_bits(cls, bits) -> "GeneSequence":
        """Build from an iterable of 0/1 values of even, nonzero length."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0 or arr.size % 2:
            raise ValueError("bit vector must be 1-D with even, nonzero length")
        if arr.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        return cls(packed=np.packbits(arr).tobytes(), subcarrier_count=arr.size // 2)

    def bits(self) -> np.ndarray:
        """Unpacked bit vector, dtype uint8, length ``bit_length``."""
        raw = np.frombuffer(self.packed, dtype=np.uint8)
        return np.unpackbits(raw, count=self.bit_length)


@dataclass(frozen=True, eq=False)
class GeneMatrix:
    """Gene sequences of many packets packed into one read-only array.

    ``packed`` has shape (packets, ceil(2k / 8)), dtype ``uint8``; each row
    is laid out exactly like :attr:`GeneSequence.packed`, padding included.
    Indexing with an integer gives that row's :class:`GeneSequence`; slicing
    gives a :class:`GeneMatrix` view.
    """

    packed: np.ndarray
    subcarrier_count: int

    def __post_init__(self):
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")
        packed = np.asarray(self.packed)
        if packed.dtype != np.uint8 or packed.ndim != 2:
            raise ValueError("packed rows must be a 2-D uint8 array")
        expected = _packed_bytes(self.subcarrier_count)
        if packed.shape[1] != expected:
            raise ValueError(
                f"packed rows are {packed.shape[1]} bytes, {self.bit_length} bits need {expected}"
            )
        tail = self.bit_length % 8
        if tail and len(packed) and (packed[:, -1] & ((1 << (8 - tail)) - 1)).any():
            raise ValueError("padding bits past the bit length must be zero")
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    @property
    def bit_length(self) -> int:
        return 2 * self.subcarrier_count

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GeneMatrix(self.packed[index], self.subcarrier_count)
        row = self.packed[operator.index(index)]
        return GeneSequence(packed=row.tobytes(), subcarrier_count=self.subcarrier_count)

    def bits(self) -> np.ndarray:
        """Unpacked bit matrix, dtype uint8, shape (packets, ``bit_length``)."""
        return np.unpackbits(self.packed, axis=1, count=self.bit_length)

    @classmethod
    def from_sequences(cls, seqs) -> "GeneMatrix":
        """Pack gene sequences of one length, in order; a GeneMatrix passes through."""
        if isinstance(seqs, cls):
            return seqs
        seqs = list(seqs)
        if not seqs:
            raise EmptyInputError("no gene sequences to pack")
        first = seqs[0]
        for i, s in enumerate(seqs):
            if s.bit_length != first.bit_length:
                raise LengthMismatchError(
                    f"sequence {i}: {s.bit_length} bits, expected {first.bit_length}"
                )
        raw = np.frombuffer(b"".join(s.packed for s in seqs), dtype=np.uint8)
        return cls(raw.reshape(len(seqs), len(first.packed)), first.subcarrier_count)


def encode10(ap) -> TenBitCode:
    """Ten-bit binary code of a non-negative integer amplitude, MSB first.

    Values below 1024 keep their base-2 representation zero-padded to ten
    bits; values at or above 1024 collapse to ten zero bits.
    """
    ap = operator.index(ap)
    if ap < 0:
        raise ValueError("amplitude must be non-negative")
    value = ap if ap < ENCODER_OVERFLOW else 0
    return tuple((value >> shift) & 1 for shift in range(TEN_BITS - 1, -1, -1))


def majority5(bits) -> int:
    """1 when at least three of the five bits are set, else 0."""
    bits = tuple(bits)
    if len(bits) != 5:
        raise ValueError("majority vote is defined over exactly five bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    return 1 if sum(bits) >= 3 else 0


def reencode2(code) -> TwoBitCode:
    """Collapse a ten-bit code to (H, L): majority of each five-bit half."""
    code = tuple(code)
    if len(code) != TEN_BITS:
        raise ValueError(f"expected a {TEN_BITS}-bit code, got {len(code)} bits")
    return majority5(code[:5]), majority5(code[5:])


def _two_bit_codes(amplitudes) -> np.ndarray:
    """Vectorized encoder: integer array -> uint8 array of (H << 1) | L codes.

    Equivalent to ``reencode2(encode10(a))`` per element.
    """
    a = np.asarray(amplitudes)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError("amplitudes must have an integer dtype")
    if a.size and int(a.min()) < 0:
        raise ValueError("amplitudes must be non-negative")
    return np.take(_CODE2, a, mode="clip")  # clipping sends overflow to the last entry


def encode_row(amplitudes) -> GeneSequence:
    """Gene sequence for one packet row of integer amplitudes."""
    a = np.asarray(amplitudes)
    if a.ndim != 1:
        raise ValueError("expected a single 1-D row of amplitudes")
    if a.size == 0:
        raise ValueError("row must contain at least one amplitude")
    codes = _two_bit_codes(a)
    bits = np.empty(2 * a.size, dtype=np.uint8)
    bits[0::2] = codes >> 1
    bits[1::2] = codes & 1
    return GeneSequence.from_bits(bits)


def encode_matrix(matrix) -> GeneMatrix:
    """Packed gene sequences of every packet row, in packet order.

    Accepts an :class:`~bicsi.ingest.AmplitudeMatrix` or a 2-D integer array.
    """
    data = getattr(matrix, "data", matrix)
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("expected a 2-D amplitude matrix")
    if data.shape[1] == 0:
        raise ValueError("matrix must have at least one subcarrier column")
    n, k = data.shape
    # four two-bit codes per byte, MSB first; zero codes fill the last byte
    quads = np.zeros((n, 4 * _packed_bytes(k)), dtype=np.uint8)
    quads[:, :k] = _two_bit_codes(data)
    # the little-endian word c0 | c1 << 8 | c2 << 16 | c3 << 24 of four codes,
    # times 2^30 + 2^20 + 2^10 + 1, holds c0 << 6 | c1 << 4 | c2 << 2 | c3 in
    # its top byte: the partial products below bit 24 neither overlap nor carry
    words = quads.view("<u4")
    return GeneMatrix(((words * np.uint32(0x40100401)) >> 24).astype(np.uint8), k)
