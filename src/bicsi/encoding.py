"""Binary quantization of integer CSI amplitudes into per-packet gene sequences.

Each amplitude stands for its ten-bit code (anything at or above the 1024
cutoff collapses to all zeros), which is then compressed to two bits by
majority vote over the high and low five-bit halves. A packet row of k
amplitudes becomes a packed bit vector of 2k bits, the packet's gene
sequence. The two-bit stage is what shrinks fingerprint storage by 80%
relative to keeping the ten-bit codes.

A whole trace encodes to one :class:`GeneMatrix`, a packed ``uint8`` array
with a row per packet; a single packet is a one-row GeneMatrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, LengthMismatchError
from .ingest import AmplitudeMatrix

ENCODER_OVERFLOW = 1024  # amplitudes at or above this encode as the all-zero code

# the (H, L) bits of every amplitude below the cutoff, then one last row, the
# all-zero code that every amplitude at or above it collapses to
_PAIR_BITS = np.array([(bin(v >> 5).count("1") >= 3, bin(v & 31).count("1") >= 3)
                       for v in range(ENCODER_OVERFLOW)] + [(0, 0)], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class GeneMatrix:
    """Gene sequences of many packets packed into one read-only array.

    ``packed`` has shape (packets, ceil(2k / 8)), dtype ``uint8``. Bits are
    packed MSB-first; in each row, pair j holds the high-half bit followed by
    the low-half bit for subcarrier j, subcarriers in matrix column order.
    Padding bits past ``bit_length`` in a row's final byte are zero, so
    popcounts over whole packed rows stay exact. Slicing gives a GeneMatrix
    view; an integer index gives that row as a one-row GeneMatrix. Two are
    equal when they have the same subcarrier count and the same packed bytes.
    """

    packed: np.ndarray
    subcarrier_count: int

    def __post_init__(self):
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")
        packed = np.asarray(self.packed).view()  # a view: the caller's array stays writable
        if packed.dtype != np.uint8 or packed.ndim != 2:
            raise ValueError("packed rows must be a 2-D uint8 array")
        expected = (self.bit_length + 7) // 8
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneMatrix):
            return NotImplemented
        return (self.subcarrier_count == other.subcarrier_count
                and np.array_equal(self.packed, other.packed))

    def __getitem__(self, index):
        if not isinstance(index, slice):
            row = range(len(self))[index]  # negative indices count from the end; IndexError past it
            index = slice(row, row + 1)
        return GeneMatrix(self.packed[index], self.subcarrier_count)

    @classmethod
    def _pack(cls, bits: np.ndarray) -> "GeneMatrix":
        """Pack a (rows, 2k) array, nonzero meaning 1, MSB first. np.packbits
        zero-fills the padding, so the constructor's checks are skipped."""
        packed = np.packbits(bits, axis=1)
        packed.setflags(write=False)
        gm = object.__new__(cls)
        object.__setattr__(gm, "packed", packed)
        object.__setattr__(gm, "subcarrier_count", bits.shape[1] // 2)
        return gm

    @classmethod
    def concat(cls, pieces) -> "GeneMatrix":
        """The rows of GeneMatrix pieces of one bit length, joined in order."""
        pieces = list(pieces)
        if not pieces:
            raise EmptyInputError("no rows to join")
        widths = sorted({piece.bit_length for piece in pieces})
        if len(widths) > 1:
            raise LengthMismatchError(f"different bit lengths: {widths}")
        return cls(np.concatenate([piece.packed for piece in pieces]), pieces[0].subcarrier_count)


def encode_matrix(matrix) -> GeneMatrix:
    """Packed gene sequences of every packet row, in packet order.

    Accepts an :class:`~bicsi.ingest.AmplitudeMatrix`, whose constructor
    already checked its data, or a 2-D array of non-negative integers, which
    is checked as an AmplitudeMatrix with every column kept.
    """
    if not isinstance(matrix, AmplitudeMatrix):
        data = np.asarray(matrix)
        matrix = AmplitudeMatrix(data, tuple(range(data.shape[-1] if data.ndim else 0)))
    data = matrix.data
    n, k = data.shape
    if k == 0:
        raise ValueError("matrix must have at least one subcarrier column")
    # clipping sends every amplitude at or past the cutoff to the all-zero row
    # (a uint64 past int64 wraps negative and clips to row 0, also all-zero)
    return GeneMatrix._pack(np.take(_PAIR_BITS, data, axis=0, mode="clip").reshape(n, 2 * k))
