"""Distance and similarity measures over gene sequences.

All six measures are closed forms in (ones in a, ones in b, ones in a & b,
bit length), and bits are counted in one place: :func:`bit_counts`, a
popcount over packed ``uint8`` rows that broadcasts, so one call compares
every window with every ancestor. :func:`distances` maps any kind onto a
lower-is-better scale, so the matcher never branches on metric semantics.
On 0/1 vectors Manhattan equals Hamming (the primary measure) and Euclidean
is its square root, so those three kinds always rank candidates identically.
"""

import enum

import numpy as np

from .encoding import GeneSequence
from .errors import ConfigError, LengthMismatchError


class MetricKind(enum.Enum):
    HAMMING = "hamming"
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"
    PEARSON = "pearson"
    JACCARD = "jaccard"

    @classmethod
    def parse(cls, name: str) -> "MetricKind":
        """Case-insensitive lookup by metric name."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigError(f"unknown metric {name!r}; valid metrics: {valid}") from None


def bit_counts(a: np.ndarray, b: np.ndarray) -> tuple:
    """(ones in a, ones in b, ones in a & b) over the last axis of packed
    ``uint8`` rows; the leading axes broadcast like ``a & b``."""
    return (np.add.reduce(np.bitwise_count(a), axis=-1, dtype=np.int64),
            np.add.reduce(np.bitwise_count(b), axis=-1, dtype=np.int64),
            np.add.reduce(np.bitwise_count(a & b), axis=-1, dtype=np.int64))


def _measure(kind: MetricKind, na, nb, m11, n: int):
    """Each kind's own value from the counts: a count for Hamming and
    Manhattan, a norm for Euclidean, a similarity for the other three."""
    if kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN):
        differ = na + nb - 2 * m11
        return np.sqrt(differ.astype(np.float64)) if kind is MetricKind.EUCLIDEAN else differ
    if not isinstance(kind, MetricKind):
        raise ConfigError(f"unsupported metric kind: {kind!r}")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where replaced
        if kind is MetricKind.COSINE:
            # with an all-zero side the score is 1 only when both sides are all-zero
            return np.where(na * nb == 0, np.where(na == nb, 1.0, 0.0), m11 / np.sqrt(na * nb))
        if kind is MetricKind.PEARSON:
            # exact in uint64 up to k**4 for k <= 65535 subcarriers
            var = (na * (n - na)).astype(np.uint64) * (nb * (n - nb)).astype(np.uint64)
            value = np.where(var == 0, 0.0, (n * m11 - na * nb) / np.sqrt(var))
            return np.where((na == m11) & (nb == m11), 1.0, value)
        union = na + nb - m11
        return np.where(union == 0, 1.0, m11 / union)


def distances(kind: MetricKind, a: np.ndarray, b: np.ndarray, bit_length: int) -> np.ndarray:
    """Lower-is-better float64 distances between packed rows (see :func:`bit_counts`).

    Distances pass through unchanged; similarities map as 1 - cosine,
    1 - jaccard and (1 - pearson) / 2, so zero always means a perfect match
    and all outputs are non-negative.
    """
    value = _measure(kind, *bit_counts(a, b), bit_length)
    if kind is MetricKind.PEARSON:
        return (1.0 - value) / 2.0
    if kind in (MetricKind.COSINE, MetricKind.JACCARD):
        return 1.0 - value
    return np.asarray(value, dtype=np.float64)


def _rows(a: GeneSequence, b: GeneSequence) -> tuple:
    if a.bit_length != b.bit_length:
        raise LengthMismatchError(f"sequence lengths differ: {a.bit_length} vs {b.bit_length} bits")
    return np.frombuffer(a.packed, dtype=np.uint8), np.frombuffer(b.packed, dtype=np.uint8)


def _scalar(kind: MetricKind, a: GeneSequence, b: GeneSequence):
    return _measure(kind, *bit_counts(*_rows(a, b)), a.bit_length)


def hamming(a: GeneSequence, b: GeneSequence) -> int:
    """Number of bit positions where the two sequences differ."""
    return int(_scalar(MetricKind.HAMMING, a, b))


def manhattan_bits(a: GeneSequence, b: GeneSequence) -> int:
    """Sum of absolute bitwise differences (the Hamming distance on 0/1 vectors)."""
    return int(_scalar(MetricKind.MANHATTAN, a, b))


def euclidean_bits(a: GeneSequence, b: GeneSequence) -> float:
    """Euclidean norm of the bitwise difference vector."""
    return float(_scalar(MetricKind.EUCLIDEAN, a, b))


def cosine_bits(a: GeneSequence, b: GeneSequence) -> float:
    """Cosine similarity over 0/1 vectors; 1 for two all-zero sequences, 0 for one."""
    return float(_scalar(MetricKind.COSINE, a, b))


def pearson_bits(a: GeneSequence, b: GeneSequence) -> float:
    """Pearson correlation over 0/1 vectors; 1 for identical sequences (constant
    ones too), otherwise 0 when either sequence is constant."""
    return float(_scalar(MetricKind.PEARSON, a, b))


def jaccard_bits(a: GeneSequence, b: GeneSequence) -> float:
    """Jaccard index over bit supports; two empty supports count as identical."""
    return float(_scalar(MetricKind.JACCARD, a, b))


def distance(kind: MetricKind, a: GeneSequence, b: GeneSequence) -> float:
    """Lower-is-better distance for any metric kind (see :func:`distances`)."""
    return float(distances(kind, *_rows(a, b), a.bit_length))
