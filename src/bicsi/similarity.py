"""Distance and similarity measures over packed gene-sequence rows.

All six measures are closed forms in (ones in a, ones in b, ones in a & b,
bit length), and bits are counted in one place: :func:`popcount` over
packed ``uint8`` rows; a database counts its ancestors' ones once, when
it is built, and the matcher counts only the windows' side.
:func:`count_distances` maps the counts of any kind onto a lower-is-better
scale, so the matcher never branches on metric semantics; :func:`distances`
counts the bits of two row sets first.
On 0/1 vectors Manhattan equals Hamming (the primary measure) and Euclidean
is its square root, so those three kinds always rank candidates identically.
"""

import enum

import numpy as np

from .errors import ConfigError


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


def popcount(rows: np.ndarray) -> np.ndarray:
    """int64 count of the ones in each packed ``uint8`` row, over the last axis."""
    return np.add.reduce(np.bitwise_count(rows), axis=-1, dtype=np.int64)


def check_kind(kind) -> None:
    """Reject anything but a :class:`MetricKind`; callers run this before
    they count a bit."""
    if not isinstance(kind, MetricKind):
        raise ConfigError(f"unsupported metric kind: {kind!r}")


def distances(kind: MetricKind, a: np.ndarray, b: np.ndarray, bit_length: int) -> np.ndarray:
    """Lower-is-better float64 distances between packed rows, whose leading
    axes broadcast like ``a & b`` (see :func:`count_distances`)."""
    check_kind(kind)
    return count_distances(kind, popcount(a), popcount(b), popcount(a & b), bit_length)


def count_distances(kind: MetricKind, na, nb, m11, n: int) -> np.ndarray:
    """Lower-is-better float64 distances of ``kind`` between n-bit rows with
    na and nb ones, m11 of them shared; the int64 counts broadcast.

    Hamming and Manhattan are the differing-bit count and Euclidean its
    square root; similarities map as 1 - cosine, 1 - jaccard and
    (1 - pearson) / 2, so zero always means a perfect match and all outputs
    are non-negative.
    """
    check_kind(kind)
    if kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN):
        differ = np.asarray(na + nb - 2 * m11, dtype=np.float64)
        return np.sqrt(differ) if kind is MetricKind.EUCLIDEAN else differ
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where replaced
        if kind is MetricKind.COSINE:
            # with an all-zero side the score is 1 only when both sides are all-zero
            return 1.0 - np.where(na * nb == 0, np.where(na == nb, 1.0, 0.0),
                                  m11 / np.sqrt(na * nb))
        if kind is MetricKind.PEARSON:
            # exact in uint64 up to k**4 for k <= 65535 subcarriers
            var = (na * (n - na)).astype(np.uint64) * (nb * (n - nb)).astype(np.uint64)
            value = np.where(var == 0, 0.0, (n * m11 - na * nb) / np.sqrt(var))
            return (1.0 - np.where((na == m11) & (nb == m11), 1.0, value)) / 2.0
        union = na + nb - m11
        return 1.0 - np.where(union == 0, 1.0, m11 / union)
