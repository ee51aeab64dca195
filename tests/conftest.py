"""Shared test helpers: bit-literal sequences, hypothesis strategies and
per-pair reference measures computed without the library's count kernel."""

import math

import numpy as np
from hypothesis import strategies as st

from bicsi.encoding import GeneSequence
from bicsi.similarity import MetricKind


def gs(bit_string: str) -> GeneSequence:
    """GeneSequence from a literal like "0101"."""
    return GeneSequence.from_bits([int(c) for c in bit_string])


def unpack_independently(seq: GeneSequence) -> list:
    """Bit list recovered from the raw packed bytes, bypassing numpy."""
    bits = [int(c) for byte in seq.packed for c in format(byte, "08b")]
    return bits[: seq.bit_length]


# The references take two GeneSequences (unpacked with unpack_independently)
# or two 0/1 lists. They keep the per-pair formulas the library used before
# its count kernel: Python ints, the same float expression order and the same
# degenerate cases, so the library must match them exactly.

def _bit_lists(a, b) -> tuple:
    x, y = [unpack_independently(v) if isinstance(v, GeneSequence) else list(v)
            for v in (a, b)]
    assert len(x) == len(y)
    return x, y


def reference_hamming(a, b) -> int:
    x, y = _bit_lists(a, b)
    return sum(1 for p, q in zip(x, y) if p != q)


def reference_manhattan(a, b) -> int:
    x, y = _bit_lists(a, b)
    return sum(abs(p - q) for p, q in zip(x, y))


def reference_euclidean(a, b) -> float:
    x, y = _bit_lists(a, b)
    return math.sqrt(float(sum((p - q) * (p - q) for p, q in zip(x, y))))


def reference_cosine(a, b) -> float:
    """1 for two all-zero vectors, 0 when only one is all-zero."""
    x, y = _bit_lists(a, b)
    na, nb = sum(x), sum(y)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return sum(p * q for p, q in zip(x, y)) / math.sqrt(na * nb)


def reference_pearson(a, b) -> float:
    """1 for identical vectors (constant ones too), else 0 if either is constant."""
    x, y = _bit_lists(a, b)
    if x == y:
        return 1.0
    n, na, nb = len(x), sum(x), sum(y)
    var_a = na * (n - na)
    var_b = nb * (n - nb)
    if var_a == 0 or var_b == 0:
        return 0.0
    return (n * sum(p * q for p, q in zip(x, y)) - na * nb) / math.sqrt(var_a * var_b)


def reference_jaccard(a, b) -> float:
    """1 for two empty supports."""
    x, y = _bit_lists(a, b)
    union = sum(p | q for p, q in zip(x, y))
    if union == 0:
        return 1.0
    return sum(p & q for p, q in zip(x, y)) / union


def reference_distance(kind: MetricKind, a, b) -> float:
    """Lower-is-better distance: similarities map as 1 - s, Pearson as (1 - s) / 2."""
    if kind is MetricKind.HAMMING:
        return float(reference_hamming(a, b))
    if kind is MetricKind.MANHATTAN:
        return float(reference_manhattan(a, b))
    if kind is MetricKind.EUCLIDEAN:
        return reference_euclidean(a, b)
    if kind is MetricKind.COSINE:
        return 1.0 - reference_cosine(a, b)
    if kind is MetricKind.PEARSON:
        return (1.0 - reference_pearson(a, b)) / 2.0
    return 1.0 - reference_jaccard(a, b)


def unpack_rows(seqs) -> np.ndarray:
    """(n, bit_length) bit matrix of same-length sequences, shifted out of
    their raw packed bytes without the library's unpacking."""
    seqs = list(seqs)
    assert len({s.bit_length for s in seqs}) == 1
    raw = np.frombuffer(b"".join(s.packed for s in seqs), dtype=np.uint8)
    raw = raw.reshape(len(seqs), -1)
    bits = (raw[:, :, None] >> np.arange(7, -1, -1, dtype=np.uint8)) & 1
    return bits.reshape(len(seqs), -1)[:, : seqs[0].bit_length]


def bit_vectors(length: int):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length)


def gene_sequences(min_k: int = 1, max_k: int = 32):
    return st.integers(min_k, max_k).flatmap(
        lambda k: bit_vectors(2 * k).map(GeneSequence.from_bits)
    )


def sequence_pairs(min_k: int = 1, max_k: int = 32):
    """Two gene sequences of one shared length."""
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.tuples(
            bit_vectors(2 * k).map(GeneSequence.from_bits),
            bit_vectors(2 * k).map(GeneSequence.from_bits),
        )
    )


def sequence_triples(min_k: int = 1, max_k: int = 16):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.tuples(
            bit_vectors(2 * k).map(GeneSequence.from_bits),
            bit_vectors(2 * k).map(GeneSequence.from_bits),
            bit_vectors(2 * k).map(GeneSequence.from_bits),
        )
    )


def random_sequences(rng: np.random.Generator, count: int, k: int) -> list:
    """Seeded batch of random gene sequences (test fixture helper)."""
    bits = rng.integers(0, 2, size=(count, 2 * k), dtype=np.uint8)
    return [GeneSequence.from_bits(row) for row in bits]
