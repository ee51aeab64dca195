"""Shared test helpers: bit-literal sequences and hypothesis strategies."""

import numpy as np
from hypothesis import strategies as st

from bicsi.encoding import GeneSequence


def gs(bit_string: str) -> GeneSequence:
    """GeneSequence from a literal like "0101"."""
    return GeneSequence.from_bits([int(c) for c in bit_string])


def unpack_independently(seq: GeneSequence) -> list:
    """Bit list recovered from the raw packed bytes, bypassing numpy."""
    bits = [int(c) for byte in seq.packed for c in format(byte, "08b")]
    return bits[: seq.bit_length]


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
