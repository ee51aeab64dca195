"""Similarity metric tests: values, degenerate conventions, identities."""

import math

import numpy as np
import pytest
from hypothesis import given

from bicsi.encoding import GeneSequence
from bicsi.errors import ConfigError, LengthMismatchError
from bicsi.similarity import (
    MetricKind,
    cosine_bits,
    distance,
    distances,
    euclidean_bits,
    hamming,
    jaccard_bits,
    manhattan_bits,
    pearson_bits,
)

from conftest import (
    gene_sequences,
    gs,
    random_sequences,
    reference_cosine,
    reference_distance,
    reference_euclidean,
    reference_hamming,
    reference_jaccard,
    reference_manhattan,
    reference_pearson,
    sequence_pairs,
    sequence_triples,
    unpack_independently,
)

REFERENCES = (
    (hamming, reference_hamming),
    (manhattan_bits, reference_manhattan),
    (euclidean_bits, reference_euclidean),
    (cosine_bits, reference_cosine),
    (pearson_bits, reference_pearson),
    (jaccard_bits, reference_jaccard),
)


def assert_matches_reference(a, b):
    """Every library measure equals the per-pair reference exactly, type included."""
    x, y = unpack_independently(a), unpack_independently(b)
    for fn, ref in REFERENCES:
        got, want = fn(a, b), ref(x, y)
        assert got == want and type(got) is type(want), fn.__name__
    for kind in MetricKind:
        got, want = distance(kind, a, b), reference_distance(kind, x, y)
        assert got == want and type(got) is float, kind


class TestReferenceAgreement:
    @given(sequence_pairs(max_k=64))
    def test_random_pairs(self, pair):
        assert_matches_reference(*pair)

    @given(gene_sequences(max_k=64))
    def test_identical_sequences(self, a):
        assert_matches_reference(a, a)
        assert_matches_reference(a, GeneSequence(bytes(a.packed), a.subcarrier_count))

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 230])
    def test_all_zero_all_one_and_mixed(self, k):
        zero, one, mixed = gs("00" * k), gs("11" * k), gs("10" * k)
        for a in (zero, one, mixed):
            for b in (zero, one, mixed):
                assert_matches_reference(a, b)

    def test_pearson_variance_product_beyond_int64(self):
        # k = 60000 half-dense vectors: var_a * var_b is about 1.3e19 > 2**63
        rng = np.random.default_rng(5)
        a, b = random_sequences(rng, 2, 60000)
        assert pearson_bits(a, b) == reference_pearson(a, b)
        assert distance(MetricKind.PEARSON, a, b) == reference_distance(MetricKind.PEARSON, a, b)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_batch_equals_scalar(self, kind):
        rng = np.random.default_rng(17)
        rows, cols = random_sequences(rng, 5, 9), random_sequences(rng, 7, 9)
        rows[1], cols[2] = gs("00" * 9), gs("11" * 9)
        cols[3] = rows[4]
        stack = lambda seqs: np.frombuffer(b"".join(s.packed for s in seqs), np.uint8)
        batch = distances(kind, stack(rows).reshape(5, 1, -1), stack(cols).reshape(7, -1), 18)
        assert batch.shape == (5, 7)
        assert batch.tolist() == [[distance(kind, r, c) for c in cols] for r in rows]


class TestHamming:
    def test_two_differing_positions(self):
        assert hamming(gs("0101"), gs("0110")) == 2

    def test_identity(self):
        a = gs("100110")
        assert hamming(a, a) == 0

    def test_maximum(self):
        assert hamming(gs("11111111"), gs("00000000")) == 8

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            hamming(gs("01"), gs("0111"))

    @given(sequence_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert hamming(a, b) == hamming(b, a)

    @given(sequence_triples())
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    @given(sequence_pairs())
    def test_identity_of_indiscernibles(self, pair):
        a, b = pair
        assert (hamming(a, b) == 0) == (a == b)


class TestDistanceIdentity:
    def test_hand_computed(self):
        a, b = gs("1011"), gs("0010")
        assert manhattan_bits(a, b) == 2
        assert euclidean_bits(a, b) == pytest.approx(math.sqrt(2))

    def test_self_distance_zero(self):
        a = gs("1010")
        assert manhattan_bits(a, a) == 0
        assert euclidean_bits(a, a) == 0.0

    @given(sequence_pairs())
    def test_manhattan_equals_hamming(self, pair):
        a, b = pair
        assert manhattan_bits(a, b) == hamming(a, b)

    @given(sequence_pairs())
    def test_euclidean_squared_equals_hamming(self, pair):
        a, b = pair
        assert euclidean_bits(a, b) ** 2 == pytest.approx(hamming(a, b), abs=1e-9)


class TestCorrelationMetrics:
    def test_self_similarity(self):
        a = gs("1100")  # nonzero, non-constant
        assert cosine_bits(a, a) == pytest.approx(1.0)
        assert pearson_bits(a, a) == pytest.approx(1.0)
        assert jaccard_bits(a, a) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert jaccard_bits(gs("1100"), gs("0011")) == 0.0
        assert cosine_bits(gs("1100"), gs("0011")) == 0.0

    def test_hand_computed_overlap(self):
        a, b = gs("1010"), gs("1001")
        assert cosine_bits(a, b) == pytest.approx(0.5)
        assert jaccard_bits(a, b) == pytest.approx(1 / 3)

    def test_anti_correlated(self):
        assert pearson_bits(gs("1010"), gs("0101")) == pytest.approx(-1.0)

    def test_zero_vector_conventions(self):
        zero, one = gs("0000"), gs("1111")
        assert cosine_bits(zero, zero) == 1.0
        assert cosine_bits(zero, one) == 0.0
        assert jaccard_bits(zero, zero) == 1.0
        assert pearson_bits(zero, zero) == 1.0  # identical constants
        assert pearson_bits(zero, one) == 0.0  # differing constants

    def test_constant_vs_varying(self):
        assert pearson_bits(gs("1111"), gs("1011")) == 0.0

    @given(sequence_pairs())
    def test_ranges(self, pair):
        a, b = pair
        assert 0.0 <= cosine_bits(a, b) <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= pearson_bits(a, b) <= 1.0 + 1e-12
        assert 0.0 <= jaccard_bits(a, b) <= 1.0


class TestDistanceMapping:
    def test_hamming_self(self):
        a = gs("0110")
        assert distance(MetricKind.HAMMING, a, a) == 0.0

    def test_pearson_anti_correlated(self):
        assert distance(MetricKind.PEARSON, gs("1010"), gs("0101")) == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert distance(MetricKind.COSINE, gs("1100"), gs("0011")) == pytest.approx(1.0)

    @given(sequence_pairs())
    def test_non_negative_everywhere(self, pair):
        a, b = pair
        for kind in MetricKind:
            assert distance(kind, a, b) >= -1e-12

    @given(sequence_pairs())
    def test_zero_on_equal(self, pair):
        a, _ = pair
        for kind in MetricKind:
            assert distance(kind, a, a) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        for kind in MetricKind:
            with pytest.raises(LengthMismatchError):
                distance(kind, gs("01"), gs("0101"))


class TestMetricKind:
    def test_parse_case_insensitive(self):
        assert MetricKind.parse("HaMMing") is MetricKind.HAMMING
        assert MetricKind.parse(" euclidean ") is MetricKind.EUCLIDEAN

    def test_parse_unknown_lists_valid_names(self):
        with pytest.raises(ConfigError, match="hamming.*jaccard"):
            MetricKind.parse("chebyshev")
