"""Similarity metric tests: values, degenerate conventions, identities.

Every measure is read through :func:`distances` on one-row matrices, the
lower-is-better scale the matcher uses: similarities map as 1 - cosine,
1 - jaccard and (1 - pearson) / 2.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from bicsi.encoding import GeneMatrix
from bicsi.errors import ConfigError
from bicsi.similarity import MetricKind, count_distances, distances

from conftest import (
    gene_sequences,
    gs,
    random_sequences,
    reference_distance,
    reference_hamming,
    rows_of,
    sequence_pairs,
    sequence_triples,
    unpack_independently,
)

H, M, E = MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN


def measure(kind: MetricKind, a: GeneMatrix, b: GeneMatrix) -> float:
    """The library's distance between two one-row matrices of one length."""
    value = distances(kind, a.packed, b.packed, a.bit_length)
    assert value.shape == (1,) and value.dtype == np.float64
    return float(value[0])


def assert_matches_reference(a, b):
    """Every kind equals the per-pair reference exactly."""
    x, y = unpack_independently(a), unpack_independently(b)
    for kind in MetricKind:
        assert measure(kind, a, b) == reference_distance(kind, x, y), kind


class TestReferenceAgreement:
    @given(sequence_pairs(max_k=64))
    def test_random_pairs(self, pair):
        assert_matches_reference(*pair)

    @given(gene_sequences(max_k=64))
    def test_identical_sequences(self, a):
        assert_matches_reference(a, a)
        assert_matches_reference(a, GeneMatrix(a.packed.copy(), a.subcarrier_count))

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
        kind = MetricKind.PEARSON
        assert measure(kind, a, b) == reference_distance(kind, a, b)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_batch_equals_scalar(self, kind):
        rng = np.random.default_rng(17)
        rows = rng.integers(0, 2, (5, 18), dtype=np.uint8)
        cols = rng.integers(0, 2, (7, 18), dtype=np.uint8)
        rows[1], cols[2] = 0, 1
        cols[3] = rows[4]
        rows, cols = rows_of(rows), rows_of(cols)
        batch = distances(kind, rows.packed[:, None], cols.packed, 18)
        assert batch.shape == (5, 7)
        assert batch.tolist() == [[reference_distance(kind, r, c) for c in cols] for r in rows]


class TestHamming:
    def test_two_differing_positions(self):
        assert measure(H, gs("0101"), gs("0110")) == 2

    def test_identity(self):
        a = gs("100110")
        assert measure(H, a, a) == 0

    def test_maximum(self):
        assert measure(H, gs("11111111"), gs("00000000")) == 8

    @given(sequence_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert measure(H, a, b) == measure(H, b, a) == reference_hamming(a, b)

    @given(sequence_triples())
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert measure(H, a, c) <= measure(H, a, b) + measure(H, b, c)

    @given(sequence_pairs())
    def test_identity_of_indiscernibles(self, pair):
        a, b = pair
        assert (measure(H, a, b) == 0) == (a == b)


class TestDistanceIdentity:
    def test_hand_computed(self):
        a, b = gs("1011"), gs("0010")
        assert measure(M, a, b) == 2
        assert measure(E, a, b) == pytest.approx(math.sqrt(2))

    def test_self_distance_zero(self):
        a = gs("1010")
        assert measure(M, a, a) == 0
        assert measure(E, a, a) == 0.0

    @given(sequence_pairs())
    def test_manhattan_equals_hamming(self, pair):
        a, b = pair
        assert measure(M, a, b) == measure(H, a, b) == reference_distance(M, a, b)

    @given(sequence_pairs())
    def test_euclidean_squared_equals_hamming(self, pair):
        a, b = pair
        assert measure(E, a, b) == reference_distance(E, a, b)
        assert measure(E, a, b) ** 2 == pytest.approx(measure(H, a, b), abs=1e-9)


class TestCorrelationMetrics:
    C, P, J = MetricKind.COSINE, MetricKind.PEARSON, MetricKind.JACCARD

    def test_self_similarity(self):
        a = gs("1100")  # nonzero, non-constant
        for kind in (self.C, self.P, self.J):
            assert measure(kind, a, a) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert measure(self.J, gs("1100"), gs("0011")) == 1.0
        assert measure(self.C, gs("1100"), gs("0011")) == 1.0

    def test_hand_computed_overlap(self):
        a, b = gs("1010"), gs("1001")
        assert measure(self.C, a, b) == pytest.approx(0.5)  # cosine 1/2
        assert measure(self.J, a, b) == pytest.approx(2 / 3)  # jaccard 1/3

    def test_anti_correlated(self):
        assert measure(self.P, gs("1010"), gs("0101")) == pytest.approx(1.0)  # pearson -1

    def test_zero_vector_conventions(self):
        zero, one = gs("0000"), gs("1111")
        assert measure(self.C, zero, zero) == 0.0  # cosine 1
        assert measure(self.C, zero, one) == 1.0  # cosine 0
        assert measure(self.J, zero, zero) == 0.0  # jaccard 1
        assert measure(self.P, zero, zero) == 0.0  # identical constants: pearson 1
        assert measure(self.P, zero, one) == 0.5  # differing constants: pearson 0

    def test_constant_vs_varying(self):
        assert measure(self.P, gs("1111"), gs("1011")) == 0.5  # pearson 0

    @given(sequence_pairs())
    def test_ranges(self, pair):
        a, b = pair
        for kind in (self.C, self.P, self.J):
            assert -1e-12 <= measure(kind, a, b) <= 1.0 + 1e-12
            assert measure(kind, a, b) == reference_distance(kind, a, b)


class TestDistanceMapping:
    def test_hamming_self(self):
        a = gs("0110")
        assert measure(H, a, a) == 0.0

    def test_pearson_anti_correlated(self):
        assert measure(MetricKind.PEARSON, gs("1010"), gs("0101")) == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert measure(MetricKind.COSINE, gs("1100"), gs("0011")) == pytest.approx(1.0)

    @given(sequence_pairs())
    def test_non_negative_everywhere(self, pair):
        a, b = pair
        for kind in MetricKind:
            assert measure(kind, a, b) >= -1e-12

    @given(sequence_pairs())
    def test_zero_on_equal(self, pair):
        a, _ = pair
        for kind in MetricKind:
            assert measure(kind, a, a) == pytest.approx(0.0, abs=1e-12)


class TestMetricKind:
    def test_parse_case_insensitive(self):
        assert MetricKind.parse("HaMMing") is MetricKind.HAMMING
        assert MetricKind.parse(" euclidean ") is MetricKind.EUCLIDEAN

    def test_parse_unknown_lists_valid_names(self):
        with pytest.raises(ConfigError, match="hamming.*jaccard"):
            MetricKind.parse("chebyshev")

    def test_counts_of_a_bad_kind_are_refused(self):
        one = np.ones(1, dtype=np.int64)
        with pytest.raises(ConfigError, match="^unsupported metric kind: 'jaccard'$"):
            count_distances("jaccard", one, one, one, 2)
