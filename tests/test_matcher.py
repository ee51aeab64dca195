"""Matcher tests: minimum-distance prediction, tie-breaks, oracle agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix, GeneSequence
from bicsi.errors import EmptyInputError, LengthMismatchError
from bicsi.fingerprint import (
    AncestorPair,
    FingerprintDb,
    PositionEntry,
    append_ancestor_set,
)
from bicsi.matcher import match_one, match_trace
from bicsi.similarity import MetricKind

from conftest import gs, reference_distance


def entry(label, coord, *pairs):
    return PositionEntry(label, coord, tuple(AncestorPair(a, b) for a, b in pairs))


def db_of(k, *entries):
    return FingerprintDb(subcarrier_count=k, threshold_micro=0, entries=tuple(entries))


def brute_force_match(ps, db, kind=MetricKind.HAMMING):
    """Independent exhaustive scan under the per-pair bit-list reference distance."""
    per_entry = []
    for ent in db.entries:
        best = math.inf
        for pair in ent.ancestor_sets:
            for anc in (pair.as1, pair.as2):
                best = min(best, reference_distance(kind, anc, ps))
        per_entry.append(best)
    best_idx = per_entry.index(min(per_entry))
    others = [d for i, d in enumerate(per_entry) if i != best_idx]
    margin = (min(others) - per_entry[best_idx]) if others else math.inf
    return db.entries[best_idx].label, per_entry[best_idx], margin


class TestMatchOne:
    def test_exact_match_wins(self):
        db = db_of(
            2,
            entry("far", (0, 0), (gs("0000"), gs("0001"))),
            entry("hit", (1, 0), (gs("1011"), gs("1111"))),
        )
        result = match_one(gs("1011"), db)
        assert result.predicted_label == "hit"
        assert result.best_distance == 0.0
        assert result.predicted_coord == (1.0, 0.0)

    def test_tie_prefers_lower_entry_index(self):
        db = db_of(
            1,
            entry("first", (0, 0), (gs("00"), gs("00"))),
            entry("second", (1, 0), (gs("11"), gs("11"))),
        )
        # target at distance 1 from both entries
        result = match_one(gs("01"), db)
        assert result.predicted_label == "first"
        assert result.runner_up_margin == 0.0

    def test_prescribed_distances(self):
        target = gs("11111111")  # k=4
        far4 = gs("00001111")
        near1 = gs("11111110")
        far7 = gs("00000001")
        db = db_of(
            4,
            entry("a", (0, 0), (far4, far4)),
            entry("b", (1, 0), (near1, near1)),
            entry("c", (2, 0), (far7, far7)),
        )
        result = match_one(target, db)
        assert result.predicted_label == "b"
        assert result.best_distance == 1.0
        assert result.runner_up_margin == 3.0

    def test_min_over_both_ancestors_and_all_sets(self):
        base = entry("only", (0, 0), (gs("0000"), gs("0011")))
        db = db_of(2, base)
        db = append_ancestor_set(db, "only", AncestorPair(gs("1110"), gs("1111")))
        result = match_one(gs("1111"), db)
        assert result.best_distance == 0.0
        assert result.runner_up_margin == math.inf

    def test_empty_db(self):
        db = FingerprintDb(subcarrier_count=1, threshold_micro=0, entries=())
        with pytest.raises(EmptyInputError):
            match_one(gs("01"), db)

    def test_length_mismatch(self):
        db = db_of(2, entry("a", (0, 0), (gs("0000"), gs("0000"))))
        with pytest.raises(LengthMismatchError):
            match_one(gs("01"), db)

    def test_adding_a_set_never_hurts_that_entry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(1, 8))
            bits = lambda: GeneSequence.from_bits(rng.integers(0, 2, 2 * k, dtype=np.uint8))
            db = db_of(k, entry("a", (0, 0), (bits(), bits())),
                       entry("b", (1, 0), (bits(), bits())))
            ps = bits()
            before = match_one(ps, db)
            grown = append_ancestor_set(db, "b", AncestorPair(bits(), bits()))
            after = match_one(ps, grown)
            if before.predicted_label == "b":
                assert after.best_distance <= before.best_distance


class TestMetricEquivalence:
    @given(st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_distance_metrics_predict_identically(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        bits = lambda: GeneSequence.from_bits(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        entries = [
            entry(f"e{i}", (float(i), 0.0), (bits(), bits()))
            for i in range(int(rng.integers(2, 6)))
        ]
        db = db_of(k, *entries)
        ps = bits()
        outcomes = {
            kind: match_one(ps, db, kind).predicted_label
            for kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN)
        }
        assert len(set(outcomes.values())) == 1


class TestBruteForceAgreement:
    @given(st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_agrees_with_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        bits = lambda: GeneSequence.from_bits(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        entries = []
        for i in range(int(rng.integers(1, 9))):
            pairs = tuple(
                (bits(), bits()) for _ in range(int(rng.integers(1, 4)))
            )
            entries.append(entry(f"e{i}", (float(i), float(i)), *pairs))
        db = db_of(k, *entries)
        ps = bits()
        for kind in MetricKind:
            result = match_one(ps, db, kind)
            label, dist, margin = brute_force_match(ps, db, kind)
            assert result.predicted_label == label, kind
            assert result.best_distance == dist, kind
            assert result.runner_up_margin == margin, kind


class TestMatchTrace:
    def test_order_preserved(self):
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))),
                   entry("b", (1, 0), (gs("11"), gs("11"))))
        parents = [gs("11"), gs("00"), gs("11")]
        results = match_trace(parents, db)
        assert [r.predicted_label for r in results] == ["b", "a", "b"]
        assert [r.window_index for r in results] == [0, 1, 2]

    def test_empty_input(self):
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))))
        assert match_trace([], db) == []

    def test_identical_parents_identical_results(self):
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))),
                   entry("b", (1, 0), (gs("11"), gs("11"))))
        parents = [gs("10")] * 5
        results = match_trace(parents, db)
        assert len({(r.predicted_label, r.best_distance) for r in results}) == 1

    def test_failure_names_window(self):
        db = db_of(2, entry("a", (0, 0), (gs("0000"), gs("0000"))))
        parents = [gs("0000"), gs("01")]
        # rows of different lengths cannot pack into one matrix; the error names the row
        with pytest.raises(LengthMismatchError, match="^sequence 1: 2 bits, expected 4$"):
            match_trace(parents, db)

    def test_one_entry_db_margin_is_infinite(self):
        db = db_of(2, entry("only", (3, 4), (gs("0011"), gs("0001"))))
        results = match_trace([gs("0011"), gs("1100")], db)
        assert [r.runner_up_margin for r in results] == [math.inf, math.inf]
        assert [r.best_distance for r in results] == [0.0, 3.0]

    def test_ancestor_stack_built_once_in_scan_order(self):
        db = db_of(2, entry("a", (0, 0), (gs("0001"), gs("0010")), (gs("0011"), gs("0100"))),
                   entry("b", (1, 0), (gs("0101"), gs("0110"))))
        stacked, starts = db.ancestor_stack
        assert db.ancestor_stack[0] is stacked
        # per entry: every set's first ancestor, then every set's second
        scan = ["0001", "0011", "0010", "0100", "0101", "0110"]
        assert stacked.tobytes() == b"".join(gs(bits).packed for bits in scan)
        assert stacked.shape == (6, 1) and starts == [0, 4]
        assert not stacked.flags.writeable

    def test_match_one_error_names_window(self):
        db = db_of(2, entry("a", (0, 0), (gs("0000"), gs("0000"))))
        # one check per call: every row of a matrix has the same length
        with pytest.raises(LengthMismatchError,
                           match="^parent sequences have 2 bits, database stores 4$"):
            match_one(gs("01"), db)
        empty = FingerprintDb(subcarrier_count=1, threshold_micro=0, entries=())
        with pytest.raises(EmptyInputError, match="^fingerprint database has no entries$"):
            match_one(gs("01"), empty)


class TestBatchEqualsPerWindow:
    @pytest.mark.parametrize("kind", list(MetricKind))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_match_trace_equals_match_one(self, kind, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        bits = lambda: GeneSequence.from_bits(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        entries = []
        for i in range(int(rng.integers(1, 6))):  # one entry: every margin is inf
            if entries and rng.random() < 0.3:  # a copy of an earlier entry: exact ties
                sets = entries[int(rng.integers(0, len(entries)))].ancestor_sets
            else:
                sets = tuple(AncestorPair(bits(), bits())
                             for _ in range(int(rng.integers(1, 4))))
            entries.append(PositionEntry(f"e{i}", (float(i), 0.0), sets))
        db = db_of(k, *entries)
        parents = [bits() for _ in range(int(rng.integers(0, 7)))]
        assert match_trace(parents, db, kind) == [
            replace(match_one(ps, db, kind), window_index=row) for row, ps in enumerate(parents)]

    @pytest.mark.parametrize("kind", list(MetricKind))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_matrix_equals_its_rows(self, kind, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 12))
        bits = lambda: GeneSequence.from_bits(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        db = db_of(k, *(PositionEntry(f"e{i}", (float(i), 1.0), (AncestorPair(bits(), bits()),))
                        for i in range(int(rng.integers(1, 5)))))
        gm = GeneMatrix(np.packbits(rng.integers(0, 2, (int(rng.integers(0, 9)), 2 * k),
                                                 dtype=np.uint8), axis=1), k)
        results = match_trace(gm, db, kind)
        assert [r.window_index for r in results] == list(range(len(gm)))
        assert results == match_trace([gm[i] for i in range(len(gm))], db, kind)
