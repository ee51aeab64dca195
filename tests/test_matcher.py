"""Matcher tests: minimum-distance prediction, tie-breaks, oracle agreement."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix
from bicsi import similarity
from bicsi.errors import ConfigError, EmptyInputError, LengthMismatchError
from bicsi.fingerprint import db_to_bytes
from bicsi.matcher import match_trace
from bicsi.similarity import MetricKind

from conftest import fingerprint_db, gs, reference_distance, reference_key, rows_of


def entry(label, coord, *pairs):
    return label, coord, pairs


def db_of(k, *entries):
    return fingerprint_db(k, entries)


def random_entries(rng, bits) -> list:
    """1-5 entries of 1-3 random sets each; about a third copy an earlier
    entry's sets, so exact ties between entries occur."""
    entries = []
    for i in range(int(rng.integers(1, 6))):  # one entry: every margin is inf
        if entries and rng.random() < 0.3:
            sets = entries[int(rng.integers(0, len(entries)))][2]
        else:
            sets = tuple((bits(), bits()) for _ in range(int(rng.integers(1, 4))))
        entries.append(entry(f"e{i}", (float(i), 0.0), *sets))
    return entries


def brute_force_match(ps, entries, kind=MetricKind.HAMMING):
    """Independent exhaustive scan of the test's own (label, coord, sets)
    entries: the label of the earliest entry of lowest exact reference key,
    and the best float reference distance and runner-up margin over the
    entries."""
    keys, floats = [], []
    for _, _, sets in entries:
        ancestors = [anc for pair in sets for anc in pair]
        keys.append(min(reference_key(kind, anc, ps) for anc in ancestors))
        floats.append(min(reference_distance(kind, anc, ps) for anc in ancestors))
    ranked = sorted(floats)
    margin = ranked[1] - ranked[0] if len(ranked) > 1 else math.inf
    return entries[keys.index(min(keys))][0], ranked[0], margin


class TestMatchOne:
    """One window, a one-row GeneMatrix, against a database."""

    def test_exact_match_wins(self):
        db = db_of(
            2,
            entry("far", (0, 0), (gs("0000"), gs("0001"))),
            entry("hit", (1, 0), (gs("1011"), gs("1111"))),
        )
        result = match_trace(gs("1011"), db)[0]
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
        result = match_trace(gs("01"), db)[0]
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
        result = match_trace(target, db)[0]
        assert result.predicted_label == "b"
        assert result.best_distance == 1.0
        assert result.runner_up_margin == 3.0

    def test_min_over_both_ancestors_and_all_sets(self):
        db = db_of(2, entry("only", (0, 0), (gs("0000"), gs("0011")), (gs("1110"), gs("1111"))))
        result = match_trace(gs("1111"), db)[0]
        assert result.best_distance == 0.0
        assert result.runner_up_margin == math.inf

    def test_empty_db(self):
        db = db_of(1)
        with pytest.raises(EmptyInputError):
            match_trace(gs("01"), db)

    def test_length_mismatch(self):
        db = db_of(2, entry("a", (0, 0), (gs("0000"), gs("0000"))))
        with pytest.raises(LengthMismatchError):
            match_trace(gs("01"), db)

    def test_bad_kind_fails_before_any_bit_is_counted(self, monkeypatch):
        counted = []
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))))  # counts its ancestors' ones
        monkeypatch.setattr(similarity, "popcount", lambda rows: counted.append(rows))
        monkeypatch.setattr(np, "bitwise_count", lambda rows: counted.append(rows))
        with pytest.raises(ConfigError, match="^unsupported metric kind: 'hamming'$"):
            match_trace(gs("01"), db, "hamming")
        assert counted == []

    def test_adding_a_set_never_hurts_that_entry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(1, 8))
            bits = lambda: rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
            a, b = entry("a", (0, 0), (bits(), bits())), entry("b", (1, 0), (bits(), bits()))
            ps = bits()
            before = match_trace(ps, db_of(k, a, b))[0]
            grown = db_of(k, a, entry("b", (1, 0), *b[2], (bits(), bits())))
            after = match_trace(ps, grown)[0]
            if before.predicted_label == "b":
                assert after.best_distance <= before.best_distance


class TestMetricEquivalence:
    @given(st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_distance_metrics_predict_identically(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        bits = lambda: rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        entries = [
            entry(f"e{i}", (float(i), 0.0), (bits(), bits()))
            for i in range(int(rng.integers(2, 6)))
        ]
        db = db_of(k, *entries)
        ps = bits()
        outcomes = {
            kind: match_trace(ps, db, kind)[0].predicted_label
            for kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN)
        }
        assert len(set(outcomes.values())) == 1


class TestBruteForceAgreement:
    @given(st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_agrees_with_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        bits = lambda: rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        entries = []
        for i in range(int(rng.integers(1, 9))):
            pairs = tuple(
                (bits(), bits()) for _ in range(int(rng.integers(1, 4)))
            )
            entries.append(entry(f"e{i}", (float(i), float(i)), *pairs))
        db = db_of(k, *entries)
        ps = bits()
        for kind in MetricKind:
            result = match_trace(ps, db, kind)[0]
            label, dist, margin = brute_force_match(ps, entries, kind)
            assert result.predicted_label == label, kind
            assert result.best_distance == dist, kind
            assert result.runner_up_margin == margin, kind


class TestMatchTrace:
    def test_order_preserved(self):
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))),
                   entry("b", (1, 0), (gs("11"), gs("11"))))
        parents = gs("11", "00", "11")
        results = match_trace(parents, db)
        assert [r.predicted_label for r in results] == ["b", "a", "b"]
        assert [r.window_index for r in results] == [0, 1, 2]

    def test_empty_input(self):
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))))
        assert match_trace(gs("00")[:0], db) == []

    def test_identical_parents_identical_results(self):
        db = db_of(1, entry("a", (0, 0), (gs("00"), gs("00"))),
                   entry("b", (1, 0), (gs("11"), gs("11"))))
        parents = gs(*["10"] * 5)
        results = match_trace(parents, db)
        assert len({(r.predicted_label, r.best_distance) for r in results}) == 1

    def test_one_entry_db_margin_is_infinite(self):
        db = db_of(2, entry("only", (3, 4), (gs("0011"), gs("0001"))))
        results = match_trace(gs("0011", "1100"), db)
        assert [r.runner_up_margin for r in results] == [math.inf, math.inf]
        assert [r.best_distance for r in results] == [0.0, 3.0]

    def test_ancestors_read_only_in_file_order(self):
        db = db_of(2, entry("a", (0, 0), (gs("0001"), gs("0010")), (gs("0011"), gs("0100"))),
                   entry("b", (1, 0), (gs("0101"), gs("0110"))))
        # per entry, per set: the first ancestor, then the second, as the file stores them
        rows = ["0001", "0010", "0011", "0100", "0101", "0110"]
        assert db.ancestors.packed.tobytes() == gs(*rows).packed.tobytes()
        # the payload: a 15-byte header, then per entry a u16 label length, the
        # label, two f64, a u16 set count and the rows (a at 36:40, b at 61:63)
        payload = db_to_bytes(db)
        assert len(payload) == 63
        assert payload[36:40] + payload[61:63] == db.ancestors.packed.tobytes()
        assert db.ancestors.packed.shape == (6, 1) and db.starts.tolist() == [0, 4]
        assert not db.ancestors.packed.flags.writeable and not db.starts.flags.writeable
        with pytest.raises(ValueError):
            db.ancestors.packed[0, 0] = 0xFF

    def test_match_one_error_names_window(self):
        db = db_of(2, entry("a", (0, 0), (gs("0000"), gs("0000"))))
        # one check per call: every row of a matrix has the same length
        with pytest.raises(LengthMismatchError,
                           match="^parent sequences have 2 bits, database stores 4$"):
            match_trace(gs("01"), db)
        empty = db_of(1)
        with pytest.raises(EmptyInputError, match="^fingerprint database has no entries$"):
            match_trace(gs("01"), empty)


class TestBatchEqualsPerWindow:
    @pytest.mark.parametrize("kind", list(MetricKind))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_match_trace_equals_match_one(self, kind, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        bits = lambda: rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        db = db_of(k, *random_entries(rng, bits))
        parents = rows_of(rng.integers(0, 2, (int(rng.integers(0, 7)), 2 * k), dtype=np.uint8))
        assert match_trace(parents, db, kind) == [
            replace(match_trace(ps, db, kind)[0], window_index=row)
            for row, ps in enumerate(parents)]

    @pytest.mark.parametrize("kind", list(MetricKind))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_matrix_equals_its_rows(self, kind, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 12))
        bits = lambda: rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        db = db_of(k, *(entry(f"e{i}", (float(i), 1.0), (bits(), bits()))
                        for i in range(int(rng.integers(1, 5)))))
        gm = GeneMatrix(np.packbits(rng.integers(0, 2, (int(rng.integers(0, 9)), 2 * k),
                                                 dtype=np.uint8), axis=1), k)
        results = match_trace(gm, db, kind)
        assert [r.window_index for r in results] == list(range(len(gm)))
        assert [replace(r, window_index=0) for r in results] == [
            match_trace(gm[i], db, kind)[0] for i in range(len(gm))]


class TestWithinEntryOrder:
    @pytest.mark.parametrize("kind", list(MetricKind))
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_permuted_sets_and_swapped_ancestors_match_alike(self, kind, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        bits = lambda: rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
        entries = random_entries(rng, bits)
        shuffled = []  # each entry's sets reordered, each set's ancestors swapped
        for label, coord, sets in entries:
            order = rng.permutation(len(sets))
            shuffled.append(entry(label, coord, *((sets[j][1], sets[j][0]) for j in order)))
        parents = GeneMatrix.concat(bits() for _ in range(int(rng.integers(1, 7))))
        assert (match_trace(parents, db_of(k, *entries), kind)
                == match_trace(parents, db_of(k, *shuffled), kind))


def counted_row(on, off, m: int, nb: int) -> list:
    """A bit list with ``nb`` ones, ``m`` of them at indices ``on`` (the
    window's ones) and the rest at indices ``off`` (its zeros)."""
    bits = [0] * (len(on) + len(off))
    for i in list(on[:m]) + list(off[:nb - m]):
        bits[i] = 1
    return bits


@functools.cache
def tie_classes(kind) -> tuple:
    """Every class of two or more (m, nb) count pairs that score exactly
    alike against a window of ``ones`` ones in ``n`` bits, n up to 20, as
    (n, ones, pairs). A row's cosine or Pearson depends only on its ones nb
    and the ones m it shares with the window. Returns the classes whose
    reference_distance floats differ, then all of them."""
    split, tied = [], []
    for n in range(2, 21, 2):
        for ones in range(n + 1):
            on, off, window = range(ones), range(ones, n), [1] * ones + [0] * (n - ones)
            classes = {}
            for nb in range(n + 1):
                for m in range(max(0, nb - len(off)), min(nb, ones) + 1):
                    row = counted_row(on, off, m, nb)
                    classes.setdefault(reference_key(kind, row, window), []).append(
                        (m, nb, reference_distance(kind, row, window)))
            for members in classes.values():
                if len(members) > 1:
                    pairs = [(m, nb) for m, nb, _ in members]
                    tied.append((n, ones, pairs))
                    if len({dist for _, _, dist in members}) > 1:
                        split.append(tied[-1])
    return split, tied


@st.composite
def tied_databases(draw, kind):
    """A one-window GeneMatrix and (label, coord, sets) entries whose rows,
    but for those of one optional free entry, score exactly alike against
    it; half the time from a class whose floats round apart."""
    n, ones, pairs = draw(st.one_of(*map(st.sampled_from, tie_classes(kind))))
    window = draw(st.permutations([1] * ones + [0] * (n - ones)))
    on = [i for i, bit in enumerate(window) if bit]
    off = [i for i, bit in enumerate(window) if not bit]

    def row():
        m, nb = draw(st.sampled_from(pairs))
        return rows_of(counted_row(draw(st.permutations(on)), draw(st.permutations(off)), m, nb))

    entries = [entry(f"e{i}", (float(i), 0.0), (row(), row()))
               for i in range(draw(st.integers(2, 5)))]
    if draw(st.booleans()):  # a free entry, which may score better, worse or alike
        free = [rows_of(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
                for _ in range(2)]
        entries.insert(draw(st.integers(0, len(entries))), entry("free", (9.0, 9.0), free))
    return rows_of(window), entries


class TestExactTies:
    """Exactly equal cosines and Pearsons may round apart; the earliest
    entry still wins."""

    def test_cosine_of_one_over_root_three(self):
        # a 3-ones window; 3 of 9 ones shared and 1 of 1 both give 1/sqrt(3)
        window = [1] * 3 + [0] * 13
        nine = counted_row([0, 1, 2], list(range(3, 16)), 3, 9)
        one = counted_row([0, 1, 2], list(range(3, 16)), 1, 1)
        db = db_of(8, entry("nine", (0.0, 0.0), (rows_of(nine),) * 2),
                   entry("one", (1.0, 0.0), (rows_of(one),) * 2))
        result = match_trace(rows_of(window), db, MetricKind.COSINE)[0]
        assert result.predicted_label == "nine"
        assert result.best_distance == min(reference_distance(MetricKind.COSINE, row, window)
                                           for row in (nine, one))

    @pytest.mark.parametrize("kind", [MetricKind.COSINE, MetricKind.PEARSON])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_picks_agree_with_fractions(self, kind, data):
        window, entries = data.draw(tied_databases(kind))
        result = match_trace(window, db_of(window.bit_length // 2, *entries), kind)[0]
        label, dist, margin = brute_force_match(window, entries, kind)
        assert (result.predicted_label, result.best_distance, result.runner_up_margin) == (
            label, dist, margin)
