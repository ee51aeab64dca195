"""Ancestor derivation, windowing and database serialization tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix, GeneSequence
from bicsi.errors import (
    ConfigError,
    DbLengthError,
    DbMagicError,
    DbTruncatedError,
    DbVersionError,
    EmptyInputError,
    LengthMismatchError,
    UnknownLabelError,
)
from bicsi.fingerprint import (
    AncestorPair,
    FingerprintDb,
    PositionEntry,
    append_ancestor_set,
    build_db,
    db_from_bytes,
    db_to_bytes,
    derive_ancestors,
    derive_parent,
    fraction_to_micro,
    load_db,
    save_db,
    threshold_count,
    window_slices,
    windows,
)

from conftest import gs, random_sequences, unpack_independently, unpack_rows


def column_training(ones: int, zeros: int) -> list:
    """Single-column training set (k=1, the second bit always 0)."""
    rows = [GeneSequence.from_bits([1, 0]) for _ in range(ones)]
    rows += [GeneSequence.from_bits([0, 0]) for _ in range(zeros)]
    return rows


class TestThresholdMaterialization:
    def test_five_percent_of_12000(self):
        assert threshold_count(fraction_to_micro(0.05), 12000) == 600

    def test_ceil_rounds_up(self):
        assert threshold_count(fraction_to_micro(0.05), 110) == 6  # 5.5 -> 6

    def test_zero_fraction(self):
        assert threshold_count(0, 500) == 0

    def test_tiny_fraction_still_counts(self):
        assert threshold_count(1, 1) == 1

    def test_full_fraction(self):
        assert threshold_count(fraction_to_micro(1.0), 730) == 730

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            fraction_to_micro(-0.1)
        with pytest.raises(ConfigError):
            fraction_to_micro(float("nan"))


class TestDeriveAncestors:
    def test_dominant_zeros(self):
        pair = derive_ancestors(column_training(ones=20, zeros=80), tr=5)
        assert pair.as1.bits()[0] == 0
        assert pair.as2.bits()[0] == 0

    def test_balanced_column_keeps_both(self):
        pair = derive_ancestors(column_training(ones=49, zeros=51), tr=5)
        assert pair.as1.bits()[0] == 1
        assert pair.as2.bits()[0] == 0

    def test_tie_with_zero_threshold_gives_one(self):
        pair = derive_ancestors(column_training(ones=50, zeros=50), tr=0)
        assert pair.as1.bits()[0] == 1
        assert pair.as2.bits()[0] == 1

    def test_threshold_above_training_size_degenerates(self):
        training = random_sequences(np.random.default_rng(0), 30, 4)
        pair = derive_ancestors(training, tr=31)
        assert pair.as1.bits().tolist() == [1] * 8
        assert pair.as2.bits().tolist() == [0] * 8

    def test_empty_training(self):
        with pytest.raises(EmptyInputError):
            derive_ancestors([], tr=0)

    def test_mixed_lengths(self):
        with pytest.raises(LengthMismatchError):
            derive_ancestors([gs("01"), gs("0101")], tr=0)

    def test_negative_threshold(self):
        with pytest.raises(ConfigError):
            derive_ancestors([gs("01")], tr=-1)

    @given(st.integers(0, 2**32), st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=40)
    def test_zero_threshold_collapses_pair(self, seed, count, k):
        training = random_sequences(np.random.default_rng(seed), count, k)
        pair = derive_ancestors(training, tr=0)
        assert pair.as1 == pair.as2

    @given(st.integers(0, 2**32), st.integers(1, 60), st.integers(1, 6),
           st.integers(0, 70), st.integers(0, 70))
    @settings(max_examples=40)
    def test_pair_order_and_threshold_monotonicity(self, seed, count, k, tr_lo, tr_hi):
        tr_lo, tr_hi = min(tr_lo, tr_hi), max(tr_lo, tr_hi)
        training = random_sequences(np.random.default_rng(seed), count, k)
        low = derive_ancestors(training, tr_lo)
        high = derive_ancestors(training, tr_hi)
        for pair in (low, high):
            assert np.all(pair.as1.bits() >= pair.as2.bits())
        # a column decided (equal bits) at the higher threshold stays decided
        decided_low = low.as1.bits() == low.as2.bits()
        decided_high = high.as1.bits() == high.as2.bits()
        assert np.all(decided_high <= decided_low)


class TestDeriveParent:
    def test_simple_majority(self):
        window = column_training(ones=70, zeros=50)
        assert derive_parent(window).bits()[0] == 1

    def test_exact_tie_gives_one(self):
        window = column_training(ones=60, zeros=60)
        assert derive_parent(window).bits()[0] == 1

    def test_unanimous_window_returns_member(self):
        seq = gs("011010")
        assert derive_parent([seq] * 120) == seq

    def test_empty_window(self):
        with pytest.raises(EmptyInputError):
            derive_parent([])


class TestWindows:
    def test_full_trace_window_count(self):
        parents = windows([gs("01")] * 24000, size=120)
        assert len(parents) == 200
        assert isinstance(parents, GeneMatrix) and parents.subcarrier_count == 1

    def test_small_remainder_dropped(self):
        assert len(windows([gs("01")] * 125, size=120)) == 1

    def test_half_remainder_kept(self):
        assert len(windows([gs("01")] * 180, size=120)) == 2

    def test_exact_half_boundary(self):
        assert len(windows([gs("01")] * 59, size=120)) == 0
        assert len(windows([gs("01")] * 60, size=120)) == 1

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            window_slices(10, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 6), st.integers(1, 50), st.integers(0, 2**16))
    def test_matches_per_window_parent(self, count, k, size, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(count, 2 * k), dtype=np.uint8)
        gm = GeneMatrix(np.packbits(bits, axis=1), k)
        parents = windows(gm, size)
        slices = window_slices(count, size)
        assert list(parents) == [derive_parent([gm[i] for i in range(lo, hi)])
                                 for lo, hi in slices]
        for parent, (lo, hi) in zip(parents, slices):
            ones = unpack_rows(gm[lo:hi]).sum(axis=0)
            assert unpack_independently(parent) == (2 * ones >= hi - lo).tolist()

    @pytest.mark.parametrize("k", [1, 3, 4, 230])
    def test_short_trace_gives_zero_rows(self, k):
        gm = GeneMatrix(np.zeros((59, -(-2 * k // 8)), dtype=np.uint8), k)
        parents = windows(gm, size=120)
        assert isinstance(parents, GeneMatrix)
        assert parents.packed.shape == (0, -(-2 * k // 8)) and parents.subcarrier_count == k

    def test_window_slices_partition(self):
        slices = window_slices(250, 100)
        assert slices == [(0, 100), (100, 200), (200, 250)]


def small_db(k: int = 2) -> FingerprintDb:
    entries = (
        PositionEntry("a", (0.0, 0.0), (AncestorPair(gs("01" * k), gs("00" * k)),)),
        PositionEntry("b", (1.0, 2.0), (AncestorPair(gs("11" * k), gs("10" * k)),)),
    )
    return FingerprintDb(subcarrier_count=k, threshold_micro=50000, entries=entries)


class TestBuildDb:
    def test_build_and_thresholds(self):
        training = random_sequences(np.random.default_rng(1), 40, 3)
        db = build_db([("x", (0, 0), training), ("y", (1, 0), training)], 0.05)
        assert [e.label for e in db.entries] == ["x", "y"]
        assert db.subcarrier_count == 3
        assert db.threshold_micro == 50000

    def test_duplicate_labels_rejected(self):
        training = random_sequences(np.random.default_rng(1), 10, 2)
        with pytest.raises(ValueError):
            build_db([("x", (0, 0), training), ("x", (1, 0), training)])

    def test_empty_positions(self):
        with pytest.raises(EmptyInputError):
            build_db([])


class TestAppendAncestorSet:
    def test_append_grows_sets(self):
        db = small_db()
        pair = AncestorPair(gs("0101"), gs("0001"))
        updated = append_ancestor_set(db, "a", pair)
        assert len(updated.entry("a").ancestor_sets) == 2
        assert updated.entry("a").ancestor_sets[1] == pair
        assert len(db.entry("a").ancestor_sets) == 1  # original untouched

    def test_append_keeps_order(self):
        db = small_db()
        pairs = [AncestorPair(gs("0101"), gs("0001")) for _ in range(3)]
        for pair in pairs:
            db = append_ancestor_set(db, "b", pair)
        assert len(db.entry("b").ancestor_sets) == 4
        assert db.entry("b").ancestor_sets[1:] == tuple(pairs)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            append_ancestor_set(small_db(), "zzz", AncestorPair(gs("0101"), gs("0001")))

    def test_wrong_length(self):
        with pytest.raises(LengthMismatchError):
            append_ancestor_set(small_db(), "a", AncestorPair(gs("01"), gs("00")))


def utf8_text(max_size=8):
    return st.text(st.characters(codec="utf-8"), max_size=max_size)


@st.composite
def fingerprint_dbs(draw):
    k = draw(st.integers(1, 24))
    labels = draw(st.lists(utf8_text(), min_size=0, max_size=4, unique=True))
    coords = st.floats(allow_nan=False, allow_infinity=False)
    entries = []
    for label in labels:
        sets = []
        for _ in range(draw(st.integers(1, 3))):
            bits = draw(st.lists(st.integers(0, 1), min_size=2 * k, max_size=2 * k))
            bits2 = draw(st.lists(st.integers(0, 1), min_size=2 * k, max_size=2 * k))
            sets.append(AncestorPair(GeneSequence.from_bits(bits),
                                     GeneSequence.from_bits(bits2)))
        entries.append(PositionEntry(label, (draw(coords), draw(coords)), tuple(sets)))
    return FingerprintDb(
        subcarrier_count=k,
        threshold_micro=draw(st.integers(0, 0xFFFFFFFF)),
        entries=tuple(entries),
    )


class TestDbRoundTrip:
    @given(fingerprint_dbs())
    @settings(max_examples=60)
    def test_round_trip_identity(self, db):
        assert db_from_bytes(db_to_bytes(db)) == db

    def test_file_round_trip(self, tmp_path):
        db = small_db()
        path = tmp_path / "fp.db"
        save_db(db, path)
        assert load_db(path) == db

    def test_empty_db(self):
        db = FingerprintDb(subcarrier_count=4, threshold_micro=0, entries=())
        assert db_from_bytes(db_to_bytes(db)) == db

    def test_ten_position_db_stays_small(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = []
        for i in range(10):
            bits = rng.integers(0, 2, size=460, dtype=np.uint8)
            pair = AncestorPair(GeneSequence.from_bits(bits),
                                GeneSequence.from_bits(1 - bits))
            entries.append(PositionEntry(f"pos{i:02d}", (float(i), 0.0), (pair,)))
        db = FingerprintDb(subcarrier_count=230, threshold_micro=50000,
                           entries=tuple(entries))
        path = tmp_path / "fp.db"
        save_db(db, path)
        assert path.stat().st_size <= 4096


class TestDbCorruption:
    def test_bad_magic(self):
        buf = bytearray(db_to_bytes(small_db()))
        buf[0] ^= 0xFF
        with pytest.raises(DbMagicError, match="bad magic"):
            db_from_bytes(bytes(buf))

    def test_bad_version(self):
        buf = bytearray(db_to_bytes(small_db()))
        buf[4] = 99
        with pytest.raises(DbVersionError):
            db_from_bytes(bytes(buf))

    @pytest.mark.parametrize("cut", [3, 14, 20, -1])
    def test_truncation(self, cut):
        buf = db_to_bytes(small_db())
        with pytest.raises(DbTruncatedError):
            db_from_bytes(buf[:cut])

    def test_trailing_garbage(self):
        buf = db_to_bytes(small_db()) + b"\x00"
        with pytest.raises(DbLengthError, match="trailing"):
            db_from_bytes(buf)

    def test_zero_set_count(self):
        import struct

        header = struct.pack("<4sBHII", b"BFPD", 1, 2, 0, 1)
        entry = struct.pack("<H", 1) + b"a" + struct.pack("<ddH", 0.0, 0.0, 0)
        with pytest.raises(DbLengthError, match="zero ancestor sets"):
            db_from_bytes(header + entry)

    def test_invalid_label_utf8(self):
        import struct

        header = struct.pack("<4sBHII", b"BFPD", 1, 2, 0, 1)
        entry = (struct.pack("<H", 2) + b"\xff\xfe"
                 + struct.pack("<ddH", 0.0, 0.0, 1) + b"\x00" + b"\x00")
        with pytest.raises(DbLengthError, match="UTF-8"):
            db_from_bytes(header + entry)

    def test_dirty_sequence_padding(self):
        import struct

        # k=2 -> 4 bits per sequence, low nibble of the byte must be zero
        header = struct.pack("<4sBHII", b"BFPD", 1, 2, 0, 1)
        entry = (struct.pack("<H", 1) + b"a"
                 + struct.pack("<ddH", 0.0, 0.0, 1) + b"\x0f" + b"\x00")
        with pytest.raises(DbLengthError):
            db_from_bytes(header + entry)

    def test_duplicate_labels_in_payload(self):
        db = small_db()
        buf = db_to_bytes(db)
        # duplicate the second entry by rewriting label 'b' twice
        raw = bytearray(buf)
        raw = raw.replace(b"\x01\x00a", b"\x01\x00b")
        with pytest.raises(DbLengthError):
            db_from_bytes(bytes(raw))
