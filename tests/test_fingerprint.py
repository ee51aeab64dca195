"""Ancestor derivation, windowing and database serialization tests."""

import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi import evaluation
from bicsi.encoding import GeneMatrix
from bicsi.errors import (
    ConfigError,
    DbLengthError,
    DbMagicError,
    DbTruncatedError,
    DbVersionError,
    EmptyInputError,
    LengthMismatchError,
)
from bicsi.fingerprint import (
    FingerprintDb,
    ancestor_matrices,
    build_db,
    check_window_size,
    db_from_bytes,
    db_to_bytes,
    fraction_to_micro,
    load_db,
    save_db,
    threshold_count,
    training_counts,
    windows,
)

from conftest import (
    fingerprint_db,
    gs,
    random_sequences,
    reference_ancestors,
    rows_of,
    unpack_independently,
    unpack_rows,
)


def column_training(ones: int, zeros: int) -> GeneMatrix:
    """Single-column training set (k=1, the second bit always 0)."""
    return rows_of([[1, 0]] * ones + [[0, 0]] * zeros)


def repeated(bit_string: str, count: int) -> GeneMatrix:
    """``count`` rows of one literal like "01"."""
    return rows_of(np.tile([int(c) for c in bit_string], (count, 1)))


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

    @pytest.mark.parametrize(("micro", "count"), [(-1, 10), (10, -1)])
    def test_negative_input_rejected(self, micro, count):
        message = "^threshold micro-units and training count must be non-negative$"
        with pytest.raises(ConfigError, match=message):
            threshold_count(micro, count)

    def test_four_digit_fractions_round_to_whole_micro_units(self):
        # 115 of these products fall just below a whole number: 0.0157 * 10**6 is 15699.99...
        assert fraction_to_micro(0.0157) == 15_700
        assert [fraction_to_micro(d / 10_000) for d in range(10_000)] == [
            100 * d for d in range(10_000)]

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            fraction_to_micro(-0.1)
        with pytest.raises(ConfigError):
            fraction_to_micro(float("nan"))


def ancestors_at(training: GeneMatrix, fraction: float) -> tuple:
    """The ancestor pair build_db derives for one position trained on
    ``training`` at ``fraction``, checked against reference_ancestors at the
    threshold count that fraction gives."""
    db = build_db([("p", (0.0, 0.0), training)], fraction)
    as1, as2 = db.ancestors[0], db.ancestors[1]
    tr = threshold_count(fraction_to_micro(fraction), len(training))
    assert (as1, as2) == reference_ancestors(training, tr)
    return as1, as2


class TestDeriveAncestors:
    """The ancestor rule, through build_db at the fraction giving each tr."""

    def test_dominant_zeros(self):
        as1, as2 = ancestors_at(column_training(ones=20, zeros=80), 0.05)  # tr = 5
        assert unpack_independently(as1)[0] == 0
        assert unpack_independently(as2)[0] == 0

    def test_balanced_column_keeps_both(self):
        as1, as2 = ancestors_at(column_training(ones=49, zeros=51), 0.05)  # tr = 5
        assert unpack_independently(as1)[0] == 1
        assert unpack_independently(as2)[0] == 0

    def test_tie_with_zero_threshold_gives_one(self):
        as1, as2 = ancestors_at(column_training(ones=50, zeros=50), 0.0)
        assert unpack_independently(as1)[0] == 1
        assert unpack_independently(as2)[0] == 1

    def test_threshold_above_training_size_degenerates(self):
        training = random_sequences(np.random.default_rng(0), 30, 4)
        assert threshold_count(fraction_to_micro(31 / 30), 30) == 31
        as1, as2 = ancestors_at(training, 31 / 30)
        assert unpack_independently(as1) == [1] * 8
        assert unpack_independently(as2) == [0] * 8

    def test_empty_training(self):
        with pytest.raises(EmptyInputError):
            build_db([("p", (0.0, 0.0), gs("01")[:0])], 0.0)

    def test_mixed_lengths(self):
        # a training set of mixed lengths cannot be assembled in the first place
        with pytest.raises(LengthMismatchError):
            build_db([("p", (0.0, 0.0), GeneMatrix.concat([gs("01"), gs("0101")]))], 0.0)

    def test_negative_threshold(self):
        with pytest.raises(ConfigError):
            build_db([("p", (0.0, 0.0), gs("01"))], -0.01)

    def test_negative_threshold_count(self):
        sizes, ones = training_counts([("p", (0.0, 0.0), gs("01", "11"))])
        with pytest.raises(ConfigError, match="^threshold count must be non-negative$"):
            ancestor_matrices(sizes, ones, [-1])

    @given(st.integers(0, 2**32), st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=40)
    def test_zero_threshold_collapses_pair(self, seed, count, k):
        training = random_sequences(np.random.default_rng(seed), count, k)
        as1, as2 = ancestors_at(training, 0.0)
        assert as1 == as2

    @given(st.integers(0, 2**32), st.integers(1, 60), st.integers(1, 6),
           st.integers(0, 1_200_000), st.integers(0, 1_200_000))
    @settings(max_examples=40)
    def test_pair_order_and_threshold_monotonicity(self, seed, count, k, micro_lo, micro_hi):
        micro_lo, micro_hi = min(micro_lo, micro_hi), max(micro_lo, micro_hi)
        training = random_sequences(np.random.default_rng(seed), count, k)
        low = ancestors_at(training, micro_lo / 1_000_000)
        high = ancestors_at(training, micro_hi / 1_000_000)
        for as1, as2 in (low, high):
            assert len(as1) == len(as2) == 1
            assert np.all(unpack_rows(as1) >= unpack_rows(as2))
        # a column decided (equal bits) at the higher threshold stays decided
        decided_low = unpack_rows(low[0]) == unpack_rows(low[1])
        decided_high = unpack_rows(high[0]) == unpack_rows(high[1])
        assert np.all(decided_high <= decided_low)


def window_slices(total: int, size: int) -> list[tuple[int, int]]:
    """Reference windowing: consecutive non-overlapping (start, stop) windows
    over ``total`` items, keeping a trailing remainder at least half a window
    long and dropping anything shorter."""
    check_window_size(size)
    full = total // size
    slices = [(i * size, (i + 1) * size) for i in range(full)]
    rem = total - full * size
    if rem and 2 * rem >= size:
        slices.append((full * size, total))
    return slices


class TestDeriveParent:
    """The parent of one window: ``windows`` over a trace one window long."""

    def test_simple_majority(self):
        window = column_training(ones=70, zeros=50)
        assert unpack_independently(windows(window, len(window)))[0] == 1

    def test_exact_tie_gives_one(self):
        window = column_training(ones=60, zeros=60)
        assert unpack_independently(windows(window, len(window)))[0] == 1

    def test_unanimous_window_returns_member(self):
        seq = gs("011010")
        assert windows(GeneMatrix.concat([seq] * 120), 120) == seq

    def test_empty_window(self):
        assert len(windows(gs("01")[:0], 120)) == 0


class TestWindows:
    def test_full_trace_window_count(self):
        parents = windows(repeated("01", 24000), size=120)
        assert len(parents) == 200
        assert isinstance(parents, GeneMatrix) and parents.subcarrier_count == 1

    def test_small_remainder_dropped(self):
        assert len(windows(repeated("01", 125), size=120)) == 1

    def test_half_remainder_kept(self):
        assert len(windows(repeated("01", 180), size=120)) == 2

    def test_exact_half_boundary(self):
        assert len(windows(repeated("01", 59), size=120)) == 0
        assert len(windows(repeated("01", 60), size=120)) == 1

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
        assert list(parents) == [windows(gm[lo:hi], hi - lo) for lo, hi in slices]
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

    @pytest.mark.parametrize("count,size", [
        (1500, 254),  # 5 windows and a kept tail of 230
        (1275, 255),  # 5 windows of exactly one lane's capacity
        (1400, 255),  # a dropped tail of 125
        (1408, 256),  # a tail of 128, exactly half a window
        (1500, 511),  # a kept tail of 478
        (1200, 511),  # a dropped tail of 178
        (1399, 700),  # one window and a kept tail of 699
        (254, 255),   # only the tail window
        (301, 120),   # 2 windows and an odd kept tail of 61
        (120, 120),   # one whole window
        (0, 700),     # a zero-row trace
    ])
    @pytest.mark.parametrize("k", [3, 37])
    def test_lane_boundary_matches_column_majority(self, count, size, k):
        # columns 0 and 1 are all ones and all zeros: a lane past 255 would wrap
        bits = np.random.default_rng(count + size + k).integers(0, 2, (count, 2 * k), np.uint8)
        bits[:, 0], bits[:, 1] = 1, 0
        gm = GeneMatrix(np.packbits(bits, axis=1), k)
        bounds = [(lo, lo + size) for lo in range(0, count - size + 1, size)]
        tail = count - len(bounds) * size
        if tail and 2 * tail >= size:
            bounds.append((count - tail, count))
        parents = windows(gm, size)
        assert parents.packed.shape == (len(bounds), gm.packed.shape[1])
        assert not parents.packed.flags.writeable
        for row, (lo, hi) in enumerate(bounds):
            ones = unpack_rows(gm[lo:hi]).sum(axis=0)
            assert unpack_independently(parents[row]) == (2 * ones >= hi - lo).tolist()


def small_db(k: int = 2) -> FingerprintDb:
    return fingerprint_db(k, [("a", (0.0, 0.0), [(gs("01" * k), gs("00" * k))]),
                              ("b", (1.0, 2.0), [(gs("11" * k), gs("10" * k))])], 50000)


class TestTrainingCounts:
    def test_long_sets_match_unpacked_sums(self):
        rng = np.random.default_rng(3)
        sets = []
        for count in (256, 1, 700, 255, 511):
            bits = rng.integers(0, 2, (count, 10), np.uint8)
            bits[:, 0], bits[:, 3] = 1, 0
            sets.append(GeneMatrix(np.packbits(bits, axis=1), 5))
        sizes, ones = training_counts((f"set {i}", (0, 0), gm) for i, gm in enumerate(sets))
        assert sizes.tolist() == [256, 1, 700, 255, 511]
        assert ones.dtype == np.int64
        assert ones.tolist() == [unpack_rows(gm).sum(axis=0).tolist() for gm in sets]


class TestBuildDb:
    def test_build_and_thresholds(self):
        training = random_sequences(np.random.default_rng(1), 40, 3)
        db = build_db([("x", (0, 0), training), ("y", (1, 0), training)], 0.05)
        assert db.labels == ("x", "y")
        assert db.subcarrier_count == 3
        assert db.threshold_micro == 50000

    def test_duplicate_labels_rejected(self):
        training = random_sequences(np.random.default_rng(1), 10, 2)
        with pytest.raises(ValueError):
            build_db([("x", (0, 0), training), ("x", (1, 0), training)])

    def test_empty_positions(self):
        with pytest.raises(EmptyInputError):
            build_db([])

    def test_empty_training_set_is_named(self):
        with pytest.raises(EmptyInputError, match="^position 'a': no training sequences$"):
            build_db([("a", (0.0, 0.0), gs("01")[:0])])

    def test_two_widths_name_the_position(self):
        rng = np.random.default_rng(2)
        positions = [("a", (0, 0), random_sequences(rng, 5, 4)),
                     ("b", (1, 0), random_sequences(rng, 5, 6))]
        with pytest.raises(LengthMismatchError,
                           match="^position 'b': 12 bits"):
            build_db(positions)


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
            sets.append((rows_of(bits), rows_of(bits2)))
        entries.append((label, (draw(coords), draw(coords)), sets))
    return fingerprint_db(k, entries, draw(st.integers(0, 0xFFFFFFFF)))


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
        db = fingerprint_db(4, [])
        assert db_from_bytes(db_to_bytes(db)) == db

    def test_ten_position_db_stays_small(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = []
        for i in range(10):
            bits = rng.integers(0, 2, size=460, dtype=np.uint8)
            pair = (rows_of(bits), rows_of(1 - bits))
            entries.append((f"pos{i:02d}", (float(i), 0.0), [pair]))
        db = fingerprint_db(230, entries, 50000)
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

    def test_non_finite_coordinate_names_the_entry(self):
        import struct

        buf = db_to_bytes(small_db())
        at = buf.index(struct.pack("<dd", 1.0, 2.0))  # entry 1's coordinates
        bad = buf[:at] + struct.pack("<dd", float("inf"), 2.0) + buf[at + 16:]
        with pytest.raises(DbLengthError,
                           match="^entry 1: position 'b': coordinates must be finite$"):
            db_from_bytes(bad)

    def test_dirty_padding_names_the_entry(self):
        buf = bytearray(db_to_bytes(small_db()))
        buf[-1] |= 0x01  # entry 1's second ancestor: k=2 leaves 4 padding bits
        with pytest.raises(DbLengthError, match="^entry 1: padding bits"):
            db_from_bytes(bytes(buf))
        with pytest.raises(DbTruncatedError, match="inside entry 1 ancestors"):
            db_from_bytes(bytes(buf[:-1]))


def multi_set_v1() -> tuple:
    """A two-entry database with three ancestor sets at k = 5, and its v1
    file packed field by field from the format table."""
    # k = 5: 10 bits in 2 bytes, packed MSB-first, 6 zero padding bits
    seqs = {"1111111111": b"\xff\xc0", "1010101010": b"\xaa\x80",
            "0000000001": b"\x00\x40", "0000000000": b"\x00\x00",
            "1000000010": b"\x80\x80", "0100000000": b"\x40\x00"}
    s = {bits: gs(bits) for bits in seqs}
    db = fingerprint_db(5, [
        ("a1", (1.5, -2.0), [(s["1111111111"], s["1010101010"]),
                             (s["0000000001"], s["0000000000"])]),
        ("é", (0.0, 3.25), [(s["1000000010"], s["0100000000"])]),
    ], 50000)
    return db, (
        struct.pack("<4sBHII", b"BFPD", 1, 5, 50000, 2)
        + struct.pack("<H", 2) + b"a1" + struct.pack("<dd", 1.5, -2.0) + struct.pack("<H", 2)
        + b"\xff\xc0" + b"\xaa\x80" + b"\x00\x40" + b"\x00\x00"
        + struct.pack("<H", 2) + b"\xc3\xa9" + struct.pack("<dd", 0.0, 3.25)
        + struct.pack("<H", 1) + b"\x80\x80" + b"\x40\x00"
    )


class TestDbBytes:
    def test_multi_set_db_matches_the_format_table(self):
        db, expected = multi_set_v1()
        assert db_to_bytes(db) == expected
        assert db_from_bytes(expected) == db

    # each u16 field at its limit round-trips and one past it is refused; the
    # u32 entry count would need 2**32 entries and is left untested
    @pytest.mark.parametrize("field, message", [
        ("subcarriers", "^subcarrier count does not fit the format"),
        ("label bytes", "exceeds the format limit$"),
        ("sets", "^position 'p' has too many ancestor sets$"),
    ])
    @pytest.mark.parametrize("value", [0xFFFF, 0x10000])
    def test_u16_limits(self, field, message, value):
        k = value if field == "subcarriers" else 1
        label = "é" * (value // 2) + "p" * (value % 2) if field == "label bytes" else "p"
        sets = value if field == "sets" else 1
        db = FingerprintDb(0, (label,), ((0.0, 0.0),), (sets,),
                           GeneMatrix(np.zeros((2 * sets, (2 * k + 7) // 8), np.uint8), k))
        if value > 0xFFFF:
            with pytest.raises(ConfigError, match=message):
                db_to_bytes(db)
        else:
            assert db_from_bytes(db_to_bytes(db)) == db


class TestFingerprintDbRecord:
    def ancestors(self, rows: int) -> GeneMatrix:
        return GeneMatrix(np.zeros((rows, 1), dtype=np.uint8), 2)

    def test_rows_must_match_the_set_counts(self):
        with pytest.raises(LengthMismatchError, match="^4 ancestor rows, the set counts need 2$"):
            FingerprintDb(0, ["a"], [(0.0, 0.0)], [1], self.ancestors(4))

    def test_columns_must_align(self):
        with pytest.raises(LengthMismatchError, match="must align"):
            FingerprintDb(0, ["a", "b"], [(0.0, 0.0)], [1, 1], self.ancestors(4))

    @pytest.mark.parametrize("labels, coords, counts, message", [
        (["a"], [(0.0, 0.0)], [0], "^position 'a': needs at least one ancestor set$"),
        (["a"], [(float("nan"), 0.0)], [1], "^position 'a': coordinates must be finite$"),
        (["a", "a"], [(0.0, 0.0), (1.0, 0.0)], [1, 1], "^duplicate position label 'a'$"),
        ([1], [(0.0, 0.0)], [1], "^position label 1 is not a str$"),
    ])
    def test_bad_positions_are_named(self, labels, coords, counts, message):
        with pytest.raises(ValueError, match=message):
            FingerprintDb(0, labels, coords, counts, self.ancestors(2 * sum(counts)))

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError, match="threshold_micro"):
            FingerprintDb(2**32, [], [], [], self.ancestors(0))

    def test_build_db_interleaves_each_positions_ancestors(self):
        rng = np.random.default_rng(4)
        positions = [(f"p{i}", (float(i), 0.0), random_sequences(rng, 20, 3)) for i in range(3)]
        db = build_db(positions, 0.2)
        rows = [anc for _, _, seqs in positions
                for anc in reference_ancestors(seqs, threshold_count(200000, 20))]
        assert db.ancestors == GeneMatrix.concat(rows)
        assert db.set_counts == (1, 1, 1) and db.starts.tolist() == [0, 2, 4]


def session_join(monkeypatch) -> FingerprintDb:
    """The database temporal_eval joins from the single-set databases of two
    sessions: each position's two sets, in session order."""
    rng = np.random.default_rng(9)
    dbs = [build_db([(f"p{i}", (float(i), 0.0), random_sequences(rng, 12, 5)) for i in range(3)])
           for _ in range(2)]
    joined, evaluate = [], evaluation.evaluate_windows

    def capture(db, *args):
        joined.append(db)
        return evaluate(db, *args)

    monkeypatch.setattr(evaluation, "evaluate_windows", capture)
    test = evaluation.LabeledWindows(dbs[1].ancestors, ("p0", "p0", "p1", "p1", "p2", "p2"),
                                     ((0, 0),) * 2 + ((1, 0),) * 2 + ((2, 0),) * 2)
    evaluation.temporal_eval(dbs, [test, test])
    assert joined[-1].set_counts == (2, 2, 2)
    return joined[-1]


def replaced_ancestors(monkeypatch) -> FingerprintDb:
    """``dataclasses.replace`` of a built database's ancestors: the new
    database must count its own rows, not keep the old counts."""
    rng = np.random.default_rng(10)
    db = build_db([(f"p{i}", (float(i), 0.0), random_sequences(rng, 12, 5)) for i in range(3)])
    ancestors = rows_of(1 - unpack_rows(db.ancestors))
    assert (unpack_rows(ancestors).sum(axis=1) != db.ancestor_ones).any()
    return replace(db, ancestors=ancestors)


DB_MAKERS = {
    "build_db": lambda mp: build_db([(f"p{i}", (float(i), 0.0),
                                      random_sequences(np.random.default_rng(i), 7, 9))
                                     for i in range(4)], 0.2),
    "db_from_bytes": lambda mp: db_from_bytes(multi_set_v1()[1]),
    "temporal_eval": session_join,
    "replace": replaced_ancestors,
    "fingerprint_db": lambda mp: multi_set_v1()[0],
}


@pytest.mark.parametrize("made_by", sorted(DB_MAKERS))
def test_ancestor_ones_are_counted_once_per_database(made_by, monkeypatch):
    db = DB_MAKERS[made_by](monkeypatch)
    ones = db.ancestor_ones
    assert ones.dtype == np.int64
    assert ones.tolist() == unpack_rows(db.ancestors).sum(axis=1).tolist()
    assert not ones.flags.writeable
    # derived from the ancestors: the caller never passes it, == and repr skip it
    assert not {f.name: f for f in fields(FingerprintDb)}["ancestor_ones"].init
    twin = replace(db)
    object.__setattr__(twin, "ancestor_ones", ones + 1)
    assert twin == db and repr(twin) == repr(db)
    assert "ancestor_ones" not in repr(db)
