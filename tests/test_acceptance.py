"""Acceptance suite: pins the package's headline guarantees end to end.

Each test prints one [PASS] line (run with ``pytest tests/test_acceptance.py -s``
to see them). Expected values for the synthetic end-to-end fixtures were
computed by oracle runs against the frozen seeds below and committed; the
generator is a pure function of its seed, so the fixtures reproduce exactly.
"""

import math
import struct
import time

import numpy as np
import pytest

from bicsi.encoding import encode_matrix
from bicsi.errors import (
    DbLengthError,
    DbMagicError,
    DbTruncatedError,
    DbVersionError,
)
from bicsi.evaluation import (
    LabeledWindows,
    evaluate_windows,
    temporal_eval,
    threshold_sweep,
)
from bicsi.fingerprint import (
    build_db,
    db_from_bytes,
    db_to_bytes,
    save_db,
)
from bicsi.ingest import AmplitudeMatrix, LabeledTrace
from bicsi.matcher import match_trace
from bicsi.similarity import MetricKind, distances
from bicsi.synth import SynthConfig, drift_sessions, generate

from conftest import (
    fingerprint_db,
    reference_ancestors,
    reference_code,
    reference_euclidean,
    reference_manhattan,
    replay_accuracy,
    replay_mae,
    rows_of,
    unpack_independently,
    unpack_rows,
)

TRAIN_PACKETS = 12000
TEST_PACKETS = 24000

# frozen-seed end-to-end fixtures; oracle outcomes committed below
CLEAN_E2E = SynthConfig(
    positions=6, subcarriers=230, packets_per_position=TRAIN_PACKETS + TEST_PACKETS,
    base_amplitude_range=(40, 1000), profile_separation=32.0,
    noise_sigma=0.5, burst_rate=0.0, burst_magnitude=64.0, seed=20250810,
)
CLEAN_EXPECTED = {"accuracy": 1.0, "mae": 0.0}

NOISY_E2E = SynthConfig(
    positions=6, subcarriers=230, packets_per_position=TRAIN_PACKETS + TEST_PACKETS,
    base_amplitude_range=(40, 1000), profile_separation=32.0,
    noise_sigma=7.0, burst_rate=0.05, burst_magnitude=64.0, seed=20250811,
)
NOISY_EXPECTED = {"accuracy": 1.0, "mae": 0.0}

# frozen 7-session drift fixture and its oracle accuracy curve
TEMPORAL_TRAIN = 1200
TEMPORAL_TEST = 2400
TEMPORAL_CFG = SynthConfig(
    positions=6, subcarriers=230,
    packets_per_position=TEMPORAL_TRAIN + TEMPORAL_TEST,
    base_amplitude_range=(200, 500), profile_separation=8.0,
    noise_sigma=12.0, burst_rate=0.05, burst_magnitude=64.0,
    drift_sigma=24.0, seed=88001,
)
TEMPORAL_EXPECTED = [
    (1, 0.8444444444444444),
    (2, 0.895),
    (3, 0.95),
    (4, 0.9777777777777777),
    (5, 1.0),
    (6, 1.0),
]

# frozen sweep fixture family: all 20 seeds verified non-increasing at freeze time
SWEEP_SEEDS = list(range(20))
SWEEP_CFG = dict(
    positions=4, subcarriers=64, packets_per_position=2000,
    base_amplitude_range=(40, 1000), profile_separation=32.0,
    noise_sigma=100.0, burst_rate=0.0, burst_magnitude=0.0,
)
SWEEP_FRACTIONS = [i * 0.05 for i in range(21)]


def report_pass(name: str, elapsed: float, limit: float | None = None) -> None:
    budget = f", limit {limit:g}s" if limit is not None else ""
    print(f"[PASS] {name} ({elapsed:.2f}s{budget})")


def training_flip_rate(sequences) -> float:
    """Mean fraction of training bits disagreeing with their column majority."""
    bits = unpack_rows(sequences)
    n = bits.shape[0]
    n1 = bits.sum(axis=0, dtype=np.int64)
    return float(np.minimum(n1, n - n1).mean() / n)


def split_fixture(dataset, train_packets, test_packets):
    """(label, coord, training sequences) triples plus labeled test traces."""
    positions = []
    test_traces = []
    for trace in dataset.traces:
        data = trace.matrix.data
        positions.append((trace.true_label, trace.true_coord,
                          encode_matrix(data[:train_packets])))
        test_matrix = AmplitudeMatrix(
            data=data[train_packets:train_packets + test_packets],
            subcarrier_mask=trace.matrix.subcarrier_mask,
        )
        test_traces.append(LabeledTrace(matrix=test_matrix, true_label=trace.true_label,
                                        true_coord=trace.true_coord))
    return positions, test_traces


def test_encoder_exhaustive_correctness():
    start = time.perf_counter()
    # one packet per amplitude; the reference votes over the halves of format(ap, "010b")
    bits = unpack_rows(encode_matrix(np.arange(2048, dtype=np.int64)[:, None]))
    assert bits.tolist() == [reference_code(ap) for ap in range(2048)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass("encoder exhaustive correctness over 0..2047", elapsed, 1.0)


def test_distance_identity_and_prediction_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    k = 230
    bits = rng.integers(0, 2, size=(20000, 2 * k), dtype=np.uint8)
    packed = np.packbits(bits, axis=1)  # (20000, 58): pair i is rows 2i and 2i + 1
    manhattan = distances(MetricKind.MANHATTAN, packed[0::2], packed[1::2], 2 * k)
    euclidean = distances(MetricKind.EUCLIDEAN, packed[0::2], packed[1::2], 2 * k)
    # the reference reads the generated bits, not the library's packing
    pairs = list(zip(bits[0::2].tolist(), bits[1::2].tolist()))
    assert manhattan.tolist() == [reference_manhattan(x, y) for x, y in pairs]
    assert euclidean.tolist() == [reference_euclidean(x, y) for x, y in pairs]

    # prediction invariance on a six-position synthetic fixture
    cfg = SynthConfig(positions=6, subcarriers=230, packets_per_position=360,
                      base_amplitude_range=(40, 1000), profile_separation=32.0,
                      noise_sigma=7.0, burst_rate=0.05, burst_magnitude=64.0,
                      seed=515151)
    positions, test_traces = split_fixture(generate(cfg), 240, 120)
    db = build_db(positions, 0.05)
    labeled = LabeledWindows.from_traces(test_traces, 120)
    predictions = {}
    for kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN):
        results = match_trace(labeled.parents, db, kind)
        predictions[kind] = [r.predicted_label for r in results]
    assert predictions[MetricKind.HAMMING] == predictions[MetricKind.MANHATTAN]
    assert predictions[MetricKind.HAMMING] == predictions[MetricKind.EUCLIDEAN]

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass("manhattan, euclidean = bit-list reference on 10k pairs; "
                "prediction invariance", elapsed, 5.0)


def test_ancestor_derivation_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # zero threshold collapses the pair, 100 random training sets
    for _ in range(100):
        count = int(rng.integers(1, 80))
        k = int(rng.integers(1, 12))
        seqs = rows_of(rng.integers(0, 2, size=(count, 2 * k), dtype=np.uint8))
        as1, as2 = build_db([("p", (0.0, 0.0), seqs)], 0.0).ancestors
        assert as1 == as2 == reference_ancestors(seqs, 0)[0]

    # threshold above the training size degenerates every position alike
    positions = [(f"p{i}", (float(i), 0.0),
                  rows_of(rng.integers(0, 2, size=(50, 32), dtype=np.uint8))) for i in range(4)]
    db = build_db(positions, 1.02)  # ceil -> tr = 51 > 50
    for i, (_, _, seqs) in enumerate(positions):
        as1, as2 = db.ancestors[2 * i], db.ancestors[2 * i + 1]
        assert (as1, as2) == reference_ancestors(seqs, 51)
        assert unpack_independently(as1) == [1] * 32
        assert unpack_independently(as2) == [0] * 32
    degenerate = threshold_sweep(positions, [1.02])
    assert degenerate[0][1] == 0.0

    # frozen sweep fixtures: curve non-increasing across the whole grid
    for seed in SWEEP_SEEDS:
        dataset = generate(SynthConfig(seed=seed, **SWEEP_CFG))
        positions = [(t.true_label, t.true_coord, encode_matrix(t.matrix))
                     for t in dataset.traces]
        values = [mean for _, mean in threshold_sweep(positions, SWEEP_FRACTIONS)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass("ancestor limits: tr=0 collapse, tr>n degeneracy, "
                "20 non-increasing sweeps", elapsed, 10.0)


def test_storage_bound_and_packing_ratio(tmp_path):
    start = time.perf_counter()
    k = 230
    rng = np.random.default_rng(7)
    entries = []
    for i in range(6):
        row = rng.integers(0, 2, size=2 * k, dtype=np.uint8)
        pair = (rows_of(row), rows_of(1 - row))
        entries.append((f"p{i + 1:02d}", (float(i), 0.0), [pair]))
    db = fingerprint_db(k, entries, 50000)
    path = tmp_path / "fp.db"
    save_db(db, path)
    assert path.stat().st_size <= 4096

    seq = entries[0][2][0][0]
    two_bit_bits = 2 * k
    ten_bit_bits = 10 * k
    assert two_bit_bits * 5 == ten_bit_bits  # exactly 80% fewer bits
    assert seq.packed.shape == (1, (two_bit_bits + 7) // 8)
    ten_bit_bytes_per_row = (ten_bit_bits + 7) // 8
    assert seq.packed.shape[1] == math.ceil(0.2 * ten_bit_bytes_per_row)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(f"six-position db file is {path.stat().st_size} bytes (<= 4096); "
                "packed rows at exactly 20% of ten-bit storage", elapsed, 1.0)


@pytest.mark.parametrize("cfg,expected,flip_lo,flip_hi,label", [
    (CLEAN_E2E, CLEAN_EXPECTED, 0.0, 0.10, "clean"),
    (NOISY_E2E, NOISY_EXPECTED, 0.20, 0.30, "noisy"),
])
def test_end_to_end_matching(cfg, expected, flip_lo, flip_hi, label):
    start = time.perf_counter()
    dataset = generate(cfg)
    positions, test_traces = split_fixture(dataset, TRAIN_PACKETS, TEST_PACKETS)

    flip = float(np.mean([training_flip_rate(seqs) for _, _, seqs in positions]))
    assert flip_lo <= flip <= flip_hi

    db = build_db(positions, 0.05)
    labeled = LabeledWindows.from_traces(test_traces, 120)
    assert len(labeled) == 6 * (TEST_PACKETS // 120)
    report = evaluate_windows(db, labeled, MetricKind.HAMMING)
    assert report.accuracy == expected["accuracy"]
    assert report.mae_m == expected["mae"]
    assert report.accuracy >= 0.95

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass(f"end-to-end {label} fixture: flip rate {flip:.3f}, "
                f"accuracy {report.accuracy}, mae {report.mae_m} m", elapsed, 60.0)


def test_temporal_multi_set_trend():
    start = time.perf_counter()
    dbs, tests = [], []
    for dataset in drift_sessions(TEMPORAL_CFG, 7):
        positions, test_traces = split_fixture(dataset, TEMPORAL_TRAIN, TEMPORAL_TEST)
        dbs.append(build_db(positions, 0.05))
        tests.append(LabeledWindows.from_traces(test_traces, 120))
    curve = temporal_eval(dbs[:-1], tests[1:], MetricKind.HAMMING)
    assert curve == TEMPORAL_EXPECTED
    by_m = dict(curve)
    assert by_m[3] >= by_m[1]
    assert by_m[3] >= 0.90

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass(f"temporal trend: one set {by_m[1]:.4f} -> three sets {by_m[3]:.4f}",
                elapsed, 60.0)


def test_error_indicator_hand_cases():
    start = time.perf_counter()

    # through evaluate_windows: each window replays the database entry it predicts
    assert replay_mae([(1.0, 1.0)], [(0.0, 0.0)]) == 1.0
    assert replay_mae([(2.0, 5.0), (-1.0, 0.0)], [(2.0, 5.0), (-1.0, 0.0)]) == 0.0
    assert replay_mae([(0.0, 3.0), (1.0, 3.0)], [(0.0, 3.0), (-1.0, 3.0)]) == 0.5
    assert replay_mae([(0.5, -0.25)], [(0.0, 0.0)]) == 0.375

    labeled = ["a", "b", "c", "d"]
    assert replay_accuracy(labeled, ["a", "b", "c", "x"]) == 0.75
    assert replay_accuracy(labeled, ["a", "b", "c", "d"]) == 1.0
    assert replay_accuracy(labeled, ["z", "z", "z", "z"]) == 0.0

    elapsed = time.perf_counter() - start
    report_pass("error indicators match hand-computed cases exactly", elapsed)


def test_matcher_agrees_with_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    ties_seen = 0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        entry_count = int(rng.integers(1, 9))
        entries = []
        for i in range(entry_count):
            sets = []
            for _ in range(int(rng.integers(1, 4))):
                a = rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
                b = rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
                sets.append((a, b))
            entries.append((f"e{i}", (float(i), float(-i)), sets))
        db = fingerprint_db(k, entries)
        ps = rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))

        # independent exhaustive scan over hand-unpacked bit lists
        target = unpack_independently(ps)
        per_entry = []
        for _, _, sets in entries:
            best = None
            for pair in sets:
                for anc in pair:
                    d = sum(1 for x, y in zip(unpack_independently(anc), target)
                            if x != y)
                    if best is None or d < best:
                        best = d
            per_entry.append(best)
        expected_idx = per_entry.index(min(per_entry))
        others = [d for i, d in enumerate(per_entry) if i != expected_idx]
        expected_margin = (min(others) - per_entry[expected_idx]) if others else math.inf
        if others and min(others) == per_entry[expected_idx]:
            ties_seen += 1

        result = match_trace(ps, db, MetricKind.HAMMING)[0]
        assert result.predicted_label == entries[expected_idx][0]
        assert result.best_distance == per_entry[expected_idx]
        assert result.runner_up_margin == expected_margin

    assert ties_seen > 10  # the tie-break path was genuinely exercised

    elapsed = time.perf_counter() - start
    report_pass(f"matcher agrees with brute force on 1000 instances "
                f"({ties_seen} ties)", elapsed)


def test_db_round_trip_and_corruption_classes():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    for _ in range(100):
        k = int(rng.integers(1, 40))
        entries = []
        for i in range(int(rng.integers(0, 5))):
            sets = []
            for _ in range(int(rng.integers(1, 4))):
                a = rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
                b = rows_of(rng.integers(0, 2, 2 * k, dtype=np.uint8))
                sets.append((a, b))
            coord = (float(rng.normal() * 10), float(rng.normal() * 10))
            entries.append((f"pos-{i}", coord, sets))
        db = fingerprint_db(k, entries, int(rng.integers(0, 2**32)))
        assert db_from_bytes(db_to_bytes(db)) == db

    reference = fingerprint_db(2, [("a", (0.0, 0.0),
                                    [(rows_of([0, 1, 0, 1]), rows_of([0, 0, 0, 0]))])], 50000)
    good = db_to_bytes(reference)

    corrupted_magic = b"XXXX" + good[4:]
    with pytest.raises(DbMagicError):
        db_from_bytes(corrupted_magic)

    bad_version = good[:4] + bytes([99]) + good[5:]
    with pytest.raises(DbVersionError):
        db_from_bytes(bad_version)

    for cut in (2, 10, len(good) - 1):
        with pytest.raises(DbTruncatedError):
            db_from_bytes(good[:cut])

    with pytest.raises(DbLengthError):
        db_from_bytes(good + b"\x00")

    zero_sets = (struct.pack("<4sBHII", b"BFPD", 1, 2, 0, 1)
                 + struct.pack("<H", 1) + b"a" + struct.pack("<ddH", 0.0, 0.0, 0))
    with pytest.raises(DbLengthError):
        db_from_bytes(zero_sets)

    elapsed = time.perf_counter() - start
    report_pass("100 db round-trips bit-identical; every corruption class "
                "raises its own error", elapsed)
