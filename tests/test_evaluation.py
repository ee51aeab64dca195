"""Evaluation tests: indicators, sweeps, temporal study, and the raw-amplitude
baseline, which is conftest's exact reference."""

import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix, encode_matrix
from bicsi.errors import (
    DataDomainError,
    EmptyInputError,
    LengthMismatchError,
    SessionMismatchError,
    UnknownLabelError,
)
from bicsi.evaluation import (
    LabeledWindows,
    evaluate_windows,
    format_comparison_table,
    format_report_table,
    metric_comparison,
    sweep_to_csv,
    temporal_eval,
    temporal_to_csv,
    threshold_sweep,
)
from bicsi.fingerprint import (
    build_db,
    fraction_to_micro,
    threshold_count,
    windows,
)
from bicsi.ingest import AmplitudeMatrix, LabeledTrace
from bicsi.ioutil import json_text
from bicsi.matcher import match_trace
from bicsi.similarity import MetricKind
from bicsi.synth import SynthConfig, generate

from conftest import (
    fingerprint_db,
    gs,
    python_window_sums,
    random_sequences,
    reference_ancestors,
    reference_hamming,
    reference_raw_picks,
    reference_report,
    replay_accuracy,
    replay_mae,
    rows_of,
)


class TestMae:
    def test_unit_offset(self):
        assert replay_mae([(1.0, 1.0)], [(0.0, 0.0)]) == 1.0

    def test_exact_predictions(self):
        assert replay_mae([(2.0, 3.0), (0.0, 0.0)], [(2.0, 3.0), (0.0, 0.0)]) == 0.0

    def test_hand_summed(self):
        assert replay_mae([(0.0, 3.0), (1.0, 3.0)], [(0.0, 3.0), (-1.0, 3.0)]) == 0.5

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=25)
    def test_translation_invariant(self, dx, dy):
        predicted = [(1.0, 2.0), (-3.0, 0.5)]
        truths = [(0.0, 0.0), (1.5, 1.0)]
        shifted_predicted = [(x + dx, y + dy) for x, y in predicted]
        shifted_truths = [(x + dx, y + dy) for x, y in truths]
        expected = replay_mae(predicted, truths)
        assert replay_mae(shifted_predicted, shifted_truths) == pytest.approx(expected)


class TestAccuracy:
    def test_three_of_four(self):
        assert replay_accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_all_correct(self):
        assert replay_accuracy(["a"] * 3, ["a"] * 3) == 1.0

    def test_none_correct(self):
        assert replay_accuracy(["a"] * 2, ["b", "c"]) == 0.0


def separated_training(rng, count, k, flip=False):
    """Unanimous single-pattern training set, optionally inverted."""
    pattern = rng.integers(0, 2, size=2 * k, dtype=np.uint8)
    if flip:
        pattern = 1 - pattern
    return rows_of(np.tile(pattern, (count, 1)))


def positions_of(training_sets) -> list:
    """Training rows (label, (x, y), GeneMatrix) of the given sets, as
    build_db and threshold_sweep take them."""
    return [(f"p{i}", (float(i), 0.0), gm) for i, gm in enumerate(training_sets)]


class TestThresholdSweep:
    def test_fully_distinct_dominant_bits(self):
        k = 4
        ones = rows_of(np.ones((50, 2 * k)))
        zeros = rows_of(np.zeros((50, 2 * k)))
        rows = threshold_sweep(positions_of([ones, zeros]), [0.0])
        assert rows == [(0.0, 8.0)]

    def test_identical_training_data_zero_everywhere(self):
        rng = np.random.default_rng(3)
        training = random_sequences(rng, 40, 3)
        rows = threshold_sweep(positions_of([training, training[:], GeneMatrix.concat(training)]),
                               [0.0, 0.25, 0.5, 1.0])
        assert all(mean == 0.0 for _, mean in rows)

    def test_huge_threshold_collapses_to_zero(self):
        rng = np.random.default_rng(4)
        sets_ = [random_sequences(rng, 30, 4) for _ in range(3)]
        rows = threshold_sweep(positions_of(sets_), [1.5])  # tr > training size everywhere
        assert rows == [(1.5, 0.0)]

    def test_needs_two_positions(self):
        with pytest.raises(EmptyInputError):
            threshold_sweep(positions_of([gs("01")]), [0.0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6),
           st.lists(st.integers(0, 1_200_000), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_pair_loop(self, seed, positions, k, micros):
        rng = np.random.default_rng(seed)
        sets_ = [biased_matrix(rng, int(rng.integers(1, 40)), k) for _ in range(positions)]
        fractions = [m / 1_000_000 for m in micros]
        assert threshold_sweep(positions_of(sets_), fractions) == pair_loop_sweep(sets_, fractions)

    def test_counts_columns_not_pairs(self, monkeypatch):
        # the mean comes from column one-counts; no pair goes through the count kernel
        def no_pairs(*rows):
            raise AssertionError("threshold_sweep compared rows pairwise")

        monkeypatch.setattr(np, "bitwise_count", no_pairs)
        rng = np.random.default_rng(6)
        sets_ = [biased_matrix(rng, int(rng.integers(1, 40)), 5) for _ in range(6)]
        fractions = [0.0, 0.05, 0.3, 1.2]
        assert threshold_sweep(positions_of(sets_), fractions) == pair_loop_sweep(sets_, fractions)

    def test_bad_width_names_the_position(self):
        rng = np.random.default_rng(5)
        positions = [("a", (0, 0), random_sequences(rng, 5, 4)),
                     ("b", (1, 0), random_sequences(rng, 5, 6))]
        with pytest.raises(LengthMismatchError, match="^position 'b': 12 bits, expected 8$"):
            threshold_sweep(positions, [0.0])

    def test_csv_layout(self):
        text = sweep_to_csv([(0.0, 8.0), (0.05, 3.5)])
        assert text.splitlines()[0] == "tr_fraction,mean_hamming"
        assert text.splitlines()[1] == "0,8"


def biased_matrix(rng, rows: int, k: int) -> GeneMatrix:
    """Random gene rows whose columns lean to 0 or 1 by a per-column odds,
    so unanimous, decided and balanced columns all occur."""
    bits = rng.random((rows, 2 * k)) < rng.random(2 * k)
    return GeneMatrix(np.packbits(bits, axis=1), k)


def pair_loop_sweep(training_sets, fractions) -> list:
    """Threshold sweep by brute force: ancestors per position, then the two
    sides' Hamming distances pair by pair, averaged over position pairs."""
    rows = []
    for fraction in fractions:
        micro = fraction_to_micro(fraction)
        pairs = [reference_ancestors(s, threshold_count(micro, len(s))) for s in training_sets]
        totals = [reference_hamming(a[0], b[0]) + reference_hamming(a[1], b[1])
                  for a, b in combinations(pairs, 2)]
        rows.append((float(fraction), sum(totals) / 2 / len(totals)))
    return rows


def noiseless_trace(rng, label, coord, packets, k):
    profile = rng.integers(50, 1000, size=k)
    data = np.tile(profile, (packets, 1)).astype(np.int64)
    matrix = AmplitudeMatrix(data=data, subcarrier_mask=tuple(range(k)))
    return LabeledTrace(matrix=matrix, true_label=label, true_coord=coord)


def make_fixture(seed=0, positions=3, packets=360, k=12):
    rng = np.random.default_rng(seed)
    return [
        noiseless_trace(rng, f"p{i}", (float(i), 0.0), packets, k)
        for i in range(positions)
    ]


class TestEvaluateWindows:
    def test_exact_replay_is_perfect(self):
        traces = make_fixture()
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        report = evaluate_windows(db, labeled)
        assert report.accuracy == 1.0
        assert report.mae_m == 0.0
        assert report.n == 9
        assert [p.n for p in report.per_position] == [3, 3, 3]
        for i, row in enumerate(report.confusion):
            assert row[i] == 3 and sum(row) == 3

    def test_unknown_test_label_rejected(self):
        traces = make_fixture()
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces[:2]])
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        with pytest.raises(UnknownLabelError):
            evaluate_windows(db, labeled)

    def test_empty_windows_rejected(self):
        traces = make_fixture()
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        with pytest.raises(EmptyInputError):
            evaluate_windows(db, LabeledWindows((), (), ()))

    def test_report_json_schema(self):
        traces = make_fixture()
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        report = evaluate_windows(db, LabeledWindows.from_traces(traces, 120))
        payload = json.loads(json_text(report.to_json_dict()))
        assert set(payload) == {"metric", "n", "mae_m", "accuracy",
                                "per_position", "confusion"}
        assert set(payload["per_position"][0]) == {"label", "n", "correct", "mae_m"}
        assert len(payload["confusion"]) == 3
        # row sums equal the per-position window counts
        for row, pos in zip(payload["confusion"], payload["per_position"]):
            assert sum(row) == pos["n"]

    def test_tables_render(self):
        traces = make_fixture()
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        report = evaluate_windows(db, LabeledWindows.from_traces(traces, 120))
        assert "accuracy" in format_report_table(report)
        assert "metric" in format_comparison_table([report])


def random_coords(rng, count) -> list:
    """Coordinates over seven magnitudes, so the order of a float sum shows."""
    scale = 10.0 ** rng.integers(-3, 4, size=(count, 1))
    return [tuple(row) for row in (rng.normal(size=(count, 2)) * scale).tolist()]


class TestReportFold:
    """Every report equals the per-window reference fold, field by field."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 40), st.sampled_from(list(MetricKind)))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_windows_equals_reference(self, seed, positions, k, count, kind):
        rng = np.random.default_rng(seed)
        labels = [f"p{i}" for i in range(positions)]
        db = build_db([(label, coord, biased_matrix(rng, int(rng.integers(1, 30)), k))
                       for label, coord in zip(labels, random_coords(rng, positions))])
        truth = rng.integers(0, positions, size=count)
        test = LabeledWindows(biased_matrix(rng, count, k), tuple(labels[i] for i in truth),
                              tuple(random_coords(rng, count)))
        report = evaluate_windows(db, test, kind)
        results = match_trace(test.parents, db, kind)
        assert report == reference_report(
            kind, labels, [r.predicted_label for r in results],
            [r.predicted_coord for r in results], test.labels, test.coords)

    def test_mae_sums_in_window_order(self):
        # 1.0 + 2**-53 rounds back to 1.0 at every step; a pairwise or
        # compensated sum keeps some of the 200 small errors
        pattern = gs("0110")
        db = build_db([("p", (0.0, 0.0), GeneMatrix.concat([pattern] * 3))])
        coords = ((1.0, 0.0),) + ((2.0 ** -53, 0.0),) * 200
        test = LabeledWindows((pattern,) * 201, ("p",) * 201, coords)
        report = evaluate_windows(db, test)
        assert report.mae_m == report.per_position[0].mae_m == 1.0 / 402


class TestLabeledWindows:
    def test_parents_are_one_matrix(self):
        traces = make_fixture(positions=2, packets=300)
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        assert isinstance(labeled.parents, GeneMatrix) and len(labeled) == 6
        assert labeled.labels == ("p0",) * 3 + ("p1",) * 3
        assert labeled.coords == ((0.0, 0.0),) * 3 + ((1.0, 0.0),) * 3
        assert labeled.parents.packed.tobytes() == b"".join(
            windows(encode_matrix(t.matrix), 120).packed.tobytes() for t in traces)

    def test_sequence_rows_are_packed(self):
        rows = tuple(random_sequences(np.random.default_rng(4), 3, 5))
        labeled = LabeledWindows(rows, ("a", "b", "c"), ((0, 0), (1, 0), (2, 0)))
        assert isinstance(labeled.parents, GeneMatrix)
        assert list(labeled.parents) == list(rows)

    def test_one_row_windows_equal_the_matrix_built_in_one_piece(self):
        # the benchmark probe's contract: the first window of each in-memory
        # block, a one-row GeneMatrix, joined by the constructor
        rng = np.random.default_rng(8)
        blocks = rng.integers(0, 1100, size=(4, 120, 6))
        mask = tuple(range(6))
        rows = tuple(windows(encode_matrix(AmplitudeMatrix(b, mask)))[0] for b in blocks)
        labels, coords = ("a", "b", "a", "c"), ((0, 0), (1, 0), (0, 0), (2, 1))
        whole = windows(encode_matrix(AmplitudeMatrix(blocks.reshape(-1, 6), mask)))
        assert LabeledWindows(rows, labels, coords) == LabeledWindows(whole, labels, coords)
        assert whole[-1] == rows[-1]
        with pytest.raises(IndexError):
            whole[len(whole)]

    def test_concat_joins_rows(self):
        traces = make_fixture(positions=3)
        parts = [LabeledWindows.from_traces([t], 120) for t in traces]
        whole = LabeledWindows.from_traces(traces, 120)
        joined = LabeledWindows.concat(parts)
        assert joined.parents.packed.tobytes() == whole.parents.packed.tobytes()
        assert (joined.labels, joined.coords) == (whole.labels, whole.coords)

    @pytest.mark.parametrize("coord, message", [
        ((float("nan"), 0.0), "^window 1: coordinates must be finite$"),
        ((0, 0, 9), "^window 1: coordinates must be an \\(x, y\\) pair$"),
    ])
    def test_truth_coordinates_are_checked(self, coord, message):
        with pytest.raises(ValueError, match=message):
            LabeledWindows([gs("01"), gs("10")], ("a", "a"), ((0.0, 0.0), coord))

    def test_parents_labels_and_coords_must_align(self):
        with pytest.raises(LengthMismatchError, match="^parents, labels and coords must align$"):
            LabeledWindows(gs("01", "10"), ("a", "a"), ((0.0, 0.0),))

    @pytest.mark.parametrize("parents", [(), (gs("01")[:0], gs("10")[:0]), gs("01")[:0]],
                             ids=["no pieces", "zero-row pieces", "zero-row matrix"])
    def test_zero_windows_rejected_in_every_form(self, parents):
        with pytest.raises(EmptyInputError, match="^no test windows$"):
            LabeledWindows(parents, (), ())

    def test_no_traces_and_no_window_sets_give_no_windows(self):
        for make in (LabeledWindows.from_traces, LabeledWindows.concat):
            with pytest.raises(EmptyInputError, match="^no test windows$"):
                make([])

    @pytest.mark.parametrize("packets", [0, 59])
    def test_trace_too_short_for_a_window_is_named(self, packets):
        traces = make_fixture(positions=3, packets=120)
        traces[1] = noiseless_trace(np.random.default_rng(1), "p1", (1.0, 0.0), packets, 12)
        message = (f"^trace 'p1': {packets} packets, too few for one 120-packet window "
                   "\\(a window needs at least half its size\\)$")
        with pytest.raises(EmptyInputError, match=message):
            LabeledWindows.from_traces(traces, 120)

    def test_too_short_trace_with_a_path_is_named_by_it(self):
        # a test manifest may list several traces of one position
        traces = make_fixture(positions=2, packets=120)
        short = noiseless_trace(np.random.default_rng(1), "p1", (1.0, 0.0), 44, 12)
        traces.append(replace(short, path="test/p1-b.csv"))
        message = "^test/p1-b.csv: trace 'p1': 44 packets, too few for one 120-packet window"
        with pytest.raises(EmptyInputError, match=message):
            LabeledWindows.from_traces(traces, 120)

    def test_traces_of_two_widths_rejected(self):
        traces = [make_fixture(seed=1, positions=1, k=12)[0],
                  make_fixture(seed=2, positions=1, k=8)[0]]
        with pytest.raises(LengthMismatchError, match="different bit lengths: \\[16, 24\\]"):
            LabeledWindows.from_traces(traces, 120)
        with pytest.raises(LengthMismatchError):
            LabeledWindows.concat(LabeledWindows.from_traces([t], 120) for t in traces)


class TestMetricComparison:
    def test_distance_metrics_identical_predictions(self):
        traces = make_fixture(seed=9)
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        kinds = [MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN]
        reports = metric_comparison(db, labeled, kinds)
        assert len({r.confusion for r in reports}) == 1

    def test_all_six_metrics_on_exact_replay(self):
        traces = make_fixture(seed=10)
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        reports = metric_comparison(db, labeled, list(MetricKind))
        assert [r.accuracy for r in reports] == [1.0] * 6

    def test_single_kind(self):
        traces = make_fixture(seed=11)
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        assert len(metric_comparison(db, labeled, [MetricKind.JACCARD])) == 1

    def test_no_kinds(self):
        traces = make_fixture(seed=12)
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix))
                       for t in traces])
        labeled = LabeledWindows.from_traces(traces, window_size=120)
        with pytest.raises(EmptyInputError):
            metric_comparison(db, labeled, [])


def make_sessions(count, seed=0, drift=False):
    """Identical (or mildly perturbed) sessions over two positions, each a
    (training positions, test windows) pair; a training position is
    (label, coord, GeneMatrix) as build_db takes it."""
    rng = np.random.default_rng(seed)
    base = {label: rng.integers(50, 900, size=8) for label in ("a", "b")}
    sessions = []
    for s in range(count):
        training = []
        traces = []
        for i, label in enumerate(("a", "b")):
            profile = base[label] + (rng.integers(-40, 41, size=8) if drift and s else 0)
            profile = np.clip(profile, 0, 1023)
            data = np.tile(profile, (240, 1)).astype(np.int64)
            matrix = AmplitudeMatrix(data=data, subcarrier_mask=tuple(range(8)))
            trace = LabeledTrace(matrix=matrix, true_label=label,
                                 true_coord=(float(i), 0.0))
            training.append((label, (float(i), 0.0), encode_matrix(matrix)))
            traces.append(trace)
        sessions.append((training, LabeledWindows.from_traces(traces, 120)))
    return sessions


def temporal_of(sessions, fraction=0.05, kind=MetricKind.HAMMING) -> list:
    """temporal_eval with one build_db per training session (all but the
    last) and the test windows of every session after the first."""
    return temporal_eval([build_db(training, fraction) for training, _ in sessions[:-1]],
                         [test for _, test in sessions[1:]], kind)


def hand_built_temporal(sessions, fraction, kind) -> list:
    """Temporal curve with each database built by hand: every position's
    sets are reference_ancestors of its training in each of the first m
    sessions, in session order."""
    micro = fraction_to_micro(fraction)
    first = sessions[0][0]
    k = first[0][2].subcarrier_count
    curve = []
    for m in range(1, len(sessions)):
        db = fingerprint_db(k, [
            (label, coord,
             [reference_ancestors(training[j][2], threshold_count(micro, len(training[j][2])))
              for training, _ in sessions[:m]])
            for j, (label, coord, _) in enumerate(first)], micro)
        test = LabeledWindows.concat(test for _, test in sessions[m:])
        curve.append((m, evaluate_windows(db, test, kind).accuracy))
    return curve


class TestTemporalEval:
    def test_identical_sessions_flat_curve(self):
        curve = temporal_of(make_sessions(4))
        assert [m for m, _ in curve] == [1, 2, 3]
        assert len({acc for _, acc in curve}) == 1

    def test_boundary_uses_all_but_last(self):
        sessions = make_sessions(3)
        curve = temporal_of(sessions)
        assert curve[-1][0] == len(sessions) - 1

    def test_needs_two_sessions(self):
        with pytest.raises(EmptyInputError, match="needs at least two sessions"):
            temporal_of(make_sessions(1))

    def test_databases_and_tests_must_align(self):
        sessions = make_sessions(3)
        dbs = [build_db(training) for training, _ in sessions]
        with pytest.raises(LengthMismatchError,
                           match="^3 training databases vs 2 test sessions$"):
            temporal_eval(dbs, [test for _, test in sessions[1:]])

    def test_mismatched_positions_rejected(self):
        sessions = make_sessions(4)
        dbs = [build_db(training) for training, _ in sessions[:-1]]
        dbs[2] = build_db(sessions[2][0][:1])
        # a data error, not a usage error; sessions count from 1
        with pytest.raises(SessionMismatchError,
                           match="session 3 lists different positions than session 1"):
            temporal_eval(dbs, [test for _, test in sessions[1:]])

    def test_training_widths_must_agree(self):
        sessions = make_sessions(3)
        dbs = [build_db(training) for training, _ in sessions[:-1]]
        dbs[1] = build_db([(label, coord, GeneMatrix(seqs.packed[:, :1], 4))
                           for label, coord, seqs in sessions[1][0]])
        with pytest.raises(LengthMismatchError,
                           match="^session 2 trains on 4 subcarriers, session 1 on 8$"):
            temporal_eval(dbs, [test for _, test in sessions[1:]])

    def test_multi_set_database_rejected(self):
        sessions = make_sessions(3)
        dbs = [build_db(training) for training, _ in sessions[:-1]]
        dbs[1] = replace(dbs[1], set_counts=(2, 2),
                         ancestors=GeneMatrix.concat([dbs[1].ancestors] * 2))
        with pytest.raises(ValueError, match="^session 2: the database holds more than one "
                                             "ancestor set per position"):
            temporal_eval(dbs, [test for _, test in sessions[1:]])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4),
           st.integers(1, 5), st.sampled_from(list(MetricKind)), st.integers(0, 1_200_000))
    @settings(max_examples=40, deadline=None)
    def test_equals_appended_database_reference(self, seed, count, positions, k, kind, micro):
        rng = np.random.default_rng(seed)
        labels = [f"p{i}" for i in range(positions)]
        sessions = []
        for _ in range(count):
            training = [(label, (float(i), 0.0), biased_matrix(rng, int(rng.integers(1, 30)), k))
                        for i, label in enumerate(labels)]
            truth = rng.integers(0, positions, size=int(rng.integers(1, 6)))
            test = LabeledWindows(biased_matrix(rng, len(truth), k),
                                  tuple(labels[i] for i in truth),
                                  tuple((float(i), 0.0) for i in truth))
            sessions.append((training, test))
        fraction = micro / 1_000_000
        assert temporal_of(sessions, fraction, kind) == hand_built_temporal(sessions, fraction, kind)

    def test_csv_layout(self):
        text = temporal_to_csv([(1, 0.85), (2, 0.91)])
        assert text.splitlines()[0] == "sets_used,accuracy"
        assert text.splitlines()[1] == "1,0.85"


class TestRawBaseline:
    """The raw-amplitude cosine/Pearson baseline is the tests' exact
    reference: conftest's python_window_sums and reference_raw_picks. These
    pin it to hand-worked picks, then measure it against the binary matcher."""

    def test_hand_fixture_cosine(self):
        assert reference_raw_picks(MetricKind.COSINE, [[10, 0], [0, 10]], [[9, 1]]) == [0]

    def test_identical_means_tie_break(self):
        # exactly equal scores: the lowest index wins
        assert reference_raw_picks(MetricKind.PEARSON, [[1, 2], [1, 2]], [[1, 2]]) == [0]

    def test_exact_window_match(self):
        for kind in (MetricKind.COSINE, MetricKind.PEARSON):
            assert reference_raw_picks(kind, [[5, 1, 0], [0, 1, 5]], [[0, 1, 5]]) == [1]

    def test_from_traces_window_means(self):
        # 250 packets: two whole windows and a tail of 10, which is dropped;
        # 190 packets: a whole window and a tail of 70, which is kept. Each
        # window's sum is a multiple of one position's, which it picks.
        def trace(*runs):
            return np.vstack([np.full((n, 2), value) for n, value in runs])

        sums = (python_window_sums(trace((120, (3, 0)), (120, (0, 2)), (10, (1, 2))), 120)
                + python_window_sums(trace((120, (1, 1)), (70, (2, 8))), 120))
        assert sums == [[360, 0], [0, 240], [120, 120], [140, 560]]
        positions = [[1, 0], [0, 1], [1, 1], [1, 2], [1, 4]]
        assert reference_raw_picks(MetricKind.COSINE, positions, sums) == [0, 1, 2, 4]

    def test_baseline_db_from_traces(self):
        # each training trace is one position, summed over all its packets:
        # p0's sum (2, 2) picks it, though no single packet of p0 would
        training = [[[2, 0], [0, 2]], [[3, 1]], [[1, 3]]]
        positions = [python_window_sums(rows, len(rows))[0] for rows in training]
        assert positions == [[2, 2], [3, 1], [1, 3]]
        assert reference_raw_picks(MetricKind.COSINE, positions, [[5, 5]]) == [0]

    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_sums_must_be_int64_integers(self, dtype):
        # the reference sums integer amplitudes exactly: a trace holds no
        # amplitude of another dtype
        with pytest.raises(ValueError, match="^amplitude data must have an integer dtype$"):
            LabeledTrace(AmplitudeMatrix(np.ones((2, 2), dtype=dtype), (0, 1)), "p1", (0.0, 0.0))

    def test_negative_sums_rejected(self):
        # the reference's rows are non-negative: a trace holds no negative amplitude
        with pytest.raises(DataDomainError, match="^amplitudes must be non-negative$"):
            LabeledTrace(AmplitudeMatrix(np.array([[3, -1]]), (0, 1)), "p1", (0.0, 0.0))

    def test_golden_noisy_regime_raw_reads_1_where_hamming_does_not(self):
        """The golden noisy regime, trained on packets 0-199 of each
        position and tested on packets 200-599. Raw cosine and raw Pearson read accuracy
        1.0 at windows of 1, 10 and 120; the binary matcher's Hamming reads
        less at each, on the same windows."""
        dataset = generate(SynthConfig(positions=6, subcarriers=16, packets_per_position=600,
                                       noise_sigma=60, profile_separation=4, burst_rate=0.3,
                                       seed=3))
        data = [t.matrix.data for t in dataset.traces]
        positions = [python_window_sums(rows[:200], 200)[0] for rows in data]
        db = build_db([(t.true_label, t.true_coord, encode_matrix(t.matrix)[:200])
                       for t in dataset.traces])
        tests = [replace(t, matrix=AmplitudeMatrix(t.matrix.data[200:], t.matrix.subcarrier_mask))
                 for t in dataset.traces]
        for size in (1, 10, 120):
            truth, sums = [], []
            for i, rows in enumerate(data):
                sums += python_window_sums(rows[200:], size)
                truth += [i] * (len(sums) - len(truth))
            for kind in (MetricKind.COSINE, MetricKind.PEARSON):
                assert reference_raw_picks(kind, positions, sums) == truth, (size, kind)
            binary = evaluate_windows(db, LabeledWindows.from_traces(tests, size))
            assert binary.n == len(truth) and binary.accuracy < 1.0, size
