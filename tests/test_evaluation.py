"""Evaluation tests: indicators, sweeps, temporal study, raw baselines."""

import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix, encode_matrix
from bicsi.errors import (
    ConfigError,
    DataDomainError,
    EmptyInputError,
    LengthMismatchError,
    SessionMismatchError,
    UnknownLabelError,
)
from bicsi.evaluation import (
    LabeledTrace,
    LabeledWindows,
    evaluate_windows,
    format_comparison_table,
    format_report_table,
    metric_comparison,
    raw_baseline,
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
from bicsi.ingest import AmplitudeMatrix
from bicsi.ioutil import json_text
from bicsi.matcher import match_trace
from bicsi.similarity import MetricKind

from conftest import (
    fingerprint_db,
    gs,
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


def raw_sums(rng, rows, k) -> np.ndarray:
    """Integer sums of few distinct values, so that ties, zero rows and
    constant rows occur, each row scaled by 0, a small factor or one large
    enough that the exact kernel takes its Python-int path."""
    values = rng.integers(0, 3, size=(rows, k))
    constant = rng.random(rows) < 0.25
    values[constant] = values[constant, :1]
    return values * rng.choice([0, 1, 2, 3, 2**20, 2**61], size=(rows, 1))


def raw_trace(label, coord, rows, path=None) -> LabeledTrace:
    data = np.asarray(rows, dtype=np.int64)
    return LabeledTrace(AmplitudeMatrix(data, tuple(range(data.shape[1]))), label, coord, path)


def trace_rows(rng, packets, k) -> np.ndarray:
    """(packets, k) amplitudes of a random, a constant-row or a zero trace,
    of few values, scaled so that the exact kernel's Python-int path and
    window sums near the int64 bound occur."""
    style = rng.integers(0, 3)
    values = rng.integers(0, 3, size=(packets, k)) * (style > 0)
    if style == 1:
        values[:] = values[:, :1]
    return values * int(rng.choice([1, 3, 2**20, 2**56]))


def python_window_sums(rows, size) -> list:
    """Column sums in Python ints of each ``size``-row chunk, a last chunk
    kept when it holds at least half a window."""
    rows = [[int(v) for v in row] for row in rows]
    chunks = [rows[lo:lo + size] for lo in range(0, len(rows), size)]
    return [[sum(column) for column in zip(*chunk)] for chunk in chunks
            if 2 * len(chunk) >= size]


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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 40), st.sampled_from([MetricKind.COSINE, MetricKind.PEARSON]))
    @settings(max_examples=100, deadline=None)
    def test_raw_baseline_equals_reference(self, seed, positions, k, count, kind):
        # one packet per position and per window, so the sums are the rows
        rng = np.random.default_rng(seed)
        labels = [f"p{i}" for i in range(positions)]
        coords = random_coords(rng, positions)
        position_sums, window_sums = raw_sums(rng, positions, k), raw_sums(rng, count, k)
        truth = rng.integers(0, positions, size=count)
        test_coords = random_coords(rng, count)
        training = [raw_trace(label, coord, [row])
                    for label, coord, row in zip(labels, coords, position_sums)]
        tests = [raw_trace(labels[i], coord, [row])
                 for i, coord, row in zip(truth, test_coords, window_sums)]
        best = reference_raw_picks(kind, position_sums, window_sums)
        assert raw_baseline(training, tests, kind, window_size=1) == reference_report(
            kind, labels, [labels[i] for i in best], [coords[i] for i in best],
            [labels[i] for i in truth], test_coords)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.integers(1, 9),
           st.lists(st.tuples(st.integers(0, 3), st.floats(0, 1, exclude_max=True)),
                    min_size=1, max_size=5),
           st.sampled_from([MetricKind.COSINE, MetricKind.PEARSON]))
    @settings(max_examples=100, deadline=None)
    # tails at, below and above half a window, then whole windows only
    @example(7, 2, 3, 4, [(0, 0.5), (1, 0.25), (1, 0.75), (2, 0.0)], MetricKind.COSINE)
    @example(7, 2, 3, 4, [(0, 0.5), (1, 0.25), (1, 0.75), (2, 0.0)], MetricKind.PEARSON)
    def test_window_sums_equal_python_sums(self, seed, positions, k, size, shapes, kind):
        """Per test trace: ``full`` whole windows and a tail of ``share`` of a
        window, so tails below, at and above half a window occur, and traces
        of whole windows exactly; each trace is random, constant or zero."""
        rng = np.random.default_rng(seed)
        labels = [f"p{i}" for i in range(positions)]
        coords = random_coords(rng, positions)
        training = [raw_trace(label, coord, trace_rows(rng, int(rng.integers(1, 20)), k))
                    for label, coord in zip(labels, coords)]
        tests, window_sums, truth = [], [], []
        for full, share in shapes:
            tail = int(share * size)
            full = max(full, int(2 * tail < size))  # at least one window
            i = int(rng.integers(0, positions))
            rows = trace_rows(rng, full * size + tail, k)
            tests.append(raw_trace(labels[i], coords[i], rows))
            window_sums += python_window_sums(rows, size)
            truth += [i] * (len(window_sums) - len(truth))
        position_sums = [python_window_sums(t.matrix.data, len(t.matrix.data))[0]
                         for t in training]
        best = reference_raw_picks(kind, position_sums, window_sums)
        assert raw_baseline(training, tests, kind, window_size=size) == reference_report(
            kind, labels, [labels[i] for i in best], [coords[i] for i in best],
            [labels[i] for i in truth], [coords[i] for i in truth])

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
        with pytest.raises(EmptyInputError, match=message):
            raw_baseline(make_fixture(positions=3, packets=120), traces, window_size=120)

    def test_too_short_trace_with_a_path_is_named_by_it(self):
        # a test manifest may list several traces of one position
        traces = make_fixture(positions=2, packets=120)
        short = noiseless_trace(np.random.default_rng(1), "p1", (1.0, 0.0), 44, 12)
        traces.append(replace(short, path="test/p1-b.csv"))
        message = "^test/p1-b.csv: trace 'p1': 44 packets, too few for one 120-packet window"
        with pytest.raises(EmptyInputError, match=message):
            LabeledWindows.from_traces(traces, 120)
        with pytest.raises(EmptyInputError, match=message):
            raw_baseline(traces[:2], traces, window_size=120)

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
    """Traces of one packet per window unless a test says otherwise."""

    def test_hand_fixture_cosine(self):
        training = [raw_trace("p1", (0, 0), [[10, 0]]), raw_trace("p2", (1, 0), [[0, 10]])]
        tests = [raw_trace("p1", (0.0, 0.0), [[9, 1]])]
        report = raw_baseline(training, tests, MetricKind.COSINE, window_size=1)
        assert report.accuracy == 1.0

    def test_identical_means_tie_break(self):
        training = [raw_trace("first", (0, 0), [[1, 2]]), raw_trace("second", (1, 0), [[1, 2]])]
        tests = [raw_trace("first", (0.0, 0.0), [[1, 2]])]
        report = raw_baseline(training, tests, MetricKind.PEARSON, window_size=1)
        assert report.accuracy == 1.0  # equal float scores: the lowest index wins

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4), st.integers(1, 20),
           st.sampled_from([MetricKind.COSINE, MetricKind.PEARSON]))
    @settings(max_examples=150, deadline=None)
    @example(0, 3, 3, 4, MetricKind.COSINE)  # positions 6, 5 and 7 times (2, 1, 1)
    @example(0, 2, 3, 1, MetricKind.PEARSON)
    def test_exact_ties_pick_the_lowest_entry(self, seed, positions, k, count, kind):
        """Positions are multiples of two few-value rows, so exactly equal
        scores that round to different floats are common. Each window is
        labeled with its pick in exact arithmetic, so every pick must hit."""
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 3, size=(2, k))
        position_sums = (base[rng.integers(0, 2, size=positions)]
                         * rng.integers(1, 8, size=(positions, 1)))
        window_sums = rng.integers(0, 3, size=(count, k))
        best = reference_raw_picks(kind, position_sums, window_sums)
        labels = [f"p{i}" for i in range(positions)]
        training = [raw_trace(label, (float(i), 0.0), [row])
                    for i, (label, row) in enumerate(zip(labels, position_sums))]
        tests = [raw_trace(labels[i], (float(i), 0.0), [row]) for i, row in zip(best, window_sums)]
        report = raw_baseline(training, tests, kind, window_size=1)
        assert report.accuracy == 1.0, report.confusion

    def test_exact_window_match(self):
        training = [raw_trace("p1", (0, 0), [[5, 1, 0]]), raw_trace("p2", (3, 0), [[0, 1, 5]])]
        tests = [raw_trace("p2", (3.0, 0.0), [[0, 1, 5]])]
        for kind in (MetricKind.COSINE, MetricKind.PEARSON):
            assert raw_baseline(training, tests, kind, window_size=1).accuracy == 1.0

    def test_rejects_distance_metrics(self):
        traces = [raw_trace("p1", (0, 0), [[1, 0]])]
        with pytest.raises(ConfigError, match="^raw baseline supports only cosine and pearson$"):
            raw_baseline(traces, traces, MetricKind.HAMMING, window_size=1)

    def test_bad_window_size_fails_before_any_trace_is_read(self):
        unknown = [raw_trace("p9", (0, 0), [[1, 1]])]
        with pytest.raises(ConfigError, match="^window size must be >= 1$"):
            raw_baseline([], unknown, window_size=0)

    def test_vector_length_mismatch(self):
        # training and test traces are held to one width, the first training trace's
        training = [raw_trace("p1", (0, 0), [[1, 0]])]
        tests = [raw_trace("p1", (0.0, 0.0), [[1, 0, 3]], path="test/p1.csv")]
        message = "^test/p1.csv: trace 'p1': 3 subcarriers, trace 'p1': 2$"
        with pytest.raises(LengthMismatchError, match=message):
            raw_baseline(training, tests, MetricKind.COSINE, window_size=1)

    def test_from_traces_window_means(self):
        # 250 packets: two whole windows and a tail of 10, which is dropped;
        # 190 packets: a whole window and a tail of 70, which is kept. Each
        # window's sum is a multiple of one position's, which it picks.
        def trace(*runs):
            return raw_trace("p0", (0.0, 0.0), np.vstack([np.full((n, 2), value)
                                                           for n, value in runs]))

        training = [raw_trace(f"p{i}", (float(i), 0.0), [row])
                    for i, row in enumerate([[1, 0], [0, 1], [1, 1], [1, 2], [1, 4]])]
        tests = [trace((120, (3, 0)), (120, (0, 2)), (10, (1, 2))),
                 trace((120, (1, 1)), (70, (2, 8)))]
        report = raw_baseline(training, tests, window_size=120)
        assert report.n == 4
        assert report.confusion[0] == (1, 1, 1, 0, 1)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64, object])
    def test_sums_must_be_int64_integers(self, dtype):
        # the kernel sums integer amplitudes in int64: a trace holds no other
        # dtype, and a uint64 amplitude past the int64 bound is named
        def trace(value):
            data = np.full((2, 2), value, dtype=dtype)
            return LabeledTrace(AmplitudeMatrix(data, (0, 1)), "p1", (0.0, 0.0))

        if dtype is not np.uint64:
            with pytest.raises(ValueError, match="^amplitude data must have an integer dtype$"):
                trace(1)
            return
        assert raw_baseline([trace(1)], [trace(3)], window_size=2).accuracy == 1.0
        with pytest.raises(DataDomainError, match="amplitude sums could pass the int64 bound$"):
            raw_baseline([trace(1)], [trace(2**63)], window_size=1)

    def test_negative_sums_rejected(self):
        # the kernel's rows are non-negative: a trace holds no negative amplitude
        with pytest.raises(DataDomainError, match="^amplitudes must be non-negative$"):
            raw_trace("p1", (0, 0), [[3, -1]])

    @pytest.mark.parametrize("coord", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_coordinate_rejected(self, coord):
        with pytest.raises(ValueError, match=r"^trace 'p1': coordinates must be finite$"):
            raw_trace("p1", coord, [[1, 1]])

    @pytest.mark.parametrize("coord", [(0, 0, 9), (1,), 5])
    def test_coordinate_not_a_pair_rejected(self, coord):
        with pytest.raises(ValueError, match=r"^trace 'p1': coordinates must be an"):
            raw_trace("p1", coord, [[1, 1]])

    def test_repeated_position_label_rejected(self):
        training = [raw_trace("p1", (0, 0), [[1, 1]]), raw_trace("p2", (1, 0), [[1, 0]]),
                    raw_trace("p1", (2, 0), [[0, 1]], path="train/p1-b.csv")]
        message = "^train/p1-b.csv: trace 'p1': repeats the label of trace 'p1'$"
        with pytest.raises(ValueError, match=message):
            raw_baseline(training, training, window_size=1)

    def test_no_windows_is_empty_input(self):
        training = [raw_trace("p1", (0, 0), [[1, 1]])]
        for kind in (MetricKind.COSINE, MetricKind.PEARSON):
            with pytest.raises(EmptyInputError, match="^no test windows$"):
                raw_baseline(training, [], kind)

    def test_no_positions_is_empty_input(self):
        tests = [raw_trace("p1", (0, 0), [[1, 1]])]
        with pytest.raises(EmptyInputError, match="^no training traces$"):
            raw_baseline([], tests, window_size=1)

    def test_unknown_test_label_is_named(self):
        training = [raw_trace("p1", (0, 0), [[1, 1]])]
        tests = [raw_trace("p1", (0, 0), [[1, 1]]),
                 raw_trace("p9", (9, 0), [[1, 1]], path="test/p9.csv")]
        with pytest.raises(UnknownLabelError,
                           match="^test/p9.csv: trace 'p9': no training trace has its label$"):
            raw_baseline(training, tests, window_size=1)

    def test_baseline_db_from_traces(self):
        # each training trace is one position, summed over all its packets:
        # p0's sum (1, 1) picks it, though no single packet of p0 would
        training = [raw_trace("p0", (0, 0), [[2, 0], [0, 2]]),
                    raw_trace("p1", (1, 0), [[3, 1]]), raw_trace("p2", (2, 0), [[1, 3]])]
        tests = [raw_trace("p0", (0, 0), [[5, 5]])]
        assert raw_baseline(training, tests, window_size=1).accuracy == 1.0

    def test_training_trace_without_packets_is_named(self):
        traces = make_fixture(seed=20, positions=2, packets=60, k=4)
        empty = noiseless_trace(np.random.default_rng(1), "p1", (1.0, 0.0), 0, 4)
        training = [traces[0], replace(empty, path="train/p1.csv")]
        with pytest.raises(EmptyInputError,
                           match="^train/p1.csv: trace 'p1': no training packets$"):
            raw_baseline(training, traces, window_size=60)

    def test_traces_of_two_widths_are_named(self):
        traces = [make_fixture(seed=1, positions=1, k=12)[0],
                  replace(make_fixture(seed=2, positions=2, k=8)[1], path="b.csv")]
        message = "^b.csv: trace 'p1': 8 subcarriers, trace 'p0': 12$"
        with pytest.raises(LengthMismatchError, match=message):
            raw_baseline(traces, traces[:1], window_size=120)
        with pytest.raises(LengthMismatchError, match=message):
            raw_baseline(traces[:1], traces, window_size=120)

    def test_sums_that_could_pass_the_int64_bound_are_named(self):
        trace = raw_trace("p1", (0.0, 0.0), np.full((2, 3), 2**62))
        small = raw_trace("p1", (0.0, 0.0), np.ones((2, 3)))
        message = "^trace 'p1': amplitude sums could pass the int64 bound$"
        with pytest.raises(DataDomainError, match=message):
            raw_baseline([trace], [small], window_size=2)
        with pytest.raises(DataDomainError, match=message):
            raw_baseline([small], [trace], window_size=2)
        # one packet per window sums nothing
        assert raw_baseline([small], [trace], window_size=1).accuracy == 1.0
