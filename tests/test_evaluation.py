"""Evaluation tests: indicators, sweeps, temporal study, raw baselines."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix, GeneSequence, encode_matrix
from bicsi.errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
    SessionMismatchError,
    UnknownLabelError,
)
from bicsi.evaluation import (
    LabeledTrace,
    LabeledWindows,
    RawBaselineDb,
    RawWindowSet,
    Session,
    TrainingSet,
    accuracy,
    evaluate_windows,
    format_comparison_table,
    format_report_table,
    mae,
    metric_comparison,
    raw_baseline,
    report_to_json,
    sweep_to_csv,
    temporal_eval,
    temporal_to_csv,
    threshold_sweep,
)
from bicsi.fingerprint import build_db, windows
from bicsi.ingest import AmplitudeMatrix
from bicsi.matcher import MatchResult
from bicsi.similarity import MetricKind

from conftest import gs, random_sequences


def result(coord, label="x", index=0):
    return MatchResult(window_index=index, predicted_label=label,
                       predicted_coord=coord, best_distance=0.0,
                       runner_up_margin=1.0)


class TestMae:
    def test_unit_offset(self):
        assert mae([result((1.0, 1.0))], [(0.0, 0.0)]) == 1.0

    def test_exact_predictions(self):
        results = [result((2.0, 3.0)), result((0.0, 0.0))]
        assert mae(results, [(2.0, 3.0), (0.0, 0.0)]) == 0.0

    def test_hand_summed(self):
        results = [result((0.0, 3.0)), result((1.0, 3.0))]
        truths = [(0.0, 3.0), (-1.0, 3.0)]
        assert mae(results, truths) == 0.5

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mae([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mae([result((0, 0))], [])

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=25)
    def test_translation_invariant(self, dx, dy):
        results = [result((1.0, 2.0)), result((-3.0, 0.5))]
        truths = [(0.0, 0.0), (1.5, 1.0)]
        shifted_results = [result((r.predicted_coord[0] + dx, r.predicted_coord[1] + dy))
                           for r in results]
        shifted_truths = [(x + dx, y + dy) for x, y in truths]
        assert mae(shifted_results, shifted_truths) == pytest.approx(mae(results, truths))


class TestAccuracy:
    def test_three_of_four(self):
        results = [result((0, 0), label) for label in ("a", "b", "c", "d")]
        assert accuracy(results, ["a", "b", "c", "x"]) == 0.75

    def test_all_correct(self):
        results = [result((0, 0), "a")] * 3
        assert accuracy(results, ["a"] * 3) == 1.0

    def test_none_correct(self):
        results = [result((0, 0), "a")] * 2
        assert accuracy(results, ["b", "c"]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            accuracy([], [])


def separated_training(rng, count, k, flip=False):
    """Unanimous single-pattern training set, optionally inverted."""
    pattern = rng.integers(0, 2, size=2 * k, dtype=np.uint8)
    if flip:
        pattern = 1 - pattern
    return [GeneSequence.from_bits(pattern) for _ in range(count)]


class TestThresholdSweep:
    def test_fully_distinct_dominant_bits(self):
        k = 4
        ones = [GeneSequence.from_bits([1] * (2 * k)) for _ in range(50)]
        zeros = [GeneSequence.from_bits([0] * (2 * k)) for _ in range(50)]
        rows = threshold_sweep([ones, zeros], [0.0])
        assert rows == [(0.0, 8.0)]

    def test_identical_training_data_zero_everywhere(self):
        rng = np.random.default_rng(3)
        training = random_sequences(rng, 40, 3)
        rows = threshold_sweep([training, list(training), list(training)],
                               [0.0, 0.25, 0.5, 1.0])
        assert all(mean == 0.0 for _, mean in rows)

    def test_huge_threshold_collapses_to_zero(self):
        rng = np.random.default_rng(4)
        sets_ = [random_sequences(rng, 30, 4) for _ in range(3)]
        rows = threshold_sweep(sets_, [1.5])  # tr > training size everywhere
        assert rows == [(1.5, 0.0)]

    def test_needs_two_positions(self):
        with pytest.raises(EmptyInputError):
            threshold_sweep([[gs("01")]], [0.0])

    def test_csv_layout(self):
        text = sweep_to_csv([(0.0, 8.0), (0.05, 3.5)])
        assert text.splitlines()[0] == "tr_fraction,mean_hamming"
        assert text.splitlines()[1] == "0,8"


def noiseless_trace(rng, label, coord, packets, k):
    profile = rng.integers(50, 1000, size=k)
    data = np.tile(profile, (packets, 1)).astype(np.int64)
    matrix = AmplitudeMatrix(data=data, subcarrier_mask=tuple(range(k)),
                             position_label=label)
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
        payload = json.loads(report_to_json(report))
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

    def test_concat_joins_rows(self):
        traces = make_fixture(positions=3)
        parts = [LabeledWindows.from_traces([t], 120) for t in traces]
        whole = LabeledWindows.from_traces(traces, 120)
        joined = LabeledWindows.concat(parts)
        assert joined.parents.packed.tobytes() == whole.parents.packed.tobytes()
        assert (joined.labels, joined.coords) == (whole.labels, whole.coords)

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
    """Identical (or mildly perturbed) sessions over two positions."""
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
            matrix = AmplitudeMatrix(data=data, subcarrier_mask=tuple(range(8)),
                                     position_label=label)
            trace = LabeledTrace(matrix=matrix, true_label=label,
                                 true_coord=(float(i), 0.0))
            training.append(TrainingSet(label=label, coord=(float(i), 0.0),
                                        sequences=tuple(encode_matrix(matrix))))
            traces.append(trace)
        sessions.append(Session(training=tuple(training),
                                test=LabeledWindows.from_traces(traces, 120)))
    return sessions


class TestTemporalEval:
    def test_identical_sessions_flat_curve(self):
        curve = temporal_eval(make_sessions(4))
        assert [m for m, _ in curve] == [1, 2, 3]
        assert len({acc for _, acc in curve}) == 1

    def test_boundary_uses_all_but_last(self):
        sessions = make_sessions(3)
        curve = temporal_eval(sessions)
        assert curve[-1][0] == len(sessions) - 1

    def test_needs_two_sessions(self):
        with pytest.raises(EmptyInputError):
            temporal_eval(make_sessions(1))

    def test_mismatched_positions_rejected(self):
        sessions = make_sessions(2)
        bad = Session(training=(sessions[1].training[0],), test=sessions[1].test)
        # a data error, not a usage error; sessions count from 1
        with pytest.raises(SessionMismatchError,
                           match="session 3 lists different positions than session 1"):
            temporal_eval([sessions[0], sessions[1], bad])

    def test_csv_layout(self):
        text = temporal_to_csv([(1, 0.85), (2, 0.91)])
        assert text.splitlines()[0] == "sets_used,accuracy"
        assert text.splitlines()[1] == "1,0.85"


class TestRawBaseline:
    def test_hand_fixture_cosine(self):
        db = RawBaselineDb(labels=("p1", "p2"), coords=((0, 0), (1, 0)),
                           means=np.array([[1.0, 0.0], [0.0, 1.0]]))
        windows = RawWindowSet(means=np.array([[0.9, 0.1]]), labels=("p1",),
                               coords=((0.0, 0.0),))
        report = raw_baseline(db, windows, MetricKind.COSINE)
        assert report.accuracy == 1.0

    def test_identical_means_tie_break(self):
        db = RawBaselineDb(labels=("first", "second"), coords=((0, 0), (1, 0)),
                           means=np.array([[1.0, 2.0], [1.0, 2.0]]))
        windows = RawWindowSet(means=np.array([[1.0, 2.0]]), labels=("first",),
                               coords=((0.0, 0.0),))
        report = raw_baseline(db, windows, MetricKind.PEARSON)
        assert report.accuracy == 1.0  # lowest index wins the tie

    def test_exact_window_match(self):
        db = RawBaselineDb(labels=("p1", "p2"), coords=((0, 0), (3, 0)),
                           means=np.array([[5.0, 1.0, 0.0], [0.0, 1.0, 5.0]]))
        windows = RawWindowSet(means=np.array([[0.0, 1.0, 5.0]]), labels=("p2",),
                               coords=((3.0, 0.0),))
        for kind in (MetricKind.COSINE, MetricKind.PEARSON):
            assert raw_baseline(db, windows, kind).accuracy == 1.0

    def test_rejects_distance_metrics(self):
        db = RawBaselineDb(labels=("p1",), coords=((0, 0),),
                           means=np.array([[1.0, 0.0]]))
        windows = RawWindowSet(means=np.array([[1.0, 0.0]]), labels=("p1",),
                               coords=((0.0, 0.0),))
        with pytest.raises(ConfigError):
            raw_baseline(db, windows, MetricKind.HAMMING)

    def test_vector_length_mismatch(self):
        db = RawBaselineDb(labels=("p1",), coords=((0, 0),),
                           means=np.array([[1.0, 0.0]]))
        windows = RawWindowSet(means=np.array([[1.0, 0.0, 3.0]]), labels=("p1",),
                               coords=((0.0, 0.0),))
        with pytest.raises(LengthMismatchError):
            raw_baseline(db, windows, MetricKind.COSINE)

    def test_from_traces_window_means(self):
        data = np.vstack([np.full((120, 2), 10), np.full((120, 2), 20)]).astype(np.int64)
        matrix = AmplitudeMatrix(data=data, subcarrier_mask=(0, 1))
        trace = LabeledTrace(matrix=matrix, true_label="p", true_coord=(0.0, 0.0))
        ws = RawWindowSet.from_traces([trace], window_size=120)
        assert ws.means.shape == (2, 2)
        assert ws.means[0].tolist() == [10.0, 10.0]
        assert ws.means[1].tolist() == [20.0, 20.0]

    def test_shape_errors_name_the_rows(self):
        with pytest.raises(ValueError, match=r"^means must be a \(positions, subcarriers\) array$"):
            RawBaselineDb(labels=("p1", "p2"), coords=((0, 0), (1, 0)), means=np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"^means must be a \(windows, subcarriers\) array$"):
            RawWindowSet(means=np.ones(2), labels=("p1",), coords=((0, 0),))
        for cls in (RawBaselineDb, RawWindowSet):
            with pytest.raises(LengthMismatchError, match="^labels and coords must align$"):
                cls(labels=("p1",), coords=(), means=np.ones((1, 2)))
        ws = RawWindowSet(means=[[1, 2]], labels=["p1"], coords=[(0, 1)])
        assert (ws.labels, ws.coords, ws.means.dtype) == (("p1",), ((0.0, 1.0),), np.float64)
        assert not ws.means.flags.writeable

    def test_baseline_db_from_traces(self):
        traces = make_fixture(seed=20, positions=2, packets=60, k=4)
        db = RawBaselineDb.from_traces(traces)
        assert db.means.shape == (2, 4)
        assert db.labels == ("p0", "p1")
