"""Accuracy and error reporting plus the study harnesses.

Covers the two headline indicators (mean absolute coordinate error and
label accuracy), threshold sweeps over the ancestor-derivation cutoff,
side-by-side metric comparisons, multi-session temporal evaluation, and the
raw-amplitude cosine/Pearson baselines that bypass binary encoding.
"""

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .encoding import GeneMatrix, encode_matrix
from .errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
    SessionMismatchError,
    UnknownLabelError,
)
from .fingerprint import (
    DEFAULT_THRESHOLD_FRACTION,
    DEFAULT_WINDOW_SIZE,
    FingerprintDb,
    PositionEntry,
    ancestors_from_counts,
    append_ancestor_set,
    as_gene_matrix,
    derive_ancestors,
    fraction_to_micro,
    threshold_count,
    window_slices,
    windows,
)
from .ingest import AmplitudeMatrix
from .matcher import match_trace
from .similarity import MetricKind, distances


@dataclass(frozen=True)
class LabeledTrace:
    """An amplitude matrix tagged with its ground-truth position."""

    matrix: AmplitudeMatrix
    true_label: str
    true_coord: tuple

    def __post_init__(self):
        coord = (float(self.true_coord[0]), float(self.true_coord[1]))
        if not all(math.isfinite(c) for c in coord):
            raise ValueError(f"trace {self.true_label!r}: coordinates must be finite")
        object.__setattr__(self, "true_coord", coord)


@dataclass(frozen=True)
class LabeledWindows:
    """Parent sequences pooled from labeled traces, one GeneMatrix row per
    window (gene sequences of one length are packed), with per-window truth."""

    parents: GeneMatrix
    labels: tuple
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "parents", GeneMatrix.from_sequences(self.parents))
        if not (len(self.parents) == len(self.labels) == len(self.coords)):
            raise LengthMismatchError("parents, labels and coords must align")

    def __len__(self) -> int:
        return len(self.parents)

    @classmethod
    def from_traces(cls, traces, window_size: int = DEFAULT_WINDOW_SIZE) -> "LabeledWindows":
        sets = []
        for trace in traces:
            parents = windows(encode_matrix(trace.matrix), window_size)
            sets.append(cls(parents, (trace.true_label,) * len(parents),
                            (trace.true_coord,) * len(parents)))
        return cls.concat(sets)

    @classmethod
    def concat(cls, window_sets) -> "LabeledWindows":
        """One row join of window sets whose parents have one bit length."""
        window_sets = list(window_sets)
        if not window_sets:
            raise EmptyInputError("no test windows")
        widths = sorted({ws.parents.bit_length for ws in window_sets})
        if len(widths) > 1:
            raise LengthMismatchError(f"test windows have different bit lengths: {widths}")
        return cls(GeneMatrix(np.concatenate([ws.parents.packed for ws in window_sets]),
                              window_sets[0].parents.subcarrier_count),
                   tuple(chain.from_iterable(ws.labels for ws in window_sets)),
                   tuple(chain.from_iterable(ws.coords for ws in window_sets)))


def mae(results, truths) -> float:
    """Mean absolute coordinate error in meters.

    Per point the absolute x and y gaps are summed; the grand total is
    divided by 2n, covering the horizontal and vertical components.
    """
    results = list(results)
    truths = list(truths)
    if len(results) != len(truths):
        raise LengthMismatchError(f"{len(results)} predictions vs {len(truths)} truths")
    if not results:
        raise EmptyInputError("mae needs at least one prediction")
    total = 0.0
    for res, (tx, ty) in zip(results, truths):
        px, py = res.predicted_coord
        total += abs(px - tx) + abs(py - ty)
    return total / (2 * len(results))


def accuracy(results, truths) -> float:
    """Fraction of predictions whose label matches the truth."""
    results = list(results)
    truths = list(truths)
    if len(results) != len(truths):
        raise LengthMismatchError(f"{len(results)} predictions vs {len(truths)} truths")
    if not results:
        raise EmptyInputError("accuracy needs at least one prediction")
    correct = sum(1 for res, truth in zip(results, truths) if res.predicted_label == truth)
    return correct / len(results)


@dataclass(frozen=True)
class PositionBreakdown:
    label: str
    n: int
    correct: int
    mae_m: float


@dataclass(frozen=True)
class EvalReport:
    """Aggregate and per-position results for one metric.

    ``confusion`` rows are true positions, columns predicted positions, both
    in the order of ``per_position`` (the database's entry order).
    """

    metric: MetricKind
    n: int
    mae_m: float
    accuracy: float
    per_position: tuple
    confusion: tuple

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric.value,
            "n": self.n,
            "mae_m": self.mae_m,
            "accuracy": self.accuracy,
            "per_position": [
                {"label": p.label, "n": p.n, "correct": p.correct, "mae_m": p.mae_m}
                for p in self.per_position
            ],
            "confusion": [list(row) for row in self.confusion],
        }


def _assemble_report(metric: MetricKind, db_labels, predicted_labels, predicted_coords,
                     true_labels, true_coords) -> EvalReport:
    n = len(true_labels)
    index = {label: i for i, label in enumerate(db_labels)}
    unknown = sorted(set(true_labels) - set(db_labels))
    if unknown:
        raise UnknownLabelError(f"test labels not present in the database: {unknown}")

    confusion = [[0] * len(db_labels) for _ in db_labels]
    pos_n = [0] * len(db_labels)
    pos_correct = [0] * len(db_labels)
    pos_err = [0.0] * len(db_labels)
    total_err = 0.0
    total_correct = 0
    for plabel, pcoord, tlabel, tcoord in zip(
        predicted_labels, predicted_coords, true_labels, true_coords
    ):
        ti = index[tlabel]
        confusion[ti][index[plabel]] += 1
        err = abs(pcoord[0] - tcoord[0]) + abs(pcoord[1] - tcoord[1])
        pos_n[ti] += 1
        pos_err[ti] += err
        total_err += err
        if plabel == tlabel:
            pos_correct[ti] += 1
            total_correct += 1
    breakdown = tuple(
        PositionBreakdown(
            label=label,
            n=pos_n[i],
            correct=pos_correct[i],
            mae_m=pos_err[i] / (2 * pos_n[i]) if pos_n[i] else 0.0,
        )
        for i, label in enumerate(db_labels)
    )
    return EvalReport(
        metric=metric,
        n=n,
        mae_m=total_err / (2 * n),
        accuracy=total_correct / n,
        per_position=breakdown,
        confusion=tuple(tuple(row) for row in confusion),
    )


def evaluate_windows(db: FingerprintDb, labeled: LabeledWindows,
                     kind: MetricKind = MetricKind.HAMMING) -> EvalReport:
    """Match every labeled window and fold the outcomes into a report."""
    if not labeled.parents:
        raise EmptyInputError("no test windows to evaluate")
    results = match_trace(labeled.parents, db, kind)
    return _assemble_report(
        metric=kind,
        db_labels=[e.label for e in db.entries],
        predicted_labels=[r.predicted_label for r in results],
        predicted_coords=[r.predicted_coord for r in results],
        true_labels=list(labeled.labels),
        true_coords=list(labeled.coords),
    )


def metric_comparison(db: FingerprintDb, labeled: LabeledWindows, kinds) -> list[EvalReport]:
    """One report per metric over identical windows, in the given order."""
    kinds = list(kinds)
    if not kinds:
        raise EmptyInputError("no metrics requested")
    return [evaluate_windows(db, labeled, kind) for kind in kinds]


def threshold_sweep(training_sets, fractions) -> list[tuple[float, float]]:
    """Mean pairwise fingerprint Hamming distance per threshold fraction.

    For each fraction, ancestors are derived per position (threshold =
    ceil(fraction * that position's training size)); the distances between
    first ancestors and between second ancestors are averaged over all
    unordered position pairs.
    """
    training_sets = list(training_sets)
    if len(training_sets) < 2:
        raise EmptyInputError("threshold sweep needs at least two positions")
    # column one-counts do not depend on the threshold: count once per position
    counts = []
    for i, s in enumerate(training_sets):
        gm = as_gene_matrix(s, f"training set {i} is empty")
        counts.append((len(gm), gm.bits().sum(axis=0, dtype=np.int64)))
    rows = []
    for fraction in fractions:
        micro = fraction_to_micro(fraction)
        pairs = [ancestors_from_counts(ones, n, threshold_count(micro, n)) for n, ones in counts]
        # one kernel call per ancestor side; each (P, P) matrix is symmetric with a
        # zero diagonal, so its sum counts every pair twice (whole numbers: exact)
        twice = 0.0
        for side in ("as1", "as2"):
            gm = GeneMatrix.from_sequences(getattr(p, side) for p in pairs)
            twice += distances(MetricKind.HAMMING, gm.packed[:, None], gm.packed,
                               gm.bit_length).sum()
        rows.append((float(fraction), float(twice / 4 / (len(pairs) * (len(pairs) - 1) // 2))))
    return rows


@dataclass(frozen=True)
class TrainingSet:
    """One position's training sequences within a session, packed once into
    a :class:`~bicsi.encoding.GeneMatrix`."""

    label: str
    coord: tuple
    sequences: GeneMatrix

    def __post_init__(self):
        object.__setattr__(self, "sequences", as_gene_matrix(
            self.sequences, f"position {self.label!r}: no training sequences"))


@dataclass(frozen=True)
class Session:
    """Training data plus labeled test windows for one collection session."""

    training: tuple
    test: LabeledWindows

    def __post_init__(self):
        object.__setattr__(self, "training", tuple(self.training))
        if not self.training:
            raise EmptyInputError("session has no training positions")


def temporal_eval(sessions, threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
                  kind: MetricKind = MetricKind.HAMMING) -> list[tuple[int, float]]:
    """Accuracy as a function of how many leading sessions train the database.

    For each m in 1..S-1 the database carries the first m sessions' ancestor
    sets (one pair per position per session) and is evaluated on every later
    session's test windows. The curve is returned as (m, accuracy) rows even
    when it is not monotone.
    """
    sessions = list(sessions)
    if len(sessions) < 2:
        raise EmptyInputError("temporal evaluation needs at least two sessions")
    reference = [(t.label, t.coord) for t in sessions[0].training]
    for s, session in enumerate(sessions[1:], 2):
        if [(t.label, t.coord) for t in session.training] != reference:
            raise SessionMismatchError(f"session {s} lists different positions than session 1")

    micro = fraction_to_micro(threshold_fraction)
    session_pairs = [
        [derive_ancestors(t.sequences, threshold_count(micro, len(t.sequences)))
         for t in session.training]
        for session in sessions
    ]

    db = FingerprintDb(
        subcarrier_count=session_pairs[0][0].as1.subcarrier_count,
        threshold_micro=micro,
        entries=tuple(PositionEntry(label=label, coord=coord, ancestor_sets=(pair,))
                      for (label, coord), pair in zip(reference, session_pairs[0])),
    )
    curve = []
    for m in range(1, len(sessions)):
        if m > 1:
            for (label, _), pair in zip(reference, session_pairs[m - 1]):
                db = append_ancestor_set(db, label, pair)
        test = LabeledWindows.concat(session.test for session in sessions[m:])
        report = evaluate_windows(db, test, kind)
        curve.append((m, report.accuracy))
    return curve


def _freeze_means(obj, rows: str) -> None:
    """Normalize a frozen raw-vector record in place: ``means`` becomes a
    read-only (``rows``, subcarriers) float array aligned with ``labels``
    and ``coords``."""
    means = np.asarray(obj.means, dtype=float)
    if means.ndim != 2 or means.shape[0] != len(obj.labels):
        raise ValueError(f"means must be a ({rows}, subcarriers) array")
    if len(obj.coords) != len(obj.labels):
        raise LengthMismatchError("labels and coords must align")
    means.setflags(write=False)
    object.__setattr__(obj, "means", means)
    object.__setattr__(obj, "labels", tuple(obj.labels))
    object.__setattr__(obj, "coords", tuple(tuple(map(float, c)) for c in obj.coords))


@dataclass(frozen=True)
class RawBaselineDb:
    """Per-position mean raw amplitude vectors (no binary encoding)."""

    labels: tuple
    coords: tuple
    means: np.ndarray

    def __post_init__(self):
        _freeze_means(self, "positions")

    @classmethod
    def from_traces(cls, traces) -> "RawBaselineDb":
        traces = list(traces)
        if not traces:
            raise EmptyInputError("no training traces")
        return cls(
            labels=tuple(t.true_label for t in traces),
            coords=tuple(t.true_coord for t in traces),
            means=np.vstack([t.matrix.data.mean(axis=0) for t in traces]),
        )


@dataclass(frozen=True)
class RawWindowSet:
    """Mean raw amplitude vector per packet window, with per-window truth."""

    means: np.ndarray
    labels: tuple
    coords: tuple

    def __post_init__(self):
        _freeze_means(self, "windows")

    @classmethod
    def from_traces(cls, traces, window_size: int = DEFAULT_WINDOW_SIZE) -> "RawWindowSet":
        means, labels, coords = [], [], []
        for trace in traces:
            data = trace.matrix.data
            for lo, hi in window_slices(data.shape[0], window_size):
                means.append(data[lo:hi].mean(axis=0))
                labels.append(trace.true_label)
                coords.append(trace.true_coord)
        if not means:
            raise EmptyInputError("no test windows")
        return cls(means=np.vstack(means), labels=tuple(labels), coords=tuple(coords))


def _cosine_real(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 and nv == 0.0:
        return 1.0
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def _pearson_real(u: np.ndarray, v: np.ndarray) -> float:
    if np.array_equal(u, v):
        return 1.0
    du = u - u.mean()
    dv = v - v.mean()
    var_u = float(np.dot(du, du))
    var_v = float(np.dot(dv, dv))
    if var_u == 0.0 or var_v == 0.0:
        return 0.0
    return float(np.dot(du, dv)) / math.sqrt(var_u * var_v)


def raw_baseline(db: RawBaselineDb, window_set: RawWindowSet,
                 kind: MetricKind = MetricKind.COSINE) -> EvalReport:
    """Match raw-amplitude window means against per-position mean vectors.

    Only the correlation metrics make sense on raw vectors; each window
    predicts the position with the highest similarity, ties keeping the
    lowest entry index like the binary matcher.
    """
    if kind not in (MetricKind.COSINE, MetricKind.PEARSON):
        raise ConfigError("raw baseline supports only cosine and pearson")
    if db.means.shape[1] != window_set.means.shape[1]:
        raise LengthMismatchError(
            f"vector lengths differ: db {db.means.shape[1]}, windows {window_set.means.shape[1]}"
        )
    sim = _cosine_real if kind is MetricKind.COSINE else _pearson_real
    predicted_labels = []
    predicted_coords = []
    for row in window_set.means:
        best_idx = 0
        best_sim = -math.inf
        for i in range(db.means.shape[0]):
            s = sim(db.means[i], row)
            if s > best_sim:
                best_sim = s
                best_idx = i
        predicted_labels.append(db.labels[best_idx])
        predicted_coords.append(db.coords[best_idx])
    return _assemble_report(
        metric=kind,
        db_labels=list(db.labels),
        predicted_labels=predicted_labels,
        predicted_coords=predicted_coords,
        true_labels=list(window_set.labels),
        true_coords=list(window_set.coords),
    )


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


def sweep_to_csv(rows) -> str:
    lines = ["tr_fraction,mean_hamming"]
    lines += [f"{fraction:g},{mean:g}" for fraction, mean in rows]
    return "\n".join(lines) + "\n"


def temporal_to_csv(curve) -> str:
    lines = ["sets_used,accuracy"]
    lines += [f"{m},{acc:g}" for m, acc in curve]
    return "\n".join(lines) + "\n"


def format_report_table(report: EvalReport) -> str:
    """Aligned plain-text summary with the per-position breakdown."""
    head = (
        f"metric: {report.metric.value}   windows: {report.n}   "
        f"accuracy: {report.accuracy:.4f}   mae: {report.mae_m:.4f} m"
    )
    width = max([len("position")] + [len(p.label) for p in report.per_position])
    lines = [head, f"{'position':<{width}}  {'n':>6}  {'correct':>7}  {'mae_m':>8}"]
    for p in report.per_position:
        lines.append(f"{p.label:<{width}}  {p.n:>6}  {p.correct:>7}  {p.mae_m:>8.4f}")
    return "\n".join(lines)


def format_comparison_table(reports) -> str:
    lines = [f"{'metric':<10}  {'n':>6}  {'accuracy':>8}  {'mae_m':>8}"]
    for r in reports:
        lines.append(f"{r.metric.value:<10}  {r.n:>6}  {r.accuracy:>8.4f}  {r.mae_m:>8.4f}")
    return "\n".join(lines)
