"""Accuracy and error reporting plus the study harnesses.

Covers the two headline indicators (mean absolute coordinate error and
label accuracy), threshold sweeps over the ancestor-derivation cutoff,
side-by-side metric comparisons and multi-session temporal evaluation.
"""

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .encoding import GeneMatrix, encode_matrix
from .errors import (
    EmptyInputError,
    LengthMismatchError,
    SessionMismatchError,
    UnknownLabelError,
)
from .fingerprint import (
    DEFAULT_WINDOW_SIZE,
    FingerprintDb,
    _column_counts,
    _too_short,
    ancestor_matrices,
    fraction_to_micro,
    threshold_count,
    training_counts,
    windows,
)
from .ingest import finite_coord
from .matcher import match_trace
from .similarity import MetricKind


@dataclass(frozen=True)
class LabeledWindows:
    """Parent sequences pooled from labeled traces, one GeneMatrix row per
    window, with per-window truth. ``parents`` may also be given as GeneMatrix
    pieces of one bit length, which are joined in order; at least one window."""

    parents: GeneMatrix
    labels: tuple
    coords: tuple

    def __post_init__(self):
        if not isinstance(self.parents, GeneMatrix):
            pieces = tuple(self.parents)
            try:
                object.__setattr__(self, "parents", GeneMatrix.concat(pieces) if pieces else ())
            except LengthMismatchError as exc:
                raise LengthMismatchError(f"test windows have {exc}") from None
        if not len(self.parents):  # no pieces, zero-row pieces or a zero-row GeneMatrix
            raise EmptyInputError("no test windows")
        object.__setattr__(self, "coords", tuple(finite_coord(c, f"window {i}")
                                                 for i, c in enumerate(self.coords)))
        if not (len(self.parents) == len(self.labels) == len(self.coords)):
            raise LengthMismatchError("parents, labels and coords must align")

    def __len__(self) -> int:
        return len(self.parents)

    @classmethod
    def from_traces(cls, traces, window_size: int = DEFAULT_WINDOW_SIZE) -> "LabeledWindows":
        parents, labels, coords = [], [], []
        for trace in traces:
            parents.append(windows(encode_matrix(trace.matrix), window_size))
            if not parents[-1]:
                raise _too_short(trace.name, trace.matrix.packet_count, window_size)
            labels += [trace.true_label] * len(parents[-1])
            coords += [trace.true_coord] * len(parents[-1])
        return cls(tuple(parents), tuple(labels), tuple(coords))

    @classmethod
    def concat(cls, window_sets) -> "LabeledWindows":
        """One row join of window sets whose parents have one bit length."""
        window_sets = list(window_sets)
        return cls(tuple(ws.parents for ws in window_sets),
                   tuple(chain.from_iterable(ws.labels for ws in window_sets)),
                   tuple(chain.from_iterable(ws.coords for ws in window_sets)))


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
        return {**vars(self), "metric": self.metric.value,
                "per_position": [dict(vars(p)) for p in self.per_position]}


def _assemble_report(metric: MetricKind, labels, coords, predicted,
                     true_labels, true_coords) -> EvalReport:
    """Fold predicted entry indices into a report. ``labels`` and ``coords``
    are the database's, in entry order; ``true_labels`` and ``true_coords``
    hold a label and a coordinate per prediction. The confusion matrix is
    the only count, and this fold the only place MAE, per-position MAE and
    accuracy are defined."""
    index = {label: i for i, label in enumerate(labels)}
    unknown = sorted(set(true_labels) - index.keys())
    if unknown:
        raise UnknownLabelError(f"test labels not present in the database: {unknown}")
    true_idx = np.array([index[label] for label in true_labels], dtype=np.intp)
    predicted = np.asarray(predicted, dtype=np.intp)
    # per-window |dx| + |dy| in meters; the MAE is their sum in window order
    # over 2n, covering the horizontal and vertical components. np.cumsum adds
    # strictly left to right; np.sum (pairwise) or a compensated sum would
    # change the last bit.
    gap = np.abs(np.asarray(coords, dtype=float)[predicted] - np.asarray(true_coords, float))
    err = gap[:, 0] + gap[:, 1]
    p = len(labels)
    confusion = np.bincount(true_idx * p + predicted, minlength=p * p).reshape(p, p)
    pos_n, correct = confusion.sum(axis=1).tolist(), confusion.diagonal().tolist()
    # bincount adds each position's errors in window order, like the total
    pos_err = np.bincount(true_idx, weights=err, minlength=p).tolist()
    return EvalReport(
        metric=metric,
        n=len(true_idx),
        mae_m=float(np.cumsum(err)[-1]) / (2 * len(err)),
        accuracy=sum(correct) / len(true_idx),
        per_position=tuple(
            PositionBreakdown(label, n, c, e / (2 * n) if n else 0.0)
            for label, n, c, e in zip(labels, pos_n, correct, pos_err)),
        confusion=tuple(map(tuple, confusion.tolist())),
    )


def evaluate_windows(db: FingerprintDb, labeled: LabeledWindows,
                     kind: MetricKind = MetricKind.HAMMING) -> EvalReport:
    """Match every labeled window and fold the outcomes into a report."""
    index = {label: i for i, label in enumerate(db.labels)}
    predicted = [index[r.predicted_label] for r in match_trace(labeled.parents, db, kind)]
    return _assemble_report(kind, db.labels, db.coords, predicted, labeled.labels,
                            labeled.coords)


def metric_comparison(db: FingerprintDb, labeled: LabeledWindows, kinds) -> list[EvalReport]:
    """One report per metric over identical windows, in the given order."""
    kinds = list(kinds)
    if not kinds:
        raise EmptyInputError("no metrics requested")
    return [evaluate_windows(db, labeled, kind) for kind in kinds]


def threshold_sweep(positions, fractions) -> list[tuple[float, float]]:
    """Mean pairwise fingerprint Hamming distance per threshold fraction.

    ``positions`` yields (label, (x, y), training GeneMatrix) as
    :func:`~bicsi.fingerprint.build_db` takes it. For each fraction,
    ancestors are derived per position (threshold = ceil(fraction * that
    position's training size)); the distances between first ancestors and
    between second ancestors are averaged over all unordered position pairs.
    """
    positions = list(positions)
    if len(positions) < 2:
        raise EmptyInputError("threshold sweep needs at least two positions")
    # column one-counts do not depend on the threshold: count once
    sizes, ones = training_counts(positions)
    pairs = len(sizes) * (len(sizes) - 1) // 2  # unordered position pairs
    rows = []
    for fraction in fractions:
        micro = fraction_to_micro(fraction)
        sides = ancestor_matrices(sizes, ones, [threshold_count(micro, n) for n in sizes])
        # a bit column with c ones among P rows differs in c * (P - c) row pairs
        c = _column_counts(np.stack([side.packed for side in sides]))  # a row per side
        twice = 2 * int((c * (len(sizes) - c)).sum())
        rows.append((float(fraction), twice / 4 / pairs))
    return rows


def check_session_positions(session: int, positions, first: FingerprintDb) -> None:
    """Raise :class:`SessionMismatchError` unless ``positions``, (label,
    (x, y)) pairs in order, are session 1's, whose database is ``first``."""
    if list(positions) != list(zip(first.labels, first.coords)):
        raise SessionMismatchError(f"session {session} lists different positions than session 1")


def temporal_eval(dbs, tests, kind: MetricKind = MetricKind.HAMMING) -> list[tuple[int, float]]:
    """Accuracy as a function of how many leading sessions train the database.

    ``dbs`` holds one database per training session, in session order, each
    with one ancestor set per position as :func:`~bicsi.fingerprint.build_db`
    writes it (the threshold is applied there). ``tests`` holds the labeled
    windows of each later session: ``tests[i]`` belongs to session i + 2.
    For each m in 1..len(dbs) the database joins the first m sets of every
    position, in session order, and is evaluated on ``tests[m-1:]``. The
    curve is returned as (m, accuracy) rows even when it is not monotone.
    """
    dbs, tests = list(dbs), list(tests)
    if not dbs:
        raise EmptyInputError("temporal evaluation needs at least two sessions")
    if len(dbs) != len(tests):
        raise LengthMismatchError(f"{len(dbs)} training databases vs {len(tests)} test sessions")
    first = dbs[0]
    for s, db in enumerate(dbs, 1):
        check_session_positions(s, zip(db.labels, db.coords), first)
        if db.subcarrier_count != first.subcarrier_count:
            raise LengthMismatchError(f"session {s} trains on {db.subcarrier_count} subcarriers, "
                                      f"session 1 on {first.subcarrier_count}")
        if any(count != 1 for count in db.set_counts):
            raise ValueError(f"session {s}: the database holds more than one ancestor set "
                             "per position; temporal evaluation needs one")
    # (positions, sessions, 2 ancestors, bytes): a position's sets in session order
    positions, width = len(first.labels), first.ancestors.packed.shape[1]
    sets = np.stack([db.ancestors.packed.reshape(positions, 2, width) for db in dbs], axis=1)
    curve = []
    for m in range(1, len(dbs) + 1):
        ancestors = GeneMatrix(sets[:, :m].reshape(-1, width), first.subcarrier_count)
        db = replace(first, set_counts=(m,) * positions, ancestors=ancestors)
        curve.append((m, evaluate_windows(db, LabeledWindows.concat(tests[m - 1:]), kind).accuracy))
    return curve


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
