"""Nearest-fingerprint matching of parent sequences.

Every ancestor of every set of every position competes; the position owning
the globally closest ancestor wins. A trace is matched in one batch: one
count-kernel call gives the (windows x ancestors) distances in a fixed scan
order (entries in stored order, first ancestors before second, sets in
stored order), and ties keep the earliest candidate, so results are
reproducible across platforms.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BicsiError, ConfigError, EmptyInputError, LengthMismatchError
from .fingerprint import FingerprintDb, ParentSequence
from .similarity import MetricKind, distances


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one window against the database.

    ``runner_up_margin`` is the gap between the best non-predicted entry's
    distance and the best distance (infinite for a single-entry database);
    it is a diagnostic, not part of the matching rule.
    """

    window_index: int
    predicted_label: str
    predicted_coord: tuple
    best_distance: float
    runner_up_margin: float


def match_one(ps: ParentSequence, db: FingerprintDb,
              kind: MetricKind = MetricKind.HAMMING) -> MatchResult:
    """Predict the position whose ancestors come closest to ``ps``."""
    return match_trace([ps], db, kind)[0]


def _check(ps: ParentSequence, db: FingerprintDb, kind: MetricKind) -> None:
    if not db.entries:
        raise EmptyInputError("fingerprint database has no entries")
    if ps.sequence.bit_length != 2 * db.subcarrier_count:
        raise LengthMismatchError(f"parent sequence has {ps.sequence.bit_length} bits, "
                                  f"database stores {2 * db.subcarrier_count}")
    if not isinstance(kind, MetricKind):
        raise ConfigError(f"unsupported metric kind: {kind!r}")


def match_trace(parents, db: FingerprintDb,
                kind: MetricKind = MetricKind.HAMMING) -> list[MatchResult]:
    """Match every window of a sequence against the database, order preserved.

    Every window is validated first; a failing window aborts the whole trace
    with its index in the message.
    """
    parents = list(parents)
    for ps in parents:
        try:
            _check(ps, db, kind)
        except BicsiError as exc:
            raise type(exc)(f"window {ps.window_index}: {exc}") from exc
    if not parents:
        return []
    width = len(parents[0].sequence.packed)
    stacked = b"".join([(p.as2 if second else p.as1).packed
                        for e in db.entries for second in (False, True) for p in e.ancestor_sets])
    rows = b"".join(ps.sequence.packed for ps in parents)
    dist = distances(kind, np.frombuffer(rows, np.uint8).reshape(-1, 1, width),
                     np.frombuffer(stacked, np.uint8).reshape(-1, width), 2 * db.subcarrier_count)
    starts = list(accumulate((2 * len(e.ancestor_sets) for e in db.entries[:-1]), initial=0))
    entry_best = np.minimum.reduceat(dist, starts, axis=1)
    best = entry_best.argmin(axis=1)  # the first index on a tie: the earliest entry wins
    # the runner-up is the second-smallest entry distance (equal to the best on a tie)
    ranked = np.sort(entry_best, axis=1)
    margins = (ranked[:, 1] if len(db.entries) > 1 else np.inf) - ranked[:, 0]
    return [
        MatchResult(ps.window_index, db.entries[i].label, db.entries[i].coord, d, m)
        for ps, i, d, m in zip(parents, best.tolist(), ranked[:, 0].tolist(), margins.tolist())
    ]
