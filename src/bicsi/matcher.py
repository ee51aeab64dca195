"""Nearest-fingerprint matching of parent sequences.

Every ancestor of every set of every position competes; the position owning
the globally closest ancestor wins. A trace's parents arrive as one packed
:class:`~bicsi.encoding.GeneMatrix`, a row per window, and are matched in
one batch: one count-kernel call gives the (windows x ancestors) distances
in a fixed scan order (entries in stored order, first ancestors before
second, sets in stored order), and ties keep the earliest candidate, so
results are reproducible across platforms.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import GeneMatrix, GeneSequence
from .errors import ConfigError, EmptyInputError, LengthMismatchError
from .fingerprint import FingerprintDb
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


def match_one(parent: GeneSequence, db: FingerprintDb,
              kind: MetricKind = MetricKind.HAMMING) -> MatchResult:
    """Predict the position whose ancestors come closest to ``parent``."""
    return match_trace([parent], db, kind)[0]


def match_trace(parents, db: FingerprintDb,
                kind: MetricKind = MetricKind.HAMMING) -> list[MatchResult]:
    """Match every parent row against the database, order preserved.

    ``parents`` is a GeneMatrix, as :func:`~bicsi.fingerprint.windows`
    returns, or gene sequences of one length, packed once. The database, the
    bit length and the metric kind are checked once per call; a result's
    ``window_index`` is its row.
    """
    if not isinstance(parents, GeneMatrix):
        parents = list(parents)
        if not parents:
            return []
        parents = GeneMatrix.from_sequences(parents)
    if not db.entries:
        raise EmptyInputError("fingerprint database has no entries")
    if parents.bit_length != 2 * db.subcarrier_count:
        raise LengthMismatchError(f"parent sequences have {parents.bit_length} bits, "
                                  f"database stores {2 * db.subcarrier_count}")
    if not isinstance(kind, MetricKind):
        raise ConfigError(f"unsupported metric kind: {kind!r}")
    stacked, starts = db.ancestor_stack
    dist = distances(kind, parents.packed[:, None], stacked, parents.bit_length)
    entry_best = np.minimum.reduceat(dist, starts, axis=1)
    best = entry_best.argmin(axis=1)  # the first index on a tie: the earliest entry wins
    # the runner-up is the second-smallest entry distance (equal to the best on a tie)
    ranked = np.sort(entry_best, axis=1)
    margins = (ranked[:, 1] if len(db.entries) > 1 else np.inf) - ranked[:, 0]
    return [
        MatchResult(row, db.entries[i].label, db.entries[i].coord, d, m)
        for row, (i, d, m) in enumerate(zip(best.tolist(), ranked[:, 0].tolist(),
                                            margins.tolist()))
    ]
