"""Nearest-fingerprint matching of parent windows.

Every ancestor of every set of every position competes; the position owning
the globally closest ancestor wins. A trace's parents arrive as one packed
:class:`~bicsi.encoding.GeneMatrix`, a row per window, and are matched in
one batch: one count-kernel call gives the (windows x ancestors) distances
against the database's ancestor rows, as stored, and one reduction takes
each position's minimum over its contiguous rows. Row order within a
position cannot change its minimum, and a tie between positions keeps the
earliest, so results are reproducible across platforms.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import GeneMatrix
from .errors import EmptyInputError, LengthMismatchError
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


def match_trace(parents: GeneMatrix, db: FingerprintDb,
                kind: MetricKind = MetricKind.HAMMING) -> list[MatchResult]:
    """Match every parent row against the database, order preserved.

    ``parents`` is a GeneMatrix, as :func:`~bicsi.fingerprint.windows`
    returns; one window is a one-row GeneMatrix. The database, the bit
    length and the metric kind are checked once per call; a result's
    ``window_index`` is its row.
    """
    if not db.labels:
        raise EmptyInputError("fingerprint database has no entries")
    if parents.bit_length != 2 * db.subcarrier_count:
        raise LengthMismatchError(f"parent sequences have {parents.bit_length} bits, "
                                  f"database stores {2 * db.subcarrier_count}")
    dist = distances(kind, parents.packed[:, None], db.ancestors.packed, parents.bit_length)
    entry_best = np.minimum.reduceat(dist, db.starts, axis=1)
    best = entry_best.argmin(axis=1)  # the first index on a tie: the earliest entry wins
    # the runner-up is the second-smallest entry distance (equal to the best on a tie)
    ranked = np.sort(entry_best, axis=1)
    margins = (ranked[:, 1] if len(db.labels) > 1 else np.inf) - ranked[:, 0]
    return [
        MatchResult(row, db.labels[i], db.coords[i], d, m)
        for row, (i, d, m) in enumerate(zip(best.tolist(), ranked[:, 0].tolist(),
                                            margins.tolist()))
    ]
