"""Nearest-fingerprint matching of parent windows.

Every ancestor of every set of every position competes; the position owning
the globally closest ancestor wins. A trace's parents arrive as one packed
:class:`~bicsi.encoding.GeneMatrix`, a row per window, and are matched in
one batch: the windows' one-counts and their (windows x ancestors) shared
ones, with the ancestor one-counts the database keeps, give every distance
against the ancestor rows, as stored, and one reduction takes each
position's minimum over its contiguous rows. Row order within a
position cannot change its minimum, and a tie between positions keeps the
earliest, so results are reproducible across platforms. Cosine and Pearson
ties are compared exactly, from integer counts, since equal scores can
round apart.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import GeneMatrix
from .errors import EmptyInputError, LengthMismatchError
from .fingerprint import FingerprintDb
from .similarity import MetricKind, check_kind, count_distances, popcount


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
    check_kind(kind)
    # the database counted its ancestors' ones; only the window side is counted here
    packed = parents.packed
    ones, shared = popcount(packed), popcount(packed[:, None] & db.ancestors.packed)
    dist = count_distances(kind, ones[:, None], db.ancestor_ones, shared, parents.bit_length)

    # each position's least distance over its contiguous rows; a float tie
    # keeps the first index, so the earliest position wins
    entry_best = np.minimum.reduceat(dist, db.starts, axis=1)
    best = entry_best.argmin(axis=1)
    if kind in (MetricKind.COSINE, MetricKind.PEARSON):
        # Exactly equal cosines or Pearsons can round a few units of 2**-53
        # apart, so the float minimum need not be the earliest tied position.
        # Where a window's rows within 2**-40 of its least distance belong to
        # more than one position, those rows are keyed exactly, highest best,
        # from the counts the distances came from, and the window takes the
        # earliest position owning a row of the highest key.
        near = dist <= dist.min(axis=1, keepdims=True) + 2.0**-40
        for w in np.flatnonzero(np.logical_or.reduceat(near, db.starts, axis=1).sum(axis=1) > 1):
            rows = np.flatnonzero(near[w])
            keys = [_exact_score(kind, parents.bit_length, int(ones[w]), nb, m) for nb, m in
                    zip(db.ancestor_ones[rows].tolist(), shared[w, rows].tolist())]
            best[w] = np.searchsorted(db.starts, rows[keys.index(max(keys))], side="right") - 1
    # the runner-up is the second-smallest entry distance (equal to the best on a tie)
    ranked = np.sort(entry_best, axis=1)
    margins = (ranked[:, 1] if len(db.labels) > 1 else np.inf) - ranked[:, 0]
    return [
        MatchResult(row, db.labels[i], db.coords[i], d, m)
        for row, (i, d, m) in enumerate(zip(best.tolist(), ranked[:, 0].tolist(),
                                            margins.tolist()))
    ]


def _exact_score(kind: MetricKind, n: int, na: int, nb: int, m: int):
    """s·|s| of the cosine or Pearson s of two n-bit rows with na and nb ones,
    m shared, as a fraction of Python ints: cosine m² / (na·nb), Pearson
    c·|c| / var with c = n·m − na·nb. It orders rows as s does, and the
    degenerate cases are those of :func:`~bicsi.similarity.count_distances`."""
    from fractions import Fraction  # here: every CLI start loads this module

    if kind is MetricKind.COSINE:
        return Fraction(m * m, na * nb) if na * nb else Fraction(int(na == nb))
    if na == nb == m:  # identical rows, constant ones too
        return Fraction(1)
    c, var = n * m - na * nb, na * (n - na) * nb * (n - nb)
    return Fraction(c * abs(c), var) if var else Fraction(0)
