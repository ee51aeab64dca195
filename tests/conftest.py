"""Shared test helpers: bit-literal rows, databases built from ancestor
pairs, hypothesis strategies, the per-amplitude encoder reference, per-pair
reference measures computed without the library's count kernel and their
exact ranking keys, the raw-amplitude cosine/Pearson baseline (window sums
and picks in exact arithmetic, the repo's only raw baseline), a
per-column ancestor reference, a per-window reference report fold and
reports of windows that replay chosen database entries."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from bicsi.encoding import GeneMatrix
from bicsi.errors import UnknownLabelError
from bicsi.evaluation import EvalReport, LabeledWindows, PositionBreakdown, evaluate_windows
from bicsi.fingerprint import FingerprintDb
from bicsi.similarity import MetricKind


def rows_of(bits) -> GeneMatrix:
    """GeneMatrix of a (rows, 2k) 0/1 array, packed MSB first; a 1-D vector
    gives one row."""
    bits = np.asarray(bits, dtype=np.uint8)
    bits = bits.reshape(-1, bits.shape[-1])
    assert bits.shape[1] and bits.shape[1] % 2 == 0 and bits.max(initial=0) <= 1
    return GeneMatrix(np.packbits(bits, axis=1), bits.shape[1] // 2)


def gs(*bit_strings: str) -> GeneMatrix:
    """GeneMatrix with one row per literal like "0101"."""
    return rows_of([[int(c) for c in s] for s in bit_strings])


def fingerprint_db(k: int, entries, threshold_micro: int = 0) -> FingerprintDb:
    """Database of ``entries``, each (label, coord, [(as1, as2), ...]) with
    one-row 2k-bit ancestors, packed in file order: per entry, per set, as1
    then as2."""
    entries = [(label, coord, list(sets)) for label, coord, sets in entries]
    rows = [anc for _, _, sets in entries for pair in sets for anc in pair]
    assert all(len(anc) == 1 and anc.bit_length == 2 * k for anc in rows)
    packed = np.frombuffer(b"".join(anc.packed.tobytes() for anc in rows), dtype=np.uint8)
    return FingerprintDb(threshold_micro, [label for label, _, _ in entries],
                         [coord for _, coord, _ in entries],
                         [len(sets) for _, _, sets in entries],
                         GeneMatrix(packed.reshape(len(rows), (2 * k + 7) // 8), k))


def unpack_independently(row: GeneMatrix) -> list:
    """Bit list of a one-row GeneMatrix, recovered from its raw packed bytes
    without numpy's unpacking."""
    assert len(row) == 1
    bits = [int(c) for byte in row.packed.tobytes() for c in format(byte, "08b")]
    return bits[: row.bit_length]


def reference_code(ap: int) -> list:
    """[H, L] of one amplitude: the majority bits of the high and low halves
    of its ten-bit code, all-zero at or past the 1024 cutoff."""
    ten = format(ap, "010b") if ap < 1024 else "0" * 10
    return [int(ten[:5].count("1") >= 3), int(ten[5:].count("1") >= 3)]


def reference_encoding(amplitudes) -> list:
    """The gene-sequence bits of one packet row, code after code."""
    return [b for ap in amplitudes for b in reference_code(int(ap))]


# The references take two one-row GeneMatrix (unpacked with
# unpack_independently) or two 0/1 lists. They keep the per-pair formulas the
# library used before its count kernel: Python ints, the same float expression
# order and the same degenerate cases, so the library must match them exactly.

def _bit_lists(a, b) -> tuple:
    x, y = [unpack_independently(v) if isinstance(v, GeneMatrix) else list(v)
            for v in (a, b)]
    assert len(x) == len(y)
    return x, y


def reference_hamming(a, b) -> int:
    x, y = _bit_lists(a, b)
    return sum(1 for p, q in zip(x, y) if p != q)


def reference_manhattan(a, b) -> int:
    x, y = _bit_lists(a, b)
    return sum(abs(p - q) for p, q in zip(x, y))


def reference_euclidean(a, b) -> float:
    x, y = _bit_lists(a, b)
    return math.sqrt(float(sum((p - q) * (p - q) for p, q in zip(x, y))))


def reference_cosine(a, b) -> float:
    """1 for two all-zero vectors, 0 when only one is all-zero."""
    x, y = _bit_lists(a, b)
    na, nb = sum(x), sum(y)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return sum(p * q for p, q in zip(x, y)) / math.sqrt(na * nb)


def reference_pearson(a, b) -> float:
    """1 for identical vectors (constant ones too), else 0 if either is constant."""
    x, y = _bit_lists(a, b)
    if x == y:
        return 1.0
    n, na, nb = len(x), sum(x), sum(y)
    var_a = na * (n - na)
    var_b = nb * (n - nb)
    if var_a == 0 or var_b == 0:
        return 0.0
    return (n * sum(p * q for p, q in zip(x, y)) - na * nb) / math.sqrt(var_a * var_b)


def reference_jaccard(a, b) -> float:
    """1 for two empty supports."""
    x, y = _bit_lists(a, b)
    union = sum(p | q for p, q in zip(x, y))
    if union == 0:
        return 1.0
    return sum(p & q for p, q in zip(x, y)) / union


def reference_distance(kind: MetricKind, a, b) -> float:
    """Lower-is-better distance: similarities map as 1 - s, Pearson as (1 - s) / 2."""
    if kind is MetricKind.HAMMING:
        return float(reference_hamming(a, b))
    if kind is MetricKind.MANHATTAN:
        return float(reference_manhattan(a, b))
    if kind is MetricKind.EUCLIDEAN:
        return reference_euclidean(a, b)
    if kind is MetricKind.COSINE:
        return 1.0 - reference_cosine(a, b)
    if kind is MetricKind.PEARSON:
        return (1.0 - reference_pearson(a, b)) / 2.0
    return 1.0 - reference_jaccard(a, b)


def reference_key(kind: MetricKind, a, b) -> Fraction:
    """A key that orders candidates as reference_distance does, lowest
    first, exactly, in Python ints: the differing-bit count for Hamming,
    Manhattan and Euclidean (a square root keeps the order), and -s·|s|
    for the similarity s of cosine, Pearson and Jaccard, with the
    degenerate cases of reference_cosine, reference_pearson and
    reference_jaccard. Equal measures give equal keys, whatever their
    floats round to."""
    x, y = _bit_lists(a, b)
    if kind in (MetricKind.HAMMING, MetricKind.MANHATTAN, MetricKind.EUCLIDEAN):
        return Fraction(reference_hamming(x, y))
    n, na, nb = len(x), sum(x), sum(y)
    both = sum(p * q for p, q in zip(x, y))
    if kind is MetricKind.COSINE:
        if na == 0 or nb == 0:
            return Fraction(-int(na == nb == 0))
        return -Fraction(both * both, na * nb)
    if kind is MetricKind.PEARSON:
        if x == y:
            return Fraction(-1)
        var = na * (n - na) * nb * (n - nb)
        if var == 0:
            return Fraction(0)
        c = n * both - na * nb
        return -Fraction(c * abs(c), var)
    union = sum(p | q for p, q in zip(x, y))
    return -Fraction(both, union) if union else Fraction(-1)


def python_window_sums(rows, size) -> list:
    """Column sums in Python ints of each ``size``-row chunk, a last chunk
    kept when it holds at least half a window."""
    rows = [[int(v) for v in row] for row in rows]
    chunks = [rows[lo:lo + size] for lo in range(0, len(rows), size)]
    return [[sum(column) for column in zip(*chunk)] for chunk in chunks
            if 2 * len(chunk) >= size]


def reference_raw_key(kind: MetricKind, x, y) -> Fraction:
    """s·|s| for the cosine s of two integer sum vectors, or for Pearson of
    the vectors centred as k·v - sum(v), exactly, in Python ints: s is 1
    when both (centred) vectors are zero and 0 when one is. It orders
    positions as s does, with no float step."""
    x, y = [int(p) for p in x], [int(q) for q in y]
    assert len(x) == len(y)
    if kind is MetricKind.PEARSON:
        x, y = ([len(v) * p - sum(v) for p in v] for v in (x, y))
    xx, yy = sum(p * p for p in x), sum(q * q for q in y)
    if xx == 0 or yy == 0:
        return Fraction(int(xx == yy == 0))
    dot = sum(p * q for p, q in zip(x, y))
    return Fraction(dot * abs(dot), xx * yy)


def reference_raw_picks(kind: MetricKind, position_sums, window_sums) -> list:
    """Per window, the index of the position of highest exact
    reference_raw_key, the lowest index on a tie."""
    picks = []
    for window in window_sums:
        keys = [reference_raw_key(kind, window, sums) for sums in position_sums]
        picks.append(keys.index(max(keys)))
    return picks


def unpack_rows(gm: GeneMatrix) -> np.ndarray:
    """(rows, bit_length) bit matrix, shifted out of the raw packed bytes
    without the library's unpacking."""
    bits = (gm.packed[:, :, None] >> np.arange(7, -1, -1, dtype=np.uint8)) & 1
    return bits.reshape(len(gm), -1)[:, : gm.bit_length]


def reference_ancestors(training: GeneMatrix, tr: int) -> tuple:
    """First and second ancestor of one training GeneMatrix at integer
    threshold ``tr``, two one-row GeneMatrix, column by column from
    unpack_rows counts in Python ints: a column with |n - 2 N1| >= tr takes
    its majority bit in both (ties give 1); any other keeps (1, 0)."""
    bits = unpack_rows(training)
    n = len(bits)
    first, second = [], []
    for ones in bits.sum(axis=0).tolist():
        if abs(n - 2 * ones) >= tr:
            first.append(int(2 * ones >= n))
            second.append(first[-1])
        else:
            first.append(1)
            second.append(0)
    return rows_of(first), rows_of(second)


def bit_vectors(length: int):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length)


def gene_sequences(min_k: int = 1, max_k: int = 32):
    """One-row GeneMatrix of 2k random bits."""
    return st.integers(min_k, max_k).flatmap(lambda k: bit_vectors(2 * k).map(rows_of))


def sequence_pairs(min_k: int = 1, max_k: int = 32):
    """Two one-row GeneMatrix of one shared length."""
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.tuples(bit_vectors(2 * k).map(rows_of), bit_vectors(2 * k).map(rows_of))
    )


def sequence_triples(min_k: int = 1, max_k: int = 16):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.tuples(*(bit_vectors(2 * k).map(rows_of) for _ in range(3)))
    )


def random_sequences(rng: np.random.Generator, count: int, k: int) -> GeneMatrix:
    """Seeded GeneMatrix of ``count`` random rows (test fixture helper)."""
    return rows_of(rng.integers(0, 2, size=(count, 2 * k), dtype=np.uint8))


def reference_report(metric, db_labels, predicted_labels, predicted_coords,
                     true_labels, true_coords) -> EvalReport:
    """Report by one Python pass over the windows with a counter per figure:
    the fold the library replaced by array counts, kept as its reference."""
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


def replay_report(predicted, truths) -> EvalReport:
    """evaluate_windows over one window per (predicted, truth) pair, each a
    (label, (x, y)) pair. The database holds every predicted position at its
    coordinate, and any other true label at the origin, each with its own
    one-hot pattern; each window replays its predicted position's pattern
    exactly, so the matcher predicts that position."""
    entries = dict(predicted)
    assert all(entries[label] == coord for label, coord in predicted)
    for label, _ in truths:
        entries.setdefault(label, (0.0, 0.0))
    onehot = dict(zip(entries, np.eye(2 * len(entries), dtype=np.uint8)))
    db = fingerprint_db(len(entries), [(label, coord, [(rows_of(onehot[label]),) * 2])
                                       for label, coord in entries.items()])
    windows = LabeledWindows(rows_of([onehot[label] for label, _ in predicted]),
                             tuple(label for label, _ in truths),
                             tuple(coord for _, coord in truths))
    return evaluate_windows(db, windows)


def replay_mae(predicted, truths) -> float:
    """Report MAE of windows predicting the coordinates ``predicted``
    against the true coordinates ``truths``, one position per window."""
    labels = [f"e{i}" for i in range(len(predicted))]
    return replay_report(list(zip(labels, predicted)), list(zip(labels, truths))).mae_m


def replay_accuracy(predicted, truths) -> float:
    """Report accuracy of windows predicting the labels ``predicted``
    against the true labels ``truths``."""
    origin = (0.0, 0.0)
    return replay_report([(label, origin) for label in predicted],
                         [(label, origin) for label in truths]).accuracy
