"""Independent numpy reference for checking the program's outputs.

Everything is recomputed from the generated integer amplitudes with
unpacked 0/1 bit arrays; no ``bicsi`` code is imported. The encoder expands
each amplitude to its ten bits and votes on each five-bit half, the
ancestors come from per-column counts at ceil(5% of the training size), the
parents from column majority (ties to 1), and the six metrics are evaluated
by their own formulas over every (window, ancestor) pair. A window goes to
the first entry with the smallest distance (earliest wins on ties).

Run ``python3 benchmarks/reference.py`` for the checker's self-test.
"""

import struct

import numpy as np

OVERFLOW = 1024
WINDOW = 120
THRESHOLD_MICRO = 50_000  # the CLI default threshold fraction, 5%
METRICS = ("hamming", "manhattan", "euclidean", "cosine", "pearson", "jaccard")


def gene_bits(amplitudes) -> np.ndarray:
    """(..., k) integer amplitudes -> (..., 2k) uint8 bits, (H, L) per subcarrier."""
    a = np.asarray(amplitudes)
    a = np.where(a >= OVERFLOW, 0, a).astype(np.int16)
    ten = (a[..., None] >> np.arange(9, -1, -1, dtype=np.int16)) & 1
    high = ten[..., :5].sum(axis=-1) >= 3
    low = ten[..., 5:].sum(axis=-1) >= 3
    return np.stack([high, low], axis=-1).reshape(*a.shape[:-1], -1).astype(np.uint8)


def window_bounds(total: int):
    """Non-overlapping windows; a remainder of at least half a window is kept."""
    bounds = [(lo, lo + WINDOW) for lo in range(0, total - WINDOW + 1, WINDOW)]
    rem = total % WINDOW
    if rem and 2 * rem >= WINDOW:
        bounds.append((total - rem, total))
    return bounds


def tail_dropped(total: int) -> int:
    rem = total % WINDOW
    return rem if 2 * rem < WINDOW else 0


def parents(bits) -> np.ndarray:
    """Parent bit vectors of one trace's windows."""
    rows = [2 * bits[lo:hi].sum(axis=0) >= hi - lo for lo, hi in window_bounds(len(bits))]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), bits.shape[1])


def ancestors(bits):
    """(as1, as2) bit vectors of one position's training bits."""
    n = bits.shape[0]
    tr = -(-THRESHOLD_MICRO * n // 1_000_000)
    n1 = bits.sum(axis=0, dtype=np.int64)
    n0 = n - n1
    majority = n1 >= n0
    decided = np.abs(n0 - n1) >= tr
    as1 = np.where(decided, majority, True).astype(np.uint8)
    as2 = np.where(decided, majority, False).astype(np.uint8)
    return as1, as2


def distances(metric: str, windows, ancs) -> np.ndarray:
    """(n_windows, n_ancestors) lower-is-better distances, by each metric's formula."""
    w = windows.astype(np.int64)[:, None, :]
    a = ancs.astype(np.int64)[None, :, :]
    n = windows.shape[1]
    if metric == "hamming":
        return (w != a).sum(axis=-1).astype(np.float64)
    if metric == "manhattan":
        return np.abs(w - a).sum(axis=-1).astype(np.float64)
    if metric == "euclidean":
        return np.sqrt(((w - a) ** 2).sum(axis=-1).astype(np.float64))
    na = a.sum(axis=-1)
    nb = w.sum(axis=-1)
    m11 = (a * w).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if metric == "cosine":
            cos = m11 / np.sqrt((na * nb).astype(np.float64))
            cos = np.where((na == 0) & (nb == 0), 1.0, np.where((na == 0) | (nb == 0), 0.0, cos))
            return 1.0 - cos
        if metric == "pearson":
            var = na * (n - na) * (nb * (n - nb))
            r = (n * m11 - na * nb) / np.sqrt(var.astype(np.float64))
            r = np.where(var == 0, 0.0, r)
            r = np.where((w != a).sum(axis=-1) == 0, 1.0, r)
            return (1.0 - r) / 2.0
        if metric == "jaccard":
            union = na + nb - m11
            jac = np.where(union == 0, 1.0, m11 / union)
            return 1.0 - jac
    raise ValueError(f"unknown metric {metric!r}")


def match(metric: str, windows, ancs):
    """(winning entry, runner-up margin) per window; ancestors are
    [e0.as1, e0.as2, e1.as1, ...], one set per entry."""
    d = np.concatenate([distances(metric, windows[i:i + 64], ancs)
                        for i in range(0, len(windows), 64)])
    per_entry = d.reshape(len(windows), -1, 2).min(axis=-1)
    best = per_entry.argmin(axis=1)
    rows = np.arange(len(windows))
    best_d = per_entry[rows, best]
    others = per_entry.copy()
    others[rows, best] = np.inf
    return best, others.min(axis=1) - best_d


class Reference:
    """Expected outcomes for per-position training and test amplitudes,
    positions in manifest order."""

    def __init__(self, labels, coords, train, test):
        self.labels = tuple(labels)
        self.coords = tuple(coords)
        self.k = train[0].shape[1]
        pairs = [ancestors(gene_bits(t)) for t in train]
        self.ancestors = np.array([x for pair in pairs for x in pair], dtype=np.uint8)
        per_trace = [parents(gene_bits(t)) for t in test]
        self.windows = np.concatenate(per_trace)
        self.truth = np.repeat(np.arange(len(per_trace)), [len(p) for p in per_trace])
        self.tail_dropped = sum(tail_dropped(len(t)) for t in test)
        self._matches = {}

    def predictions(self, metric: str):
        if metric not in self._matches:
            self._matches[metric] = match(metric, self.windows, self.ancestors)
        return self._matches[metric]

    def confusion(self, metric: str) -> np.ndarray:
        best, _ = self.predictions(metric)
        out = np.zeros((len(self.labels), len(self.labels)), dtype=np.int64)
        np.add.at(out, (self.truth, best), 1)
        return out

    def margin0(self, metric: str) -> int:
        return int((self.predictions(metric)[1] == 0).sum())

    def db_bytes(self) -> bytes:
        """The BFPD v1 file ``bicsi train`` should write at the default threshold."""
        out = [struct.pack("<4sBHII", b"BFPD", 1, self.k, THRESHOLD_MICRO, len(self.labels))]
        for i, (label, coord) in enumerate(zip(self.labels, self.coords)):
            raw = label.encode()
            out += [struct.pack("<H", len(raw)), raw, struct.pack("<dd", *coord),
                    struct.pack("<H", 1)]
            out += [np.packbits(self.ancestors[2 * i + j]).tobytes() for j in (0, 1)]
        return b"".join(out)

    def report_failures(self, report, metric: str) -> int:
        """Window decisions in one eval report that disagree with the reference.

        Each wrong decision moves one count within its true-label row of the
        confusion matrix, so the shortfall against the reference rows is the
        number of disagreeing decisions; a malformed report fails every window.
        """
        expected = self.confusion(metric)
        n = len(self.windows)
        try:
            got = np.array(report["confusion"], dtype=np.int64)
            if report["metric"] != metric or report["n"] != n or got.shape != expected.shape:
                return n
        except (KeyError, TypeError, ValueError):
            return n
        return int(np.clip(expected - got, 0, None).sum())

    def live_failures(self, labels, order) -> int:
        """Live decisions that disagree; ``order[i]`` is the reference window
        index of the i-th live block, cycled."""
        best, _ = self.predictions("hamming")
        want = [self.labels[best[order[i % len(order)]]] for i in range(len(labels))]
        return sum(1 for got, exp in zip(labels, want) if got != exp)


def self_test() -> None:
    """Raise AssertionError unless the checker counts what it should."""
    a = np.array([[1, 1, 0, 0]], dtype=np.uint8)
    b = np.array([[1, 0, 1, 0]], dtype=np.uint8)
    hand = {"hamming": 2.0, "manhattan": 2.0, "euclidean": 2 ** 0.5,
            "cosine": 0.5, "pearson": 0.5, "jaccard": 2 / 3}
    for metric, want in hand.items():
        got = float(distances(metric, a, b)[0, 0])
        if abs(got - want) > 1e-12:
            raise AssertionError(f"{metric}: {got} != {want}")

    rng = np.random.default_rng(0)
    profiles = rng.integers(40, 1000, size=(3, 1, 8))
    ref = Reference(
        labels=("a", "b", "c"),
        coords=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        train=profiles + rng.integers(-3, 4, size=(3, 40, 8)),
        test=profiles + rng.integers(-3, 4, size=(3, 240, 8)),
    )
    for metric in METRICS:
        report = {"metric": metric, "n": len(ref.windows),
                  "confusion": ref.confusion(metric).tolist()}
        if ref.report_failures(report, metric) != 0:
            raise AssertionError(f"{metric}: a faithful report counted as failed")
        row = int(ref.truth[0])
        col = int(np.flatnonzero(report["confusion"][row])[0])
        report["confusion"][row][col] -= 1
        report["confusion"][row][(col + 1) % 3] += 1
        if ref.report_failures(report, metric) != 1:
            raise AssertionError(f"{metric}: one corrupted prediction not counted once")
    order = list(range(len(ref.windows)))
    best, _ = ref.predictions("hamming")
    labels = [ref.labels[i] for i in best] * 2
    if ref.live_failures(labels, order) != 0:
        raise AssertionError("faithful live labels counted as failed")
    labels[len(order) + 1] = "not-a-label"
    if ref.live_failures(labels, order) != 1:
        raise AssertionError("one corrupted live label not counted once")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
