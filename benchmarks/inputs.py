"""Seeded input generator owned by the benchmark.

The benchmark does not use ``bicsi.synth``: a change to the package must not
be able to change a workload. Every array here is a pure function of the
shape name and the seed. Amplitude-csv traces and manifests are written once
per (shape, seed) into the work directory, outside any timed region, and the
SHA-256 of every input byte is reported with each result.

Channel model (no physical claims): one integer mean profile per position,
Gaussian packet noise, burst packets that shift every subcarrier together,
and a fixed share of amplitudes pushed past the encoder's 1024 cutoff so the
overflow path always runs.
"""

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENERATOR_VERSION = "2"
OVERFLOW_SHARE = 0.002  # share of all amplitudes drawn from [1024, 1536)
OVERFLOW_RANGE = (1024, 1536)
PROFILE_RANGE = (40, 1000)
NOISE_SIGMA = 6.0
BURST_RATE = 0.05
BURST_SIGMA = 48.0
WINDOW = 120


@dataclass(frozen=True)
class Shape:
    positions: int
    subcarriers: int
    train_packets: int
    test_packets: int
    grid_columns: int
    spacing_m: float


SHAPES = {
    # the README desk session
    "desk": Shape(6, 230, 1200, 2400, grid_columns=3, spacing_m=1.5),
    # a site survey: many small traces, a matcher-bound online step
    "survey": Shape(80, 64, 240, 120, grid_columns=10, spacing_m=0.5),
}


@dataclass(frozen=True)
class Dataset:
    """Generated amplitudes and where their files live."""

    shape: Shape
    labels: tuple
    coords: tuple
    train: np.ndarray  # (positions, train_packets, subcarriers) int64
    test: np.ndarray  # (positions, test_packets, subcarriers) int64
    directory: Path
    digest: str

    @property
    def train_manifest(self) -> Path:
        return self.directory / "train" / "manifest.csv"

    @property
    def test_manifest(self) -> Path:
        return self.directory / "test" / "manifest.csv"

    @property
    def live_blocks(self) -> Path:
        return self.directory / "live_blocks.npy"


def _amplitudes(rng, profile, packets):
    k = profile.shape[0]
    noise = rng.normal(0.0, NOISE_SIGMA, size=(packets, k))
    bursts = rng.random(packets) < BURST_RATE
    noise[bursts] += rng.normal(0.0, BURST_SIGMA, size=(int(bursts.sum()), 1))
    amp = np.clip(np.rint(profile + noise), 0, OVERFLOW_RANGE[0] - 1).astype(np.int64)
    overflow = rng.random((packets, k)) < OVERFLOW_SHARE
    amp[overflow] = rng.integers(*OVERFLOW_RANGE, size=int(overflow.sum()))
    return amp


def generate_arrays(shape: Shape, seed: int):
    """(train, test) int64 arrays of shape (positions, packets, subcarriers)."""
    rng = np.random.default_rng([seed, shape.positions, shape.subcarriers])
    profiles = rng.integers(*PROFILE_RANGE, size=(shape.positions, shape.subcarriers))
    train = np.stack([_amplitudes(rng, p, shape.train_packets) for p in profiles])
    test = np.stack([_amplitudes(rng, p, shape.test_packets) for p in profiles])
    return train, test


def live_block_order(shape: Shape):
    """(position, first packet) of each live window: round-robin over positions."""
    return [
        (p, w * WINDOW)
        for w in range(shape.test_packets // WINDOW)
        for p in range(shape.positions)
    ]


def _csv_bytes(matrix) -> bytes:
    return ("\n".join(",".join(map(str, row)) for row in matrix.tolist()) + "\n").encode()


def _write_split(directory: Path, labels, coords, arrays) -> None:
    directory.mkdir(parents=True)
    lines = ["label,x,y,file"]
    for label, (x, y), matrix in zip(labels, coords, arrays):
        (directory / f"{label}.csv").write_bytes(_csv_bytes(matrix))
        lines.append(f"{label},{x:g},{y:g},{label}.csv")
    (directory / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and p.name != "STAMP"):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare(name: str, seed: int, work: Path) -> Dataset:
    """Generate the shape's arrays; write its files unless this seed's are there."""
    shape = SHAPES[name]
    width = len(str(shape.positions))
    labels = tuple(f"p{i + 1:0{max(2, width)}d}" for i in range(shape.positions))
    coords = tuple(
        ((i % shape.grid_columns) * shape.spacing_m, (i // shape.grid_columns) * shape.spacing_m)
        for i in range(shape.positions)
    )
    train, test = generate_arrays(shape, seed)
    directory = work / "inputs" / name
    stamp = directory / "STAMP"
    wanted = f"generator {GENERATOR_VERSION} seed {seed} {shape}\n"
    if not (stamp.is_file() and stamp.read_text() == wanted):
        shutil.rmtree(directory, ignore_errors=True)
        _write_split(directory / "train", labels, coords, train)
        _write_split(directory / "test", labels, coords, test)
        blocks = np.stack([test[p, lo:lo + WINDOW] for p, lo in live_block_order(shape)])
        np.save(directory / "live_blocks.npy", blocks.astype(np.uint16))
        stamp.write_text(wanted)
    return Dataset(shape, labels, coords, train, test, directory, _digest(directory))
