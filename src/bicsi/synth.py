"""Seeded synthetic CSI amplitude generator for desk-scale pipeline checks.

The channel model is deliberately simple and makes no physical claims: one
mean amplitude profile per position, i.i.d. Gaussian packet noise, sparse
burst packets that shove a random subcarrier subset up or down (a crude
stand-in for the small movements of a semi-stationary subject), and an
optional per-session random walk of the profiles. Everything is a pure
function of the seed and the configuration.
"""

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .encoding import ENCODER_OVERFLOW
from .errors import ConfigError
from .ingest import AmplitudeMatrix, LabeledTrace
from .ioutil import atomic_write_bytes

AMPLITUDE_CEILING = 4095  # clamp admits values past the encoder cutoff
_PROFILE_ATTEMPTS = 1000


@dataclass(frozen=True)
class SynthConfig:
    positions: int = 6
    subcarriers: int = 230
    packets_per_position: int = 3600
    base_amplitude_range: tuple = (40, 1000)
    profile_separation: float = 32.0
    noise_sigma: float = 4.0
    burst_rate: float = 0.05
    burst_magnitude: float = 64.0
    drift_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("profile_separation", "noise_sigma", "burst_rate", "burst_magnitude",
                     "drift_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        lo, hi = self.base_amplitude_range
        if not (isinstance(lo, int) and isinstance(hi, int)):
            raise ConfigError("base_amplitude_range bounds must be integers")
        if not (0 <= lo <= hi < ENCODER_OVERFLOW):
            raise ConfigError("base_amplitude_range must satisfy "
                              f"0 <= lo <= hi <= {ENCODER_OVERFLOW - 1}")
        if min(self.positions, self.subcarriers, self.packets_per_position) < 1:
            raise ConfigError("positions, subcarriers and packets_per_position must be >= 1")
        if not 0.0 <= self.burst_rate <= 1.0:
            raise ConfigError("burst_rate must lie in [0, 1]")
        if self.noise_sigma < 0 or self.burst_magnitude < 0 or self.drift_sigma < 0:
            raise ConfigError("noise_sigma, burst_magnitude and drift_sigma must be >= 0")
        if self.profile_separation < 0:
            raise ConfigError("profile_separation must be >= 0")
        if self.positions > 1 and self.profile_separation > hi - lo:
            raise ConfigError(
                f"profile_separation {self.profile_separation} exceeds the amplitude range "
                f"span {hi - lo}; no two profiles can satisfy it"
            )


@dataclass(frozen=True)
class SynthDataset:
    """Per-position labeled traces plus the ground truth that produced them."""

    traces: tuple
    profiles: np.ndarray
    overflow_fraction: float  # share of amplitudes at or past the encoder cutoff

    def __post_init__(self):
        profiles = np.asarray(self.profiles, dtype=float).view()  # the caller's stays writable
        profiles.setflags(write=False)
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "traces", tuple(self.traces))


def position_label(i: int) -> str:
    return f"p{i + 1:02d}"


def position_coord(i: int) -> tuple:
    # unit-spaced line layout, meters
    return (float(i), 0.0)


def _draw_profiles(cfg: SynthConfig, rng: "np.random.Generator") -> np.ndarray:
    lo, hi = cfg.base_amplitude_range
    need = (cfg.subcarriers + 1) // 2  # at least half the subcarriers
    for _ in range(_PROFILE_ATTEMPTS):
        # bin-centered means: floor(profile + noise) only moves once the
        # noise magnitude exceeds half an amplitude unit
        profiles = rng.integers(lo, hi + 1, size=(cfg.positions, cfg.subcarriers)) + 0.5
        # every pair (i, j > i) separated on at least ``need`` subcarriers
        if all(((np.abs(profiles[i + 1:] - profiles[i]) >= cfg.profile_separation).sum(axis=1)
                >= need).all() for i in range(cfg.positions)):
            return profiles
    raise ConfigError(
        "could not draw position profiles meeting the separation requirement; "
        "widen base_amplitude_range or lower profile_separation"
    )


def _position_packets(cfg: SynthConfig, profile_row: np.ndarray,
                      rng: "np.random.Generator") -> np.ndarray:
    n, k = cfg.packets_per_position, cfg.subcarriers
    values = profile_row + rng.normal(0.0, cfg.noise_sigma, size=(n, k))
    if cfg.burst_rate > 0.0:
        burst = rng.random((n, 1)) < cfg.burst_rate
        subset = rng.random((n, k)) < 0.5
        sign = rng.integers(0, 2, size=(n, k)) * 2 - 1
        values = values + burst * subset * sign * cfg.burst_magnitude
    np.clip(values, 0.0, AMPLITUDE_CEILING, out=values)
    return np.floor(values).astype(np.int32)


def _dataset_from_profiles(cfg: SynthConfig, profiles: np.ndarray,
                           pos_seeds) -> SynthDataset:
    traces = []
    overflow = 0
    total = 0
    for p in range(cfg.positions):
        data = _position_packets(cfg, profiles[p], np.random.default_rng(pos_seeds[p]))
        overflow += int((data >= ENCODER_OVERFLOW).sum())
        total += data.size
        matrix = AmplitudeMatrix(data=data, subcarrier_mask=tuple(range(cfg.subcarriers)))
        traces.append(LabeledTrace(matrix=matrix, true_label=position_label(p),
                                   true_coord=position_coord(p)))
    return SynthDataset(traces=tuple(traces), profiles=profiles,
                        overflow_fraction=overflow / total)


def generate(cfg: SynthConfig) -> SynthDataset:
    """One dataset: a labeled trace per position, pure function of the seed."""
    root = np.random.SeedSequence(cfg.seed)
    profile_seed, *pos_seeds = root.spawn(cfg.positions + 1)
    profiles = _draw_profiles(cfg, np.random.default_rng(profile_seed))
    return _dataset_from_profiles(cfg, profiles, pos_seeds)


def drift_sessions(cfg: SynthConfig, sessions: int) -> list[SynthDataset]:
    """Datasets for consecutive sessions whose profiles random-walk between
    sessions with per-step deviation ``drift_sigma`` (session 0 is the base)."""
    if sessions < 2:
        raise ConfigError("drift_sessions needs at least two sessions")
    root = np.random.SeedSequence(cfg.seed)
    profile_seed, drift_seed, *session_seeds = root.spawn(sessions + 2)
    base = _draw_profiles(cfg, np.random.default_rng(profile_seed))
    steps = np.random.default_rng(drift_seed).normal(
        0.0, cfg.drift_sigma, size=(sessions - 1, cfg.positions, cfg.subcarriers)
    )
    datasets = []
    profile = base
    for s in range(sessions):
        if s > 0:
            profile = profile + steps[s - 1]
        pos_seeds = session_seeds[s].spawn(cfg.positions)
        datasets.append(_dataset_from_profiles(cfg, profile, pos_seeds))
    return datasets


def _trace_csv_bytes(data: np.ndarray) -> bytes:
    buf = io.StringIO()
    buf.write("# synthetic CSI amplitude trace: one packet per row\n")
    np.savetxt(buf, data, fmt="%d", delimiter=",")
    return buf.getvalue().encode("utf-8")


def _manifest_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "x", "y", "file"])
    for label, (x, y), filename in rows:
        writer.writerow([label, f"{x:g}", f"{y:g}", filename])
    return buf.getvalue().encode("utf-8")


def check_split(train_packets: int, test_packets: int) -> None:
    """Each part of the train/test split needs a packet."""
    if train_packets < 1 or test_packets < 1:
        raise ConfigError("train_packets and test_packets must be >= 1")


def write_dataset(dataset: SynthDataset, out_dir, train_packets: int,
                  test_packets: int) -> None:
    """Write train/ and test/ trace CSVs plus a manifest in each directory.

    The first ``train_packets`` packets of every trace land in train/, the
    next ``test_packets`` in test/.
    """
    packets = dataset.traces[0].matrix.packet_count
    check_split(train_packets, test_packets)
    if train_packets + test_packets > packets:
        raise ConfigError(
            f"split {train_packets}+{test_packets} exceeds the {packets} generated packets"
        )
    for part, lo, hi in (
        ("train", 0, train_packets),
        ("test", train_packets, train_packets + test_packets),
    ):
        part_dir = os.path.join(os.fspath(out_dir), part)
        os.makedirs(part_dir, exist_ok=True)
        manifest_rows = []
        for trace in dataset.traces:
            filename = f"{trace.true_label}.csv"
            atomic_write_bytes(os.path.join(part_dir, filename),
                               _trace_csv_bytes(trace.matrix.data[lo:hi]))
            manifest_rows.append((trace.true_label, trace.true_coord, filename))
        atomic_write_bytes(os.path.join(part_dir, "manifest.csv"),
                           _manifest_bytes(manifest_rows))
