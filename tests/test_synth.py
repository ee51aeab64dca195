"""Synthetic generator tests: determinism, separation, noiseless limits."""

import hashlib

import numpy as np
import pytest

from bicsi.encoding import encode_matrix
from bicsi.errors import ConfigError
from bicsi.evaluation import LabeledWindows, evaluate_windows
from bicsi.fingerprint import build_db
from bicsi.synth import SynthConfig, drift_sessions, generate, write_dataset


def small_cfg(**overrides):
    defaults = dict(positions=3, subcarriers=12, packets_per_position=240,
                    base_amplitude_range=(60, 900), profile_separation=40.0,
                    noise_sigma=3.0, burst_rate=0.05, burst_magnitude=50.0,
                    seed=123)
    defaults.update(overrides)
    return SynthConfig(**defaults)


def dataset_hash(dataset) -> str:
    digest = hashlib.sha256()
    for trace in dataset.traces:
        digest.update(trace.matrix.data.tobytes())
    return digest.hexdigest()


class TestGenerate:
    def test_shapes_and_labels(self):
        ds = generate(small_cfg())
        assert len(ds.traces) == 3
        assert [t.true_label for t in ds.traces] == ["p01", "p02", "p03"]
        assert all(t.matrix.data.shape == (240, 12) for t in ds.traces)
        assert ds.profiles.shape == (3, 12)

    def test_same_seed_bit_identical(self):
        assert dataset_hash(generate(small_cfg())) == dataset_hash(generate(small_cfg()))

    def test_distinct_seeds_distinct_data(self):
        hashes = {dataset_hash(generate(small_cfg(seed=s))) for s in range(10)}
        assert len(hashes) == 10

    def test_noiseless_packets_identical(self):
        ds = generate(small_cfg(noise_sigma=0.0, burst_rate=0.0))
        for trace in ds.traces:
            assert len(np.unique(trace.matrix.data, axis=0)) == 1

    def test_amplitudes_integral_and_bounded(self):
        ds = generate(small_cfg())
        for trace in ds.traces:
            data = trace.matrix.data
            assert np.issubdtype(data.dtype, np.integer)
            assert data.min() >= 0
            assert data.max() <= 4095

    def test_default_config_mostly_below_cutoff(self):
        ds = generate(SynthConfig(positions=2, packets_per_position=300))
        assert ds.overflow_fraction <= 0.10

    def test_profiles_meet_separation(self):
        cfg = small_cfg()
        ds = generate(cfg)
        need = (cfg.subcarriers + 1) // 2
        for i in range(cfg.positions):
            for j in range(i + 1, cfg.positions):
                gaps = np.abs(ds.profiles[i] - ds.profiles[j])
                assert int((gaps >= cfg.profile_separation).sum()) >= need

    def test_infeasible_separation(self):
        with pytest.raises(ConfigError):
            small_cfg(base_amplitude_range=(500, 510), profile_separation=100.0)

    def test_unreachable_separation_draw(self):
        # feasible span but statistically impossible across most subcarriers
        cfg = small_cfg(positions=6, base_amplitude_range=(500, 620),
                        profile_separation=119.0)
        with pytest.raises(ConfigError):
            generate(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(burst_rate=1.5)
        with pytest.raises(ConfigError):
            small_cfg(positions=0)
        with pytest.raises(ConfigError):
            small_cfg(base_amplitude_range=(200, 100))
        with pytest.raises(ConfigError):
            small_cfg(base_amplitude_range=(0, 2000))
        with pytest.raises(ConfigError):
            small_cfg(noise_sigma=-1.0)
        with pytest.raises(ConfigError, match="^drift_sigma must be finite, got nan$"):
            small_cfg(drift_sigma=float("nan"))
        with pytest.raises(ConfigError, match="^base_amplitude_range bounds must be integers$"):
            small_cfg(base_amplitude_range=(60.0, 900))
        with pytest.raises(ConfigError, match="^profile_separation must be >= 0$"):
            small_cfg(profile_separation=-1.0)

    def test_noiseless_end_to_end_is_perfect(self):
        ds = generate(small_cfg(noise_sigma=0.0, burst_rate=0.0))
        positions = []
        tests = []
        for trace in ds.traces:
            seqs = encode_matrix(trace.matrix)
            positions.append((trace.true_label, trace.true_coord, seqs[:120]))
            tests.append(trace)
        db = build_db(positions, threshold_fraction=0.0)
        # rows in file order: each position's first ancestor, then its second
        assert db.ancestors[0::2] == db.ancestors[1::2]
        labeled = LabeledWindows.from_traces(tests, window_size=120)
        report = evaluate_windows(db, labeled)
        assert report.accuracy == 1.0
        assert report.mae_m == 0.0


class TestDriftSessions:
    def test_session_count_and_shapes(self):
        sessions = drift_sessions(small_cfg(drift_sigma=5.0), 7)
        assert len(sessions) == 7
        assert all(len(s.traces) == 3 for s in sessions)

    def test_zero_drift_same_profiles(self):
        sessions = drift_sessions(small_cfg(drift_sigma=0.0), 3)
        for s in sessions[1:]:
            assert np.array_equal(s.profiles, sessions[0].profiles)

    def test_nonzero_drift_moves_profiles(self):
        sessions = drift_sessions(small_cfg(drift_sigma=5.0), 3)
        assert not np.array_equal(sessions[0].profiles, sessions[1].profiles)

    def test_deterministic(self):
        a = drift_sessions(small_cfg(drift_sigma=5.0), 3)
        b = drift_sessions(small_cfg(drift_sigma=5.0), 3)
        assert [dataset_hash(s) for s in a] == [dataset_hash(s) for s in b]

    def test_needs_two_sessions(self):
        with pytest.raises(ConfigError):
            drift_sessions(small_cfg(), 1)


class TestWriteDataset:
    def test_layout_and_manifest(self, tmp_path):
        ds = generate(small_cfg())
        write_dataset(ds, tmp_path, train_packets=120, test_packets=120)
        for part in ("train", "test"):
            manifest = tmp_path / part / "manifest.csv"
            assert manifest.is_file()
            lines = manifest.read_text().splitlines()
            assert lines[0] == "label,x,y,file"
            assert len(lines) == 4
            for line in lines[1:]:
                filename = line.split(",")[-1]
                assert (tmp_path / part / filename).is_file()

    def test_split_bounds_checked(self, tmp_path):
        ds = generate(small_cfg())
        with pytest.raises(ConfigError):
            write_dataset(ds, tmp_path, train_packets=200, test_packets=200)

    def test_round_trip_through_csv(self, tmp_path):
        from bicsi.ingest import build_matrix, load_trace

        ds = generate(small_cfg())
        write_dataset(ds, tmp_path, train_packets=120, test_packets=120)
        records = load_trace(tmp_path / "train" / "p01.csv")
        matrix = build_matrix(records)
        assert np.array_equal(matrix.data, ds.traces[0].matrix.data[:120])
