"""CLI workflow tests: command wiring, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bicsi.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, [str(a) for a in args], env=env, catch_exceptions=False)


SYNTH_ARGS = ("synth", "--positions", 3, "--subcarriers", 12, "--train-packets", 240,
              "--test-packets", 240, "--noise-sigma", 2.0, "--seed", 42)


@pytest.fixture()
def dataset(tmp_path, runner):
    out = tmp_path / "data"
    result = invoke(runner, *SYNTH_ARGS, "--out-dir", out)
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture()
def trained(tmp_path, runner, dataset):
    db = tmp_path / "fp.db"
    result = invoke(runner, "train", "--manifest", dataset / "train" / "manifest.csv",
                    "--out-db", db)
    assert result.exit_code == 0, result.output
    return db


class TestSynth:
    def test_writes_layout_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "d"
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out)
        assert result.exit_code == 0, result.output
        assert (out / "train" / "manifest.csv").is_file()
        assert (out / "test" / "manifest.csv").is_file()
        sidecar = json.loads((out / "config.json").read_text())
        assert sidecar["config"]["seed"] == 42
        assert sidecar["train_packets"] == 240

    def test_deterministic_given_seed(self, runner, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        invoke(runner, *SYNTH_ARGS, "--out-dir", first)
        invoke(runner, *SYNTH_ARGS, "--out-dir", second)
        assert ((first / "train" / "p01.csv").read_bytes()
                == (second / "train" / "p01.csv").read_bytes())

    def test_refuses_non_empty_dir(self, runner, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "leftover.txt").write_text("x")
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out)
        assert result.exit_code == 2
        assert "--force" in result.output

    def test_force_overwrites(self, runner, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "leftover.txt").write_text("x")
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out, "--force")
        assert result.exit_code == 0, result.output

    def test_env_seed_overrides_flag(self, runner, tmp_path):
        via_env = tmp_path / "env"
        via_flag = tmp_path / "flag"
        invoke(runner, *SYNTH_ARGS, "--out-dir", via_env, env={"BICSI_SEED": "777"})
        args = list(SYNTH_ARGS)
        args[args.index("--seed") + 1] = 777
        invoke(runner, *args, "--out-dir", via_flag)
        assert ((via_env / "train" / "p01.csv").read_bytes()
                == (via_flag / "train" / "p01.csv").read_bytes())

    def test_bad_env_seed(self, runner, tmp_path):
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", tmp_path / "x",
                        env={"BICSI_SEED": "not-a-number"})
        assert result.exit_code == 2

    def test_sessions_layout(self, runner, tmp_path):
        out = tmp_path / "multi"
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out, "--sessions", 3,
                        "--drift-sigma", 4.0)
        assert result.exit_code == 0, result.output
        for i in (1, 2, 3):
            assert (out / f"session_{i:02d}" / "train" / "manifest.csv").is_file()

    def test_default_flag_contract(self):
        from bicsi.cli import synth as synth_cmd

        defaults = {p.name: p.default for p in synth_cmd.params}
        assert defaults["positions"] == 6
        assert defaults["subcarriers"] == 230

    def test_infeasible_config_exits_2(self, runner, tmp_path):
        result = invoke(runner, "synth", "--out-dir", tmp_path / "x",
                        "--amplitude-lo", 500, "--amplitude-hi", 510,
                        "--profile-separation", 200)
        assert result.exit_code == 2


class TestTrain:
    def test_summary_lines(self, runner, tmp_path, dataset):
        db = tmp_path / "fp.db"
        result = invoke(runner, "train", "--manifest",
                        dataset / "train" / "manifest.csv", "--out-db", db)
        assert result.exit_code == 0
        assert "p01: 240 training packets" in result.output
        assert "subcarriers used: 12" in result.output
        assert "threshold fraction: 0.05" in result.output
        assert "KB" in result.output
        assert db.is_file()

    def test_missing_manifest_exits_2(self, runner, tmp_path):
        result = invoke(runner, "train", "--manifest", tmp_path / "nope.csv",
                        "--out-db", tmp_path / "fp.db")
        assert result.exit_code == 2

    def test_filter_file_shrinks_width(self, runner, tmp_path, dataset):
        flt = tmp_path / "filter.txt"
        flt.write_text("0\n1\n2\n")
        db_path = tmp_path / "fp.db"
        result = invoke(runner, "train", "--manifest",
                        dataset / "train" / "manifest.csv", "--out-db", db_path,
                        "--filter-file", flt)
        assert result.exit_code == 0
        assert "subcarriers used: 9" in result.output

    def test_bad_filter_exits_2(self, runner, tmp_path, dataset):
        flt = tmp_path / "filter.txt"
        flt.write_text("99\n")  # out of range for 12 subcarriers
        result = invoke(runner, "train", "--manifest",
                        dataset / "train" / "manifest.csv",
                        "--out-db", tmp_path / "fp.db", "--filter-file", flt)
        assert result.exit_code == 2

    def test_unreadable_trace_exits_1(self, runner, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("label,x,y,file\na,0,0,missing.csv\n")
        result = invoke(runner, "train", "--manifest", manifest,
                        "--out-db", tmp_path / "fp.db")
        assert result.exit_code == 1


class TestMatch:
    def test_window_count_and_fields(self, runner, tmp_path, dataset, trained):
        out = tmp_path / "m.json"
        result = invoke(runner, "match", "--db", trained, "--trace",
                        dataset / "test" / "p02.csv", "--out-json", out)
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2  # 240 packets / 120
        assert payload[0]["predicted_label"] == "p02"
        assert set(payload[0]) == {"window_index", "predicted_label",
                                   "predicted_coord", "best_distance",
                                   "runner_up_margin"}

    def test_euclidean_matches_hamming(self, runner, tmp_path, dataset, trained):
        outputs = {}
        for metric in ("hamming", "euclidean", "manhattan"):
            out = tmp_path / f"{metric}.json"
            invoke(runner, "match", "--db", trained, "--trace",
                   dataset / "test" / "p03.csv", "--metric", metric,
                   "--out-json", out)
            outputs[metric] = [r["predicted_label"] for r in json.loads(out.read_text())]
        assert outputs["hamming"] == outputs["euclidean"] == outputs["manhattan"]

    def test_unknown_metric_exits_2_listing_names(self, runner, tmp_path, dataset, trained):
        result = invoke(runner, "match", "--db", trained, "--trace",
                        dataset / "test" / "p01.csv", "--metric", "chebyshev",
                        "--out-json", tmp_path / "x.json")
        assert result.exit_code == 2
        assert "hamming" in result.output and "jaccard" in result.output

    def test_window_flag(self, runner, tmp_path, dataset, trained):
        out = tmp_path / "m.json"
        result = invoke(runner, "match", "--db", trained, "--trace",
                        dataset / "test" / "p01.csv", "--window", 60,
                        "--out-json", out)
        assert result.exit_code == 0
        assert len(json.loads(out.read_text())) == 4

    def test_trace_too_short_for_a_window_exits_1(self, runner, tmp_path, dataset, trained):
        rows = [r for r in (dataset / "test" / "p01.csv").read_text().splitlines()
                if not r.startswith("#")]
        short = tmp_path / "short.csv"
        short.write_text("\n".join(rows[:50]) + "\n")
        out = tmp_path / "m.json"
        result = invoke(runner, "match", "--db", trained, "--trace", short, "--out-json", out)
        assert result.exit_code == 1
        assert "short.csv" in result.output
        assert "50 packets" in result.output and "120-packet window" in result.output
        assert not out.exists()

    def test_corrupt_db_exits_1(self, runner, tmp_path, dataset, trained):
        bad = tmp_path / "bad.db"
        bad.write_bytes(b"XXXX" + trained.read_bytes()[4:])
        result = invoke(runner, "match", "--db", bad, "--trace",
                        dataset / "test" / "p01.csv", "--out-json", tmp_path / "x.json")
        assert result.exit_code == 1
        assert "magic" in result.output


class TestEval:
    def test_exact_replay_report(self, runner, tmp_path, dataset, trained):
        out = tmp_path / "report.json"
        result = invoke(runner, "eval", "--db", trained, "--manifest",
                        dataset / "train" / "manifest.csv", "--out", out)
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["accuracy"] == 1.0
        assert report["mae_m"] == 0.0
        assert "accuracy" in result.output

    def test_empty_manifest_exits_1(self, runner, tmp_path, trained):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("label,x,y,file\n")
        result = invoke(runner, "eval", "--db", trained, "--manifest", manifest,
                        "--out", tmp_path / "r.json")
        assert result.exit_code == 1

    def test_report_schema(self, runner, tmp_path, dataset, trained):
        out = tmp_path / "report.json"
        invoke(runner, "eval", "--db", trained, "--manifest",
               dataset / "test" / "manifest.csv", "--out", out)
        report = json.loads(out.read_text())
        assert set(report) == {"metric", "n", "mae_m", "accuracy",
                               "per_position", "confusion"}

    def test_traces_of_two_widths_exit_1(self, runner, tmp_path, dataset, trained):
        rows = (dataset / "test" / "p02.csv").read_text().splitlines()
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("\n".join(",".join(r.split(",")[:8]) for r in rows
                                    if not r.startswith("#")) + "\n")
        manifest = tmp_path / "mixed.csv"
        manifest.write_text(f"label,x,y,file\np01,0,0,{dataset / 'test' / 'p01.csv'}\n"
                            f"p02,1,0,{narrow}\n")
        out = tmp_path / "r.json"
        result = invoke(runner, "eval", "--db", trained, "--manifest", manifest, "--out", out)
        assert result.exit_code == 1
        assert "different bit lengths: [16, 24]" in result.output
        assert not out.exists()


class TestSweep:
    def test_rows_and_csv(self, runner, tmp_path, dataset):
        out = tmp_path / "sweep.csv"
        result = invoke(runner, "sweep", "--manifest",
                        dataset / "train" / "manifest.csv",
                        "--fractions", "0:0.2:0.1", "--out-csv", out)
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tr_fraction,mean_hamming"
        assert len(lines) == 4

    def test_full_fraction_reaches_zero(self, runner, tmp_path):
        # noisy enough that no training column is unanimous, so the
        # full-size threshold leaves every column balanced
        noisy = tmp_path / "noisy"
        result = invoke(runner, "synth", "--positions", 3, "--subcarriers", 12,
                        "--train-packets", 240, "--test-packets", 240,
                        "--noise-sigma", 300.0, "--burst-rate", 0.0,
                        "--seed", 5, "--out-dir", noisy)
        assert result.exit_code == 0, result.output
        out = tmp_path / "sweep.csv"
        result = invoke(runner, "sweep", "--manifest",
                        noisy / "train" / "manifest.csv",
                        "--fractions", "1.0", "--out-csv", out)
        assert result.exit_code == 0
        assert out.read_text().splitlines()[1] == "1,0"

    def test_bad_range_exits_2(self, runner, tmp_path, dataset):
        result = invoke(runner, "sweep", "--manifest",
                        dataset / "train" / "manifest.csv",
                        "--fractions", "nonsense", "--out-csv", tmp_path / "s.csv")
        assert result.exit_code == 2

    @pytest.mark.parametrize("fractions", ["nan:1:0.1", "0:1:nan", "0:inf:0.1", "0:1:1e-9"])
    def test_non_finite_or_vanishing_range_exits_2(self, runner, tmp_path, dataset, fractions):
        out = tmp_path / "s.csv"
        result = invoke(runner, "sweep", "--manifest", dataset / "train" / "manifest.csv",
                        "--fractions", fractions, "--out-csv", out)
        assert result.exit_code == 2
        assert f"bad fraction range {fractions!r}" in result.output
        assert not out.exists()

    def test_single_position_exits_1(self, runner, tmp_path, dataset):
        manifest = tmp_path / "one.csv"
        src = (dataset / "train" / "manifest.csv").read_text().splitlines()
        manifest.write_text("\n".join(src[:2]) + "\n")
        # trace paths are relative to the manifest; keep them resolvable
        import shutil

        shutil.copy(dataset / "train" / "p01.csv", tmp_path / "p01.csv")
        result = invoke(runner, "sweep", "--manifest", manifest,
                        "--fractions", "0:0.2:0.1", "--out-csv", tmp_path / "s.csv")
        assert result.exit_code == 1


class TestCompareMetrics:
    def test_all_metrics_table(self, runner, tmp_path, dataset, trained):
        out = tmp_path / "cmp.json"
        result = invoke(runner, "compare-metrics", "--db", trained, "--manifest",
                        dataset / "test" / "manifest.csv", "--out-json", out)
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert [r["metric"] for r in payload] == [
            "hamming", "manhattan", "euclidean", "cosine", "pearson", "jaccard"
        ]

    def test_metric_subset(self, runner, tmp_path, dataset, trained):
        out = tmp_path / "cmp.json"
        result = invoke(runner, "compare-metrics", "--db", trained, "--manifest",
                        dataset / "test" / "manifest.csv",
                        "--metrics", "hamming,jaccard", "--out-json", out)
        assert result.exit_code == 0
        assert len(json.loads(out.read_text())) == 2

    def test_unknown_metric_exits_2(self, runner, tmp_path, dataset, trained):
        result = invoke(runner, "compare-metrics", "--db", trained, "--manifest",
                        dataset / "test" / "manifest.csv",
                        "--metrics", "hamming,bogus", "--out-json", tmp_path / "c.json")
        assert result.exit_code == 2
        assert "valid metrics" in result.output


class TestTemporal:
    def test_curve_csv(self, runner, tmp_path):
        out_dir = tmp_path / "sessions"
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 3,
                        "--drift-sigma", 3.0)
        assert result.exit_code == 0, result.output
        curve_csv = tmp_path / "curve.csv"
        result = invoke(runner, "temporal", "--sessions-dir", out_dir,
                        "--out-csv", curve_csv)
        assert result.exit_code == 0, result.output
        lines = curve_csv.read_text().splitlines()
        assert lines[0] == "sets_used,accuracy"
        assert len(lines) == 3  # m = 1, 2

    def test_sessions_listing_different_positions_exit_1(self, runner, tmp_path):
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 2)
        manifest = out_dir / "session_02" / "train" / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        manifest.write_text("\n".join(lines) + "\n")
        result = invoke(runner, "temporal", "--sessions-dir", out_dir,
                        "--out-csv", tmp_path / "c.csv")
        assert result.exit_code == 1
        assert "Usage:" not in result.output
        assert "session 2 lists different positions than session 1" in result.output

    def test_too_few_sessions_exits_1(self, runner, tmp_path, dataset):
        # plain dataset dir has no session_* subdirectories
        result = invoke(runner, "temporal", "--sessions-dir", dataset,
                        "--out-csv", tmp_path / "c.csv")
        assert result.exit_code == 1


class TestManifestRows:
    """A bad manifest row fails with exit 1 and one line naming it, never a traceback."""

    @staticmethod
    def assert_clean_failure(result, *fragments):
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        for fragment in fragments:
            assert fragment in lines[0]

    @staticmethod
    def edit_row(manifest, row, **fields):
        """Rewrite one data row (1-based, after the header) of a manifest."""
        lines = manifest.read_text().splitlines()
        label, x, y, name = lines[row].split(",")
        values = {"label": label, "x": x, "y": y, "file": name, **fields}
        lines[row] = ",".join(values[key] for key in ("label", "x", "y", "file"))
        manifest.write_text("\n".join(lines) + "\n")

    def test_repeated_training_label_names_both_lines(self, runner, tmp_path, dataset):
        manifest = dataset / "train" / "manifest.csv"
        self.edit_row(manifest, 3, label="p01")
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        self.assert_clean_failure(result, "line 4", "'p01'", "line 2")
        assert not (tmp_path / "fp.db").exists()

    def test_repeated_label_in_a_sweep_manifest(self, runner, tmp_path, dataset):
        # a repeated position would add a zero-distance pair to the mean
        manifest = dataset / "train" / "manifest.csv"
        self.edit_row(manifest, 2, label="p01")
        result = invoke(runner, "sweep", "--manifest", manifest, "--out-csv", tmp_path / "s.csv")
        self.assert_clean_failure(result, "line 3", "'p01'", "line 2")

    def test_repeated_label_in_a_temporal_training_manifest(self, runner, tmp_path):
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 2)
        manifest = out_dir / "session_02" / "train" / "manifest.csv"
        self.edit_row(manifest, 2, label="p01")
        result = invoke(runner, "temporal", "--sessions-dir", out_dir,
                        "--out-csv", tmp_path / "c.csv")
        self.assert_clean_failure(result, "session_02", "line 3", "'p01'", "line 2")

    def test_test_manifest_may_repeat_a_position(self, runner, tmp_path, dataset, trained):
        manifest = dataset / "test" / "manifest.csv"
        self.edit_row(manifest, 2, label="p01", x="0", y="0")
        out = tmp_path / "report.json"
        result = invoke(runner, "eval", "--db", trained, "--manifest", manifest, "--out", out)
        assert result.exit_code == 0, result.output
        per_position = json.loads(out.read_text())["per_position"]
        assert [p["n"] for p in per_position] == [4, 0, 2]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command", ["train", "eval", "compare-metrics", "sweep"])
    def test_non_finite_coordinate(self, runner, tmp_path, dataset, trained, command, value):
        which = "train" if command in ("train", "sweep") else "test"
        manifest = dataset / which / "manifest.csv"
        self.edit_row(manifest, 2, y=value)
        args = {
            "train": ("--out-db", tmp_path / "new.db"),
            "eval": ("--db", trained, "--out", tmp_path / "r.json"),
            "compare-metrics": ("--db", trained, "--out-json", tmp_path / "r.json"),
            "sweep": ("--out-csv", tmp_path / "s.csv"),
        }[command]
        result = invoke(runner, command, "--manifest", manifest, *args)
        self.assert_clean_failure(result, "line 3", "finite")

    def test_non_finite_coordinate_in_temporal(self, runner, tmp_path):
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 2)
        self.edit_row(out_dir / "session_01" / "test" / "manifest.csv", 1, x="nan")
        result = invoke(runner, "temporal", "--sessions-dir", out_dir,
                        "--out-csv", tmp_path / "c.csv")
        self.assert_clean_failure(result, "session_01", "line 2", "finite")

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_empty_label(self, runner, tmp_path, dataset, trained, which):
        manifest = dataset / which / "manifest.csv"
        self.edit_row(manifest, 1, label="")
        args = (("train", "--manifest", manifest, "--out-db", tmp_path / "new.db")
                if which == "train" else
                ("eval", "--db", trained, "--manifest", manifest, "--out", tmp_path / "r.json"))
        result = invoke(runner, *args)
        self.assert_clean_failure(result, "line 2", "empty label")


def test_cli_import_leaves_numpy_random_unloaded():
    # only synth draws random numbers; loading numpy.random would slow every CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, bicsi.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
