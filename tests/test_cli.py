"""CLI workflow tests: command wiring, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from bicsi import cli
from bicsi.cli import main
from bicsi.errors import ConfigError, DataDomainError


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


def keep_packets(trace: Path, packets: int) -> None:
    """Cut a trace file to its first ``packets`` data rows."""
    lines = trace.read_text().splitlines()
    comments = [r for r in lines if r.startswith("#")]
    rows = [r for r in lines if not r.startswith("#")]
    trace.write_text("\n".join(comments + rows[:packets]) + "\n")


def narrow_copy(trace: Path, out: Path) -> Path:
    """``trace`` cut to its first 8 subcarrier columns, written to ``out``."""
    rows = [r for r in trace.read_text().splitlines() if not r.startswith("#")]
    out.write_text("\n".join(",".join(r.split(",")[:8]) for r in rows) + "\n")
    return out


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

    def test_sessions_layout(self, runner, tmp_path):
        out = tmp_path / "multi"
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out, "--sessions", 3,
                        "--drift-sigma", 4.0)
        assert result.exit_code == 0, result.output
        for i in (1, 2, 3):
            assert (out / f"session_{i:02d}" / "train" / "manifest.csv").is_file()

    def test_session_names_sort_in_session_order_past_99(self, runner, tmp_path):
        out = tmp_path / "many"
        result = invoke(runner, "synth", "--positions", 2, "--subcarriers", 2,
                        "--train-packets", 3, "--test-packets", 3, "--sessions", 101,
                        "--out-dir", out)
        assert result.exit_code == 0, result.output
        names = [f"session_{i:03d}" for i in range(1, 102)]
        assert sorted(d.name for d in out.iterdir() if d.is_dir()) == names
        assert [line.split(":")[0] for line in result.output.splitlines()[:-1]] == names

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

    @pytest.mark.parametrize("flag, message", [
        ("--sessions", "--sessions must be >= 1"),
        ("--train-packets", "train_packets and test_packets must be >= 1"),
        ("--test-packets", "train_packets and test_packets must be >= 1"),
    ])
    def test_count_below_one_exits_2(self, runner, tmp_path, flag, message):
        out = tmp_path / "x"
        result = invoke(runner, *SYNTH_ARGS, "--out-dir", out, flag, 0)
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--noise-sigma", "--drift-sigma", "--burst-magnitude",
                                      "--profile-separation", "--burst-rate"])
    def test_non_finite_float_exits_2_before_writing(self, runner, tmp_path, flag, value):
        out = tmp_path / "x"
        result = invoke(runner, "synth", "--out-dir", out, "--positions", 2,
                        "--subcarriers", 4, flag, value)
        assert result.exit_code == 2
        field = flag[2:].replace("-", "_")
        assert f"Error: {field} must be finite, got {float(value)}" in result.output
        assert not out.exists()


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

    @pytest.mark.parametrize("fraction", ["nan", "-1", "1e300"])
    def test_bad_threshold_fraction_exits_2_before_reading(self, runner, tmp_path, dataset,
                                                           fraction):
        db = tmp_path / "fp.db"
        result = invoke(runner, "train", "--manifest", dataset / "train" / "manifest.csv",
                        "--out-db", db, "--threshold-fraction", fraction)
        assert result.exit_code == 2
        assert "threshold fraction" in result.output
        assert "training packets" not in result.output
        assert not db.exists()

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

    @pytest.mark.parametrize("bad, code", [("manifest", 1), ("trace", 1), ("filter", 2)])
    def test_file_that_is_not_utf8_is_named(self, runner, tmp_path, dataset, bad, code):
        manifest = dataset / "train" / "manifest.csv"
        flt = tmp_path / "filter.txt"
        flt.write_text("0\n")
        target = {"manifest": manifest, "trace": dataset / "train" / "p01.csv", "filter": flt}[bad]
        target.write_bytes(target.read_bytes() + b"\xff\n")
        result = runner.invoke(main, ["train", "--manifest", str(manifest), "--out-db",
                                      str(tmp_path / "fp.db"), "--filter-file", str(flt)])
        assert result.exit_code == code
        assert str(target) in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("value, code", [
        ("9223372036854775807", 0),  # the int64 maximum itself
        ("9223372036854775808", 1),
        ("09223372036854775808", 1),
    ])
    def test_int64_bound_is_exact(self, runner, tmp_path, value, code):
        (tmp_path / "a.csv").write_text(f"{value},5\n7,8\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("label,x,y,file\na,0,0,a.csv\n")
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        assert result.exit_code == code, result.output
        assert ("below 2**63" in result.output) == bool(code)

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

    def test_one_position_db_writes_a_null_margin(self, runner, tmp_path, dataset):
        manifest = dataset / "train" / "manifest.csv"
        manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:2]))
        db, out = tmp_path / "one.db", tmp_path / "m.json"
        invoke(runner, "train", "--manifest", manifest, "--out-db", db)
        result = invoke(runner, "match", "--db", db, "--trace", dataset / "test" / "p02.csv",
                        "--out-json", out)
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert "Infinity" not in text
        assert [(r["predicted_label"], r["runner_up_margin"]) for r in json.loads(text)] == [
            ("p01", None), ("p01", None)]

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
        narrow = narrow_copy(dataset / "test" / "p02.csv", tmp_path / "narrow.csv")
        manifest = tmp_path / "mixed.csv"
        manifest.write_text(f"label,x,y,file\np01,0,0,{dataset / 'test' / 'p01.csv'}\n"
                            f"p02,1,0,{narrow}\n")
        out = tmp_path / "r.json"
        result = invoke(runner, "eval", "--db", trained, "--manifest", manifest, "--out", out)
        assert result.exit_code == 1
        assert "different bit lengths: [16, 24]" in result.output
        assert not out.exists()

    def test_trace_too_short_for_a_window_exits_1(self, runner, tmp_path, dataset, trained):
        keep_packets(dataset / "test" / "p02.csv", 39)
        out = tmp_path / "r.json"
        result = invoke(runner, "eval", "--db", trained, "--manifest",
                        dataset / "test" / "manifest.csv", "--out", out)
        assert result.exit_code == 1
        trace = dataset / "test" / "p02.csv"
        assert result.output == (f"Error: {trace}: trace 'p02': 39 packets, too few for one "
                                 "120-packet window (a window needs at least half its size)\n")
        assert not out.exists()

    def test_too_short_trace_of_a_repeated_label_names_its_file(self, runner, tmp_path, dataset,
                                                                   trained):
        short = tmp_path / "p02-short.csv"
        short.write_bytes((dataset / "test" / "p02.csv").read_bytes())
        keep_packets(short, 44)
        manifest = tmp_path / "repeated.csv"
        manifest.write_text(f"label,x,y,file\np02,1,0,{dataset / 'test' / 'p02.csv'}\n"
                            f"p02,1,0,{short}\n")
        out = tmp_path / "r.json"
        result = invoke(runner, "eval", "--db", trained, "--manifest", manifest, "--out", out)
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {short}: trace 'p02': 44 packets, too few")
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
        for fractions in ("nonsense", "0:1"):
            result = invoke(runner, "sweep", "--manifest",
                            dataset / "train" / "manifest.csv",
                            "--fractions", fractions, "--out-csv", tmp_path / "s.csv")
            assert result.exit_code == 2
            assert f"bad fraction range {fractions!r}; expected start:stop:step" in result.output

    @pytest.mark.parametrize("fractions", ["nan:1:0.1", "0:1:nan", "0:inf:0.1", "0:1:1e-9",
                                           "0:1000:0.000001", "0:1e300:0.1"])
    def test_non_finite_or_vanishing_range_exits_2(self, runner, tmp_path, dataset, fractions):
        out = tmp_path / "s.csv"
        result = invoke(runner, "sweep", "--manifest", dataset / "train" / "manifest.csv",
                        "--fractions", fractions, "--out-csv", out)
        assert result.exit_code == 2
        assert f"bad fraction range {fractions!r}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("fractions", ["nan", "1e300", "-1"])
    def test_bad_single_fraction_exits_2_before_reading(self, runner, tmp_path, fractions):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("label,x,y,file\np01,0,0,missing.csv\np02,1,0,missing.csv\n")
        out = tmp_path / "s.csv"
        result = invoke(runner, "sweep", "--manifest", manifest, "--fractions", fractions,
                        "--out-csv", out)
        assert result.exit_code == 2
        assert f"bad fraction range {fractions!r}: " in result.output
        assert "missing.csv" not in result.output
        assert not out.exists()

    def test_bad_width_names_the_position_as_train_does(self, runner, tmp_path, dataset):
        narrow_copy(dataset / "train" / "p03.csv", dataset / "train" / "p03.csv")
        manifest = dataset / "train" / "manifest.csv"
        message = "Error: position 'p03': 16 bits, expected 24\n"
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        assert result.exit_code == 1 and result.output.endswith(message)
        out = tmp_path / "s.csv"
        result = invoke(runner, "sweep", "--manifest", manifest, "--out-csv", out)
        assert result.exit_code == 1 and result.output == message
        assert not out.exists()

    def test_single_position_exits_1(self, runner, tmp_path, dataset):
        manifest = tmp_path / "one.csv"
        src = (dataset / "train" / "manifest.csv").read_text().splitlines()
        manifest.write_text("\n".join(src[:2]) + "\n")
        # trace paths are relative to the manifest; keep them resolvable
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

    @pytest.mark.parametrize("metrics", ["", ",", " , "])
    def test_empty_metric_list_exits_2_before_reading(self, runner, tmp_path, trained, metrics):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("label,x,y,file\np01,0,0,missing.csv\n")
        result = invoke(runner, "compare-metrics", "--db", trained, "--manifest", manifest,
                        "--metrics", metrics, "--out-json", tmp_path / "c.json")
        assert result.exit_code == 2
        assert "--metrics" in result.output and "names no metric" in result.output
        assert not (tmp_path / "c.json").exists()

    def test_trace_too_short_for_a_window_exits_1(self, runner, tmp_path, dataset, trained):
        keep_packets(dataset / "test" / "p02.csv", 39)
        out = tmp_path / "cmp.json"
        result = invoke(runner, "compare-metrics", "--db", trained, "--manifest",
                        dataset / "test" / "manifest.csv", "--window", 100, "--out-json", out)
        assert result.exit_code == 1
        assert "trace 'p02': 39 packets, too few for one 100-packet window" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("fraction", ["nan", "-1", "1e300"])
    def test_bad_threshold_fraction_exits_2_before_reading(self, runner, tmp_path, fraction):
        sessions_dir = tmp_path / "sessions"
        for name in ("session_01", "session_02"):
            for part in ("train", "test"):
                (sessions_dir / name / part).mkdir(parents=True)
                (sessions_dir / name / part / "manifest.csv").write_text(
                    "label,x,y,file\np01,0,0,missing.csv\n")
        out = tmp_path / "c.csv"
        result = invoke(runner, "temporal", "--sessions-dir", sessions_dir,
                        "--threshold-fraction", fraction, "--out-csv", out)
        assert result.exit_code == 2
        assert "threshold fraction" in result.output
        assert "missing.csv" not in result.output
        assert not out.exists()

    def test_too_few_sessions_exits_1(self, runner, tmp_path, dataset):
        # plain dataset dir has no session_* subdirectories
        result = invoke(runner, "temporal", "--sessions-dir", dataset,
                        "--out-csv", tmp_path / "c.csv")
        assert result.exit_code == 1

    def test_one_session_fails_before_reading_traces(self, runner, tmp_path):
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 2)
        shutil.rmtree(out_dir / "session_02")
        (out_dir / "not_a_session").mkdir()  # only session_* directories count
        for trace in (out_dir / "session_01").glob("*/p*.csv"):
            trace.unlink()
        result = invoke(runner, "temporal", "--sessions-dir", out_dir,
                        "--out-csv", tmp_path / "c.csv")
        assert result.exit_code == 1
        assert "temporal evaluation needs at least two sessions" in result.output

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_missing_session_manifest_exits_1_before_reading_traces(self, runner, tmp_path,
                                                                     part):
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 3)
        missing = out_dir / "session_02" / part / "manifest.csv"
        missing.unlink()
        for trace in out_dir.glob("session_*/*/p*.csv"):
            trace.unlink()
        out = tmp_path / "c.csv"
        result = invoke(runner, "temporal", "--sessions-dir", out_dir, "--out-csv", out)
        assert result.exit_code == 1
        assert result.output == f"Error: {missing}: session manifest not found\n"
        assert not out.exists()

    def test_test_trace_too_short_for_a_window_exits_1(self, runner, tmp_path):
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 2)
        keep_packets(out_dir / "session_02" / "test" / "p02.csv", 39)
        out = tmp_path / "c.csv"
        result = invoke(runner, "temporal", "--sessions-dir", out_dir, "--out-csv", out)
        assert result.exit_code == 1
        assert "trace 'p02': 39 packets, too few for one 120-packet window" in result.output
        assert not out.exists()

    def test_opens_only_the_traces_it_evaluates(self, runner, tmp_path):
        # the last session never trains and the first never tests
        out_dir = tmp_path / "sessions"
        invoke(runner, *SYNTH_ARGS, "--out-dir", out_dir, "--sessions", 3, "--drift-sigma", 3.0)
        full, trimmed = tmp_path / "full.csv", tmp_path / "trimmed.csv"
        result = invoke(runner, "temporal", "--sessions-dir", out_dir, "--window", 40,
                        "--out-csv", full)
        assert result.exit_code == 0, result.output
        for unused in (out_dir / "session_01" / "test", out_dir / "session_03" / "train"):
            for trace in unused.glob("p*.csv"):
                trace.unlink()
        result = invoke(runner, "temporal", "--sessions-dir", out_dir, "--window", 40,
                        "--out-csv", trimmed)
        assert result.exit_code == 0, result.output
        assert trimmed.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("command", ["eval", "compare-metrics", "match", "temporal"])
@pytest.mark.parametrize("window", [0, -3])
def test_bad_window_fails_before_any_trace_is_read(runner, tmp_path, monkeypatch, command,
                                                   window):
    out = tmp_path / "sessions"
    assert invoke(runner, *SYNTH_ARGS, "--sessions", 3, "--out-dir", out).exit_code == 0
    session = out / "session_01"
    train = invoke(runner, "train", "--manifest", session / "train" / "manifest.csv",
                   "--out-db", tmp_path / "fp.db")
    assert train.exit_code == 0, train.output
    calls = []
    monkeypatch.setattr(cli, "load_trace", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_db", lambda *args: calls.append(args))
    db, test = ("--db", tmp_path / "fp.db"), ("--manifest", session / "test" / "manifest.csv")
    args = {
        "eval": ("eval", *db, *test, "--out", tmp_path / "r.json"),
        "compare-metrics": ("compare-metrics", *db, *test, "--out-json", tmp_path / "c.json"),
        "match": ("match", *db, "--trace", session / "test" / "p01.csv",
                  "--out-json", tmp_path / "m.json"),
        "temporal": ("temporal", "--sessions-dir", out, "--out-csv", tmp_path / "t.csv"),
    }[command]
    result = invoke(runner, *args, "--window", window)
    assert result.exit_code == 2
    assert "window size must be >= 1" in result.output
    assert calls == []


@pytest.mark.parametrize("command", ["train", "sweep", "eval", "compare-metrics", "match",
                                     "temporal"])
def test_bad_filter_fails_before_any_file_is_read(runner, tmp_path, monkeypatch, command):
    out = tmp_path / "sessions"
    assert invoke(runner, *SYNTH_ARGS, "--sessions", 2, "--out-dir", out).exit_code == 0
    session, db = out / "session_01", tmp_path / "fp.db"
    db.touch()  # exists for --db's check; never read
    flt = tmp_path / "filter.txt"
    flt.write_text("0\nx\n")
    calls = []
    monkeypatch.setattr(cli, "load_trace", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_db", lambda *args: calls.append(args))
    train, test = (session / part / "manifest.csv" for part in ("train", "test"))
    args = {
        "train": ("train", "--manifest", train, "--out-db", db),
        "sweep": ("sweep", "--manifest", train, "--out-csv", tmp_path / "s.csv"),
        "eval": ("eval", "--db", db, "--manifest", test, "--out", tmp_path / "r.json"),
        "compare-metrics": ("compare-metrics", "--db", db, "--manifest", test,
                            "--out-json", tmp_path / "c.json"),
        "match": ("match", "--db", db, "--trace", session / "test" / "p01.csv",
                  "--out-json", tmp_path / "m.json"),
        "temporal": ("temporal", "--sessions-dir", out, "--out-csv", tmp_path / "t.csv"),
    }[command]
    result = invoke(runner, *args, "--filter-file", flt)
    assert result.exit_code == 2
    assert "not an integer index" in result.output
    assert calls == []


@pytest.mark.parametrize("error, code", [(ConfigError("bad flag"), 2),
                                         (DataDomainError("bad data"), 1),
                                         (FileNotFoundError("no file"), 1)])
def test_every_command_maps_errors_to_the_exit_code_contract(runner, error, code):
    @click.command("raise-it")
    def raise_it():
        raise error

    main.add_command(raise_it)
    try:
        result = invoke(runner, "raise-it")
    finally:
        del main.commands["raise-it"]
    assert result.exit_code == code
    assert result.output == f"Error: {error}\n"


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

    def test_comment_and_blank_lines_are_skipped(self, runner, tmp_path, dataset):
        manifest = dataset / "train" / "manifest.csv"
        invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "plain.db")
        header, *rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join(["# positions", "", header, *rows[:1], "  # note",
                                       "   ", *rows[1:]]) + "\n")
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fp.db").read_bytes() == (tmp_path / "plain.db").read_bytes()

    def test_three_field_row(self, runner, tmp_path, dataset):
        manifest = dataset / "train" / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        manifest.write_text("\n".join(lines) + "\n")
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        self.assert_clean_failure(result, "line 3", "expected label,x,y,file")

    def test_non_numeric_coordinate(self, runner, tmp_path, dataset):
        manifest = dataset / "train" / "manifest.csv"
        self.edit_row(manifest, 2, x="east")
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        self.assert_clean_failure(result, "line 3", "bad coordinates, need two finite numbers")

    def test_header_line_after_a_data_row(self, runner, tmp_path, dataset):
        # a label,x,y,file line is a header only before the first data row
        manifest = dataset / "train" / "manifest.csv"
        self.edit_row(manifest, 2, label="label", x="x", y="y", file="file")
        result = invoke(runner, "train", "--manifest", manifest, "--out-db", tmp_path / "fp.db")
        self.assert_clean_failure(result, "line 3: bad coordinates, need two finite numbers")

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


def test_every_output_takes_its_mode_from_the_umask(runner, tmp_path):
    data, db, report = tmp_path / "data", tmp_path / "fp.db", tmp_path / "report.json"
    old = os.umask(0o022)
    try:
        for args in [(*SYNTH_ARGS, "--out-dir", data),
                     ("train", "--manifest", data / "train" / "manifest.csv", "--out-db", db),
                     ("eval", "--db", db, "--manifest", data / "test" / "manifest.csv",
                      "--out", report)]:
            result = invoke(runner, *args)
            assert result.exit_code == 0, result.output
    finally:
        os.umask(old)
    # config.json, two manifests, three traces in each part, the database, the report
    modes = {p.relative_to(tmp_path).as_posix(): oct(p.stat().st_mode & 0o777)
             for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 11 and set(modes.values()) == {"0o644"}, modes


def test_cli_import_leaves_numpy_random_unloaded():
    # only synth draws random numbers; loading numpy.random would slow every CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # nor would the thread pool and logging modules, which the two-thread
    # trace parse does without, or the generator, which only synth uses
    unwanted = ("numpy.random", "concurrent.futures", "logging", "bicsi.synth")
    code = ("import sys, bicsi.cli; "
            f"print(sorted(m for m in sys.modules for p in {unwanted!r} "
            "if m == p or m.startswith(p + '.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
