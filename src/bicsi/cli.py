"""Command line frontend: train, match, eval, sweep, synth, compare-metrics,
temporal.

Every command is a batch operation, deterministic given its flags, input
files and seed. Exit codes: 0 success, 1 runtime/data error, 2 usage or
configuration error. The environment variable BICSI_SEED, when set,
overrides --seed.
"""

import functools
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import click

from .encoding import encode_matrix
from .errors import BicsiError, ConfigError, EmptyInputError, TraceParseError
from .evaluation import (
    LabeledTrace,
    LabeledWindows,
    Session,
    TrainingSet,
    evaluate_windows,
    format_comparison_table,
    format_report_table,
    metric_comparison,
    report_to_json,
    reports_to_json,
    sweep_to_csv,
    temporal_eval,
    temporal_to_csv,
    threshold_sweep,
)
from .fingerprint import (
    DEFAULT_THRESHOLD_FRACTION,
    DEFAULT_WINDOW_SIZE,
    build_db,
    load_db,
    save_db,
    windows,
)
from .ingest import (
    AMPLITUDE_CSV,
    TRACE_FORMATS,
    SubcarrierFilter,
    build_matrix,
    load_filter,
    load_trace,
)
from .ioutil import atomic_write_text
from .matcher import match_trace
from .similarity import MetricKind
from .synth import SynthConfig, drift_sessions, generate, write_dataset

METRIC_NAMES = [m.value for m in MetricKind]


def _friendly(fn):
    """Map package errors onto the CLI exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            raise click.UsageError(str(exc)) from exc
        except BicsiError as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _resolve_seed(seed: int) -> int:
    raw = os.environ.get("BICSI_SEED")
    if raw is None:
        return seed
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"BICSI_SEED must be an integer, got {raw!r}") from None


def _read_manifest(path: Path, unique_labels: bool = False):
    """Rows of (label, (x, y), trace path); paths resolve relative to the
    manifest's directory. A training manifest passes ``unique_labels``."""
    rows = []
    first_line = {}
    first_data_line = True
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if first_data_line and stripped.lower().replace(" ", "") == "label,x,y,file":
                first_data_line = False
                continue
            first_data_line = False
            parts = [p.strip() for p in stripped.split(",")]
            if len(parts) != 4:
                raise TraceParseError(f"{path}: line {lineno}: expected label,x,y,file")
            label, x, y, filename = parts
            where = f"{path}: line {lineno}"
            if not label:
                raise TraceParseError(f"{where}: empty label")
            if unique_labels and label in first_line:
                raise TraceParseError(f"{where}: label {label!r} repeats line {first_line[label]}")
            first_line.setdefault(label, lineno)
            try:
                coord = (float(x), float(y))
                if not all(map(math.isfinite, coord)):
                    raise ValueError
            except ValueError:
                raise TraceParseError(f"{where}: bad coordinates, need two finite numbers") from None
            rows.append((label, coord, Path(path).parent / filename))
    if not rows:
        raise EmptyInputError(f"{path}: manifest lists no positions")
    return rows


def _load_labeled_traces(manifest: Path, fmt: str, flt: SubcarrierFilter):
    traces = []
    for label, coord, trace_path in _read_manifest(manifest):
        matrix = build_matrix(load_trace(trace_path, fmt), flt, position_label=label)
        traces.append(LabeledTrace(matrix=matrix, true_label=label, true_coord=coord))
    return traces


def _parse_fraction_range(text: str):
    """Expand "start:stop:step" (inclusive) or a single fraction literal."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"bad fraction range {text!r}; expected start:stop:step, e.g. 0:1:0.05"
        ) from None
    if not (0 <= start <= stop < math.inf and 0 < step < math.inf):  # false for any NaN
        raise ConfigError(f"bad fraction range {text!r}: need finite 0 <= start <= stop, step > 0")
    # integer micro-unit grid avoids float accumulation drift
    m_start, m_stop, m_step = (round(v * 1_000_000) for v in (start, stop, step))
    if m_step == 0:
        raise ConfigError(f"bad fraction range {text!r}: step rounds to 0 at 1e-6 resolution")
    return [m / 1_000_000 for m in range(m_start, m_stop + 1, m_step)]


_format_option = click.option(
    "--format", "fmt", type=click.Choice(TRACE_FORMATS), default=AMPLITUDE_CSV,
    show_default=True, help="Trace CSV flavor.",
)
_filter_option = click.option(
    "--filter-file", type=click.Path(exists=True, dir_okay=False, path_type=Path),
    default=None, help="Subcarrier exclusion list (one 0-based index per line).",
)
_window_option = click.option(
    "--window", type=int, default=DEFAULT_WINDOW_SIZE, show_default=True,
    help="Packets per online window.",
)


def _filter_from(path: Path | None) -> SubcarrierFilter:
    return load_filter(path) if path else SubcarrierFilter.empty()


@click.group()
def main():
    """Binary CSI fingerprint encoding and position matching toolkit."""


@main.command()
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True, help="Training manifest: label,x,y,file.")
@click.option("--out-db", type=click.Path(dir_okay=False, path_type=Path), required=True)
@click.option("--threshold-fraction", type=float, default=DEFAULT_THRESHOLD_FRACTION,
              show_default=True, help="Ancestor threshold as a fraction of training size.")
@_filter_option
@_format_option
@_friendly
def train(manifest, out_db, threshold_fraction, filter_file, fmt):
    """Derive per-position fingerprints and write the database."""
    flt = _filter_from(filter_file)
    positions = []
    for label, coord, trace_path in _read_manifest(manifest, unique_labels=True):
        matrix = build_matrix(load_trace(trace_path, fmt), flt, position_label=label)
        seqs = encode_matrix(matrix)
        positions.append((label, coord, seqs))
        click.echo(f"{label}: {len(seqs)} training packets")
    db = build_db(positions, threshold_fraction)
    save_db(db, out_db)
    click.echo(f"subcarriers used: {db.subcarrier_count}")
    click.echo(f"threshold fraction: {db.threshold_fraction:g}")
    click.echo(f"wrote {out_db} ({out_db.stat().st_size / 1024:.2f} KB)")


def _result_dict(result) -> dict:
    margin = result.runner_up_margin
    return {
        "window_index": result.window_index,
        "predicted_label": result.predicted_label,
        "predicted_coord": list(result.predicted_coord),
        "best_distance": result.best_distance,
        "runner_up_margin": margin if math.isfinite(margin) else None,
    }


@main.command()
@click.option("--db", "db_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--trace", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--metric", type=click.Choice(METRIC_NAMES, case_sensitive=False),
              default=MetricKind.HAMMING.value, show_default=True)
@click.option("--out-json", type=click.Path(dir_okay=False, path_type=Path), required=True)
@_window_option
@_filter_option
@_format_option
@_friendly
def match(db_path, trace, metric, out_json, window, filter_file, fmt):
    """Match every window of a trace against the fingerprint database."""
    db = load_db(db_path)
    matrix = build_matrix(load_trace(trace, fmt), _filter_from(filter_file))
    parents = windows(encode_matrix(matrix), window)
    if not parents:
        raise EmptyInputError(
            f"{trace}: {matrix.packet_count} packets, too few for one {window}-packet window "
            f"(a window needs at least half its size)"
        )
    results = match_trace(parents, db, MetricKind.parse(metric))
    atomic_write_text(out_json, json.dumps([_result_dict(r) for r in results], indent=2) + "\n")
    click.echo(f"matched {len(results)} windows -> {out_json}")


@main.command("eval")
@click.option("--db", "db_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True, help="Test manifest: label,x,y,file.")
@click.option("--metric", type=click.Choice(METRIC_NAMES, case_sensitive=False),
              default=MetricKind.HAMMING.value, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              required=True, help="Report JSON output path.")
@_window_option
@_filter_option
@_format_option
@_friendly
def eval_cmd(db_path, manifest, metric, out_path, window, filter_file, fmt):
    """Evaluate labeled test traces and write the aggregate report."""
    db = load_db(db_path)
    traces = _load_labeled_traces(manifest, fmt, _filter_from(filter_file))
    labeled = LabeledWindows.from_traces(traces, window)
    report = evaluate_windows(db, labeled, MetricKind.parse(metric))
    atomic_write_text(out_path, report_to_json(report) + "\n")
    click.echo(format_report_table(report))
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True, help="Training manifest: label,x,y,file.")
@click.option("--fractions", default="0:1:0.05", show_default=True,
              help="Threshold fractions, start:stop:step.")
@click.option("--out-csv", type=click.Path(dir_okay=False, path_type=Path), required=True)
@_filter_option
@_format_option
@_friendly
def sweep(manifest, fractions, out_csv, filter_file, fmt):
    """Sweep the ancestor threshold and report mean fingerprint distances."""
    grid = _parse_fraction_range(fractions)
    flt = _filter_from(filter_file)
    training_sets = []
    for label, _, trace_path in _read_manifest(manifest, unique_labels=True):
        matrix = build_matrix(load_trace(trace_path, fmt), flt, position_label=label)
        training_sets.append(encode_matrix(matrix))
    rows = threshold_sweep(training_sets, grid)
    atomic_write_text(out_csv, sweep_to_csv(rows))
    for fraction, mean in rows:
        click.echo(f"tr_fraction {fraction:g}: mean hamming {mean:g}")
    click.echo(f"wrote {out_csv}")


@main.command("compare-metrics")
@click.option("--db", "db_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True, help="Test manifest: label,x,y,file.")
@click.option("--metrics", default=",".join(METRIC_NAMES), show_default=True,
              help="Comma-separated metric names.")
@click.option("--out-json", type=click.Path(dir_okay=False, path_type=Path), required=True)
@_window_option
@_filter_option
@_format_option
@_friendly
def compare_metrics(db_path, manifest, metrics, out_json, window, filter_file, fmt):
    """Evaluate the same windows under several metrics side by side."""
    kinds = [MetricKind.parse(name) for name in metrics.split(",") if name.strip()]
    db = load_db(db_path)
    traces = _load_labeled_traces(manifest, fmt, _filter_from(filter_file))
    labeled = LabeledWindows.from_traces(traces, window)
    reports = metric_comparison(db, labeled, kinds)
    atomic_write_text(out_json, reports_to_json(reports) + "\n")
    click.echo(format_comparison_table(reports))
    click.echo(f"wrote {out_json}")


@main.command()
@click.option("--sessions-dir", type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True, help="Directory of session_*/ dirs with train/ and test/.")
@click.option("--threshold-fraction", type=float, default=DEFAULT_THRESHOLD_FRACTION,
              show_default=True)
@click.option("--metric", type=click.Choice(METRIC_NAMES, case_sensitive=False),
              default=MetricKind.HAMMING.value, show_default=True)
@click.option("--out-csv", type=click.Path(dir_okay=False, path_type=Path), required=True)
@_window_option
@_filter_option
@_format_option
@_friendly
def temporal(sessions_dir, threshold_fraction, metric, out_csv, window, filter_file, fmt):
    """Accuracy versus the number of training sessions' ancestor sets."""
    flt = _filter_from(filter_file)
    session_dirs = sorted(
        d for d in Path(sessions_dir).iterdir()
        if d.is_dir() and (d / "train" / "manifest.csv").is_file()
    )
    sessions = []
    for d in session_dirs:
        training = []
        train_rows = _read_manifest(d / "train" / "manifest.csv", unique_labels=True)
        for label, coord, trace_path in train_rows:
            matrix = build_matrix(load_trace(trace_path, fmt), flt, position_label=label)
            training.append(TrainingSet(label=label, coord=coord,
                                        sequences=encode_matrix(matrix)))
        test_traces = _load_labeled_traces(d / "test" / "manifest.csv", fmt, flt)
        sessions.append(Session(training=tuple(training),
                                test=LabeledWindows.from_traces(test_traces, window)))
    curve = temporal_eval(sessions, threshold_fraction, MetricKind.parse(metric))
    atomic_write_text(out_csv, temporal_to_csv(curve))
    for m, acc in curve:
        click.echo(f"sets_used {m}: accuracy {acc:g}")
    click.echo(f"wrote {out_csv}")


@main.command()
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path), required=True)
@click.option("--positions", type=int, default=6, show_default=True)
@click.option("--subcarriers", type=int, default=230, show_default=True)
@click.option("--train-packets", type=int, default=1200, show_default=True)
@click.option("--test-packets", type=int, default=2400, show_default=True)
@click.option("--amplitude-lo", type=int, default=40, show_default=True)
@click.option("--amplitude-hi", type=int, default=1000, show_default=True)
@click.option("--profile-separation", type=float, default=32.0, show_default=True)
@click.option("--noise-sigma", type=float, default=4.0, show_default=True)
@click.option("--burst-rate", type=float, default=0.05, show_default=True)
@click.option("--burst-magnitude", type=float, default=64.0, show_default=True)
@click.option("--drift-sigma", type=float, default=0.0, show_default=True)
@click.option("--sessions", type=int, default=1, show_default=True,
              help="Emit this many per-session directories (drifting profiles).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Generator seed; BICSI_SEED overrides when set.")
@click.option("--force", is_flag=True, help="Write into a non-empty directory.")
@_friendly
def synth(out_dir, positions, subcarriers, train_packets, test_packets, amplitude_lo,
          amplitude_hi, profile_separation, noise_sigma, burst_rate, burst_magnitude,
          drift_sigma, sessions, seed, force):
    """Generate a seeded synthetic dataset with train/test manifests."""
    seed = _resolve_seed(seed)
    if sessions < 1:
        raise ConfigError("--sessions must be >= 1")
    cfg = SynthConfig(
        positions=positions,
        subcarriers=subcarriers,
        packets_per_position=train_packets + test_packets,
        base_amplitude_range=(amplitude_lo, amplitude_hi),
        profile_separation=profile_separation,
        noise_sigma=noise_sigma,
        burst_rate=burst_rate,
        burst_magnitude=burst_magnitude,
        drift_sigma=drift_sigma,
        seed=seed,
    )
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise ConfigError(f"{out_dir} is not empty; pass --force to write anyway")
    out_dir.mkdir(parents=True, exist_ok=True)

    if sessions == 1:
        datasets = {None: generate(cfg)}
    else:
        datasets = {
            f"session_{i + 1:02d}": ds
            for i, ds in enumerate(drift_sessions(cfg, sessions))
        }
    for name, dataset in datasets.items():
        target = out_dir if name is None else out_dir / name
        write_dataset(dataset, target, train_packets, test_packets)
        click.echo(
            f"{name or 'dataset'}: {cfg.positions} positions x "
            f"{train_packets}+{test_packets} packets, "
            f"overflow fraction {dataset.overflow_fraction:.4f}"
        )
    sidecar = {
        "config": asdict(cfg),
        "train_packets": train_packets,
        "test_packets": test_packets,
        "sessions": sessions,
    }
    atomic_write_text(out_dir / "config.json", json.dumps(sidecar, indent=2) + "\n")
    click.echo(f"wrote {out_dir}")


if __name__ == "__main__":
    main()
