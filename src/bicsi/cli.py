"""Command line frontend: train, match, eval, sweep, synth, compare-metrics,
temporal.

Every command is a batch operation, deterministic given its flags, input
files and seed. Exit codes: 0 success, 1 runtime/data error, 2 usage or
configuration error. The study harnesses, ``evaluation`` and ``synth``, are
imported inside the commands that call them, so ``train`` and ``match`` load
neither.
"""

import math
from dataclasses import asdict
from pathlib import Path

import click

from .encoding import encode_matrix
from .errors import BicsiError, ConfigError, EmptyInputError, TraceParseError
from .fingerprint import (
    DEFAULT_THRESHOLD_FRACTION,
    DEFAULT_WINDOW_SIZE,
    MICRO_UNITS,
    _too_short,
    build_db,
    check_window_size,
    fraction_to_micro,
    load_db,
    save_db,
    windows,
)
from .ingest import (
    AMPLITUDE_CSV,
    TRACE_FORMATS,
    LabeledTrace,
    SubcarrierFilter,
    build_matrix,
    finite_coord,
    load_filter,
    load_trace,
)
from .ioutil import atomic_write_text, json_text, read_lines
from .matcher import match_trace
from .similarity import MetricKind

METRIC_NAMES = [m.value for m in MetricKind]


def _read_manifest(path: Path, unique_labels: bool = False):
    """Rows of (label, (x, y), trace path); paths resolve relative to the
    manifest's directory. A training manifest passes ``unique_labels``."""
    rows = []
    first_line = {}
    first_data_line = True
    for lineno, line in enumerate(read_lines(path, TraceParseError), 1):
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
            coord = finite_coord((x, y), where)
        except ValueError:
            raise TraceParseError(f"{where}: bad coordinates, need two finite numbers") from None
        rows.append((label, coord, Path(path).parent / filename))
    if not rows:
        raise EmptyInputError(f"{path}: manifest lists no positions")
    return rows


def _load_positions(manifest: Path, fmt: str, flt: SubcarrierFilter):
    """Yield the training rows (label, (x, y), GeneMatrix) of a training
    manifest, as build_db and threshold_sweep take them, a trace at a time."""
    for label, coord, trace_path in _read_manifest(manifest, unique_labels=True):
        yield label, coord, encode_matrix(build_matrix(load_trace(trace_path, fmt), flt))


def _test_windows(manifest: Path, fmt: str, flt: SubcarrierFilter, window: int):
    """The LabeledWindows of a test manifest, read a trace at a time."""
    from .evaluation import LabeledWindows

    return LabeledWindows.from_traces(
        (LabeledTrace(matrix=build_matrix(load_trace(trace_path, fmt), flt),
                      true_label=label, true_coord=coord, path=str(trace_path))
         for label, coord, trace_path in _read_manifest(manifest)), window)


def _parse_fraction_range(text: str):
    """Expand "start:stop:step" (inclusive) or a single fraction literal."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(
            f"bad fraction range {text!r}; expected start:stop:step, e.g. 0:1:0.05"
        ) from None
    # a literal, or the integer micro-unit grid (no float drift), is checked before use
    try:
        micros = [fraction_to_micro(v) for v in values]
    except ConfigError as exc:
        raise ConfigError(f"bad fraction range {text!r}: {exc}") from None
    if len(values) == 1:
        return values
    start, stop, step = micros
    if start > stop or step == 0:
        raise ConfigError(f"bad fraction range {text!r}: need start <= stop, step >= 1e-6")
    grid = range(start, stop + 1, step)
    if len(grid) > MICRO_UNITS + 1:
        raise ConfigError(f"bad fraction range {text!r}: over {MICRO_UNITS + 1} fractions")
    return [m / MICRO_UNITS for m in grid]


def _checked(check):
    """An option callback that runs ``check`` on the value and keeps the
    value, so a bad flag fails while the command line is parsed."""

    def callback(ctx, param, value):
        check(value)
        return value

    return callback


_IN_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
_OUT_FILE = click.Path(dir_okay=False, path_type=Path)

_db_option = click.option("--db", "db_path", type=_IN_FILE, required=True)
_metric_option = click.option(
    "--metric", type=click.Choice(METRIC_NAMES, case_sensitive=False),
    default=MetricKind.HAMMING.value, show_default=True,
)
_train_manifest_option = click.option(
    "--manifest", type=_IN_FILE, required=True, help="Training manifest: label,x,y,file.")
_test_manifest_option = click.option(
    "--manifest", type=_IN_FILE, required=True, help="Test manifest: label,x,y,file.")
_fraction_option = click.option(
    "--threshold-fraction", type=float, default=DEFAULT_THRESHOLD_FRACTION, show_default=True,
    callback=_checked(fraction_to_micro),
    help="Ancestor threshold as a fraction of training size.",
)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(TRACE_FORMATS), default=AMPLITUDE_CSV,
    show_default=True, help="Trace CSV flavor.",
)
_filter_option = click.option(
    "--filter-file", "flt", type=_IN_FILE, default=None,
    callback=lambda ctx, param, path: load_filter(path) if path else SubcarrierFilter(),
    help="Subcarrier exclusion list (one 0-based index per line).",
)
_window_option = click.option(
    "--window", type=int, default=DEFAULT_WINDOW_SIZE, show_default=True,
    callback=_checked(check_window_size), help="Packets per online window.",
)


class _Commands(click.Group):
    """The exit-code contract, around every subcommand and its option
    callbacks: a ConfigError is a usage error (exit 2); any other package
    error, and any OSError, a runtime error (exit 1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            raise click.UsageError(str(exc)) from exc
        except (BicsiError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main():
    """Binary CSI fingerprint encoding and position matching toolkit."""


@main.command()
@_train_manifest_option
@click.option("--out-db", type=_OUT_FILE, required=True)
@_fraction_option
@_filter_option
@_format_option
def train(manifest, out_db, threshold_fraction, flt, fmt):
    """Derive per-position fingerprints and write the database."""
    positions = []
    for label, coord, seqs in _load_positions(manifest, fmt, flt):
        positions.append((label, coord, seqs))
        click.echo(f"{label}: {len(seqs)} training packets")
    db = build_db(positions, threshold_fraction)
    save_db(db, out_db)
    click.echo(f"subcarriers used: {db.subcarrier_count}")
    click.echo(f"threshold fraction: {db.threshold_fraction:g}")
    click.echo(f"wrote {out_db} ({out_db.stat().st_size / 1024:.2f} KB)")


def _result_dict(result) -> dict:
    margin = result.runner_up_margin
    return {**vars(result), "runner_up_margin": margin if math.isfinite(margin) else None}


@main.command()
@_db_option
@click.option("--trace", type=_IN_FILE, required=True)
@_metric_option
@click.option("--out-json", type=_OUT_FILE, required=True)
@_window_option
@_filter_option
@_format_option
def match(db_path, trace, metric, out_json, window, flt, fmt):
    """Match every window of a trace against the fingerprint database."""
    db = load_db(db_path)
    matrix = build_matrix(load_trace(trace, fmt), flt)
    parents = windows(encode_matrix(matrix), window)
    if not parents:
        raise _too_short(str(trace), matrix.packet_count, window)
    results = match_trace(parents, db, MetricKind.parse(metric))
    atomic_write_text(out_json, json_text([_result_dict(r) for r in results]) + "\n")
    click.echo(f"matched {len(results)} windows -> {out_json}")


@main.command("eval")
@_db_option
@_test_manifest_option
@_metric_option
@click.option("--out", "out_path", type=_OUT_FILE, required=True,
              help="Report JSON output path.")
@_window_option
@_filter_option
@_format_option
def eval_cmd(db_path, manifest, metric, out_path, window, flt, fmt):
    """Evaluate labeled test traces and write the aggregate report."""
    from .evaluation import evaluate_windows, format_report_table

    db = load_db(db_path)
    report = evaluate_windows(db, _test_windows(manifest, fmt, flt, window),
                              MetricKind.parse(metric))
    atomic_write_text(out_path, json_text(report.to_json_dict()) + "\n")
    click.echo(format_report_table(report))
    click.echo(f"wrote {out_path}")


@main.command()
@_train_manifest_option
@click.option("--fractions", default="0:1:0.05", show_default=True,
              help="Threshold fractions, start:stop:step.")
@click.option("--out-csv", type=_OUT_FILE, required=True)
@_filter_option
@_format_option
def sweep(manifest, fractions, out_csv, flt, fmt):
    """Sweep the ancestor threshold and report mean fingerprint distances."""
    from .evaluation import sweep_to_csv, threshold_sweep

    grid = _parse_fraction_range(fractions)
    rows = threshold_sweep(_load_positions(manifest, fmt, flt), grid)
    atomic_write_text(out_csv, sweep_to_csv(rows))
    for fraction, mean in rows:
        click.echo(f"tr_fraction {fraction:g}: mean hamming {mean:g}")
    click.echo(f"wrote {out_csv}")


@main.command("compare-metrics")
@_db_option
@_test_manifest_option
@click.option("--metrics", default=",".join(METRIC_NAMES), show_default=True,
              help="Comma-separated metric names.")
@click.option("--out-json", type=_OUT_FILE, required=True)
@_window_option
@_filter_option
@_format_option
def compare_metrics(db_path, manifest, metrics, out_json, window, flt, fmt):
    """Evaluate the same windows under several metrics side by side."""
    from .evaluation import format_comparison_table, metric_comparison

    kinds = [MetricKind.parse(name) for name in metrics.split(",") if name.strip()]
    if not kinds:
        raise ConfigError(f"--metrics {metrics!r} names no metric; "
                          f"valid metrics: {', '.join(METRIC_NAMES)}")
    db = load_db(db_path)
    reports = metric_comparison(db, _test_windows(manifest, fmt, flt, window), kinds)
    atomic_write_text(out_json, json_text([r.to_json_dict() for r in reports]) + "\n")
    click.echo(format_comparison_table(reports))
    click.echo(f"wrote {out_json}")


@main.command()
@click.option("--sessions-dir", type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True, help="Directory of session_*/ dirs with train/ and test/.")
@_fraction_option
@_metric_option
@click.option("--out-csv", type=_OUT_FILE, required=True)
@_window_option
@_filter_option
@_format_option
def temporal(sessions_dir, threshold_fraction, metric, out_csv, window, flt, fmt):
    """Accuracy versus the number of training sessions' ancestor sets."""
    from .evaluation import check_session_positions, temporal_eval, temporal_to_csv

    session_dirs = sorted(d for d in Path(sessions_dir).glob("session_*") if d.is_dir())
    if len(session_dirs) < 2:
        raise EmptyInputError("temporal evaluation needs at least two sessions")
    for manifest in (d / part / "manifest.csv" for d in session_dirs for part in ("train", "test")):
        if not manifest.is_file():
            raise FileNotFoundError(f"{manifest}: session manifest not found")
    dbs, tests = [], []
    for s, d in enumerate(session_dirs, 1):
        train_manifest, test_manifest = d / "train" / "manifest.csv", d / "test" / "manifest.csv"
        # the last session never trains and the first never tests: every
        # manifest is checked, but only the traces in use are opened
        if s < len(session_dirs):
            dbs.append(build_db(_load_positions(train_manifest, fmt, flt), threshold_fraction))
        else:
            rows = _read_manifest(train_manifest, unique_labels=True)
            check_session_positions(s, [(label, coord) for label, coord, _ in rows], dbs[0])
        if s == 1:
            _read_manifest(test_manifest)
        else:
            tests.append(_test_windows(test_manifest, fmt, flt, window))
    curve = temporal_eval(dbs, tests, MetricKind.parse(metric))
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
              help="Generator seed.")
@click.option("--force", is_flag=True, help="Write into a non-empty directory.")
def synth(out_dir, positions, subcarriers, train_packets, test_packets, amplitude_lo,
          amplitude_hi, profile_separation, noise_sigma, burst_rate, burst_magnitude,
          drift_sigma, sessions, seed, force):
    """Generate a seeded synthetic dataset with train/test manifests."""
    from .synth import SynthConfig, check_split, drift_sessions, generate, write_dataset

    if sessions < 1:
        raise ConfigError("--sessions must be >= 1")
    check_split(train_packets, test_packets)
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
        width = max(2, len(str(sessions)))  # names sort in session order
        datasets = {
            f"session_{i + 1:0{width}d}": ds
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
    atomic_write_text(out_dir / "config.json", json_text(sidecar) + "\n")
    click.echo(f"wrote {out_dir}")


if __name__ == "__main__":
    main()
