"""Metamorphic relations between whole CLI runs over generated data sets.

Each relation holds exactly by construction, so it needs no oracle:

* I/Q form: an amplitude ``a`` written as the pair ``a,0`` in ``iq-csv``
  reads back as floor(hypot(a, 0)) = a, so ``train`` writes the same
  database bytes and ``eval`` and ``compare-metrics`` the same reports.
* Subcarrier permutation: every measure is a function of the ones in a,
  the ones in b, the ones in a & b and the bit length, so permuting the
  columns of every trace the same way (the filter file mapped with them)
  leaves every report unchanged, though the database bytes differ.
* Label renaming: renaming the positions one to one, in both manifests,
  renames them in the database and the reports and changes nothing else.
* Short tail: a test trace a whole number of windows long gives the same
  reports with fewer than half a window of packets appended, because a
  tail that short is dropped.
* Training row order: reordering the training manifest reorders the
  database entries, so a window whose best entry is unique matches as
  before, and when every window's is, the report's positions and the
  confusion matrix's rows and columns are permuted the same way. The
  matcher decides entries within 2**-40 of a window's best by exact keys
  and gives an exact tie to the earliest entry, so a window whose runner-up
  margin is at most 2**-40 may change its pick.

Runs go through click's ``CliRunner`` in process, on small ``synth`` sets.
"""

import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicsi.cli import main
from bicsi.fingerprint import load_db

METRICS = ["hamming", "manhattan", "euclidean", "cosine", "pearson", "jaccard"]


@st.composite
def synth_sets(draw):
    """(synth arguments, subcarriers, window) of a small data set: k 4-40,
    2-6 positions, at most 400 packets per position."""
    k = draw(st.integers(4, 40))
    train, test = draw(st.integers(20, 200)), draw(st.integers(20, 200))
    args = ["--positions", draw(st.integers(2, 6)), "--subcarriers", k,
            "--train-packets", train, "--test-packets", test,
            "--profile-separation", draw(st.sampled_from([0.0, 2.0, 8.0])),
            "--noise-sigma", draw(st.sampled_from([0.0, 4.0, 60.0, 200.0])),
            "--burst-rate", draw(st.sampled_from([0.0, 0.3])),
            "--burst-magnitude", draw(st.sampled_from([64.0, 400.0])),
            "--seed", draw(st.integers(0, 2**16))]
    return args, k, draw(st.integers(1, test))


def invoke(*args):
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def outputs(root: Path, window: int, metric: str, *options) -> dict:
    """Database bytes and report bytes of train, eval and compare-metrics
    run on the data set at ``root``, each given ``options``."""
    db = root / "train.db"
    invoke("train", "--manifest", root / "train" / "manifest.csv", "--out-db", db, *options)
    test = ("--manifest", root / "test" / "manifest.csv", "--window", window, *options)
    invoke("eval", "--db", db, "--metric", metric, "--out", root / "eval.json", *test)
    invoke("compare-metrics", "--db", db, "--out-json", root / "compare.json", *test)
    return {name: (root / name).read_bytes() for name in ("train.db", "eval.json",
                                                          "compare.json")}


def rewrite_traces(root: Path, transform) -> None:
    """Replace every trace CSV under ``root`` by ``transform`` of its
    (packets, subcarriers) amplitudes, one text row per packet."""
    for path in root.glob("**/*.csv"):
        if path.name == "manifest.csv":
            continue
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        data = np.array([[int(v) for v in row.split(",")] for row in rows], dtype=np.int64)
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in transform(data)))


def synth_into(root: Path, args) -> Path:
    invoke("synth", "--out-dir", root / "a", *args)
    return root / "a"


@given(synth_sets(), st.sampled_from(METRICS))
@settings(max_examples=20, deadline=None)
def test_iq_form_gives_the_same_outputs(case, metric):
    args, _, window = case
    with tempfile.TemporaryDirectory() as tmp:
        original = synth_into(Path(tmp), args)
        iq = shutil.copytree(original, Path(tmp) / "iq")
        rewrite_traces(iq, lambda data: np.stack([data, np.zeros_like(data)], axis=2)
                       .reshape(len(data), -1))
        assert (outputs(iq, window, metric, "--format", "iq-csv")
                == outputs(original, window, metric))


@given(synth_sets(), st.sampled_from(METRICS), st.data())
@settings(max_examples=20, deadline=None)
def test_subcarrier_permutation_leaves_reports_unchanged(case, metric, data):
    args, k, window = case
    # column j of the permuted traces is column order[j] of the original
    order = np.array(data.draw(st.permutations(range(k))))
    excluded = data.draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    with tempfile.TemporaryDirectory() as tmp:
        original = synth_into(Path(tmp), args)
        permuted = shutil.copytree(original, Path(tmp) / "permuted")
        rewrite_traces(permuted, lambda amplitudes: amplitudes[:, order])
        (original / "filter.txt").write_text("".join(f"{i}\n" for i in excluded))
        where = np.argsort(order)  # original column i sits at where[i]
        (permuted / "filter.txt").write_text("".join(f"{where[i]}\n" for i in excluded))
        before = outputs(original, window, metric, "--filter-file", original / "filter.txt")
        after = outputs(permuted, window, metric, "--filter-file", permuted / "filter.txt")
        del before["train.db"], after["train.db"]  # its columns are permuted
        assert before == after


# manifest labels: no comma, no '#', no space or control character
labels = st.text(st.characters(codec="utf-8", exclude_categories=("C", "Z"),
                               exclude_characters=",#"), min_size=1, max_size=6)


def renamed_report(report: dict, names: dict) -> dict:
    return {**report, "per_position": [{**p, "label": names[p["label"]]}
                                       for p in report["per_position"]]}


@given(synth_sets(), st.sampled_from(METRICS), st.data())
@settings(max_examples=20, deadline=None)
def test_label_renaming_renames_only_the_labels(case, metric, data):
    args, _, window = case
    count = args[args.index("--positions") + 1]
    names = dict(zip([f"p{i + 1:02d}" for i in range(count)],
                     data.draw(st.lists(labels, min_size=count, max_size=count, unique=True))))
    with tempfile.TemporaryDirectory() as tmp:
        original = synth_into(Path(tmp), args)
        renamed = shutil.copytree(original, Path(tmp) / "renamed")
        for manifest in renamed.glob("t*/manifest.csv"):
            header, *rows = manifest.read_text(encoding="utf-8").splitlines()
            rows = [names[label] + "," + rest for label, rest in (r.split(",", 1) for r in rows)]
            manifest.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        before, after = outputs(original, window, metric), outputs(renamed, window, metric)
        db = load_db(original / "train.db")
        assert load_db(renamed / "train.db") == replace(db, labels=tuple(map(names.get,
                                                                              db.labels)))
        assert json.loads(after["eval.json"]) == renamed_report(json.loads(before["eval.json"]),
                                                                 names)
        assert json.loads(after["compare.json"]) == [
            renamed_report(report, names) for report in json.loads(before["compare.json"])]


@given(synth_sets(), st.sampled_from(METRICS), st.data())
@settings(max_examples=20, deadline=None)
def test_short_tail_changes_nothing(case, metric, data):
    args, _, window = case
    assume(window >= 3)  # a window of 3 or more has room for 1..(w-1)//2 tail packets
    extra = data.draw(st.integers(1, (window - 1) // 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        whole = synth_into(Path(tmp), args)
        rewrite_traces(whole / "test", lambda amplitudes:
                       amplitudes[: len(amplitudes) // window * window])
        tailed = shutil.copytree(whole, Path(tmp) / "tailed")
        # the tail may hold any amplitudes, those past the encoder cutoff too
        rewrite_traces(tailed / "test", lambda amplitudes: np.vstack(
            [amplitudes, rng.integers(0, 4096, (extra, amplitudes.shape[1]))]))
        assert outputs(tailed, window, metric) == outputs(whole, window, metric)


def matches(root: Path, db: Path, window: int, metric: str) -> list:
    """The ``match`` rows of every test trace under ``root``, trace by trace."""
    rows = []
    for trace in sorted((root / "test").glob("p*.csv")):
        invoke("match", "--db", db, "--trace", trace, "--metric", metric, "--window", window,
               "--out-json", root / "match.json")
        rows += json.loads((root / "match.json").read_text())
    return rows


def reordered_report(report: dict, order) -> dict:
    """``report`` with its entry ``i`` moved to where ``order.index(i)`` is."""
    return {**report, "per_position": [report["per_position"][i] for i in order],
            "confusion": [[report["confusion"][i][j] for j in order] for i in order]}


# the matcher's exact band: entries this close to a window's best loss are
# ranked by exact keys, and an exact tie goes to the earliest entry
TIE_BAND = 2.0**-40


def check_training_row_order(args, window: int, metric: str, order) -> tuple:
    """Check the training-row-order relation on the data set ``synth``
    makes of ``args``, training order ``order``; return the ``match`` rows
    before and after the reordering."""
    with tempfile.TemporaryDirectory() as tmp:
        original = synth_into(Path(tmp), args)
        reordered = shutil.copytree(original, Path(tmp) / "reordered")
        manifest = reordered / "train" / "manifest.csv"
        header, *rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
        reports = []
        for root in (original, reordered):
            invoke("train", "--manifest", root / "train" / "manifest.csv",
                   "--out-db", root / "train.db")
            invoke("eval", "--db", root / "train.db", "--manifest", root / "test" / "manifest.csv",
                   "--window", window, "--metric", metric, "--out", root / "eval.json")
            reports.append(json.loads((root / "eval.json").read_text()))
        before = matches(original, original / "train.db", window, metric)
        after = matches(reordered, reordered / "train.db", window, metric)
        unique = [b["runner_up_margin"] > TIE_BAND for b in before]
        assert [a for a, u in zip(after, unique) if u] == [b for b, u in zip(before, unique) if u]
        if all(unique):
            assert reports[1] == reordered_report(reports[0], order)
    return before, after


@given(synth_sets(), st.sampled_from(METRICS), st.data())
@settings(max_examples=20, deadline=None)
def test_training_row_order_permutes_the_confusion_matrix(case, metric, data):
    args, _, window = case
    count = args[args.index("--positions") + 1]
    check_training_row_order(args, window, metric, data.draw(st.permutations(range(count))))


def test_training_row_order_moves_an_exact_tie_inside_the_band():
    # in window 9 of p02's test trace the best rows of p02 and p03 have the
    # same exact Pearson key, 1/6, but float distances 5.55e-17 apart
    args = ["--positions", 3, "--subcarriers", 5, "--train-packets", 138,
            "--test-packets", 20, "--profile-separation", 0.0, "--noise-sigma", 60.0,
            "--burst-rate", 0.0, "--burst-magnitude", 64.0, "--seed", 124]
    before, after = check_training_row_order(args, 1, "pearson", [0, 2, 1])
    tie = before[20 + 9]  # p01's 20 windows come first
    assert 0 < tie["runner_up_margin"] <= TIE_BAND
    assert (tie["predicted_label"], after[20 + 9]["predicted_label"]) == ("p02", "p03")
