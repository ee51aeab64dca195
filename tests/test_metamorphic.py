"""Metamorphic relations between whole CLI runs over generated data sets.

Each relation holds exactly by construction, so it needs no oracle:

* I/Q form: an amplitude ``a`` written as the pair ``a,0`` in ``iq-csv``
  reads back as floor(hypot(a, 0)) = a, so ``train`` writes the same
  database bytes and ``eval`` and ``compare-metrics`` the same reports.
* Subcarrier permutation: every measure is a function of the ones in a,
  the ones in b, the ones in a & b and the bit length, so permuting the
  columns of every trace the same way (the filter file mapped with them)
  leaves every report unchanged, though the database bytes differ.

Runs go through click's ``CliRunner`` in process, on small ``synth`` sets.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bicsi.cli import main

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
    for path in root.glob("t*/*.csv"):
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
