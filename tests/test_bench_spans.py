"""The traced benchmark sees every layer.

``benchmarks/child.py`` times a layer by rebinding the name its caller looks
up (``bicsi.cli.build_db``, ``bicsi.evaluation.match_trace``, ...) and skips
a name that no longer exists without a word, so a call moved off a patched
name would read 0 in its layer. Here the child's own patches run the CLI
steps and one live pass in process, and every step must give a span for
each layer it goes through."""

import importlib.util
from pathlib import Path

import numpy as np

import bicsi
from bicsi.cli import main
from bicsi.ingest import load_trace

CHILD = Path(__file__).resolve().parent.parent / "benchmarks" / "child.py"
METRICS = ("hamming", "manhattan", "euclidean", "cosine", "pearson", "jaccard")
INGEST = {"ingest.load_trace", "ingest.build_matrix", "encoding.encode_matrix"}
ONLINE = {"fingerprint.load_db", "fingerprint.windows", "matcher.match_trace",
          "evaluation.evaluate_windows"}


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_gives_a_span(tmp_path):
    child = load_child()
    data, db = tmp_path / "data", tmp_path / "fp.db"
    test_manifest = str(data / "test" / "manifest.csv")
    main(["synth", "--out-dir", str(data), "--positions", "3", "--subcarriers", "8",
          "--train-packets", "120", "--test-packets", "240"], standalone_mode=False)
    block = load_trace(data / "test" / "p01.csv")[:120].astype(np.int64)
    steps = {
        "train": ["train", "--manifest", str(data / "train" / "manifest.csv"),
                  "--out-db", str(db)],
        "eval": ["eval", "--db", str(db), "--manifest", test_manifest,
                 "--out", str(tmp_path / "report.json")],
        "compare-metrics": ["compare-metrics", "--db", str(db), "--manifest", test_manifest,
                            "--out-json", str(tmp_path / "reports.json")],
    }
    recorder = child.Recorder()
    patches = child.Patches(recorder)
    seen = {}
    patches.install()
    try:
        for name, argv in steps.items():
            first = len(recorder.spans)
            main(argv, standalone_mode=False)
            seen[name] = recorder.spans[first:]
        first = len(recorder.spans)
        child.live_pass(bicsi, bicsi.fingerprint.load_db(db), block[None],
                        tuple(range(block.shape[1])), [], [])
        seen["live"] = recorder.spans[first:]
    finally:
        patches.remove()

    names = {step: {span[0] for span in spans} for step, spans in seen.items()}
    assert INGEST | {"fingerprint.build_db", "fingerprint.save_db"} <= names["train"]
    assert INGEST | ONLINE <= names["eval"]
    assert INGEST | ONLINE <= names["compare-metrics"]
    assert {"ingest.AmplitudeMatrix", "encoding.encode_matrix", "fingerprint.load_db",
            "fingerprint.windows", "matcher.match_trace"} <= names["live"]
    compared = [span[5]["metric"] for span in seen["compare-metrics"]
                if span[0] == "matcher.match_trace"]
    assert compared == list(METRICS)
    assert main is bicsi.cli.main and bicsi.cli.build_db is bicsi.fingerprint.build_db
