"""Child-process side of the benchmark; ``run.py`` starts it with
``PYTHONPATH`` pointing at the checkout's ``src``.

  child.py setup DB               import bicsi and load the DB (live set-up)
  child.py live SPEC OUT          the live loop, untraced, for a time slice
  child.py trace SPEC OUT         a workload's steps in process, alternating
                                  untraced and traced rounds; a round may end
                                  with a probe: every metric over the test
                                  windows, for the layers its steps skip

The traced rounds rebind public ``bicsi`` names where their callers look
them up (``bicsi.cli.load_trace``, ``bicsi.evaluation.match_trace``, ...)
with span recorders, so no program code changes. Spans stay in memory and
are written with the results when the child ends.
"""

import contextlib
import importlib
import json
import os
import sys
import time


def live_pass(pkg, db, blocks, mask, latencies_ns, labels):
    """One window per call through the online layers; returns the pass wall.

    Layer functions are looked up on their modules at call time, so a traced
    run sees its wrappers.
    """
    ingest, encoding = pkg.ingest, pkg.encoding
    fingerprint, matcher = pkg.fingerprint, pkg.matcher
    start = time.perf_counter()
    for block in blocks:
        t0 = time.perf_counter_ns()
        matrix = ingest.AmplitudeMatrix(block, mask)
        results = matcher.match_trace(fingerprint.windows(encoding.encode_matrix(matrix)), db)
        latencies_ns.append(time.perf_counter_ns() - t0)
        labels.append(results[0].predicted_label if len(results) == 1 else None)
    return time.perf_counter() - start


def load_blocks(path):
    import numpy as np

    blocks = np.load(path).astype(np.int64)
    return blocks, tuple(range(blocks.shape[2]))


def labeled_blocks(pkg, probe):
    """Every test window, one per block, as ``LabeledWindows``."""
    blocks, mask = load_blocks(probe["blocks"])
    ingest, encoding, fingerprint = pkg.ingest, pkg.encoding, pkg.fingerprint
    parents = tuple(fingerprint.windows(encoding.encode_matrix(ingest.AmplitudeMatrix(b, mask)))[0]
                    for b in blocks)
    coords = tuple(tuple(c) for c in probe["coords"])
    return pkg.evaluation.LabeledWindows(parents, tuple(probe["labels"]), coords)


def live_main(spec):
    import bicsi

    db = bicsi.fingerprint.load_db(spec["db"])
    blocks, mask = load_blocks(spec["blocks"])
    latencies, labels, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < spec["seconds"]:
        passes.append(live_pass(bicsi, db, blocks, mask, latencies, labels))
    return {"latencies_ns": latencies, "passes_s": passes, "labels": labels}


# --- tracing -----------------------------------------------------------------

class Recorder:
    """Spans as [name, start, end, parent, root, counts]; parent/root are
    indices into ``spans`` (-1 for none)."""

    def __init__(self):
        self.spans = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][4] if self.stack else idx
        record = [name, 0.0, 0.0, parent, root, None]
        self.spans.append(record)
        self.stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield idx
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    self.spans[idx][5] = counter(args, kwargs, result)
                except (TypeError, AttributeError, IndexError, OSError):
                    pass
            return result

        return traced


def _rows_bytes(args, kwargs, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _packets(args, kwargs, result):
    data = getattr(args[0], "data", args[0])
    return {"packets": len(result), "amplitudes": int(data.size)}


def _windows(args, kwargs, result):
    return {"windows": len(result)}


def _match(args, kwargs, result):
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    return {"metric": getattr(kind, "value", "hamming"), "windows": len(result)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8"))}


def _data_bytes(args, kwargs, result):
    return {"bytes": len(args[1])}


# (module, attribute, span name, counter): every place a caller looks the
# layer function up. A name a later version drops is skipped.
PATCHES = [
    ("bicsi.cli", "load_trace", "ingest.load_trace", _rows_bytes),
    ("bicsi.cli", "build_matrix", "ingest.build_matrix", None),
    ("bicsi.ingest", "AmplitudeMatrix", "ingest.AmplitudeMatrix", None),
    ("bicsi.cli", "encode_matrix", "encoding.encode_matrix", _packets),
    ("bicsi.evaluation", "encode_matrix", "encoding.encode_matrix", _packets),
    ("bicsi.encoding", "encode_matrix", "encoding.encode_matrix", _packets),
    ("bicsi.cli", "build_db", "fingerprint.build_db", None),
    ("bicsi.cli", "save_db", "fingerprint.save_db", None),
    ("bicsi.cli", "load_db", "fingerprint.load_db", None),
    ("bicsi.fingerprint", "load_db", "fingerprint.load_db", None),
    ("bicsi.cli", "windows", "fingerprint.windows", _windows),
    ("bicsi.evaluation", "windows", "fingerprint.windows", _windows),
    ("bicsi.fingerprint", "windows", "fingerprint.windows", _windows),
    ("bicsi.cli", "match_trace", "matcher.match_trace", _match),
    ("bicsi.evaluation", "match_trace", "matcher.match_trace", _match),
    ("bicsi.matcher", "match_trace", "matcher.match_trace", _match),
    ("bicsi.cli", "evaluate_windows", "evaluation.evaluate_windows", None),
    ("bicsi.evaluation", "evaluate_windows", "evaluation.evaluate_windows", None),
    ("bicsi.cli", "metric_comparison", "evaluation.metric_comparison", None),
    ("bicsi.cli", "report_to_json", "evaluation.report_to_json", None),
    ("bicsi.cli", "reports_to_json", "evaluation.reports_to_json", None),
    ("bicsi.cli", "format_report_table", "evaluation.format_report_table", None),
    ("bicsi.cli", "format_comparison_table", "evaluation.format_comparison_table", None),
    ("bicsi.cli", "atomic_write_text", "ioutil.atomic_write_text", _text_bytes),
    ("bicsi.fingerprint", "atomic_write_bytes", "ioutil.atomic_write_bytes", _data_bytes),
]


class Patches:
    """Install and remove the span wrappers of :data:`PATCHES`."""

    def __init__(self, recorder):
        self.items = []
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self.items.append((module, attr, original, recorder.wrap(original, name, counter)))
        labeled = getattr(importlib.import_module("bicsi.evaluation"), "LabeledWindows", None)
        method = getattr(labeled, "__dict__", {}).get("from_traces")
        if isinstance(method, classmethod):
            traced = classmethod(recorder.wrap(method.__func__,
                                               "evaluation.LabeledWindows.from_traces", None))
            self.items.append((labeled, "from_traces", method, traced))

    def install(self):
        for owner, attr, _, traced in self.items:
            setattr(owner, attr, traced)

    def remove(self):
        for owner, attr, original, _ in self.items:
            setattr(owner, attr, original)


def trace_main(spec):
    t0 = time.perf_counter()
    import bicsi.cli
    import_s = time.perf_counter() - t0

    recorder = Recorder()
    patches = Patches(recorder)
    live, probe = spec.get("live"), spec.get("probe")
    if live:
        blocks, mask = load_blocks(live["blocks"])
    if probe:
        probe_windows = labeled_blocks(bicsi, probe)

    def run_round(tag, traced):
        span = recorder.span if traced else (lambda name: contextlib.nullcontext())
        steps, labels = [], []

        def step(name, online, fn):
            start = time.perf_counter()
            with span(name) as root:
                fn()
            steps.append({"name": name, "online": online, "root": root,
                          "wall": time.perf_counter() - start})

        for cli_step in spec["steps"]:
            argv = [a.replace("{tag}", tag) for a in cli_step["argv"]]
            step(cli_step["name"], cli_step["online"],
                 lambda argv=argv: bicsi.cli.main(argv, standalone_mode=False))
        if live:
            loaded = {}

            def load():
                loaded["db"] = bicsi.fingerprint.load_db(live["db"])

            step("setup", False, load)
            for _ in range(live["passes"]):
                step("live", True,
                     lambda: live_pass(bicsi, loaded["db"], blocks, mask, [], labels))
        if probe:
            def compare():
                with open(probe["db"], "rb") as fh:
                    db = bicsi.fingerprint.db_from_bytes(fh.read())
                bicsi.evaluation.metric_comparison(db, probe_windows, list(bicsi.MetricKind))

            step("probe", False, compare)
        return {"tag": tag, "traced": traced, "steps": steps, "labels": labels}

    rounds = []
    start, lap = time.perf_counter(), None
    # another untraced/traced pair starts while at least half of one still fits
    while lap is None or time.perf_counter() - start + lap / 2 < spec["seconds"]:
        pair_start = time.perf_counter()
        n = len(rounds) // 2
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                patches.install()
            try:
                rounds.append(run_round(f"r{n}{'t' if traced else 'u'}", traced))
            finally:
                if traced:
                    patches.remove()
        lap = time.perf_counter() - pair_start
    return {"import_s": import_s, "rounds": rounds, "spans": recorder.spans}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import bicsi

        bicsi.fingerprint.load_db(argv[1])
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = live_main(spec) if mode == "live" else trace_main(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
