"""The bicsi benchmark: three workloads, end-to-end metrics, a traced run.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file. The
package is imported from the checkout's ``src`` (nothing is installed);
scratch files go to ``.bench_work/`` in the checkout. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` window decisions, and ``metrics``. A run stamp (commit, source
digest, CPUs, versions, seed, input digest, sample counts) is printed on
the line before it and written with every sample to ``.bench_work/results``.

Workloads. Each is one caller in a closed loop (every step waits for the
previous one; no threads). Inputs come from ``inputs.py`` and the seed.

* ``desk``: the README session (6 positions, k = 230, 1200 train / 2400
  test packets). Repeats CLI ``train`` then ``eval --metric hamming`` as
  subprocesses. Ingest and encoding dominate; the matcher barely runs, so
  a matcher change should move nothing here.
* ``survey``: 80 positions, k = 64, 240 train / 120 test packets.
  Repeats CLI ``train`` then ``compare-metrics`` over all six metrics:
  12.8k comparisons per metric make the matcher the largest layer of the
  online step (about half its self time, ingest about a third), and
  ingest pays per-file cost over 160 small traces. The shape is kept
  small so each step takes about 1 s and a 30-s run holds about twelve
  samples of each: on a shared VM the four samples a run holds of a 2-5 s
  step do not give a steady value.
* ``live``: the desk DB, trained by CLI ``train``; then a child process
  passes 120-packet blocks already in memory one window per call through
  ``AmplitudeMatrix`` -> ``encode_matrix`` -> ``windows`` ->
  ``match_trace``. Per-call fixed costs show here, so a batching change
  that helps ``survey`` but costs per call cannot hide.

End-to-end metrics (``--trace 0``; tracing off). Every timing is sampled
many times in a run, interleaved: set-up, ``train`` and the online step
once per iteration, live latencies per child.

* ``setup_s``: median of the set-up probes. CLI workloads: a no-op CLI
  call (interpreter start and ``import bicsi.cli``). ``live``:
  interpreter start, ``import bicsi`` and ``load_db``.
* ``train_s``: wall time of the ``train`` step.
* ``online_s``: wall time of the online step (``eval``,
  ``compare-metrics``, or one live pass over every test window).
* ``windows_per_s``: window decisions per second of online time
  (windows x metrics for ``compare-metrics``), per step (live: per pass).
* ``window_p50_ms`` / ``window_p99_ms``: time from a window's arrival to
  its decision, the percentile taken within each online step (live: each
  child, thousands of windows). Live windows arrive one at a time; a
  batch step receives all its windows at its start and decides them all
  when it exits, so there every window waits the step's wall time.
* ``peak_rss_mb``: the largest peak RSS of any one child (``os.wait4``).

Except ``setup_s`` and the live ``window_p99_ms``, each timing reports
the run's slow state: the 90th percentile of its samples (the 10th for
``windows_per_s``). On small shared VMs the CPU alternates between a
fast and a slow speed state within seconds (live windows take about 0.5
or 0.9 ms on a 2-vCPU Xeon VM) and the share of fast time drifts over
minutes, from under a tenth to over three quarters of a run. The 90th
percentile stays in the slow state while at least a tenth of the run is
spent there, where the median or the upper quartile flip with that
share. The live p99 barely moves with that state (about 1.0 against
1.2 ms) but jumps to 1.5-4 ms in the children a burst of contention
hits, and the number of such children per run varies from none to over
half; so it takes the lower quartile over children, the p99 of a child
the bursts spared. A slower window that the program itself causes shows
in every child and so still moves it. A batch step's p99 is its wall
time, like its p50.

A decision fails when it disagrees with the reference (``reference.py``)
or comes from a step that exited nonzero. The failed share is ``failed``
over ``attempted`` in the result line rather than a metric: it is 0 on a
correct program, and a relative bound on 0 means nothing.

Per-layer metrics (``--trace 1``): one child alternates untraced and
traced rounds of the same steps in process (``child.py``). A round is one
``train`` and one online step (``live``: ``train``, ``load_db`` and
``LIVE_TRACE_PASSES`` passes). Times are medians over traced rounds of the
round's total; a function's ``_s`` is inclusive, ``<layer>.online_share``
is the layer's self time (span minus child spans) as a share of the
traced online steps' wall time, which is ``trace.online_s`` per step.
``trace.overhead_s`` is the median, over untraced/traced pairs of rounds,
of the traced round's wall time minus the untraced one's. Where the steps run fewer than the six metrics (desk, live), each
round ends with a probe outside the steps: ``metric_comparison`` over every
test window under all six, which times the metrics the steps skip (and,
on live, ``evaluate_windows``); the probe counts toward nothing else. ``matcher.comparisons``, ``matcher.margin0_windows``,
``fingerprint.tail_packets_dropped`` and ``encoding.overflow_amplitudes``
are derived from the inputs and the reference, per round.

Which layer should move which end-to-end metric:

* ingest: ``train_s``/``online_s`` and ``peak_rss_mb`` on desk,
  ``train_s`` on survey; nothing on live.
* encoding: ``window_p50_ms`` and ``windows_per_s`` on live; desk
  ``online_s`` by a few %.
* fingerprint: ``windows_s`` moves live p50, ``build_db_s`` survey
  ``train_s``, ``load_db_s`` live ``setup_s``.
* matcher (with similarity): ``online_s``/``windows_per_s`` on survey,
  ``window_p99_ms`` on live; no change on desk.
* evaluation, ioutil: ``online_s``. cli: ``setup_s`` and every CLI step.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

LIVE_SLICE_FRACTION = 0.05  # each live child runs this share of --seconds
LIVE_TRACE_PASSES = 10
LAYERS = ("ingest", "encoding", "fingerprint", "matcher", "evaluation", "ioutil", "cli")


@dataclass(frozen=True)
class Workload:
    shape: str
    online: tuple  # CLI online subcommand, its flags, then its output flag; empty for live
    metrics: tuple


WORKLOADS = {
    "desk": Workload("desk", ("eval", "--metric", "hamming", "--out"), ("hamming",)),
    "survey": Workload("survey", ("compare-metrics", "--out-json"), reference.METRICS),
    "live": Workload("desk", (), ("hamming",)),
}


@dataclass
class Step:
    wall: float
    code: int
    rss_mb: float


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("BICSI_SEED", "PYTHONPATH")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


ENV = child_env()


def run_child(argv, log: Path) -> Step:
    """Run one child to completion; its own peak RSS comes from wait4
    (RUSAGE_CHILDREN would be a running maximum over all children)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=ENV, cwd=WORK)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(wall, proc.returncode, usage.ru_maxrss / 1024)


def cli(*args):
    return [sys.executable, "-m", "bicsi", *map(str, args)]


def child(*args):
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


class Run:
    """One workload at one seed: inputs, reference and the step commands."""

    def __init__(self, name, seed):
        self.workload = WORKLOADS[name]
        self.data = inputs.prepare(self.workload.shape, seed, WORK)
        d = self.data
        self.ref = reference.Reference(d.labels, d.coords, d.train, d.test)
        self.out = WORK / "run" / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.db = self.out / "fp.db"
        self.train_argv = ["train", "--manifest", d.train_manifest, "--out-db", self.db]
        self.online_argv = (
            [self.workload.online[0], "--db", self.db, "--manifest", d.test_manifest,
             *self.workload.online[1:]]
            if self.workload.online else None
        )
        offsets = np.cumsum([0] + [len(reference.window_bounds(len(t))) for t in d.test])
        self.live_order = [int(offsets[p]) + lo // reference.WINDOW
                           for p, lo in inputs.live_block_order(d.shape)]
        self.decisions = len(self.ref.windows) * len(self.workload.metrics)

    def check_db(self) -> bool:
        return self.db.read_bytes() == self.ref.db_bytes()

    def check_online(self, path: Path) -> int:
        """Failed decisions in one online step's JSON output."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return self.decisions
        reports = doc if isinstance(doc, list) else [doc]
        if len(reports) != len(self.workload.metrics):
            return self.decisions
        return sum(self.ref.report_failures(r, m) for r, m in zip(reports, self.workload.metrics))

    def check_live(self, labels) -> int:
        return self.ref.live_failures(labels, self.live_order)

    def setup_argv(self):
        return cli("--help") if self.online_argv else child("setup", self.db)

    @staticmethod
    def overflow(amplitudes) -> int:
        return int((amplitudes >= reference.OVERFLOW).sum())


def keep_going(start, seconds, lap):
    """Start another iteration while at least half of one still fits."""
    return lap is None or time.perf_counter() - start + lap / 2 < seconds


def slow_state(samples, higher_is_better=False):
    """The run's slow-state value: 90th percentile of times, 10th of rates."""
    if not samples:
        return float("nan")
    return float(np.percentile(samples, 10 if higher_is_better else 90))


def timed(run: Run, seconds: float):
    """End-to-end metrics with tracing off."""
    log = run.out / "child.log"
    trains, onlines, rss = [], [], []
    p50s, p99s, rates = [], [], []  # per online step (live: p50/p99 per child, rates per pass)
    attempted = failed = 0
    correct = True

    def train():
        nonlocal correct
        step = run_child(cli(*run.train_argv), log)
        rss.append(step.rss_mb)
        ok = step.code == 0 and run.check_db()
        correct &= ok
        trains.append(step.wall)
        return ok

    def setup():
        nonlocal correct
        step = run_child(run.setup_argv(), log)
        correct &= step.code == 0
        setups.append(step.wall)

    # warm-up: writes the DB the live set-up loads and the bytecode cache
    setups = []
    train()
    setup()
    setups.clear()
    trains.clear()

    # set-up is probed once per iteration, so its samples span the run
    start, lap = time.perf_counter(), None
    while keep_going(start, seconds, lap):
        lap_start = time.perf_counter()
        setup()
        if not train():
            failed += run.decisions
            attempted += run.decisions
            break
        if run.online_argv:
            out = run.out / "online.json"
            out.unlink(missing_ok=True)
            step = run_child(cli(*run.online_argv, out), log)
            bad = run.check_online(out) if step.code == 0 else run.decisions
            onlines.append(step.wall)
            p50s.append(step.wall * 1e3)
            p99s.append(step.wall * 1e3)
            rates.append(run.decisions / step.wall)
            decisions = run.decisions
        else:
            spec, out = run.out / "live.json", run.out / "live-out.json"
            spec.write_text(json.dumps({"db": str(run.db), "blocks": str(run.data.live_blocks),
                                        "seconds": seconds * LIVE_SLICE_FRACTION}))
            out.unlink(missing_ok=True)
            step = run_child(child("live", spec, out), log)
            result = json.loads(out.read_text()) if step.code == 0 else None
            decisions = len(result["labels"]) if result else run.decisions
            bad = run.check_live(result["labels"]) if result else decisions
            if result:
                onlines += result["passes_s"]
                latencies_ms = np.asarray(result["latencies_ns"]) / 1e6
                p50s.append(float(np.percentile(latencies_ms, 50)))
                p99s.append(float(np.percentile(latencies_ms, 99)))
                per_pass = decisions / len(result["passes_s"])
                rates += [per_pass / wall for wall in result["passes_s"]]
        rss.append(step.rss_mb)
        attempted += decisions
        failed += bad
        if step.code != 0:
            correct = False
            break
        lap = time.perf_counter() - lap_start

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "train_s": (slow_state(trains), "s"),
        "online_s": (slow_state(onlines), "s"),
        "windows_per_s": (slow_state(rates, higher_is_better=True), "1/s"),
        "window_p50_ms": (slow_state(p50s), "ms"),
        "window_p99_ms": (float(np.percentile(p99s, 25)) if p99s and not run.online_argv
                          else slow_state(p99s), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    samples = {"setup_s": setups, "train_s": trains, "online_s": onlines,
               "windows_per_s": rates, "window_p50_ms": p50s, "window_p99_ms": p99s}
    return correct and failed == 0, attempted, failed, metrics, samples


def traced(run: Run, seconds: float):
    """Per-layer metrics from one child alternating untraced and traced rounds."""
    online = ([{"name": run.workload.online[0], "online": True,
                "argv": [*map(str, run.online_argv), str(run.out / "trace-{tag}.json")]}]
              if run.online_argv else [])
    blocks = inputs.live_block_order(run.data.shape)
    spec = {
        "seconds": seconds,
        "steps": [{"name": "train", "online": False, "argv": list(map(str, run.train_argv))},
                  *online],
        "live": None if run.online_argv else {
            "db": str(run.db), "blocks": str(run.data.live_blocks), "passes": LIVE_TRACE_PASSES},
        "probe": None if set(run.workload.metrics) == set(reference.METRICS) else {
            "db": str(run.db), "blocks": str(run.data.live_blocks),
            "labels": [run.data.labels[p] for p, _ in blocks],
            "coords": [run.data.coords[p] for p, _ in blocks]},
    }
    spec_path, out = run.out / "trace-spec.json", run.out / "trace-out.json"
    spec_path.write_text(json.dumps(spec))
    for stale in run.out.glob("trace-r*.json"):
        stale.unlink()
    out.unlink(missing_ok=True)
    step = run_child(child("trace", spec_path, out), run.out / "child.log")
    if step.code != 0:
        return False, run.decisions, run.decisions, {}, {}
    result = json.loads(out.read_text())

    attempted = failed = 0
    for rnd in result["rounds"]:
        if run.online_argv:
            attempted += run.decisions
            failed += run.check_online(run.out / f"trace-{rnd['tag']}.json")
        else:
            attempted += len(rnd["labels"])
            failed += run.check_live(rnd["labels"])
    correct = failed == 0 and run.check_db()
    return correct, attempted, failed, layer_metrics(run, result), {
        "rounds": len(result["rounds"])}


@dataclass
class Round:
    """One traced round's spans, summed."""

    incl: dict  # span name -> inclusive seconds
    own: dict  # span name -> self seconds
    counts: dict  # (span name, count key) -> total
    match_s: dict  # metric -> seconds inside match_trace
    layer_own: dict  # layer -> self seconds, all steps
    online_own: dict  # layer -> self seconds inside online steps
    online_wall: float
    probe_match_s: dict  # metric -> seconds inside match_trace, probe only
    probe_evaluation_own: float  # evaluate_windows self seconds, probe only


def aggregate(spans, steps) -> Round:
    duration = [s[2] - s[1] for s in spans]
    own = list(duration)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= duration[i]
    roots = {st["root"]: st for st in steps}
    r = Round({}, {}, {}, {}, dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0.0),
              sum(st["wall"] for st in steps if st["online"]), {}, 0.0)
    for i, (name, _, _, _, root, counted) in enumerate(spans):
        if root not in roots:
            continue
        if roots[root]["name"] == "probe":
            if name == "evaluation.evaluate_windows":
                r.probe_evaluation_own += own[i]
            if counted and "metric" in counted:
                metric = counted["metric"]
                r.probe_match_s[metric] = r.probe_match_s.get(metric, 0.0) + duration[i]
            continue
        layer = "cli" if i == root else name.split(".")[0]
        r.incl[name] = r.incl.get(name, 0.0) + duration[i]
        r.own[name] = r.own.get(name, 0.0) + own[i]
        r.layer_own[layer] += own[i]
        if roots[root]["online"]:
            r.online_own[layer] += own[i]
        for key, value in (counted or {}).items():
            if key == "metric":
                r.match_s[value] = r.match_s.get(value, 0.0) + duration[i]
            else:
                r.counts[(name, key)] = r.counts.get((name, key), 0) + value
    return r


def layer_metrics(run: Run, result):
    """Per-layer metrics, medians over the traced rounds."""
    rounds = [aggregate(result["spans"], r["steps"]) for r in result["rounds"] if r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def inc(*names):
        return med(lambda r: sum(r.incl.get(n, 0.0) for n in names))

    def count(*keys):
        return sum(rounds[0].counts.get(k, 0) for k in keys)

    online_steps = 1 if run.online_argv else LIVE_TRACE_PASSES
    rows = count(("ingest.load_trace", "rows"))
    amplitudes = count(("encoding.encode_matrix", "amplitudes"))
    comparisons = len(run.ref.windows) * len(run.ref.ancestors) * online_steps
    m = {
        "ingest.rows": (rows, "count"),
        "ingest.bytes": (count(("ingest.load_trace", "bytes")), "B"),
        "ingest.load_trace_s": (inc("ingest.load_trace"), "s"),
        "ingest.build_matrix_s": (inc("ingest.build_matrix"), "s"),
        "ingest.us_per_row": (
            inc("ingest.load_trace", "ingest.build_matrix") / rows * 1e6 if rows else 0.0, "us"),
        "encoding.packets": (count(("encoding.encode_matrix", "packets")), "count"),
        "encoding.encode_matrix_s": (inc("encoding.encode_matrix"), "s"),
        "encoding.ns_per_amplitude": (
            inc("encoding.encode_matrix") / amplitudes * 1e9 if amplitudes else 0.0, "ns"),
        "encoding.overflow_amplitudes": (
            run.overflow(run.data.train) + run.overflow(run.data.test) * online_steps, "count"),
        "fingerprint.build_db_s": (inc("fingerprint.build_db"), "s"),
        "fingerprint.windows_s": (inc("fingerprint.windows"), "s"),
        "fingerprint.windows": (count(("fingerprint.windows", "windows")), "count"),
        "fingerprint.tail_packets_dropped": (run.ref.tail_dropped * online_steps, "count"),
        "fingerprint.save_db_s": (inc("fingerprint.save_db"), "s"),
        "fingerprint.load_db_s": (inc("fingerprint.load_db"), "s"),
        "fingerprint.db_bytes": (run.db.stat().st_size, "B"),
    }
    for metric in reference.METRICS:
        if metric in run.workload.metrics:
            t, n = med(lambda r: r.match_s.get(metric, 0.0)), comparisons
        else:
            t = med(lambda r: r.probe_match_s.get(metric, 0.0))
            n = len(run.ref.windows) * len(run.ref.ancestors)
        m[f"matcher.match_trace_s.{metric}"] = (t, "s")
        m[f"matcher.ns_per_comparison.{metric}"] = (t / n * 1e9, "ns")
    m["matcher.comparisons"] = (comparisons * len(run.workload.metrics), "count")
    m["matcher.margin0_windows"] = (
        sum(run.ref.margin0(metric) for metric in run.workload.metrics) * online_steps, "count")
    # live's steps assemble no report, so there the probe's evaluate_windows counts
    m["evaluation.evaluate_windows_self_s"] = (
        med(lambda r: r.own.get("evaluation.evaluate_windows") or r.probe_evaluation_own), "s")
    m["ioutil.write_s"] = (inc("ioutil.atomic_write_text", "ioutil.atomic_write_bytes"), "s")
    m["ioutil.bytes_written"] = (
        count(("ioutil.atomic_write_text", "bytes"), ("ioutil.atomic_write_bytes", "bytes")), "B")
    m["cli.import_s"] = (result["import_s"], "s")
    m["cli.self_s"] = (med(lambda r: r.layer_own["cli"]), "s")
    for layer in LAYERS:
        m[f"{layer}.online_share"] = (med(lambda r: r.online_own[layer] / r.online_wall),
                                      "fraction")

    # rounds run in untraced/traced pairs back to back; differencing within a
    # pair cancels most of the machine's speed drift
    walls = {}
    for r in result["rounds"]:
        walls.setdefault(r["tag"][:-1], {})[r["traced"]] = sum(st["wall"] for st in r["steps"])
    overhead = statistics.median(w[True] - w[False] for w in walls.values())
    plain = statistics.median(w[False] for w in walls.values())
    m["trace.online_s"] = (med(lambda r: r.online_wall) / online_steps, "s")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (overhead / plain, "fraction")
    return m


def stamp(name, seed, data, trace, samples):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "trace": trace, "commit": commit,
        "src_digest": h.hexdigest(), "input_digest": data.digest,
        "cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "click": metadata.version("click"),
        "samples": samples,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bicsi" / "__init__.py").is_file():
        print(f"benchmark: no bicsi sources under {SRC}", file=sys.stderr)
        return 2
    reference.self_test()
    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    measure = traced if args.trace else timed
    correct, attempted, failed, metrics, samples = measure(run, args.seconds)

    info = stamp(args.workload, args.seed, run.data, args.trace, samples)
    doc = {
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, **doc}, indent=1))
    print(json.dumps({"stamp": info}))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
