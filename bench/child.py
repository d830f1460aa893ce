"""One measured ``qpebble simulate`` call, in a fresh process.

run.py starts this file once per sample and reads the JSON it writes to
``--result``. Modes:

* plain: time the set-up calls ``setup_reps`` times on fresh graphs, then
  time ``qpebble.cli.main(["simulate", ...])`` with nothing wrapped.
* trace: the same, but with the spans of ``spans.py`` installed after the
  set-up timing, so only the simulate call is traced; per-layer figures
  and the span file come out at the end.
* mem: run the experiment with tracemalloc on for a stretch of its
  trials and report the bytes held per finished trial.

The timed stretches (the set-up reps, the simulate call) also report their
window on the monotonic clock, so run.py can scale each by the probes it
took inside that window.

Usage: python3 bench/child.py --workload NAME --seed N --mode MODE
       --csv RECORDS.csv --result RESULT.json [--spans SPANS.csv]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MEM_TRACE_S = 1.0
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def timed_setup(w: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Seconds of parse_graph_source -> shortest_path -> place_pebbles, the
    calls run_experiment makes before its first trial, once per rep; and
    the window of the reps on the monotonic clock."""
    from qpebble.encoding import EncodingScheme, place_pebbles
    from qpebble.graph import shortest_path
    from qpebble.harness import parse_graph_source

    scheme = EncodingScheme(w.scheme)
    times = []
    window = [time.monotonic()]
    for _ in range(w.setup_reps):
        t0 = time.perf_counter()
        g = parse_graph_source(w.gen, seed)
        shortest_path(g, g.start, g.treasure)
        place_pebbles(g, scheme)
        times.append(time.perf_counter() - t0)
        del g
    window.append(time.monotonic())
    gc.collect()
    return times, window


def layer_figures(tracer: spans.Tracer) -> dict:
    self_s = tracer.self_times()
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in spans.SPAN_NAMES}
    for name in ("rng.uniforms", "rng.stream_init", "agent.run_trial", "graph.shortest_path"):
        out[f"{name}.calls"] = tracer.calls(name)
    out["rng.uniforms.draws"] = tracer.counts["rng.uniforms.draws"]
    out["quantum.born_probability.calls"] = tracer.counts["quantum.born_probability"]
    out["rng.scalar_draws"] = tracer.counts["rng.scalar_draws"]
    trial_us = tracer.durations_us("agent.run_trial")
    out["agent.run_trial.p50_us"] = statistics.median(trial_us)
    out["agent.run_trial.tail_pct"], out["agent.run_trial.tail_us"] = spans.tail_percentile(trial_us)
    return out


def simulate(w: Workload, seed: int, csv_path: str, spans_path: str | None) -> dict:
    from qpebble import cli

    doc: dict = {}
    doc["setup_s"], doc["setup_window"] = timed_setup(w, seed)
    tracer = None
    if spans_path is not None:
        tracer = spans.Tracer()
        spans.install(tracer)
    printed = io.StringIO()
    start = time.monotonic()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(w.cli_argv(seed, csv_path))
    doc["wall_s"] = time.perf_counter() - t0
    doc["wall_window"] = [start, time.monotonic()]
    doc["exit_code"] = code
    doc["summary"] = json.loads(printed.getvalue()) if code == 0 else None
    if tracer is not None:
        doc["layers"] = layer_figures(tracer)
        tracer.write(spans_path)
    return doc


class _Measured(Exception):
    """Ends the experiment once the records' bytes have been read."""


def record_bytes_per_trial(w: Workload, seed: int) -> dict:
    """Bytes the experiment still holds per finished trial, from tracemalloc.

    Trial 0 runs untraced, so lazily built caches are not counted. Tracing
    then covers trials 1..k, for about MEM_TRACE_S seconds or until the last
    trial, and the experiment is cut short there: tracemalloc slows
    allocation-heavy trials several times over, and the bytes per record do
    not depend on the trial count.
    """
    import tracemalloc

    from qpebble import harness

    run_trial = harness.run_trial
    state = {"index": 0, "stop_at": 0.0, "bytes": None}

    def measured_run_trial(*args):
        i = state["index"]
        state["index"] = i + 1
        if i == 1:
            tracemalloc.start()
            state["stop_at"] = time.perf_counter() + MEM_TRACE_S
        record = run_trial(*args)
        if tracemalloc.is_tracing() and (time.perf_counter() > state["stop_at"] or i == w.trials - 1):
            # records 1..i are held by the harness, or by this frame for i
            state["bytes"] = tracemalloc.get_traced_memory()[0] / i
            tracemalloc.stop()
            raise _Measured
        return record

    harness.run_trial = measured_run_trial
    cfg = harness.config_from_dict(
        {"graph_source": w.gen, "scheme": w.scheme, "strategy": w.strategy, "trials": w.trials, "seed": seed}
    )
    try:
        harness.run_experiment(cfg, workers=1)
    except _Measured:
        pass
    return {"record_bytes_per_trial": state["bytes"]}


def peak_rss_mb() -> float:
    """This process's peak resident set since exec (VmHWM).

    Not the rusage maxrss: Linux folds the memory image the process had
    before exec, which is its parent's, into that figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "trace", "mem"))
    parser.add_argument("--csv", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    import qpebble  # noqa: F401  (import time is not part of any metric)

    if args.mode == "mem":
        doc = record_bytes_per_trial(w, args.seed)
    else:
        doc = simulate(w, args.seed, args.csv, args.spans if args.mode == "trace" else None)
    doc["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
