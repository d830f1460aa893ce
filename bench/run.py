"""qpebble benchmark: ``qpebble simulate`` end to end, one fresh process per
sample, and a per-layer trace taken from outside the program.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed 7] [--seconds 25] [--trace 0|1]

Each sample is one ``bench/child.py`` process running one workload's
``simulate`` call with ``--workers 1``. Samples repeat until ``--seconds``
are spent (at least four, or one traced pair). Every sample's records
are checked (pinned digest at the default seed, invariants, summary, and
for fixed-n workloads the exact success probability).

With ``--trace 0`` the end-to-end metrics are reported: medians of
``wall_s`` (the simulate call), ``setup_s`` (the set-up calls alone),
``trials_per_s`` (trials / (wall_s - setup_s)) and ``peak_rss_mb`` (the
sample process's peak resident set). The times are scaled to a
reference speed (see PROBE_NOMINAL_S); the raw medians are printed too.
With ``--trace 1`` plain and traced samples alternate, unprobed; the
per-layer metrics come from the traced ones and ``trace.overhead_s`` is
the difference of the two raw median walls.

The last line of output is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 when every check passed, 1 when one failed,
and 2 when the program's sources (``src/qpebble``) are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 150.0
MIN_PLAIN_SAMPLES = 4
# The shared host's speed drifts: the same loop runs in 12 ms or in 18 ms,
# switching every second or so, and the share of slow time changes over
# minutes by more than any 25 s run averages out. So while a sample runs, a
# probe thread here times a short fixed loop every PROBE_GAP_S on the same
# CPU, and each time the sample reports is scaled by PROBE_NOMINAL_S / (mean
# time of the probes taken while it ran): seconds at the speed where the
# probe loop takes PROBE_NOMINAL_S. A stretch too short to hold
# MIN_WINDOW_PROBES probes takes the ones nearest its middle.
PROBE_ITERATIONS = 4000
PROBE_NOMINAL_S = 0.001
PROBE_GAP_S = 0.02
MIN_WINDOW_PROBES = 5

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402


def declared_metrics() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, unit) of the end-to-end and per-layer metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    return end_to_end, per_layer


END_TO_END, PER_LAYER = declared_metrics()
UNITS = dict(END_TO_END + PER_LAYER)


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def probe_loop_s() -> float:
    t0 = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = (i, i * 3)
        acc += len(table) + i % 7
    return time.perf_counter() - t0


def spawn_child(args: list[str], probed: bool) -> tuple[int, list[tuple[float, float]]]:
    """Run child.py to completion: (exit code, probes).

    This process is pinned to one CPU first, so the child and the probe
    thread share it. Each probe is (middle on the monotonic clock, seconds
    taken); unprobed, there are none.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probes: list[tuple[float, float]] = []
    done = threading.Event()

    def probe() -> None:
        while True:
            start = time.monotonic()
            took = probe_loop_s()
            probes.append((start + took / 2, took))
            if done.wait(PROBE_GAP_S):
                return

    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), *args], stdout=subprocess.DEVNULL)
    prober = threading.Thread(target=probe)
    if probed:
        prober.start()
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        done.set()
        if probed:
            prober.join()
    return proc.returncode, probes


def window_scale(probes: list[tuple[float, float]], window: list[float]) -> float:
    """PROBE_NOMINAL_S over the mean time of the probes taken in a window of
    the monotonic clock; 1 without probes."""
    if not probes:
        return 1.0
    lo, hi = window
    inside = [took for mid, took in probes if lo <= mid <= hi]
    if len(inside) < MIN_WINDOW_PROBES:
        centre = (lo + hi) / 2
        nearest = sorted(probes, key=lambda p: abs(p[0] - centre))[:MIN_WINDOW_PROBES]
        inside = [took for _, took in nearest]
    return PROBE_NOMINAL_S / statistics.fmean(inside)


class WorkloadRun:
    """The samples of one workload at one seed, with their check results."""

    def __init__(self, w: Workload, seed: int, probed: bool):
        self.w = w
        self.seed = seed
        self.probed = probed
        self.dir = OUT_DIR / f"{w.name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.digests: dict[str, set[str]] = {"plain": set(), "trace": set()}
        self.stats: checks.RecordStats | None = None
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def fail(self, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(errors)

    def sample(self, mode: str) -> dict | None:
        self.attempted += 1
        csv_path = self.dir / f"{mode}.csv"
        result_path = self.dir / f"{mode}.json"
        for stale in (csv_path, result_path):
            stale.unlink(missing_ok=True)
        args = ["--workload", self.w.name, "--seed", str(self.seed), "--mode", mode,
                "--csv", str(csv_path), "--result", str(result_path)]
        if mode == "trace":
            args += ["--spans", str(self.dir / "spans.csv")]
        code, probes = spawn_child(args, self.probed)
        if code != 0 or not result_path.exists():
            self.fail([f"{mode} sample exited with code {code}"])
            return None
        doc = json.loads(result_path.read_text(encoding="utf-8"))
        if mode == "mem":
            return doc
        doc["setup_scale"] = window_scale(probes, doc["setup_window"])
        doc["wall_scale"] = window_scale(probes, doc["wall_window"])
        if doc["exit_code"] != 0:
            self.fail([f"simulate returned {doc['exit_code']}"])
            return None
        csv_bytes = csv_path.read_bytes()
        digest = checks.sha256(csv_bytes)
        key = (digest, json.dumps(doc["summary"], sort_keys=True))
        if key not in self._verdicts:
            errors, self.stats = checks.check_records(self.w, self.seed, csv_bytes, doc["summary"])
            self._verdicts[key] = errors
        doc["csv_bytes"] = len(csv_bytes)
        self.digests[mode].add(digest)
        if self._verdicts[key]:
            self.fail(self._verdicts[key])
        return doc

    def finish_checks(self) -> dict:
        """Run-level checks: one digest across all samples, traced or not,
        and for fixed-n workloads the exact-probability gate."""
        facts: dict = {}
        digests = self.digests["plain"] | self.digests["trace"]
        if len(digests) > 1:
            self.fail([f"records differ between samples: {sorted(digests)}"])
        if self.stats is not None and self.w.strategy.startswith("fixed"):
            p = checks.exact_success_fixed(self.w, self.seed)
            z, error = checks.z_gate(self.stats.successes, self.stats.trials, p)
            facts.update(exact_success=p, observed_success=self.stats.successes / self.stats.trials, z=z)
            if error:
                self.fail([error])
        return facts


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values), "values": values}


def end_to_end(run: WorkloadRun) -> dict:
    """Quartiles of each end-to-end metric, times at reference speed, and
    the raw medians beside them."""
    per_sample: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "trials_per_s": [], "peak_rss_mb": []}
    raw: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "trials_per_s": []}
    for doc in run.plain:
        setup_s = statistics.median(doc["setup_s"])
        raw["wall_s"].append(doc["wall_s"])
        raw["setup_s"] += doc["setup_s"]
        raw["trials_per_s"].append(run.w.trials / (doc["wall_s"] - setup_s))
        wall_s = doc["wall_s"] * doc["wall_scale"]
        per_sample["wall_s"].append(wall_s)
        per_sample["setup_s"] += [s * doc["setup_scale"] for s in doc["setup_s"]]
        per_sample["trials_per_s"].append(run.w.trials / (wall_s - setup_s * doc["setup_scale"]))
        per_sample["peak_rss_mb"].append(doc["peak_rss_mb"])
    out = {name: quartiles(values) for name, values in per_sample.items()}
    for name, values in raw.items():
        out[name]["raw_median"] = statistics.median(values)
    return out


def per_layer(run: WorkloadRun, mem: dict | None) -> dict:
    layers = [doc["layers"] for doc in run.traced]
    out: dict = {}
    for name, _ in PER_LAYER:
        if layers and name in layers[0]:
            # median_low: a count stays a whole number with an even sample count
            out[name] = statistics.median_low(doc[name] for doc in layers)
    stats = run.stats
    if stats is not None:
        out["agent.rounds"] = stats.rounds
        out["agent.measurements"] = stats.measurements
        out["agent.useful_measurement_ratio"] = (
            stats.useful_measurements / stats.measurements if stats.measurements else 1.0
        )
    if run.traced:
        out["cli.out_bytes"] = run.traced[0]["csv_bytes"]
        out["trace.overhead_s"] = statistics.median(d["wall_s"] for d in run.traced) - statistics.median(
            d["wall_s"] for d in run.plain
        )
    if mem is not None:
        out["harness.record_bytes_per_trial"] = mem["record_bytes_per_trial"]
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    # the probe's interruptions would show in per-layer figures, so traced
    # runs go unprobed and their times are raw
    run = WorkloadRun(w, seed, probed=not trace)
    facts = {"workload": w.name, "seed": seed, "trace": int(trace), "machine": machine_facts()}
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        doc = run.sample("plain")
        if doc is not None:
            run.plain.append(doc)
        if trace:
            doc = run.sample("trace")
            if doc is not None:
                run.traced.append(doc)
        spent = time.monotonic() - started
        if run.failed or (
            (trace or run.attempted >= MIN_PLAIN_SAMPLES) and spent + (time.monotonic() - t0) > seconds
        ):
            break
    mem = run.sample("mem") if trace and not run.failed else None
    facts["measured_s"] = time.monotonic() - started
    facts.update(run.finish_checks())

    metrics: dict = {}
    if not run.failed:
        if trace:
            layer = per_layer(run, mem)
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
            facts["traced_samples"] = len(run.traced)
            facts["agent.run_trial.tail_pct"] = run.traced[0]["layers"]["agent.run_trial.tail_pct"]
            facts["spans_file"] = str((run.dir / "spans.csv").relative_to(ROOT))
        else:
            e2e = end_to_end(run)
            facts["end_to_end"] = e2e
            metrics = {name: {"value": e2e[name]["median"], "unit": unit} for name, unit in END_TO_END}
    facts["errors"] = run.errors
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    (run.dir / f"result-trace{int(trace)}.json").write_text(json.dumps({**facts, **result}, indent=2) + "\n")
    report(facts, result)
    return result


def report(facts: dict, result: dict) -> None:
    m = facts["machine"]
    print(
        f"# {facts['workload']} seed={facts['seed']} trace={facts['trace']} "
        f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"loadavg={m['loadavg_at_start'][0]:.2f} measured {facts['measured_s']:.1f}s"
    )
    for name, q in facts.get("end_to_end", {}).items():
        raw = f"; raw {q['raw_median']:.6g}" if "raw_median" in q else ""
        print(
            f"{name:<34} {q['median']:.6g} {UNITS[name]} (median of {q['samples']}; "
            f"q1 {q['q1']:.6g}, q3 {q['q3']:.6g}{raw})"
        )
    if facts["trace"] and result["metrics"]:
        print(f"(per-layer figures: medians of {facts['traced_samples']} traced samples)")
        for name, value in result["metrics"].items():
            print(f"{name:<34} {value['value']:.6g} {value['unit']}")
    if "z" in facts:
        print(
            f"{'exact_success':<34} {facts['exact_success']:.6f} (observed {facts['observed_success']:.6f}, "
            f"z={facts['z']:+.2f})"
        )
    print(
        f"{'error_rate':<34} {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} failed of {result['attempted']} runs attempted)"
    )
    for error in facts["errors"]:
        print(f"error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qpebble simulate benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qpebble" / "__init__.py").is_file():
        print(f"bench: qpebble sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
