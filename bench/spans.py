"""Spans recorded from outside the program, around its public functions.

:func:`install` replaces each traced function under the name its callers
look up (``qpebble.harness.run_trial``, ``RngStream.uniforms``, ...) with a
wrapper that records a span: name, start, end and the index of the
enclosing span. Spans stay in memory until :meth:`Tracer.write` puts them
in a file. A layer's self time is its spans' durations minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name). A function imported into several
# modules is wrapped in each, under one span name.
TRACED_FUNCTIONS = (
    ("qpebble.cli", "main", "cli.main"),
    ("qpebble.cli", "run_experiment", "harness.run_experiment"),
    ("qpebble.cli", "records_to_csv", "harness.records_to_csv"),
    ("qpebble.harness", "gen_padded_path", "graph.gen_padded_path"),
    ("qpebble.harness", "shortest_path", "graph.shortest_path"),
    ("qpebble.encoding", "shortest_path", "graph.shortest_path"),
    ("qpebble.encoding", "validate", "graph.validate"),
    ("qpebble.harness", "place_pebbles", "encoding.place_pebbles"),
    ("qpebble.harness", "required_n", "analysis.required_n"),
    ("qpebble.analysis", "required_n", "analysis.required_n"),
    ("qpebble.harness", "bound_report", "analysis.bound_report"),
    ("qpebble.harness", "run_trial", "agent.run_trial"),
    ("qpebble.agent", "measure_node_fixed", "agent.measure_node_fixed"),
    ("qpebble.agent", "decide_fixed", "agent.decide_fixed"),
    ("qpebble.agent", "measure_node_adaptive", "agent.measure_node_adaptive"),
)

# Every spanned name; each one's self time is a per-layer metric.
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in TRACED_FUNCTIONS] + ["rng.uniforms", "rng.stream_init"]))


class Tracer:
    def __init__(self) -> None:
        # one list per span: [name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def count_calls(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Counter[str] = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[name] += end - start - inner
        return {name: ns / 1e9 for name, ns in out.items()}

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) / 1e3 for n, start, end, _ in self.spans if n == name]

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: str) -> None:
        """One CSV line per span: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in the already imported qpebble modules."""
    from qpebble.rng import RngStream

    for module_name, attr, span_name in TRACED_FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr)))

    agent = importlib.import_module("qpebble.agent")
    agent.born_probability = tracer.count_calls("quantum.born_probability", agent.born_probability)

    RngStream.__init__ = tracer.wrap("rng.stream_init", RngStream.__init__)
    # scalar draws are counted, not spanned: there are thousands per trial
    RngStream.uniform = tracer.count_calls("rng.scalar_draws", RngStream.uniform)
    uniforms = tracer.wrap("rng.uniforms", RngStream.uniforms)
    counts = tracer.counts

    @functools.wraps(RngStream.uniforms)
    def counted_uniforms(self, n):
        counts["rng.uniforms.draws"] += n
        return uniforms(self, n)

    RngStream.uniforms = counted_uniforms


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """The highest of p99.9, p99, p90, p50 with at least ten samples above
    it; with fewer than twenty samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return f"p{pct:g}", ordered[min(n - 1, int(n * pct / 100.0))]
    return "max", ordered[-1]

