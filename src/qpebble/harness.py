"""Experiment orchestration: many trials, stable aggregation, flat outputs.

Reproducibility contract: trial ``i`` of an experiment draws from
``RngStream(seed, stream_id=i)`` and nothing else (``run_trial`` gets ``i`` in
a harness chunk, which owns the run's state, and builds that stream or walks it
in a batch), so the per-trial records are a pure function of (config, trial
index). Workers only decide who computes which index; aggregation is always in
index order, which is why worker count cannot change a single output byte.
"""

from __future__ import annotations

import math
import numbers
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_not, itemgetter, ne
from typing import IO, Iterable, Iterator, Sequence, Union, get_args

import numpy as np

from .agent import (
    Adaptive,
    AgentStrategy,
    ClassicalTable,
    DecisionTable,
    FailureKind,
    FixedN,
    QuditOneShot,
    RandomWalk,
    TrialResult,
    _check_args,
    _chunk,
    run_trial,
)
from .analysis import BoundReport, bound_report, required_n
from .encoding import EncodingScheme, Placement, _scheme_named, family_delta, place_pebbles, route
# shortest_path is not called here, but bench/spans.py wraps this name
from .graph import _GEN_STREAM, PortGraph, GadgetSpec, gen_gpqr, gen_padded_path, parse_graph, shortest_path, validate

__all__ = [
    "ExperimentConfig",
    "SummaryStats",
    "ExperimentResult",
    "wilson_ci",
    "parse_graph_source",
    "parse_strategy",
    "run_experiment",
    "sweep",
    "records_to_csv",
    "records_to_json",
    "sweep_table_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on. graph_source is a generator spec
    ('path:D=10,delta=4', 'gpqr:p=2,q=2,r=2,swaps=100'), a file path, or an
    in-memory PortGraph."""

    graph_source: Union[str, PortGraph]
    scheme: EncodingScheme = EncodingScheme.GENERAL
    strategy: AgentStrategy = FixedN()
    trials: int = 1000
    seed: int = 0
    step_budget: int | None = None
    eps: float = 0.01


@dataclass(frozen=True)
class SummaryStats:
    trials: int
    successes: int
    success_rate: float
    wilson_ci_95: tuple[float, float]
    mean_steps: float
    mean_measurements: float
    failure_breakdown: dict[str, int]
    bound: BoundReport

    def as_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return doc | {"wilson_ci_95": list(self.wilson_ci_95), "bound": self.bound.as_json_dict()}


@dataclass(frozen=True, eq=False)
class _Records(Sequence):
    """A run's records, a read-only Sequence over its runs (row, lo, hi) of equal rows, as ``Placement.pebbles`` is
    over its columns: a lookup makes a TrialResult, iteration one per run. Equal to a tuple of the same records."""

    runs: tuple

    def __len__(self) -> int:
        return self.runs[-1][2] if self.runs else 0

    def __getitem__(self, i):
        k = range(len(self))[i]  # a negative index counts from the end; a slice gives a range
        if isinstance(k, range):
            return tuple(map(self.__getitem__, k))
        return _record(self.runs[bisect_right(self.runs, k, key=itemgetter(2))][0])

    def __iter__(self) -> Iterator[TrialResult]:
        return chain.from_iterable(repeat(_record(row), hi - lo) for row, lo, hi in self.runs)

    def __eq__(self, other) -> bool:
        return self.runs == other.runs if isinstance(other, _Records) else tuple(self) == other


@dataclass(frozen=True)
class ExperimentResult:
    """A run's config and summary, and its records stored only as ``runs``, (row, lo, hi) for each run of trials
    lo..hi-1 with equal rows, which the summary and the writers read; ``records`` is a view over them."""

    config: ExperimentConfig
    summary: SummaryStats
    runs: tuple[tuple[tuple, int, int], ...]

    @property
    def records(self) -> Sequence[TrialResult]:
        return _Records(self.runs)


def wilson_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    p = successes / trials
    zz = z * z / trials
    denom = 1.0 + zz
    center = (p + zz / 2.0) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _parse_kv(body: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in body.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad {what} parameter {item!r}, expected key=value")
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise ValueError(f"duplicate {what} key {k!r}")
        out[k] = v
    return out


def _spec_int(value: str, kind: str, text: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"cannot read {value!r} as an integer in {kind} {text!r}") from None


def parse_graph_source(source: Union[str, PortGraph], seed: int) -> PortGraph:
    """Resolve a graph spec string, file path, or PortGraph to a graph."""
    if isinstance(source, PortGraph):
        return source
    if source.startswith("path:"):
        kv = _parse_kv(source[len("path:") :], "path generator")
        try:
            dist = _spec_int(kv.pop("D"), "graph source", source)
            delta = _spec_int(kv.pop("delta"), "graph source", source)
        except KeyError as missing:
            raise ValueError(f"path generator needs D and delta, missing {missing}") from None
        if kv:
            raise ValueError(f"unknown path generator keys: {sorted(kv)}")
        return gen_padded_path(dist, delta, seed)
    if source.startswith("gpqr:"):
        kv = _parse_kv(source[len("gpqr:") :], "gpqr generator")
        try:
            pends = tuple(_spec_int(kv.pop(key), "graph source", source) for key in "pqr")
        except KeyError as missing:
            raise ValueError(f"gpqr generator needs p, q, r, missing {missing}") from None
        swaps_txt = kv.pop("swaps", "000")
        if kv:
            raise ValueError(f"unknown gpqr generator keys: {sorted(kv)}")
        if len(swaps_txt) != 3 or any(c not in "01" for c in swaps_txt):
            raise ValueError(f"swaps must be three binary digits, got {swaps_txt!r}")
        swaps = tuple(c == "1" for c in swaps_txt)
        return gen_gpqr(GadgetSpec(pends, swaps))
    with open(source, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_strategy(text: str) -> AgentStrategy:
    """Strategy spec strings: fixed:auto, fixed:53, adaptive:200, qudit,
    random, table:3p=1,3n=0,1p=0,1n=0 (port number or s for stay)."""
    head, _, rest = text.partition(":")
    if head == "fixed":
        if rest in ("auto", ""):
            return FixedN(None)
        return FixedN(_spec_int(rest.removeprefix("n="), "strategy", text))
    if head == "adaptive":
        if rest == "":
            return Adaptive()
        return Adaptive(_spec_int(rest.removeprefix("cap="), "strategy", text))
    if head in ("qudit", "random"):
        if text != head:
            raise ValueError(f"strategy {head} takes no parameters, got {text!r}")
        return QuditOneShot() if head == "qudit" else RandomWalk()
    if head == "table":
        kv = _parse_kv(rest, "table")
        actions: dict[tuple[int, bool], int | None] = {}
        for key, val in kv.items():
            if len(key) < 2 or key[-1] not in "pn" or not key[:-1].isdigit():
                raise ValueError(f"table keys look like 3p/3n/1p/1n, got {key!r}")
            degree = _spec_int(key[:-1], "strategy", text)
            pebbled = key[-1] == "p"
            actions[(degree, pebbled)] = None if val == "s" else _spec_int(val, "strategy", text)
        if not actions:
            raise ValueError("table strategy needs at least one action")
        return ClassicalTable(DecisionTable(actions))
    raise ValueError(f"unknown strategy {text!r}")


# a record's row: success, steps, measurements and failure kind, read in C (the
# kind's _value_ skips Enum.value, a Python-level property)
_ROW = attrgetter("success", "steps_taken", "measurements_total", "failure_kind._value_")
# a record's JSON text after its trial index, indent=2's layout; no failure kind needs escaping
_JSON_ROW = ',\n    "success": %s,\n    "steps": %d,\n    "measurements": %d,\n    "failure_kind": "%s"\n  }'
# trials per slice of _trial_range and per piece of the writers: what a run holds per trial at once
_PIECE = 1 << 14
# _record_runs' first gallop span, and its window of trials compared by identity with their neighbours
_GALLOP, _SCAN = 64, 1 << 12


def _record(row: tuple) -> TrialResult:
    return TrialResult(*row[:3], FailureKind(row[3]))


def _record_runs(records: list[TrialResult]) -> tuple[tuple[tuple, int, int], ...]:
    """(row, lo, hi) for each run of trials lo..hi-1 with equal rows, in order, found in C: neighbours are compared by
    identity in windows of _SCAN, before each of which a run of one object gallops over spans that double from _GALLOP
    (list == tests identity first and stops at one __eq__ call); _ROW is read once per run, equal rows merged."""
    if not records:
        return ()
    cuts, a, n, prev, nxt = [0], 1, len(records), iter(records), iter(records)  # every cut below a is found
    while a < n:
        x, w = records[a - 1], _GALLOP
        while a + w <= n and records[a] is x and records[a + w - 1] is x and records[a : a + w] == [x] * w:
            a, w = a + w, min(2 * w, _PIECE)
        prev.__setstate__(a - 1), nxt.__setstate__(a)  # a list iterator moves in O(1), where islice steps
        cuts += (np.flatnonzero(np.frombuffer(bytes(map(is_not, islice(nxt, _SCAN), prev)), np.bool_)) + a).tolist()
        a += _SCAN
    rows = list(map(_ROW, map(records.__getitem__, cuts)))
    keep = [*compress(range(1, len(rows)), map(ne, islice(rows, 1, None), rows))]
    if len(keep) + 1 < len(rows):  # distinct objects with equal rows meet
        cuts, rows = [0, *map(cuts.__getitem__, keep)], [rows[0], *map(rows.__getitem__, keep)]
    return tuple(zip(rows, cuts, [*islice(cuts, 1, None), n]))


def _extend_runs(runs: list, part: Iterable[tuple[tuple, int, int]], start: int = 0) -> None:
    """Append part's runs, counted from trial start, to runs, merging at the seam where the rows are equal."""
    for row, lo, hi in part:
        if runs and runs[-1][0] == row:
            runs[-1] = (row, runs[-1][1], start + hi)
        else:
            runs.append((row, start + lo, start + hi))


def _trial_range(args) -> list[tuple[tuple, int, int]]:
    """The runs of trials lo..hi-1, run in slices of at most _PIECE trials, each folded into runs and then dropped:
    a chunk holds one slice of records, and returns (and pickles) O(runs)."""
    g, placement, strategy, budget, seed, lo, hi = args
    runs = []
    with _chunk(g, placement, strategy, budget, seed, hi):  # run_trial gets trial i's index; its stream is (seed, i)
        for start in range(lo, hi, _PIECE):
            # run_trial is looked up per trial, as this module's global, so it can be replaced
            part = [run_trial(g, placement, strategy, budget, i) for i in range(start, min(start + _PIECE, hi))]
            _extend_runs(runs, _record_runs(part), start)
    return runs


def _check_trials(cfg: ExperimentConfig) -> None:
    """Trial i draws from stream i: on a path: graph, trial _GEN_STREAM would redraw the graph's ports."""
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(cfg.graph_source, str) and cfg.graph_source.startswith("path:") and cfg.trials > _GEN_STREAM:
        raise ValueError(f"trials must be <= {_GEN_STREAM}, the stream drawing a path: graph's ports, got {cfg.trials}")


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run cfg.trials independent trials and aggregate by trial index.

    Results are identical for any worker count: trial i depends only on
    (cfg, i).
    """
    _check_trials(cfg)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0.0 < cfg.eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {cfg.eps}")
    _check_args(cfg.strategy, cfg.scheme, cfg.step_budget)
    g = parse_graph_source(cfg.graph_source, cfg.seed)
    # route checks g and gives the path the pebbles sit on; D is its length
    placement: Union[Placement, frozenset[int]]
    if isinstance(cfg.strategy, (ClassicalTable, RandomWalk)):
        placement = frozenset(node for node, _ in route(g))
        dist = len(placement)
    else:
        if validate(g) is None:  # the family size needs a sound graph's degree
            _check_args(cfg.strategy, cfg.scheme, None, g.max_degree)
        placement = place_pebbles(g, cfg.scheme)
        dist = len(placement.nodes)
    budget = cfg.step_budget if cfg.step_budget is not None else dist
    eff_delta = family_delta(g.max_degree)

    strategy = cfg.strategy
    if isinstance(strategy, FixedN) and strategy.n is None:
        strategy = FixedN(required_n(dist, eff_delta, cfg.eps))

    # one chunk per worker and one process per chunk; a single chunk runs in this process
    chunk = -(-cfg.trials // workers)
    payloads = [
        (g, placement, strategy, budget, cfg.seed, lo, min(lo + chunk, cfg.trials))
        for lo in range(0, cfg.trials, chunk)
    ]
    if len(payloads) == 1:
        parts = [_trial_range(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            parts = list(pool.map(_trial_range, payloads))
    runs: list = []
    _extend_runs(runs, chain.from_iterable(parts))  # the chunks' runs, merged where a seam falls inside a run
    successes = steps_sum = meas_sum = 0
    breakdown: dict[str, int] = {kind.value: 0 for kind in FailureKind}
    for (success, steps_taken, meas, kind), lo, hi in runs:
        count = hi - lo
        successes += success * count
        steps_sum += steps_taken * count
        meas_sum += meas * count
        breakdown[kind] += count
    n_for_bound = strategy.n if isinstance(strategy, FixedN) else None
    summary = SummaryStats(
        trials=cfg.trials,
        successes=successes,
        success_rate=successes / cfg.trials,
        wilson_ci_95=wilson_ci(successes, cfg.trials),
        mean_steps=steps_sum / cfg.trials,
        mean_measurements=meas_sum / cfg.trials,
        failure_breakdown=breakdown,
        bound=bound_report(dist, eff_delta, n=n_for_bound, eps=cfg.eps),
    )
    return ExperimentResult(config=cfg, summary=summary, runs=tuple(runs))


_SWEEP_AXES = ("n", "D", "delta")


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: Sequence[int],
    workers: int = 1,
) -> list[tuple[int, SummaryStats]]:
    """Re-run the experiment along one axis with a shared base seed.

    axis 'n' varies the FixedN sample count on one graph, built once; 'D'
    and 'delta' rewrite the path-generator spec.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if axis == "n":
        if not isinstance(cfg.strategy, FixedN):
            raise ValueError("axis 'n' requires a FixedN strategy")
        _check_trials(cfg)  # before the path: spec becomes a graph
        cfg = replace(cfg, graph_source=parse_graph_source(cfg.graph_source, cfg.seed))
    out = []
    for v in values:
        if axis == "n":
            sub = replace(cfg, strategy=FixedN(int(v)))
        else:
            if not (isinstance(cfg.graph_source, str) and cfg.graph_source.startswith("path:")):
                raise ValueError(f"axis {axis!r} requires a path generator graph_source")
            # only the swept key changes, so parse_graph_source checks the rest
            kv = _parse_kv(cfg.graph_source[len("path:") :], "path generator") | {axis: str(int(v))}
            sub = replace(cfg, graph_source="path:" + ",".join(f"{k}={x}" for k, x in kv.items()))
        out.append((int(v), run_experiment(sub, workers=workers).summary))
    return out


def _run_indices(runs: Sequence[tuple[tuple, int, int]]) -> tuple[list[tuple], list[str]]:
    """Each run's row and its trial indices "lo\\n...{hi-1}\\n", for runs that cover trials first..end-1, split from
    one index column built in numpy: per digit width a uint8 matrix of digits and "\\n", then "\\0" after each run.
    Place p's digits repeat those of lo // p ... (hi - 1) // p, a slice of "0123...9" repeated: no division per index.
    Trial i's text starts at (w + 1)(i - first), w the width of first, plus the sum of max(0, i - edge) over the width
    edges 10, 100, ... above first: a digit more per edge passed."""
    first, end, w = runs[0][1], runs[-1][2], len(str(runs[0][1]))
    edges, parts = [first, *(10**k for k in range(w, len(str(end - 1)))), end], []  # the first index of each width
    units = np.frombuffer(b"0123456789" * ((end - first) // 10 + 2), np.uint8)
    for width, (lo, hi) in enumerate(zip(edges, edges[1:]), w):
        digits = np.full((hi - lo, width + 1), 10, np.uint8)
        for j, p in enumerate(10**k for k in reversed(range(width))):
            q, r = lo // p, (hi - 1) // p
            digit = units[q % 10 : q % 10 + r - q + 1]
            digits[:, j] = digit if p == 1 else np.repeat(digit, np.diff(np.clip(np.arange(q, r + 2) * p, lo, hi)))
        parts.append(digits.reshape(-1))
    ends = np.fromiter(map(itemgetter(2), runs), np.int64, len(runs))
    at = (w + 1) * (ends - first) + sum(np.maximum(ends - e, 0) for e in edges[1:-1])
    column = np.insert(np.concatenate(parts), at, 0)
    return [*map(itemgetter(0), runs)], column.tobytes().decode("ascii").split("\0")[:-1]


def _pieces(records: ExperimentResult | Sequence[TrialResult]) -> Iterator[tuple[list[tuple], list[str]]]:
    """_run_indices of the records' runs (a result's or a view's kept runs) cut into pieces of trials k * _PIECE to
    (k + 1) * _PIECE - 1: a long run is split, and each piece's index column starts at its first index."""
    runs = records.runs if isinstance(records, (ExperimentResult, _Records)) else _record_runs(list(records))
    for cut in range(0, runs[-1][2] if runs else 0, _PIECE):
        i, j = bisect_right(runs, cut, key=itemgetter(2)), bisect_left(runs, cut + _PIECE, key=itemgetter(2))
        yield _run_indices([(row, max(lo, cut), min(hi, cut + _PIECE)) for row, lo, hi in runs[i : j + 1]])


def records_to_csv(records: ExperimentResult | Sequence[TrialResult], out: IO[str] | None = None) -> str | None:
    """Per-trial table. Fixed columns, LF newlines, byte-stable. Given an open text file, written to it as the
    header and then one piece of _pieces at a time; else returned, the same bytes in one str."""
    # a run's lines share all but the index; "%d" writes success as 0 or 1
    lines = ("".join(map(str.replace, indices, repeat("\n"), map(",%d,%s,%s,%s\n".__mod__, rows)))
             for rows, indices in _pieces(records))
    texts = chain(["trial,success,steps,measurements,failure_kind\n"], lines)
    return "".join(texts) if out is None else out.writelines(texts)


def records_to_json(records: ExperimentResult | Sequence[TrialResult], out: IO[str] | None = None) -> str | None:
    """``json.dumps(rows, indent=2)`` and a newline, each row a trial's index and record, written or returned as
    records_to_csv's text is. A run's row is formatted once per piece, from the _JSON_ROW template."""
    return "".join(_json_pieces(records)) if out is None else out.writelines(_json_pieces(records))


def _json_pieces(records: ExperimentResult | Sequence[TrialResult]) -> Iterator[str]:
    """records_to_json's text: "[", then per trial head, index and row, "," between trials, and "\\n]\\n"."""
    head, sep = '\n  {\n    "trial": ', "["
    for rows, indices in _pieces(records):
        rows = [_JSON_ROW % ("true" if s else "false", n, m, k) for s, n, m, k in rows]
        indices[-1] = indices[-1][:-1]  # the piece's last trial: its row, with no "," and head after it
        yield sep + head
        yield "".join(chain(map(str.replace, indices, repeat("\n"), [f"{row},{head}" for row in rows]), rows[-1:]))
        sep = ","
    yield "[]\n" if sep == "[" else "\n]\n"


def sweep_table_csv(axis: str, rows: Sequence[tuple[int, SummaryStats]]) -> str:
    lines = [
        "axis,value,trials,successes,success_rate,ci_lo,ci_hi,mean_steps,mean_measurements,success_lower,required_n"
    ]
    for value, s in rows:
        lo, hi = s.wilson_ci_95
        lines.append(
            f"{axis},{value},{s.trials},{s.successes},{s.success_rate},{lo},{hi},"
            f"{s.mean_steps},{s.mean_measurements},{s.bound.success_lower},{s.bound.required_n}"
        )
    return "\n".join(lines) + "\n"


# config_from_dict's type check per key, and how errors name the expected type (the
# scheme is checked by its name); the accepted keys are ExperimentConfig's fields
_CONFIG_TYPES = {
    "graph_source": ((str, PortGraph), "a generator spec or file path"),
    "strategy": ((str, *get_args(AgentStrategy)), "a strategy spec"),
    "trials": (numbers.Integral, "an integer"),
    "seed": (numbers.Integral, "an integer"),
    "step_budget": (numbers.Integral, "an integer"),
    "eps": (numbers.Real, "a number"),
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from JSON-ish fields (strings for scheme/strategy).

    Unknown keys and values of the wrong type raise ValueError naming the
    key; None leaves a field at its default.
    """
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kwargs = {key: value for key, value in doc.items() if value is not None}
    if "graph_source" not in kwargs:
        raise ValueError("config needs a graph_source")
    for key, (types, want) in _CONFIG_TYPES.items():
        value = kwargs.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
            raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
    if "scheme" in kwargs:
        kwargs["scheme"] = _scheme_named(kwargs["scheme"], "config key 'scheme'")
    if isinstance(kwargs.get("strategy"), str):
        kwargs["strategy"] = parse_strategy(kwargs["strategy"])
    return ExperimentConfig(**kwargs)


def env_seed_default() -> int:
    """Seed fallback: QPEBBLE_SEED from the environment, else 0."""
    raw = os.environ.get("QPEBBLE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QPEBBLE_SEED must be an integer, got {raw!r}") from None
