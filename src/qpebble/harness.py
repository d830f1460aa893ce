"""Experiment orchestration: many trials, stable aggregation, flat outputs.

Reproducibility contract: trial ``i`` of an experiment draws from
``RngStream(seed, stream_id=i)`` and nothing else, so the per-trial
records are a pure function of (config, trial index). Workers only decide
who computes which index; aggregation is always in index order, which is
why worker count cannot change a single output byte.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Sequence, Union, get_args

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
    run_trial,
)
from .analysis import BoundReport, bound_report, required_n
from .encoding import EncodingScheme, Placement, family_delta, place_pebbles, route
# shortest_path is not called here, but bench/spans.py wraps this name
from .graph import PortGraph, GadgetSpec, gen_gpqr, gen_padded_path, parse_graph, shortest_path
from .rng import RngStream

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


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    summary: SummaryStats
    records: tuple[TrialResult, ...]


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
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
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
    if head == "qudit":
        return QuditOneShot()
    if head == "random":
        return RandomWalk()
    if head == "table":
        kv = _parse_kv(rest, "table")
        actions: dict[tuple[int, bool], int | None] = {}
        for key, val in kv.items():
            if len(key) < 2 or key[-1] not in "pn" or not key[:-1].isdigit():
                raise ValueError(f"table keys look like 3p/3n/1p/1n, got {key!r}")
            degree = int(key[:-1])
            pebbled = key[-1] == "p"
            actions[(degree, pebbled)] = None if val == "s" else _spec_int(val, "strategy", text)
        if not actions:
            raise ValueError("table strategy needs at least one action")
        return ClassicalTable(DecisionTable(actions))
    raise ValueError(f"unknown strategy {text!r}")


def _trial_range(args) -> list[TrialResult]:
    g, placement, strategy, budget, seed, lo, hi = args
    # run_trial is looked up per trial, as this module's global, so it can be replaced
    return [run_trial(g, placement, strategy, budget, RngStream(seed, stream_id=i)) for i in range(lo, hi)]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run cfg.trials independent trials and aggregate by trial index.

    Results are identical for any worker count: trial i depends only on
    (cfg, i).
    """
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0.0 < cfg.eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {cfg.eps}")
    g = parse_graph_source(cfg.graph_source, cfg.seed)
    # route checks g and gives the path the pebbles sit on; D is its length
    placement: Union[Placement, frozenset[int]]
    if isinstance(cfg.strategy, (ClassicalTable, RandomWalk)):
        steps = route(g)
        placement = frozenset(node for node, _ in steps)
        dist = len(steps)
    else:
        placement = place_pebbles(g, cfg.scheme)
        dist = len(placement.pebbles)
    budget = cfg.step_budget if cfg.step_budget is not None else dist
    eff_delta = family_delta(g.max_degree)

    strategy = cfg.strategy
    if isinstance(strategy, FixedN) and strategy.n is None:
        strategy = FixedN(required_n(dist, eff_delta, cfg.eps))

    # one chunk per worker; a single chunk runs in this process
    chunk = -(-cfg.trials // workers)
    payloads = [
        (g, placement, strategy, budget, cfg.seed, lo, min(lo + chunk, cfg.trials))
        for lo in range(0, cfg.trials, chunk)
    ]
    if len(payloads) == 1:
        blocks = [_trial_range(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_trial_range, payloads))
    done = tuple(chain.from_iterable(blocks))
    successes = sum(r.success for r in done)
    breakdown: dict[str, int] = {kind.value: 0 for kind in FailureKind}
    for r in done:
        breakdown[r.failure_kind.value] += 1
    n_for_bound = strategy.n if isinstance(strategy, FixedN) else None
    summary = SummaryStats(
        trials=cfg.trials,
        successes=successes,
        success_rate=successes / cfg.trials,
        wilson_ci_95=wilson_ci(successes, cfg.trials),
        mean_steps=sum(r.steps_taken for r in done) / cfg.trials,
        mean_measurements=sum(r.measurements_total for r in done) / cfg.trials,
        failure_breakdown=breakdown,
        bound=bound_report(dist, eff_delta, n=n_for_bound, eps=cfg.eps),
    )
    return ExperimentResult(config=cfg, summary=summary, records=done)


_SWEEP_AXES = ("n", "D", "delta")


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: Sequence[int],
    workers: int = 1,
) -> list[tuple[int, SummaryStats]]:
    """Re-run the experiment along one axis with a shared base seed.

    axis 'n' varies the FixedN sample count; 'D' and 'delta' rewrite the
    path-generator spec.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    out = []
    for v in values:
        if axis == "n":
            if not isinstance(cfg.strategy, FixedN):
                raise ValueError("axis 'n' requires a FixedN strategy")
            sub = replace(cfg, strategy=FixedN(int(v)))
        else:
            if not (isinstance(cfg.graph_source, str) and cfg.graph_source.startswith("path:")):
                raise ValueError(f"axis {axis!r} requires a path generator graph_source")
            kv = _parse_kv(cfg.graph_source[len("path:") :], "path generator")
            kv["D" if axis == "D" else "delta"] = str(int(v))
            sub = replace(cfg, graph_source=f"path:D={kv['D']},delta={kv['delta']}")
        out.append((int(v), run_experiment(sub, workers=workers).summary))
    return out


def records_to_csv(records: Sequence[TrialResult]) -> str:
    """Per-trial table. Fixed columns, LF newlines, byte-stable."""
    lines = ["trial,success,steps,measurements,failure_kind"]
    for i, r in enumerate(records):
        lines.append(f"{i},{int(r.success)},{r.steps_taken},{r.measurements_total},{r.failure_kind.value}")
    return "\n".join(lines) + "\n"


def records_to_json(records: Sequence[TrialResult]) -> str:
    rows = [
        {
            "trial": i,
            "success": r.success,
            "steps": r.steps_taken,
            "measurements": r.measurements_total,
            "failure_kind": r.failure_kind.value,
        }
        for i, r in enumerate(records)
    ]
    return json.dumps(rows, indent=2) + "\n"


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


# config_from_dict's type check per key, and how errors name the expected type;
# the accepted keys are ExperimentConfig's fields
_CONFIG_TYPES = {
    "graph_source": ((str, PortGraph), "a generator spec or file path"),
    "scheme": ((str, EncodingScheme), "a scheme name"),
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
        kwargs["scheme"] = EncodingScheme(kwargs["scheme"])
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
