"""Experiment harness: config plumbing, determinism, aggregation, sweeps."""

import json
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from qpebble import (
    Adaptive,
    ClassicalTable,
    EncodingScheme,
    ExperimentConfig,
    FixedN,
    PortGraph,
    QuditOneShot,
    RandomWalk,
    gen_padded_path,
    parse_graph_source,
    parse_strategy,
    records_to_csv,
    records_to_json,
    run_experiment,
    sweep,
    wilson_ci,
)
from qpebble import graph as graph_module
from qpebble.analysis import bound_report
from qpebble.graph import serialize_graph
from qpebble.harness import config_from_dict, env_seed_default, sweep_table_csv


def test_wilson_ci_basic_shape():
    lo, hi = wilson_ci(30, 100)
    assert 0.0 < lo < 0.3 < hi < 1.0
    assert wilson_ci(0, 50)[0] == 0.0
    assert wilson_ci(50, 50)[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wilson_ci(5, 0)
    with pytest.raises(ValueError):
        wilson_ci(7, 5)


def test_wilson_ci_against_known_value():
    # p_hat = 0.5, n = 100, z = 1.96: the textbook interval
    lo, hi = wilson_ci(50, 100)
    assert lo == pytest.approx(0.40383, abs=2e-4)
    assert hi == pytest.approx(0.59617, abs=2e-4)


def test_wilson_ci_coverage():
    """95% interval covers the true p in at least 93% of 1000 synthetic
    binomial experiments."""
    rng = np.random.default_rng(42)
    p, n, reps = 0.3, 200, 1000
    covered = 0
    for k in rng.binomial(n, p, size=reps):
        lo, hi = wilson_ci(int(k), n)
        covered += lo <= p <= hi
    assert covered / reps >= 0.93


BASE = ExperimentConfig(graph_source="path:D=10,delta=4", trials=300, seed=7)


def test_run_experiment_resolves_auto_n():
    res = run_experiment(BASE)
    assert res.summary.bound.required_n == 53
    for r in res.records:
        if r.success:
            assert r.steps_taken == 10
            assert r.measurements_total == 10 * 53 * 2


def test_run_experiment_is_deterministic():
    a = run_experiment(BASE)
    b = run_experiment(BASE)
    assert a.records == b.records
    assert a.summary == b.summary


def test_worker_count_does_not_change_results():
    small = ExperimentConfig(graph_source="path:D=4,delta=4", trials=120, seed=3)
    solo = run_experiment(small, workers=1)
    pooled = run_experiment(small, workers=3)
    assert solo.records == pooled.records
    assert records_to_csv(solo.records) == records_to_csv(pooled.records)


def test_summary_aggregation_is_consistent():
    res = run_experiment(ExperimentConfig(graph_source="path:D=3,delta=4", trials=200, seed=1))
    s = res.summary
    assert s.trials == 200
    assert s.successes == sum(r.success for r in res.records)
    assert s.success_rate == pytest.approx(s.successes / 200)
    assert sum(s.failure_breakdown.values()) == 200
    assert s.failure_breakdown["none"] == s.successes
    assert s.mean_steps == pytest.approx(sum(r.steps_taken for r in res.records) / 200)
    lo, hi = s.wilson_ci_95
    assert lo <= s.success_rate <= hi


def test_step_budget_defaults_to_distance():
    res = run_experiment(ExperimentConfig(graph_source="path:D=4,delta=4", trials=50, seed=2))
    assert all(r.steps_taken <= 4 for r in res.records)
    longer = ExperimentConfig(
        graph_source="path:D=4,delta=4", trials=50, seed=2, strategy=RandomWalk(), step_budget=64
    )
    res2 = run_experiment(longer)
    assert any(r.steps_taken > 4 for r in res2.records)


def test_classical_strategies_run_without_quantum_placement():
    cfg = ExperimentConfig(
        graph_source="gpqr:p=2,q=2,r=2,swaps=100",
        strategy=parse_strategy("table:3p=1,3n=0,1p=0,1n=0"),
        trials=5,
        seed=0,
        step_budget=7,
    )
    res = run_experiment(cfg)
    assert res.summary.successes == 0
    assert all(r.failure_kind.value == "step_budget_exhausted" for r in res.records)


@pytest.mark.parametrize("strategy", ["random", "table:1p=0,1n=0,2p=1,2n=1", "fixed:auto", "adaptive"])
def test_invalid_in_memory_graph_is_rejected_for_every_strategy(strategy):
    for graph, message in [
        # node 1 has ports 0 and 2 but no port 1
        (PortGraph(3, ((0, 0, 1, 0), (1, 2, 2, 0)), 0, 2), r"port set not contiguous at node 1: \[0, 2\]"),
        # two separate edges, start and treasure on different ones
        (PortGraph(4, ((0, 0, 1, 0), (2, 0, 3, 0)), 0, 3), r"not connected: node 2 unreachable"),
    ]:
        cfg = ExperimentConfig(graph_source=graph, strategy=parse_strategy(strategy), trials=3)
        with pytest.raises(ValueError, match=f"^invalid graph: {message}$"):
            run_experiment(cfg)


@pytest.mark.parametrize("strategy", ["fixed:auto", "adaptive", "random"])
@pytest.mark.parametrize("source", ["path", "file", "memory"])
def test_a_run_checks_the_graph_once_and_searches_the_route_once(source, strategy, tmp_path, monkeypatch):
    """One validation (whose connectivity check is one BFS) and one route
    BFS per run, however the graph arrives."""
    graph_source = gen_padded_path(6, 4, 2)
    if source == "path":
        graph_source = "path:D=6,delta=4"
    elif source == "file":
        (tmp_path / "g.txt").write_text(serialize_graph(graph_source))
        graph_source = str(tmp_path / "g.txt")
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(graph_module, "_bfs", counted("bfs", graph_module._bfs))
    monkeypatch.setattr(graph_module, "_first_violation", counted("validation", graph_module._first_violation))
    cfg = ExperimentConfig(graph_source=graph_source, strategy=parse_strategy(strategy), trials=3, seed=1)
    res = run_experiment(cfg)
    assert counts == {"bfs": 2, "validation": 1}
    assert res.summary.bound == bound_report(6, 4, n=res.summary.bound.required_n, eps=cfg.eps)
    if strategy != "random":
        assert all(r.steps_taken <= 6 for r in res.records)


def test_adaptive_and_qudit_through_the_harness():
    ad = run_experiment(
        ExperimentConfig(graph_source="path:D=5,delta=4", strategy=Adaptive(), trials=100, seed=5)
    )
    assert ad.summary.success_rate == 1.0
    assert ad.summary.mean_measurements < 5 * 53 * 2
    qd = run_experiment(
        ExperimentConfig(
            graph_source="path:D=5,delta=4",
            scheme=EncodingScheme.QUDIT,
            strategy=QuditOneShot(),
            trials=100,
            seed=5,
        )
    )
    assert qd.summary.success_rate == 1.0
    assert qd.summary.mean_measurements == 5.0


def test_sweep_over_n_is_monotone():
    cfg = ExperimentConfig(graph_source="path:D=3,delta=4", trials=400, seed=9)
    rows = sweep(cfg, "n", [1, 4, 12, 45])
    rates = [s.success_rate for _, s in rows]
    assert rates[0] == 0.0  # n=1 is always ambiguous at delta=4
    assert all(b >= a - 0.05 for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.95


def test_sweep_over_distance_rewrites_the_generator():
    cfg = ExperimentConfig(graph_source="path:D=2,delta=4", trials=60, seed=4)
    rows = sweep(cfg, "D", [2, 5])
    for want_d, (value, s) in zip([2, 5], rows):
        assert value == want_d
        assert s.trials == 60
    # success at larger D needs more steps
    assert rows[1][1].mean_steps > rows[0][1].mean_steps


def test_sweep_validation():
    cfg = ExperimentConfig(graph_source="path:D=2,delta=4", trials=10, seed=0)
    with pytest.raises(ValueError, match="axis"):
        sweep(cfg, "eps", [1])
    with pytest.raises(ValueError, match="at least one"):
        sweep(cfg, "n", [])
    with pytest.raises(ValueError, match="FixedN"):
        sweep(ExperimentConfig(graph_source="path:D=2,delta=4", strategy=RandomWalk()), "n", [1])
    g = gen_padded_path(2, 4, 0)
    with pytest.raises(ValueError, match="path generator"):
        sweep(ExperimentConfig(graph_source=g), "D", [2])
    with pytest.raises(ValueError, match=r"^FixedN.n must be >= 1, got 0$"):
        sweep(cfg, "n", [0])


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(workers):
    cfg = ExperimentConfig(graph_source="path:D=2,delta=4", trials=10, seed=0)
    with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
        run_experiment(cfg, workers=workers)
    with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
        sweep(cfg, "n", [2], workers=workers)


def test_sweep_table_csv_shape():
    cfg = ExperimentConfig(graph_source="path:D=2,delta=4", trials=20, seed=0)
    rows = sweep(cfg, "n", [2, 8])
    text = sweep_table_csv("n", rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("axis,value,trials,")
    assert len(lines) == 3
    assert lines[1].startswith("n,2,20,")


def test_parse_strategy_forms():
    assert parse_strategy("fixed:auto") == FixedN(None)
    assert parse_strategy("fixed") == FixedN(None)
    assert parse_strategy("fixed:53") == FixedN(53)
    assert parse_strategy("fixed:n=53") == FixedN(53)
    assert parse_strategy("adaptive") == Adaptive()
    assert parse_strategy("adaptive:200") == Adaptive(200)
    assert parse_strategy("adaptive:cap=64") == Adaptive(64)
    assert parse_strategy("qudit") == QuditOneShot()
    assert parse_strategy("random") == RandomWalk()
    table = parse_strategy("table:3p=1,3n=0,1p=s,1n=0")
    assert isinstance(table, ClassicalTable)
    assert table.table.action(3, True) == 1
    assert table.table.action(1, True) is None
    with pytest.raises(ValueError, match="unknown strategy"):
        parse_strategy("psychic")
    with pytest.raises(ValueError, match="table keys"):
        parse_strategy("table:x=1")
    with pytest.raises(ValueError, match=r"^FixedN.n must be >= 1, got 0$"):
        parse_strategy("fixed:0")


def test_parse_graph_source_forms(tmp_path):
    g = parse_graph_source("path:D=3,delta=4", seed=5)
    assert g.node_count == 3 + 1 + 2 * 2
    same = parse_graph_source(g, seed=99)
    assert same is g
    gadget = parse_graph_source("gpqr:p=2,q=1,r=0,swaps=010", seed=0)
    assert gadget.node_count == 6
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 1\n0 0 1 0\n")
    loaded = parse_graph_source(str(path), seed=0)
    assert loaded.node_count == 2
    with pytest.raises(ValueError, match="missing"):
        parse_graph_source("path:D=3", seed=0)
    with pytest.raises(ValueError, match="unknown path generator keys"):
        parse_graph_source("path:D=3,delta=4,bogus=1", seed=0)
    with pytest.raises(ValueError, match="three binary digits"):
        parse_graph_source("gpqr:p=0,q=0,r=0,swaps=2", seed=0)


def test_records_csv_and_json_shapes():
    res = run_experiment(ExperimentConfig(graph_source="path:D=2,delta=4", trials=3, seed=1))
    text = records_to_csv(res.records)
    lines = text.split("\n")
    assert lines[0] == "trial,success,steps,measurements,failure_kind"
    assert len(lines) == 5 and lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] in ("0", "1")
    rows = json.loads(records_to_json(res.records))
    assert [r["trial"] for r in rows] == [0, 1, 2]
    assert set(rows[0]) == {"trial", "success", "steps", "measurements", "failure_kind"}


def test_config_from_dict():
    cfg = config_from_dict(
        {
            "graph_source": "path:D=4,delta=4",
            "scheme": "bitsign4",
            "strategy": "fixed:12",
            "trials": 77,
            "seed": 5,
            "step_budget": 9,
            "eps": 0.05,
        }
    )
    assert cfg.scheme is EncodingScheme.BITSIGN4
    assert cfg.strategy == FixedN(12)
    assert (cfg.trials, cfg.seed, cfg.step_budget, cfg.eps) == (77, 5, 9, 0.05)
    # every field is accepted, in its in-memory form too
    assert config_from_dict({f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)}) == cfg
    with pytest.raises(ValueError, match="graph_source"):
        config_from_dict({"trials": 3})
    base = {"graph_source": "path:D=4,delta=4"}
    with pytest.raises(ValueError, match="unknown config keys: \\['trails'\\]"):
        config_from_dict({**base, "trails": 5})
    for key, value in [("trials", [5]), ("seed", "7"), ("step_budget", 2.5), ("eps", True), ("graph_source", 3)]:
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            config_from_dict({**base, key: value})
    with pytest.raises(ValueError, match="strategy 'fixed:abc'"):
        config_from_dict({**base, "strategy": "fixed:abc"})


def test_env_seed_default(monkeypatch):
    monkeypatch.delenv("QPEBBLE_SEED", raising=False)
    assert env_seed_default() == 0
    monkeypatch.setenv("QPEBBLE_SEED", "314")
    assert env_seed_default() == 314
    monkeypatch.setenv("QPEBBLE_SEED", "abc")
    with pytest.raises(ValueError, match="QPEBBLE_SEED"):
        env_seed_default()


def test_bound_in_summary_reflects_the_graph():
    res = run_experiment(ExperimentConfig(graph_source="path:D=6,delta=8", trials=20, seed=2))
    assert res.summary.bound.required_n == res.summary.bound.as_json_dict()["required_n"]
    assert res.summary.bound.delta_bound == pytest.approx(math.cos(math.pi / 16) ** 2)
