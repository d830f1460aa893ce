"""Experiment harness: config plumbing, determinism, aggregation, sweeps."""

import gc
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from qpebble import (
    Adaptive,
    ClassicalTable,
    EncodingScheme,
    ExperimentConfig,
    FailureKind,
    FixedN,
    PortGraph,
    QuditOneShot,
    RandomWalk,
    RngStream,
    SummaryStats,
    TrialResult,
    gen_padded_path,
    parse_graph_source,
    parse_strategy,
    records_to_csv,
    records_to_json,
    run_experiment,
    run_trial,
    sweep,
    wilson_ci,
)
from qpebble import agent as agent_module
from qpebble import cli as cli_module
from qpebble import graph as graph_module
from qpebble import harness as harness_module
from qpebble.analysis import bound_report
from qpebble.encoding import Placement, place_pebbles
from qpebble.graph import serialize_graph, shortest_path
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


def test_the_pool_has_one_process_per_chunk(monkeypatch):
    # a pool forks all its workers at its first submit, so it must not outnumber the chunks
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(harness_module, "ProcessPoolExecutor", InProcessPool)
    cfg = ExperimentConfig(graph_source="path:D=4,delta=4", trials=2, seed=3)
    pooled = run_experiment(cfg, workers=8)
    assert sizes == [2]
    assert pooled.records == run_experiment(cfg, workers=1).records


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
    """One validation and one route search per run, however the graph arrives:
    the connectivity check and the route share the search's BFS from the treasure."""
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
    monkeypatch.setattr(graph_module, "_route_search", counted("search", graph_module._route_search))
    monkeypatch.setattr(graph_module, "_first_violation", counted("validation", graph_module._first_violation))
    cfg = ExperimentConfig(graph_source=graph_source, strategy=parse_strategy(strategy), trials=3, seed=1)
    res = run_experiment(cfg)
    assert counts == {"bfs": 1, "search": 1, "validation": 1}
    assert res.summary.bound == bound_report(6, 4, n=res.summary.bound.required_n, eps=cfg.eps)
    if strategy != "random":
        assert all(r.steps_taken <= 6 for r in res.records)


@pytest.mark.parametrize("scheme", [EncodingScheme.GENERAL, EncodingScheme.BITSIGN4, EncodingScheme.QUDIT])
def test_the_bench_set_up_searches_the_route_once(scheme, monkeypatch):
    """bench/child.py times parse_graph_source, a standalone shortest_path
    and place_pebbles; all three read one route search per graph."""
    calls = []
    search = graph_module._route_search
    monkeypatch.setattr(graph_module, "_route_search", lambda g, *ends: calls.append(g) or search(g, *ends))
    for seed in (1, 2):
        g = parse_graph_source("path:D=30,delta=4", seed)
        assert shortest_path(g, g.start, g.treasure)[0] == 30
        assert len(place_pebbles(g, scheme).nodes) == 30
        assert calls[-1] is g
    assert len(calls) == 2


@pytest.mark.parametrize("strategy", ["fixed:auto", "adaptive", "qudit", "random", "table:1p=0,1n=0,4p=0,4n=s"])
def test_run_experiment_calls_run_trial_once_per_trial(strategy, monkeypatch):
    """bench/child.py wraps harness.run_trial: its memory mode counts the
    records made per call and its trace takes the median of the per-call
    spans. So every trial stays one call, kept qudit and table records too.
    Trial i of every strategy gets its index i, which names its stream."""
    calls = []
    run_trial = harness_module.run_trial
    monkeypatch.setattr(harness_module, "run_trial", lambda *args: calls.append(args[-1]) or run_trial(*args))
    scheme = EncodingScheme.QUDIT if strategy == "qudit" else EncodingScheme.GENERAL
    cfg = ExperimentConfig(
        graph_source="path:D=4,delta=4", scheme=scheme, strategy=parse_strategy(strategy), trials=37, seed=3
    )
    assert len(run_experiment(cfg).records) == 37
    assert calls == list(range(37))


def test_arguments_are_checked_before_set_up(monkeypatch):
    """The rules run_trial applies reject a run before its graph is built,
    with run_trial's messages; an adaptive cap below the family size, which
    needs the graph's degree, before the pebbles are placed."""
    made = Counter()

    def counted(name):
        fn = getattr(harness_module, name)
        return lambda *args: made.update([name]) or fn(*args)

    for name in ("parse_graph_source", "place_pebbles"):
        monkeypatch.setattr(harness_module, name, counted(name))
    qudit = EncodingScheme.QUDIT
    for kwargs, message in [
        ({"step_budget": 0}, "step_budget must be >= 1, got 0"),
        ({"strategy": RandomWalk(), "step_budget": -1}, "step_budget must be >= 1, got -1"),
        ({"strategy": QuditOneShot()}, "QuditOneShot requires the qudit scheme"),
        ({"strategy": QuditOneShot(), "scheme": EncodingScheme.BITSIGN4}, "QuditOneShot requires the qudit scheme"),
        ({"strategy": FixedN(), "scheme": qudit}, "FixedN cannot decode scheme qudit"),
        ({"strategy": Adaptive(), "scheme": qudit}, "Adaptive cannot decode scheme qudit"),
        ({"scheme": EncodingScheme.FULL_PATH}, "full_path is analysis-only; a walking agent cannot decode it"),
    ]:
        cfg = ExperimentConfig(graph_source="path:D=20,delta=8", trials=3, **kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(cfg)
    assert made == {}
    with pytest.raises(ValueError, match=r"^cap 3 below family size 4$"):
        run_experiment(ExperimentConfig(graph_source="path:D=20,delta=8", strategy=Adaptive(3), trials=3))
    assert made == {"parse_graph_source": 1}
    # classical strategies ignore the scheme; a sound cap places the pebbles
    run_experiment(ExperimentConfig(graph_source="path:D=2,delta=4", scheme=qudit, strategy=RandomWalk(), trials=2))
    run_experiment(ExperimentConfig(graph_source="path:D=2,delta=4", strategy=Adaptive(2), trials=2))
    assert made == {"parse_graph_source": 3, "place_pebbles": 1}


def test_trial_streams_stop_below_the_generators_stream(monkeypatch):
    """Trial i draws from stream i, and gen_padded_path from stream
    _GEN_STREAM: a path: run or n sweep of more trials than that is refused
    before its graph is parsed. Other sources are not checked."""
    parsed = []
    monkeypatch.setattr(harness_module, "parse_graph_source", lambda *args: parsed.append(args) or 1 / 0)
    many = graph_module._GEN_STREAM + 1
    message = f"trials must be <= 1735549296, the stream drawing a path: graph's ports, got {many}"
    assert graph_module._GEN_STREAM == 1735549296
    cfg = ExperimentConfig(graph_source="path:D=10,delta=4", trials=many)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(cfg)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep(cfg, "n", [4, 5])
    assert parsed == []
    with pytest.raises(ZeroDivisionError):  # a file is parsed: its trial count is not checked here
        run_experiment(replace(cfg, graph_source="graph.txt"))


def test_shared_records_aggregate_and_print_like_distinct_ones():
    """A qudit run's trials share one record object; the summary, CSV and
    JSON count and print it once per trial, as for equal distinct records."""
    cfg = ExperimentConfig(
        graph_source="path:D=6,delta=4", scheme=EncodingScheme.QUDIT, strategy=QuditOneShot(), trials=50, seed=2
    )
    res = run_experiment(cfg)
    assert len({id(r) for r in res.records}) == 1
    assert (res.summary.successes, res.summary.mean_steps, res.summary.mean_measurements) == (50, 6.0, 6.0)
    assert res.summary.failure_breakdown["none"] == 50
    other = run_experiment(ExperimentConfig(graph_source="path:D=3,delta=4", trials=5, seed=1)).records
    mixed = (res.records[0], *other, res.records[0], replace(res.records[0]), other[0])
    copies = tuple(replace(r) for r in mixed)
    assert records_to_csv(mixed) == records_to_csv(copies)
    assert records_to_json(mixed) == records_to_json(copies)
    lines = records_to_csv(mixed).splitlines()
    assert (lines[1], lines[7], lines[8]) == ("0,1,6,6,none", "6,1,6,6,none", "7,1,6,6,none")
    assert json.loads(records_to_json(mixed))[8] == {**json.loads(records_to_json(other))[0], "trial": 8}


def test_records_to_json_writes_the_bytes_of_json_dumps():
    """records_to_json formats each distinct row once; its bytes must be those
    of json.dumps(rows, indent=2) plus a newline, for every failure kind, both
    success values, large counts, one record and none."""
    records = [TrialResult(kind is FailureKind.NONE, 3 * i, 40 * i, kind) for i, kind in enumerate(FailureKind)]
    records += [TrialResult(False, 0, 0, FailureKind.NONE), TrialResult(True, 10**9, 2**70, FailureKind.NONE)]
    # repeated objects, then equal copies: runs of one object, and runs merged across objects
    records += records[::-1] + [replace(r) for r in records]
    for case in (records, records[-len(FailureKind) - 2 :], records[:1], []):
        rows = [
            {"trial": i, "success": r.success, "steps": r.steps_taken, "measurements": r.measurements_total,
             "failure_kind": r.failure_kind.value}
            for i, r in enumerate(case)
        ]
        assert records_to_json(case) == json.dumps(rows, indent=2) + "\n"


def test_no_failure_kind_needs_json_escaping():
    """records_to_json writes each kind between two quotes as it is."""
    for kind in FailureKind:
        assert json.dumps(kind.value) == f'"{kind.value}"'


def _plain_csv(records):
    rows = "".join(
        f"{i},{int(r.success)},{r.steps_taken},{r.measurements_total},{r.failure_kind.value}\n"
        for i, r in enumerate(records)
    )
    return "trial,success,steps,measurements,failure_kind\n" + rows


def _plain_json(records):
    rows = [
        {"trial": i, "success": r.success, "steps": r.steps_taken, "measurements": r.measurements_total,
         "failure_kind": r.failure_kind.value}
        for i, r in enumerate(records)
    ]
    return json.dumps(rows, indent=2) + "\n"


def _record_cases():
    """Record sequences that shape the runs of equal rows in every way, and put
    their bounds before, on, after and across the indices' digit-width edges."""
    a = TrialResult(True, 10, 530, FailureKind.NONE)
    b = TrialResult(False, 3, 212, FailureKind.AMBIGUOUS_DECODE)
    c = TrialResult(False, 10, 10, FailureKind.STEP_BUDGET_EXHAUSTED)
    return {
        "empty": [],
        "single": [b],
        "one object 1000 times": [a] * 1000,
        "equal copies": [replace(a) for _ in range(1000)],
        "two objects alternating": [a, b] * 500,
        "equal objects alternating": [a, replace(a)] * 500,
        "runs at both ends": [a] * 7 + [b, c, c, replace(b)] + [replace(c)] * 3 + [a] * 5,
        "lone trials at both ends": [c] + [a] * 9 + [b, b, replace(b)] + [c],
        "runs across width edges": [a] * 998 + [b] * 5 + [a] * 9000 + [c],
        "runs cut at width edges": [a] * 10 + [b] * 90 + [c] * 900 + [a] * 9000 + [b],
        "lone trials at width edges": [a] * 9 + [b, c] + [a] * 88 + [b, c] + [a] * 899 + [b, c],
        "ten trials": [a] * 9 + [b],
        "a hundred trials": [a] * 100,
    }


def _result_of(records, monkeypatch):
    """run_experiment's result for a run whose trials are these records."""
    # trial i gets its index i, which picks the record
    monkeypatch.setattr(harness_module, "run_trial", lambda g, placement, strategy, budget, i: records[i])
    cfg = ExperimentConfig(graph_source="path:D=4,delta=4", strategy=RandomWalk(), trials=len(records), seed=1)
    return run_experiment(cfg)


@pytest.mark.parametrize("case", list(_record_cases()))
def test_writers_match_a_per_row_reference(case, monkeypatch):
    """The writers format a run of equal rows at once; their bytes must be those
    of one line per trial, and of json.dumps(rows, indent=2), whether they get
    the records or a run's result, whose runs they then reuse."""
    records = _record_cases()[case]
    for seq in (records, tuple(records)):
        assert records_to_csv(seq) == _plain_csv(records)
        assert records_to_json(seq) == _plain_json(records)
    if records:
        res = _result_of(records, monkeypatch)
        assert records_to_csv(res) == records_to_csv(res.records) == _plain_csv(records)
        assert records_to_json(res) == records_to_json(res.records) == _plain_json(records)


@pytest.mark.parametrize("case", [name for name in _record_cases() if name != "empty"])
def test_summary_equals_one_from_a_counter_of_rows(case, monkeypatch):
    """run_experiment aggregates by runs of equal rows; its summary must equal
    one made from a plain Counter of the trials' rows."""
    records = _record_cases()[case]
    res = _result_of(records, monkeypatch)
    assert res.records == tuple(records)
    rows = Counter((r.success, r.steps_taken, r.measurements_total, r.failure_kind.value) for r in records)
    successes = sum(count for (success, *_), count in rows.items() if success)
    breakdown = {kind.value: 0 for kind in FailureKind}
    for (*_, kind), count in rows.items():
        breakdown[kind] += count
    assert res.summary == SummaryStats(
        trials=len(records),
        successes=successes,
        success_rate=successes / len(records),
        wilson_ci_95=wilson_ci(successes, len(records)),
        mean_steps=sum(steps * count for (_, steps, _, _), count in rows.items()) / len(records),
        mean_measurements=sum(meas * count for (_, _, meas, _), count in rows.items()) / len(records),
        failure_breakdown=breakdown,
        bound=res.summary.bound,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_simulate_finds_the_runs_of_equal_rows_once(fmt, tmp_path, monkeypatch):
    """run_experiment finds the runs for the summary and keeps them on its
    result, and the CLI's writer reuses them rather than scanning the records again."""
    calls = []
    find = harness_module._record_runs

    def counted(records):
        calls.append(len(records))
        return find(records)

    monkeypatch.setattr(harness_module, "_record_runs", counted)
    out = tmp_path / "records"
    argv = ["simulate", "--gen", "path:D=10,delta=4", "--scheme", "qudit", "--strategy", "qudit", "--trials", "300",
            "--format", fmt, "--out", str(out)]
    assert cli_module.main(argv) == 0
    assert calls == [300]
    assert out.read_text().count("true" if fmt == "json" else ",1,10,") == 300


def test_records_are_a_read_only_view_over_the_runs(monkeypatch):
    """ExperimentResult keeps runs only; its records make a TrialResult on lookup, one per run when iterated."""
    records = _record_cases()["runs at both ends"]
    view = _result_of(records, monkeypatch).records
    assert len(view) == len(records) and list(view) == records and view == tuple(records)
    assert [view[i] for i in range(-len(records), len(records))] == records + records
    assert view[3:11:2] == tuple(records[3:11:2]) and view[::-1] == tuple(records[::-1])
    assert len({id(r) for r in list(view)}) == len(view.runs) == 6  # one object per run
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = records[0]


_A, _B = TrialResult(True, 10, 530, FailureKind.NONE), TrialResult(False, 3, 212, FailureKind.AMBIGUOUS_DECODE)
_PIECE = 2**14


class _Writes(list):
    """A text stream that keeps each write."""

    write = list.append

    def writelines(self, texts):
        self.extend(texts)


@pytest.mark.parametrize("trials", [9, 10, 11, 99, 100, 101, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 5])
@pytest.mark.parametrize("shape", ["one run", "alternating"])
def test_writers_in_pieces_match_a_per_row_reference(trials, shape, tmp_path, capsys, monkeypatch):
    """The writers go out in pieces of at most 2**14 trials, a long run split and each piece's index column
    built from its first index. At every digit-width edge and piece seam their bytes must be the per-row
    reference's: returned, written to a file, and on stdout (--out -, with the summary on stderr)."""
    records = [_A] * trials if shape == "one run" else [(_A, _B)[i % 2] for i in range(trials)]
    res = _result_of(records, monkeypatch)
    argv = ["simulate", "--gen", "path:D=4,delta=4", "--strategy", "random", "--trials", str(trials), "--seed", "1",
            "--out", "-"]
    for fmt, write, plain in [("csv", records_to_csv, _plain_csv(records)), ("json", records_to_json, _plain_json(records))]:
        assert write(res) == write(records) == plain
        with open(tmp_path / "records", "w", encoding="utf-8", newline="") as fh:
            assert write(res, fh) is None
        assert (tmp_path / "records").read_bytes() == plain.encode()
        pieces = _Writes()
        write(res, pieces)
        assert "".join(pieces) == plain and len(pieces) <= 2 * -(-trials // _PIECE) + 1
        assert max(piece.count("\n" if fmt == "csv" else '"trial": ') for piece in pieces) <= _PIECE
        assert cli_module.main(argv + ["--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert json.loads(err)["trials"] == trials


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("strategy", ["qudit", "fixed:auto"])
def test_chunks_merge_their_runs_at_the_seams(strategy, workers):
    """Each chunk returns its runs, and run_experiment merges them where a seam falls inside a run of equal
    rows: on a trial count the workers do not divide, runs, records and CSV bytes equal those of one chunk."""
    scheme = EncodingScheme.QUDIT if strategy == "qudit" else EncodingScheme.GENERAL
    cfg = ExperimentConfig(
        graph_source="path:D=10,delta=4", scheme=scheme, strategy=parse_strategy(strategy), trials=1001, seed=3
    )
    solo, pooled = run_experiment(cfg), run_experiment(cfg, workers=workers)
    chunk = -(-1001 // workers)
    assert any(lo < seam < hi for _, lo, hi in solo.runs for seam in range(chunk, 1001, chunk))
    assert pooled.runs == solo.runs and pooled.records == solo.records
    assert records_to_csv(pooled) == records_to_csv(solo)


def test_a_chunk_returns_its_runs_not_its_records():
    """A chunk folds each slice of its trials into runs, so what it returns (and pickles) is O(runs)."""
    g = parse_graph_source("path:D=10,delta=4", 7)
    runs = harness_module._trial_range((g, place_pebbles(g, EncodingScheme.QUDIT), QuditOneShot(), 10, 7, 5, 10**5 + 5))
    assert runs == [((True, 10, 10, "none"), 5, 10**5 + 5)]
    assert len(pickle.dumps(runs)) < 4096


def _traced_peak(cfg, path) -> int:
    """tracemalloc's peak bytes over run_experiment and a CSV write of its records to a file."""
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            records_to_csv(run_experiment(cfg), fh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy, small, large", [("qudit", 10**4, 10**6), ("fixed:auto", 10**4, 2 * 10**5)])
def test_a_run_and_its_csv_write_hold_memory_bounded_in_the_trials(strategy, small, large, tmp_path):
    """Records are kept as runs and written in pieces, so the peak grows by at most one slice of records between a
    run within one slice and one of many slices (fixed-n trials return one kept record per row, so a slice holds
    references, not 2.6 MB of TrialResults)."""
    scheme = EncodingScheme.QUDIT if strategy == "qudit" else EncodingScheme.GENERAL
    cfg = ExperimentConfig("path:D=10,delta=4", scheme, parse_strategy(strategy), small, seed=7)
    run_experiment(cfg)  # lazily built tables are not counted
    peaks = [_traced_peak(replace(cfg, trials=n), tmp_path / "records.csv") for n in (small, large)]
    assert peaks[1] - peaks[0] < 4 * 2**20


_PEAK_RSS = """import sys
from qpebble import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_a_simulate_process_peak_rss_does_not_grow_with_the_trials(tmp_path):
    """A simulate of 2e6 qudit trials to a file peaks within 10 MB of one of 1e4 (it grew by about 150 MB
    with a record per trial and the whole text built before the write)."""
    src = os.path.dirname(os.path.dirname(harness_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out, peaks = tmp_path / "records.csv", []
    for trials in (10**4, 2 * 10**6):
        argv = ["simulate", "--gen", "path:D=10,delta=4", "--scheme", "qudit", "--strategy", "qudit", "--trials",
                str(trials), "--seed", "7", "--out", str(out)]
        done = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        peaks.append(int(done.stderr.split()[-1]))
        assert out.stat().st_size > 17 * trials
    out.unlink()
    assert peaks[1] - peaks[0] < 10 * 1024


@pytest.mark.parametrize("strategy", ["fixed:auto", "adaptive", "qudit", "random", "table:1p=0,1n=0,4p=0,4n=s"])
def test_a_run_checks_its_trial_arguments_once(strategy, monkeypatch):
    """_check_args runs once per run-level check, and in run_trial once for the
    run's one set of arguments, not once per trial."""
    calls = []
    check = agent_module._check_args

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(agent_module, "_check_args", counted)
    monkeypatch.setattr(harness_module, "_check_args", counted)
    scheme = EncodingScheme.QUDIT if strategy == "qudit" else EncodingScheme.GENERAL
    cfg = ExperimentConfig(
        graph_source="path:D=4,delta=4", scheme=scheme, strategy=parse_strategy(strategy), trials=40, seed=3
    )
    assert len(run_experiment(cfg).records) == 40
    classical = strategy == "random" or strategy.startswith("table:")
    # the run's checks: the rules before set-up, then (quantum strategies) the family size
    run_level = 1 if classical else 2
    assert len(calls) == run_level + 1
    assert calls[-1][2] == 4  # run_trial's, with the run's budget


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
    # only the swept key is rewritten, so the spec's other keys are checked as simulate checks them
    with pytest.raises(ValueError, match=r"^path generator needs D and delta, missing 'D'$"):
        sweep(ExperimentConfig(graph_source="path:delta=4", trials=2), "delta", [4])
    with pytest.raises(ValueError, match=r"^unknown path generator keys: \['x'\]$"):
        sweep(ExperimentConfig(graph_source="path:D=5,delta=4,x=1", trials=2), "D", [3])


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(workers):
    cfg = ExperimentConfig(graph_source="path:D=2,delta=4", trials=10, seed=0)
    with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
        run_experiment(cfg, workers=workers)
    with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
        sweep(cfg, "n", [2], workers=workers)


@pytest.mark.parametrize("strategy", [Adaptive(), RandomWalk(), FixedN(3), FixedN(None)])
@pytest.mark.parametrize("eps", [2.0, 0.0, -0.5])
def test_eps_out_of_range_is_rejected_before_any_trial(strategy, eps, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness_module, "run_trial", no_trial)
    cfg = ExperimentConfig(graph_source="path:D=4,delta=4", strategy=strategy, trials=30000, eps=eps)
    with pytest.raises(ValueError, match=rf"^eps must be in \(0, 1\), got {eps}$"):
        run_experiment(cfg)


def test_a_sweep_over_n_builds_its_graph_once(monkeypatch):
    made = []
    monkeypatch.setattr(harness_module, "gen_padded_path", lambda *args: made.append(args) or gen_padded_path(*args))
    cfg = ExperimentConfig(graph_source="path:D=6,delta=4", trials=4, seed=3)
    rows = sweep(cfg, "n", [2, 5, 9])
    assert made == [(6, 4, 3)]
    assert rows == [(n, run_experiment(replace(cfg, strategy=FixedN(n))).summary) for n in (2, 5, 9)]
    # the strategy is checked before the graph source is read
    with pytest.raises(ValueError, match="^axis 'n' requires a FixedN strategy$"):
        sweep(replace(cfg, graph_source="missing_file.txt", strategy=Adaptive()), "n", [2])


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


@pytest.mark.parametrize("spec", ["qudit:5", "qudit:", "random:xyz", "random:"])
def test_parameterless_strategies_reject_trailing_text(spec):
    head = spec.partition(":")[0]
    with pytest.raises(ValueError, match=f"^{re.escape(f'strategy {head} takes no parameters, got {spec!r}')}$"):
        parse_strategy(spec)


def test_repeated_spec_keys_are_rejected():
    with pytest.raises(ValueError, match=r"^duplicate path generator key 'D'$"):
        parse_graph_source("path:D=3,delta=4, D =5", seed=0)
    with pytest.raises(ValueError, match=r"^duplicate gpqr generator key 'p'$"):
        parse_graph_source("gpqr:p=1,q=0,r=0,p=2", seed=0)
    with pytest.raises(ValueError, match=r"^duplicate table key '3p'$"):
        parse_strategy("table:3p=1,3p=0")


@pytest.mark.parametrize(
    "scheme, strategy", [(EncodingScheme.GENERAL, FixedN()), (EncodingScheme.QUDIT, QuditOneShot())]
)
def test_a_run_releases_its_graph(scheme, strategy, monkeypatch):
    """A harness chunk's run holds its graph and placement alive; the chunk
    closes once its trials are done, and nothing else keeps them."""
    made = []
    parse = harness_module.parse_graph_source
    monkeypatch.setattr(harness_module, "parse_graph_source", lambda *args: made.append(parse(*args)) or made[-1])
    cfg = ExperimentConfig(graph_source="path:D=30,delta=4", scheme=scheme, strategy=strategy, trials=50)
    assert run_experiment(cfg).summary.successes > 0
    graph = weakref.ref(made.pop())
    gc.collect()
    assert graph() is None


@pytest.mark.parametrize(
    "scheme, strategy", [(EncodingScheme.GENERAL, FixedN(5)), (EncodingScheme.QUDIT, QuditOneShot())]
)
def test_a_chunk_closes_however_it_ends(scheme, strategy, monkeypatch):
    """bench/child.py's memory mode ends a run by raising from run_trial. A
    run that raises at trial 5 of 20 leaves no chunk open and its graph
    freed, so a trial index names no stream after it. Inside an open chunk,
    calls with another strategy object, budget or placement get their fresh
    streams' records, and leave the chunk's batch, blocks and kept record."""
    made = []
    parse, run_trial_of = harness_module.parse_graph_source, harness_module.run_trial

    def failing(*args):
        if args[-1] == 5:
            raise RuntimeError("trial 5")
        return run_trial_of(*args)

    monkeypatch.setattr(harness_module, "parse_graph_source", lambda *args: made.append(parse(*args)) or made[-1])
    monkeypatch.setattr(harness_module, "run_trial", failing)
    cfg = ExperimentConfig(graph_source="path:D=6,delta=4", scheme=scheme, strategy=strategy, trials=20, seed=3)
    with pytest.raises(RuntimeError, match="^trial 5$"):
        run_experiment(cfg)
    assert agent_module._CHUNK is None
    graph = weakref.ref(made.pop())
    gc.collect()
    assert graph() is None
    g = gen_padded_path(6, 4, 3)
    general, placement = place_pebbles(g, EncodingScheme.GENERAL), place_pebbles(g, scheme)
    message = "FixedN trial index 3 names no stream: no harness chunk is open; pass an RngStream"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_trial(g, general, FixedN(5), 6, 3)
    copy = Placement(placement.scheme, placement.delta, dict(placement.pebbles))
    others = [(placement, replace(strategy), 6), (placement, strategy, 5), (copy, strategy, 6)]
    want = [run_trial(g, p, s, budget, RngStream(3, i)) for i, (p, s, budget) in enumerate(others, 1)]
    with agent_module._chunk(g, placement, strategy, 6, 3, 20) as run:
        first = run_trial(g, placement, strategy, 6, 0)
        batch, blocks, keys, kept = run.batch, run.blocks, list(run.blocks), run.kept
        assert (batch is None) == (kept is not None)  # a fixed-n batch, or a qudit run's kept record
        assert [run_trial(g, p, s, budget, i) for i, (p, s, budget) in enumerate(others, 1)] == want
        assert run.batch is batch and run.blocks is blocks and list(blocks) == keys and run.kept is kept
        assert run_trial(g, placement, strategy, 6, 0) is first
    assert agent_module._CHUNK is None


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


def _bogus_strategy_trial():
    g = parse_graph_source("path:D=3,delta=4", 0)
    return run_trial(g, place_pebbles(g, EncodingScheme.GENERAL), "bogus", 3, RngStream(0, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_graph_source("path:D", 0), "bad path generator parameter 'D', expected key=value"),
        (lambda: parse_graph_source("gpqr:p=1,q=2", 0), "gpqr generator needs p, q, r, missing 'r'"),
        (lambda: parse_graph_source("gpqr:p=1,q=2,r=0,x=1", 0), "unknown gpqr generator keys: ['x']"),
        (lambda: parse_strategy("table:"), "table strategy needs at least one action"),
        (lambda: run_experiment(ExperimentConfig("path:D=3,delta=4", trials=0)), "trials must be >= 1"),
        (_bogus_strategy_trial, "unknown strategy 'bogus'"),
    ],
    ids=["path_item_without_value", "gpqr_missing_r", "gpqr_unknown_key", "empty_table", "zero_trials",
         "unknown_strategy"],
)
def test_boundary_messages(call, message):
    """Messages no other test reaches; a config file that is not UTF-8 is in test_cli."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_an_empty_spec_item_is_skipped():
    assert serialize_graph(parse_graph_source("path:D=3,,delta=4", 5)) == serialize_graph(
        parse_graph_source("path:D=3,delta=4", 5))


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


def test_an_unknown_scheme_names_its_key_and_the_schemes():
    message = "config key 'scheme' must be one of ['general', 'bitsign4', 'qudit', 'full_path'], got 'bogus'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict({"graph_source": "path:D=4,delta=4", "scheme": "bogus"})


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
