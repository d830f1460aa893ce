"""Tests of the benchmark's own checker and tracer.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SHORT = WORKLOADS["short_fixed"]


@functools.lru_cache(maxsize=None)
def simulate(seed: int) -> tuple[bytes, dict]:
    """short_fixed's records CSV and summary, through the CLI's functions."""
    from qpebble.harness import config_from_dict, records_to_csv, run_experiment

    cfg = config_from_dict(
        {"graph_source": SHORT.gen, "scheme": SHORT.scheme, "strategy": SHORT.strategy,
         "trials": SHORT.trials, "seed": seed}
    )
    result = run_experiment(cfg)
    return records_to_csv(result.records).encode(), result.summary.as_json_dict()


def test_pinned_records_pass():
    csv_bytes, summary = simulate(DEFAULT_SEED)
    errors, stats = checks.check_records(SHORT, DEFAULT_SEED, csv_bytes, summary)
    assert errors == []
    assert stats.trials == SHORT.trials


def test_one_changed_byte_is_flagged():
    csv_bytes, summary = simulate(DEFAULT_SEED)
    # the last digit of trial 1's measurement count
    at = csv_bytes.index(b"\n1,") + 1
    at = csv_bytes.index(b",none", at) - 1
    changed = csv_bytes[:at] + bytes([csv_bytes[at] ^ 1]) + csv_bytes[at + 1:]
    assert len(changed) == len(csv_bytes) and changed != csv_bytes
    errors, _ = checks.check_records(SHORT, DEFAULT_SEED, changed, summary)
    assert any("digest" in e for e in errors)
    # off the default seed there is no pin; the invariants still catch it
    other_csv, other_summary = simulate(11)
    at = other_csv.index(b",none") - 1
    changed = other_csv[:at] + bytes([other_csv[at] ^ 1]) + other_csv[at + 1:]
    errors, _ = checks.check_records(SHORT, 11, changed, other_summary)
    assert errors and not any("digest" in e for e in errors)


def test_digest_of_the_wrong_seed_is_flagged():
    csv_bytes, summary = simulate(8)
    errors, _ = checks.check_records(SHORT, DEFAULT_SEED, csv_bytes, summary)
    assert any("digest" in e for e in errors)
    assert checks.check_records(SHORT, 8, csv_bytes, summary)[0] == []


def test_summary_must_match_records():
    csv_bytes, summary = simulate(DEFAULT_SEED)
    errors, _ = checks.check_records(SHORT, DEFAULT_SEED, csv_bytes, {**summary, "successes": summary["successes"] + 1})
    assert any("summary" in e for e in errors)


def test_exact_success_probability():
    p = checks.exact_success_fixed(SHORT, DEFAULT_SEED)
    assert p == pytest.approx(0.99774, abs=5e-6)
    # every port of a delta=4 path is one of two basis states, so the seed's
    # port labels do not change the product
    assert checks.exact_success_fixed(SHORT, 11) == pytest.approx(p, rel=1e-12)


def test_z_gate():
    z, error = checks.z_gate(3985, 4000, 0.99774)
    assert abs(z) < 5 and error is None
    z, error = checks.z_gate(3800, 4000, 0.99774)
    assert z < -5 and error is not None
    # one failure in two trials is a large z but not an unlikely count
    z, error = checks.z_gate(1, 2, 0.998)
    assert z < -5 and error is None


def test_invariants_flag_a_wrong_failure_kind():
    rows = [(True, 10, 10, "none")] * (WORKLOADS["bulk_records"].trials - 1) + [(False, 3, 3, "missing_pebble")]
    assert checks.invariant_errors(WORKLOADS["bulk_records"], rows)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans += [["outer", 0, 100, -1], ["inner", 10, 40, 0], ["inner", 50, 60, 0], ["leaf", 12, 20, 1]]
    times = tracer.self_times()
    assert times["outer"] == pytest.approx(60e-9)
    assert times["inner"] == pytest.approx(32e-9)
    assert times["leaf"] == pytest.approx(8e-9)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile([float(i) for i in range(4000)])[0] == "p99"
    assert spans.tail_percentile([float(i) for i in range(100)])[0] == "p90"
    assert spans.tail_percentile([1.0, 5.0])[0] == "max"


def test_benchmark_json_lists_the_workloads():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
