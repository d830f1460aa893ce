"""Output checks: pinned digests, record invariants and an exact-probability
gate.

A workload's records CSV is checked three ways. At the default seed its
SHA-256 must equal the digest pinned in ``workloads.py``. At every seed
the rows must satisfy the invariants of the workload's strategy and agree
with the printed summary. For the fixed-n workloads the success count must
also be consistent with the exact success probability, which is computed
here from public qpebble functions, not from the program's own summary.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from workloads import DEFAULT_SEED, Workload

HEADER = "trial,success,steps,measurements,failure_kind"
EPS = 0.01  # the ExperimentConfig default the CLI runs with
Z_LIMIT = 5.0
# one-sided standard normal tail beyond Z_LIMIT
NORMAL_TAIL = 0.5 * math.erfc(Z_LIMIT / math.sqrt(2.0))

# failure kinds that end a trial at a node, after that round's measurements
_FAILED_AT_NODE = {"ambiguous_decode", "declared_failure", "wrong_port_range", "missing_pebble"}


@dataclass(frozen=True)
class RecordStats:
    trials: int
    successes: int
    failure_breakdown: dict[str, int]
    rounds: int
    measurements: int
    useful_measurements: int


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixed_n(w: Workload) -> int:
    from qpebble.analysis import required_n

    return required_n(w.dist, w.delta, EPS)


def family_size(w: Workload) -> int:
    from qpebble.encoding import EncodingScheme, basis_family

    return len(basis_family(EncodingScheme(w.scheme), w.delta))


def parse_records(text: str) -> list[tuple[bool, int, int, str]]:
    """Rows of a records CSV as (success, steps, measurements, failure kind).

    Raises ValueError on a bad header, a missing final newline or a row
    out of trial order.
    """
    lines = text.split("\n")
    if lines[0] != HEADER:
        raise ValueError(f"bad header {lines[0]!r}")
    if lines[-1] != "":
        raise ValueError("records do not end with a newline")
    rows = []
    for i, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        if len(fields) != 5 or fields[0] != str(i) or fields[1] not in ("0", "1"):
            raise ValueError(f"bad record line {i + 2}: {line!r}")
        rows.append((fields[1] == "1", int(fields[2]), int(fields[3]), fields[4]))
    return rows


def record_stats(rows: list[tuple[bool, int, int, str]]) -> RecordStats:
    breakdown: dict[str, int] = {}
    for _, _, _, kind in rows:
        breakdown[kind] = breakdown.get(kind, 0) + 1
    return RecordStats(
        trials=len(rows),
        successes=sum(ok for ok, _, _, _ in rows),
        failure_breakdown=breakdown,
        rounds=sum(steps + (kind in _FAILED_AT_NODE) for _, steps, _, kind in rows),
        measurements=sum(meas for _, _, meas, _ in rows),
        useful_measurements=sum(meas for ok, _, meas, _ in rows if ok),
    )


def invariant_errors(w: Workload, rows: list[tuple[bool, int, int, str]]) -> list[str]:
    """Per-row rules of the workload's strategy; empty when all hold."""
    errors = []
    if len(rows) != w.trials:
        errors.append(f"{len(rows)} records, expected {w.trials}")
    if w.strategy.startswith("fixed"):
        per_node = fixed_n(w) * family_size(w)
        for i, (ok, steps, meas, kind) in enumerate(rows):
            if ok and (steps, meas, kind) != (w.dist, w.dist * per_node, "none"):
                errors.append(f"trial {i}: success with {steps} steps, {meas} measurements, kind {kind}")
            elif not ok and (kind != "ambiguous_decode" or steps >= w.dist or meas != (steps + 1) * per_node):
                errors.append(f"trial {i}: failure {kind} after {steps} steps, {meas} measurements")
    elif w.strategy.startswith("adaptive"):
        for i, (ok, steps, meas, kind) in enumerate(rows):
            if ok and (steps, kind) != (w.dist, "none"):
                errors.append(f"trial {i}: success with {steps} steps, kind {kind}")
            elif not ok and (kind != "declared_failure" or steps >= w.dist):
                errors.append(f"trial {i}: failure {kind} after {steps} steps")
    elif w.strategy == "qudit":
        for i, row in enumerate(rows):
            if row != (True, w.dist, w.dist, "none"):
                errors.append(f"trial {i}: {row}, expected a success in {w.dist} steps and measurements")
    else:
        errors.append(f"no invariants for strategy {w.strategy!r}")
    return errors[:5]


def summary_errors(w: Workload, stats: RecordStats, summary: dict) -> list[str]:
    """The printed summary must describe the records that were written."""
    errors = []
    if summary.get("trials") != stats.trials or summary.get("successes") != stats.successes:
        errors.append(
            f"summary reports {summary.get('successes')}/{summary.get('trials')} successes, "
            f"records hold {stats.successes}/{stats.trials}"
        )
    printed = {k: v for k, v in summary.get("failure_breakdown", {}).items() if v}
    if printed != stats.failure_breakdown:
        errors.append(f"summary breakdown {printed} differs from records {stats.failure_breakdown}")
    if w.strategy.startswith("fixed") and summary.get("bound", {}).get("required_n") != fixed_n(w):
        errors.append(f"summary required_n {summary.get('bound', {}).get('required_n')} != {fixed_n(w)}")
    return errors


def check_records(w: Workload, seed: int, csv_bytes: bytes, summary: dict) -> tuple[list[str], RecordStats | None]:
    """All checks of one run's output except the exact-probability gate."""
    errors = []
    if seed == DEFAULT_SEED and sha256(csv_bytes) != w.golden_sha256:
        errors.append(f"records digest {sha256(csv_bytes)} != pinned {w.golden_sha256}")
    try:
        rows = parse_records(csv_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return errors + [f"unreadable records: {exc}"], None
    stats = record_stats(rows)
    errors += invariant_errors(w, rows)
    errors += summary_errors(w, stats, summary)
    return errors, stats


def exact_success_fixed(w: Workload, seed: int) -> float:
    """Exact success probability of a fixed-n walk over the seed's graph.

    The correct basis at every pebble is certain. Each other basis b
    mimics a uniform run with probability p^n + (1-p)^n, p the Born
    probability of b's plus outcome, and the walk succeeds only if no
    wrong basis does so at any pebble:
    prod over pebbles prod over non-certain bases (1 - p^n - (1-p)^n).
    """
    from qpebble.encoding import EncodingScheme, basis_family, place_pebbles
    from qpebble.harness import parse_graph_source
    from qpebble.quantum import born_probability

    n = fixed_n(w)
    scheme = EncodingScheme(w.scheme)
    placement = place_pebbles(parse_graph_source(w.gen, seed), scheme)
    bases = basis_family(scheme, placement.delta)
    log_success = 0.0
    per_state: dict[int, float] = {}  # exit port -> log success at that pebble
    for pebble in placement.pebbles.values():
        if pebble.exit_port not in per_state:
            log_node = 0.0
            for basis in bases:
                p = born_probability(pebble.emitted_state, basis.plus_vec)
                # within 1e-12 of 0 or 1 the agent treats the basis as certain
                if 1e-12 < p < 1.0 - 1e-12:
                    log_node += math.log1p(-(p**n) - (1.0 - p) ** n)
            per_state[pebble.exit_port] = log_node
        log_success += per_state[pebble.exit_port]
    return math.exp(log_success)


def _binomial_tail(k: int, trials: int, p: float, upper: bool) -> float:
    """P(X >= k) if upper else P(X <= k), X ~ Binomial(trials, p)."""
    ks = range(k, trials + 1) if upper else range(0, k + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    top = math.lgamma(trials + 1)
    return sum(
        math.exp(top - math.lgamma(i + 1) - math.lgamma(trials - i + 1) + i * log_p + (trials - i) * log_q)
        for i in ks
    )


def z_gate(successes: int, trials: int, p: float) -> tuple[float, str | None]:
    """z-score of the success count against the exact probability, and an
    error when it lies more than Z_LIMIT deviations out.

    At a few trials the normal approximation fails (one failure in two
    trials at p=0.998 reads as z=-7), so a large z is an error only when
    the exact binomial tail is also below the normal tail at Z_LIMIT.
    """
    mean = trials * p
    z = (successes - mean) / math.sqrt(trials * p * (1.0 - p))
    if abs(z) <= Z_LIMIT:
        return z, None
    tail = _binomial_tail(successes, trials, p, upper=successes > mean)
    if tail >= NORMAL_TAIL:
        return z, None
    return z, f"{successes}/{trials} successes against exact p={p:.6f}: z={z:.2f}, tail {tail:.3g}"
