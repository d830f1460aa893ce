"""Reliability bounds, resource comparisons, and the impossibility check.

The fixed-n protocol's failure math lives here: one node decodes wrong
with probability at most ``delta * delta_bound(delta)^n`` (some wrong
basis mimics a uniform run), so a walk of length D succeeds with
probability at least ``(1 - delta * db^n)^D``, and inverting that gives
the sample count needed for a target failure budget. Everything is
computed in log space so million-node walks and 2^16-degree graphs do not
underflow.

The checker for the no-quantum-pebble impossibility result enumerates
every deterministic oblivious rule over the observations available on the
6-node gadget family and confirms each one is defeated by some labeling
under every pebble placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .agent import DecisionTable, classical_trajectory
from .encoding import Placement, basis_family
from .graph import GadgetSpec, PortGraph, gpqr_family
from .quantum import born_probability, delta_bound, snap_certain

__all__ = [
    "BoundReport",
    "FullPathBound",
    "ComparisonReport",
    "ImpossibilityReport",
    "bound_report",
    "success_lower_bound",
    "exact_success_fixed",
    "required_n",
    "bitsign4_wrong_run_prob",
    "full_path_log_bound",
    "compare_single_vs_per_node",
    "check_impossibility",
]

# Relative slack on the required_n threshold comparison: an exact-boundary
# case (delta=2 lands on eps/D precisely) must not lose to float rounding
# of cos^2(pi/4).
_THRESHOLD_SLACK = 1e-9

_SERIES_CUTOFF = 1e-4  # below this x, -2 ln cos x = x^2 + x^4/6 to < 1e-8 rel


@dataclass(frozen=True)
class BoundReport:
    """Per-walk reliability figures for the fixed-n protocol."""

    delta_bound: float
    per_node_failure: float
    success_lower: float
    required_n: int

    def as_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["delta"] = doc.pop("delta_bound")
        return doc


def _log_node_failure(delta: int, n: int) -> float:
    """ln of the union bound delta * delta_bound(delta)^n on one node's
    chance that some wrong basis mimics a uniform n-run."""
    return math.log(delta) + n * math.log(delta_bound(delta))


def success_lower_bound(dist: int, delta: int, n: int) -> float:
    """(1 - delta * delta_bound^n)^dist, clamped to 0 when the inner
    failure term reaches 1. Log-space throughout."""
    if dist < 1 or n < 1:
        raise ValueError(f"dist and n must be >= 1, got dist={dist}, n={n}")
    log_fail = _log_node_failure(delta, n)
    if log_fail >= 0.0:
        return 0.0
    return math.exp(dist * math.log1p(-math.exp(log_fail)))


def required_n(dist: int, delta: int, eps: float = 0.01) -> int:
    """Smallest n with delta * delta_bound^n <= eps / dist.

    The comparison carries a 1e-9 relative slack so thresholds the math
    hits exactly resolve to the mathematical answer despite float rounding
    of the bound itself.
    """
    if dist < 1:
        raise ValueError(f"dist must be >= 1, got {dist}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    db = delta_bound(delta)
    target = eps / dist

    def ok(n: int) -> bool:
        return _log_node_failure(delta, n) <= math.log(target * (1.0 + _THRESHOLD_SLACK))

    guess = (math.log(delta) - math.log(target)) / -math.log(db)
    n = max(1, math.ceil(guess - _THRESHOLD_SLACK))
    while not ok(n):
        n += 1
    while n > 1 and ok(n - 1):
        n -= 1
    return n


def bound_report(dist: int, delta: int, n: int | None = None, eps: float = 0.01) -> BoundReport:
    """Bundle the bound figures for a walk of length ``dist``.

    ``n`` defaults to required_n(dist, delta, eps).
    """
    need = required_n(dist, delta, eps)
    n = need if n is None else n
    # log_fail <= ln(delta), so exp never overflows even when the bound is vacuous
    per_node = math.exp(_log_node_failure(delta, n))
    return BoundReport(
        delta_bound=delta_bound(delta),
        per_node_failure=per_node,
        success_lower=success_lower_bound(dist, delta, n),
        required_n=need,
    )


def exact_success_fixed(placement: Placement, n: int) -> float:
    """Exact success rate of a fixed-n walk over pebbles emitting their ports'
    family states: no basis with 0 < p < 1 (snapped as the agent snaps it)
    may run uniform, as it does with chance p^n + (1-p)^n. One factor per
    distinct state, raised to the number of pebbles emitting it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts = np.bincount(placement.state_index, minlength=len(placement.states)).tolist()
    family = basis_family(placement.scheme, placement.delta)
    rows = [[snap_certain(born_probability(s, b.plus_vec)) for b in family] for s in placement.states]
    return math.prod(max(0.0, 1 - p**n - (1 - p) ** n) ** c for row, c in zip(rows, counts) for p in row if 0 < p < 1)


def bitsign4_wrong_run_prob(n: int) -> float:
    """Chance the wrong four-port basis yields a uniform n-run: 2 * (1/2)^n.

    Either sign counts; a single specific sign has probability (1/2)^n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * 0.5**n


@dataclass(frozen=True)
class FullPathBound:
    """ln(1/delta') for the whole-path encoding, plus the sample estimate.

    delta' = cos^2(pi / (2 delta^dist)). The plain fields underflow or
    overflow float64 once delta^dist is astronomically large; the ln_
    companions stay finite for dist up to 1e6 and delta up to 2^16.
    """

    log_inv_delta_prime: float
    measurement_count_estimate: float
    ln_log_inv_delta_prime: float
    ln_measurement_count: float


def full_path_log_bound(dist: int, delta: int, eps: float = 0.01) -> FullPathBound:
    """Discrimination bound with delta replaced by delta^dist, in log space.

    x = (pi/2) * exp(-dist ln delta); ln(1/delta') = -2 ln cos x, with the
    series x^2 + x^4/6 once x < 1e-4 (relative error below 1e-8).
    """
    if dist < 1 or delta < 2:
        raise ValueError(f"need dist >= 1 and delta >= 2, got dist={dist}, delta={delta}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    ln_x = math.log(math.pi / 2.0) - dist * math.log(delta)
    if ln_x >= math.log(_SERIES_CUTOFF):
        x = math.exp(ln_x)
        val = -2.0 * math.log(math.cos(x))
        ln_val = math.log(val)
    else:
        x_sq = math.exp(2.0 * ln_x)  # may underflow to 0; ln_val does not
        val = x_sq + x_sq * x_sq / 6.0
        ln_val = 2.0 * ln_x + math.log1p(x_sq / 6.0)
    ln_budget = math.log(math.log(delta * dist / eps))
    return FullPathBound(
        log_inv_delta_prime=val,
        measurement_count_estimate=math.exp(ln_budget - ln_val) if ln_budget - ln_val < 700 else float("inf"),
        ln_log_inv_delta_prime=ln_val,
        ln_measurement_count=ln_budget - ln_val,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Measurement totals: one giant-family pebble vs one pebble per node."""

    dist: int
    delta: int
    required_n: int
    per_node_total: int
    full_path_total: float
    ln_full_path_total: float
    full_path_at_least_per_node: bool

    def as_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["D"], doc["max_degree"] = doc.pop("dist"), doc.pop("delta")
        return doc


def compare_single_vs_per_node(dist: int, delta: int, eps: float = 0.01) -> ComparisonReport:
    """Totals for both variants of the protocol at failure budget eps.

    Per-node: dist nodes, required_n samples in each of delta/2 bases.
    Full-path: the count estimate from the shrunken discrimination gap,
    times delta^dist/2 bases. The comparison is done on logs so huge
    parameters cannot overflow it.
    """
    if delta < 2 or delta % 2:
        raise ValueError(f"delta must be an even integer >= 2, got {delta}")
    need = required_n(dist, delta, eps)
    per_node_total = dist * need * (delta // 2)
    fp = full_path_log_bound(dist, delta, eps)
    ln_full_total = fp.ln_measurement_count + dist * math.log(delta) - math.log(2.0)
    full_total = math.exp(ln_full_total) if ln_full_total < 700 else float("inf")
    return ComparisonReport(
        dist=dist,
        delta=delta,
        required_n=need,
        per_node_total=per_node_total,
        full_path_total=full_total,
        ln_full_path_total=ln_full_total,
        full_path_at_least_per_node=ln_full_total >= math.log(per_node_total),
    )


@dataclass(frozen=True)
class ImpossibilityReport:
    tables_total: int
    tables_defeated: int
    all_defeated: bool
    max_walk_steps: int
    witnesses: tuple[tuple[tuple, GadgetSpec], ...]
    no_universal_graph: bool


def _all_tables() -> list[tuple[tuple, DecisionTable]]:
    """All 64 oblivious rules over the gadget's observation space.

    Observations are (degree 3 or 1) x (pebble or not); actions are stay
    (None) or an exit port valid for the degree.
    """
    observations = ((3, True), (3, False), (1, True), (1, False))
    actions = product((None, 0, 1, 2), (None, 0, 1, 2), (None, 0), (None, 0))
    return [(key, DecisionTable(dict(zip(observations, key)))) for key in actions]


def check_impossibility() -> ImpossibilityReport:
    """Exhaustively confirm no oblivious classical rule beats the gadget.

    For each of the 64 decision tables, search the 216 labelings for one
    graph on which all 2^6 pebble placements fail to reach the treasure.
    Walks are decided within node_count steps by the pigeonhole argument:
    the next node depends only on the current one, so a repeat is a cycle.
    Sanity: the witness is per-table; no single labeling defeats all
    tables (for every graph some rule walks straight to the treasure).
    """
    family = gpqr_family()
    placements = [frozenset(v for v in range(6) if bits >> v & 1) for bits in range(64)]
    witnesses = []
    max_steps = 0

    def reaches(g: PortGraph, pebbled: frozenset, table: DecisionTable) -> bool:
        nonlocal max_steps
        traj = classical_trajectory(g, pebbled, table)
        max_steps = max(max_steps, len(traj) - 1)
        return traj[-1] == g.treasure

    tables = _all_tables()
    for key, table in tables:
        witness = next((spec for spec, g in family if not any(reaches(g, bits, table) for bits in placements)), None)
        if witness is not None:
            witnesses.append((key, witness))

    # Sanity: every labeling loses to some rule, so the existential really
    # is per-table. The rule that walks the pendant port of the start node
    # on 'no pebble' wins on the empty placement immediately.
    no_universal = all(any(reaches(g, frozenset(), table) for _, table in tables) for _, g in family)

    return ImpossibilityReport(
        tables_total=len(tables),
        tables_defeated=len(witnesses),
        all_defeated=len(witnesses) == len(tables),
        max_walk_steps=max_steps,
        witnesses=tuple(witnesses),
        no_universal_graph=no_universal,
    )
