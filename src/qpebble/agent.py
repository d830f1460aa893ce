"""Oblivious walkers: per-node decoding strategies and trial execution.

An agent carries nothing between rounds. Each round it observes exactly
two things about its current node, the degree and whether a pebble is
present, decides (possibly by measuring the pebble's qubits), and moves
through at most one port. The walk loop below enforces that interface
structurally: the only state crossing rounds is the current node id.

Decoding rules:

* fixed-n: sample every family basis n times; commit to a port only if
  exactly one basis came back as a uniform run (all n outcomes one sign).
  Anything else, including zero uniform bases, is an ambiguous failure.
  Round r of a trial uses draws [r*n*F, (r+1)*n*F), F the family size. A
  pebble's decode is *forced* when exactly one basis is certain: that basis
  always runs uniform, so the node decodes to its port or fails as
  ambiguous. So a fixed-n round of ``run_trial`` is a block: it follows
  forced ports ahead of the agent, up to a missing pebble, the treasure, an
  unforced node, a port out of range, the step budget or ``_BLOCK_DRAWS``;
  draws the block in one call, one round and one step per node; and stops
  at the first node whose count of uniform bases is not one. Only the
  block's last node needs a real decode.
* adaptive: round-robin over the bases still alive, killing a basis the
  first time it contradicts its own previous outcome; decode once a single
  basis survives, give up at the measurement cap. A trial reads its
  stream straight through, node after node, via ``rng.buffered_uniforms``.
* qudit one-shot: read the level in one computational-basis measurement.

Both qubit rules compare each uniform draw with the Born probability as
snapped by ``quantum.snap_certain``, the rule ``sample_measurement`` uses,
so a correct-basis run is always uniform. Ports decode through
``encoding.decode_outcome``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import AbstractSet, Iterator, Mapping, Union

import numpy as np

from .encoding import (
    EncodingScheme,
    Placement,
    QuantumPebble,
    basis_family,
    decode_outcome,
    decode_qudit,
)
from .graph import PortGraph, neighbor_via_port
from .quantum import MINUS, PLUS, Outcome, QubitState, born_probability, snap_certain
from .rng import RngStream, buffered_uniforms

__all__ = [
    "FailureKind",
    "TrialResult",
    "DecisionTable",
    "FixedN",
    "Adaptive",
    "QuditOneShot",
    "ClassicalTable",
    "RandomWalk",
    "AgentStrategy",
    "measure_node_fixed",
    "decide_fixed",
    "measure_node_adaptive",
    "run_trial",
    "classical_trajectory",
]


class FailureKind(str, enum.Enum):
    NONE = "none"
    AMBIGUOUS_DECODE = "ambiguous_decode"
    WRONG_PORT_RANGE = "wrong_port_range"
    MISSING_PEBBLE = "missing_pebble"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"
    DECLARED_FAILURE = "declared_failure"


@dataclass(frozen=True)
class TrialResult:
    success: bool
    steps_taken: int
    measurements_total: int
    failure_kind: FailureKind


@dataclass(frozen=True)
class DecisionTable:
    """Deterministic classical rule: (degree, pebble present) -> action.

    An action is an exit port, or None for staying put.
    """

    actions: Mapping[tuple[int, bool], int | None]

    def action(self, degree: int, pebble_present: bool) -> int | None:
        try:
            return self.actions[(degree, pebble_present)]
        except KeyError:
            raise ValueError(f"table has no action for degree={degree}, pebble={pebble_present}") from None


@dataclass(frozen=True)
class FixedN:
    """Fixed-n protocol; n=None means 'resolve via required_n' (harness)."""

    n: int | None = None

    def __post_init__(self) -> None:
        if self.n is not None and self.n < 1:
            raise ValueError(f"FixedN.n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Adaptive:
    cap: int = 4096


@dataclass(frozen=True)
class QuditOneShot:
    pass


@dataclass(frozen=True)
class ClassicalTable:
    table: DecisionTable


@dataclass(frozen=True)
class RandomWalk:
    pass


AgentStrategy = Union[FixedN, Adaptive, QuditOneShot, ClassicalTable, RandomWalk]


# Most draws one block of a fixed-n walk asks for, so memory stays flat in
# the route length.
_BLOCK_DRAWS = 1 << 16


@lru_cache(maxsize=1024)
def _decode_table(state: QubitState, delta: int, scheme: EncodingScheme) -> tuple[tuple[float, ...], int | None]:
    """P(plus) of ``state`` in each family basis, in index order, snapped
    to certainty; and the forced port, the decode of the one certain basis
    (None unless exactly one basis is certain)."""
    p_plus = tuple(snap_certain(born_probability(state, b.plus_vec)) for b in basis_family(scheme, delta))
    certain = [Outcome(i, PLUS if p else MINUS) for i, p in enumerate(p_plus) if p in (0.0, 1.0)]
    return p_plus, decode_outcome(certain[0], delta) if len(certain) == 1 else None


def measure_node_fixed(
    pebble: Union[QuantumPebble, QubitState],
    delta: int,
    n: int,
    rng: RngStream,
    scheme: EncodingScheme = EncodingScheme.GENERAL,
) -> list[np.ndarray]:
    """n samples in each family basis: a list of sign arrays (+1/-1).

    Draw order is basis 0's n samples, then basis 1's, and so on; exactly
    n * family-size uniforms are consumed regardless of outcomes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    state = pebble.emitted_state if isinstance(pebble, QuantumPebble) else pebble
    p_plus, _ = _decode_table(state, delta, scheme)
    draws = rng.uniforms(n * len(p_plus)).reshape(len(p_plus), n)
    return list(np.where(draws < np.array(p_plus)[:, None], PLUS, MINUS).astype(np.int8))


def decide_fixed(tallies: list[np.ndarray], delta: int) -> int | None:
    """Uniform-run rule: decode iff exactly one basis is single-signed.

    Returns the 1-based port, or None for the ambiguous cases (two or more
    uniform bases, or none at all).
    """
    candidates = []
    for i, signs in enumerate(tallies):
        if len(signs) and (signs == signs[0]).all():
            candidates.append((i, int(signs[0])))
    if len(candidates) != 1:
        return None
    i, sign = candidates[0]
    return decode_outcome(Outcome(i, sign), delta)


def measure_node_adaptive(
    pebble: Union[QuantumPebble, QubitState],
    delta: int,
    cap: int,
    rng: RngStream,
    scheme: EncodingScheme = EncodingScheme.GENERAL,
) -> tuple[int | None, int]:
    """Elimination protocol: (decoded port or None, measurements used).

    Cycles through the live bases in index order; a basis dies the first
    time a sample disagrees with its previous one. When one basis is left
    (and has at least one sample) its sign decodes the port. Hitting the
    cap first returns None. The cursor stays in place on elimination, so
    the successor basis is sampled next. It takes exactly ``used`` scalar
    draws from ``rng``.
    """
    state = pebble.emitted_state if isinstance(pebble, QuantumPebble) else pebble
    return _eliminate(state, delta, cap, iter(rng.uniform, None), scheme)


def _eliminate(
    state: QubitState, delta: int, cap: int, draws: Iterator[float], scheme: EncodingScheme
) -> tuple[int | None, int]:
    """measure_node_adaptive's loop, one uniform from ``draws`` per sample."""
    p_plus, _ = _decode_table(state, delta, scheme)
    if cap < len(p_plus):
        raise ValueError(f"cap {cap} below family size {len(p_plus)}")
    live = list(range(len(p_plus)))
    # each basis's previous sign, 0 until it is first sampled
    last = [0] * len(p_plus)
    pos = 0
    for used, u in enumerate(islice(draws, cap), 1):
        pos %= len(live)
        b = live[pos]
        sign = PLUS if u < p_plus[b] else MINUS
        if last[b] == -sign:
            del live[pos]
        else:
            last[b] = sign
            pos += 1
        if len(live) == 1 and last[live[0]]:
            return decode_outcome(Outcome(live[0], last[live[0]]), delta), used
    return None, cap


def _fail(kind: FailureKind, steps: int, meas: int) -> TrialResult:
    return TrialResult(False, steps, meas, kind)


def run_trial(
    g: PortGraph,
    placement: Union[Placement, AbstractSet[int]],
    strategy: AgentStrategy,
    step_budget: int,
    rng: RngStream,
) -> TrialResult:
    """Walk one agent from start until treasure, failure, or budget.

    The budget caps rounds; every round moves through at most one edge, so
    steps_taken <= step_budget (a classical 'stay' burns a round without a
    move, which keeps stay-forever tables finite). Classical strategies may
    receive a bare set of pebbled nodes instead of a full Placement.

    One loop serves every strategy: each round yields a 1-based exit port,
    which one shared tail range-checks and follows. A fixed-n round walks
    ``cur`` through a block of forced nodes first (module docstring).

    ``rng`` may end up past the trial's last draw: a failed fixed-n trial
    drew its last block ahead of the failing node, and an adaptive trial
    reads its stream through ``buffered_uniforms``. No record changes,
    because only this trial reads the stream.
    """
    if step_budget < 1:
        raise ValueError(f"step_budget must be >= 1, got {step_budget}")
    quantum = isinstance(strategy, (FixedN, Adaptive, QuditOneShot))
    if quantum:
        if not isinstance(placement, Placement):
            raise ValueError("quantum strategies need a full Placement")
        delta, scheme = placement.delta, placement.scheme
        if isinstance(strategy, QuditOneShot):
            if scheme is not EncodingScheme.QUDIT:
                raise ValueError("QuditOneShot requires the qudit scheme")
        elif scheme not in (EncodingScheme.GENERAL, EncodingScheme.BITSIGN4):
            raise ValueError(f"{type(strategy).__name__} cannot decode scheme {scheme.value}")
        if isinstance(strategy, FixedN) and strategy.n is None:
            raise ValueError("FixedN.n must be resolved to a positive sample count")
        bad = [v for v in placement.pebbles if not 0 <= v < g.node_count]
        if bad:
            raise ValueError(f"placement references nodes outside the graph: {bad}")
    pebbled = placement.pebbles if isinstance(placement, Placement) else placement
    draws = None  # an adaptive trial's one buffered reader, made at its first round

    cur = g.start
    steps = rounds = meas = 0
    while rounds < step_budget:
        rounds += 1
        if quantum and cur not in pebbled:
            return _fail(FailureKind.MISSING_PEBBLE, steps, meas)
        # qudit first: the cheapest round, where dispatch cost shows most
        if isinstance(strategy, QuditOneShot):
            meas += 1
            port = decode_qudit(pebbled[cur].emitted_state)
        elif isinstance(strategy, Adaptive):
            draws = draws or buffered_uniforms(rng)
            port, used = _eliminate(pebbled[cur].emitted_state, delta, strategy.cap, draws, scheme)
            meas += used
            if port is None:
                return _fail(FailureKind.DECLARED_FAILURE, steps, meas)
        elif isinstance(strategy, FixedN):
            # this round and one per forced node ahead, drawn in one block
            per_node = strategy.n * len(basis_family(scheme, delta))
            limit = min(step_budget - rounds + 1, max(1, _BLOCK_DRAWS // per_node))
            rows = []
            while True:
                p_plus, forced = _decode_table(pebbled[cur].emitted_state, delta, scheme)
                rows.append(p_plus)
                if forced is None or forced > g.degree(cur) or len(rows) == limit:
                    break
                ahead = g.adjacency[cur][forced - 1][0]
                if ahead == g.treasure or ahead not in pebbled:
                    break
                cur = ahead
            k = len(rows)
            below = rng.uniforms(k * per_node).reshape(k, -1, strategy.n) < np.array(rows)[:, :, None]
            plus_runs = below.all(axis=2)
            uniform = plus_runs | ~below.any(axis=2)
            ambiguous = np.flatnonzero(uniform.sum(axis=1) != 1)
            if ambiguous.size:
                m = int(ambiguous[0])
                return _fail(FailureKind.AMBIGUOUS_DECODE, steps + m, meas + (m + 1) * per_node)
            # every node before the last decoded to its forced port
            steps += k - 1
            rounds += k - 1
            meas += k * per_node
            basis = int(uniform[-1].argmax())
            port = decode_outcome(Outcome(basis, PLUS if plus_runs[-1, basis] else MINUS), delta)
        elif isinstance(strategy, ClassicalTable):
            action = strategy.table.action(g.degree(cur), cur in pebbled)
            if action is None:
                continue  # stay: round spent, no move
            port = action + 1
        elif isinstance(strategy, RandomWalk):
            port = rng.below(g.degree(cur)) + 1
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        if not 1 <= port <= g.degree(cur):
            return _fail(FailureKind.WRONG_PORT_RANGE, steps, meas)
        cur = g.adjacency[cur][port - 1][0]
        steps += 1
        if cur == g.treasure:
            return TrialResult(True, steps, meas, FailureKind.NONE)
    return _fail(FailureKind.STEP_BUDGET_EXHAUSTED, steps, meas)


def classical_trajectory(
    g: PortGraph,
    pebbled: AbstractSet[int],
    table: DecisionTable,
) -> list[int]:
    """Node sequence of the deterministic walk, cut at the first repeat.

    The next node is a function of the current node alone (the pebbling is
    static), so revisiting any node means the walk cycles forever; the
    trajectory ends there, or at the treasure, whichever comes first. A
    stay action repeats the current node and therefore ends the walk.
    """
    cur = g.start
    traj = [cur]
    seen = {cur}
    while cur != g.treasure:
        action = table.action(g.degree(cur), cur in pebbled)
        nxt = cur if action is None else neighbor_via_port(g, cur, action)[0]
        traj.append(nxt)
        if nxt in seen:
            break
        seen.add(nxt)
        cur = nxt
    return traj
