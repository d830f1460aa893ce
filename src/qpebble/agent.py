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
  Node r of a trial owns draws [r*n*F, (r+1)*n*F), F the family size. A
  pebble's decode is *forced* when exactly one basis is certain: that basis
  always runs uniform, so the node decodes to its port or fails as
  ambiguous. So trials test a block of the forced nodes ahead together
  (``_fixed_block``: a run of the placement's columns, at most the budget or
  ``_ROUND_DRAWS // F`` nodes, built once a run where its round starts), a
  round and step per node, up to the first node whose count of uniform bases
  is not one. Draws are sparse: a run is uniform only while each draw falls
  on its first draw's side, so only (trial, run) pairs still uniform draw
  on, in rounds of 8 draws and then doubling, read from each run's draw-major
  extremes (plus iff the largest u32 is at most the threshold, minus iff the
  least is above it) and on from the LCG states the last round carried.
  ``_lockstep`` walks a group of trials at one node, round and stream offset
  through each block together, and splits it by port at an unforced node;
  a harness chunk's trial indices walk in batches (``_fixed_trial``), a
  caller's stream as a batch of one, each in its ``_Run``. No record depends
  on where blocks, batches or rounds begin, since a node's draws sit at a
  fixed stream offset.
* adaptive: round-robin over the bases still alive, killing a basis the
  first time it contradicts its own previous outcome; decode once a single
  basis survives, give up at the measurement cap. A trial reads its
  stream straight through from offset 0, node after node, in blocks read
  by offset, and keeps the last block's draws as one sign byte per draw
  and threshold of the placement's states (``_Signs``). ``_eliminate``
  steps a node from one elimination to the next: a basis's samples
  between two are a strided slice of those bytes, and its first
  contradiction one find. ``measure_node_adaptive`` keeps the per-draw loop
  on scalar draws, the reference the walk is tested against.
* qudit one-shot: read the level in one computational-basis measurement.

Both qubit rules compare each uniform draw with the Born probability as
snapped by ``quantum.snap_certain``, the rule ``sample_measurement`` uses,
so a correct-basis run is always uniform. Both read a state's bases from one
``_decode_table``, and the ports (``encoding.decode_outcome``) they decode to
from ``_sign_ports``.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Mapping, Union

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
from .rng import _BLOCK, RngStream, Streams, _jump

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


# Draws per round r of the sparse fixed-n test: min(n, 8) per (trial, run) pair at r = 0, then max(8 << r, _ROUND_DRAWS
# // pairs) per pair still uniform, at most 8192 (the jump tables' length) and 8 * _ROUND_DRAWS over the pairs.
_ROUND_DRAWS = 1 << 13


def _round_width(left: int, runs: int, r: int) -> int:
    """Draws per run in round ``r`` of a sparse fixed-n test: ``left`` to take, ``runs`` runs uniform so far."""
    return min(left, _BLOCK, max(8 << r, _ROUND_DRAWS // runs), max(1, 8 * _ROUND_DRAWS // runs))


def _u32_threshold(p: float) -> int:
    """P(plus) ``p``'s u32 threshold, 0 < p < 1: a draw u = u32 * 2**-32 is below p iff u32 is at most it."""
    return math.ceil(p * 2.0**32) - 1


@lru_cache(maxsize=1024)
def _decode_table(state: QubitState, delta: int, scheme: EncodingScheme) -> tuple:
    """``state`` in each family basis, in index order, as (P(plus) snapped to certainty; the forced port, the one
    certain basis's decode, or None unless one basis is certain; u32 thresholds, None where certain; sign bytes, 1
    where certain plus, else 0). The ports the sign bytes decode to are ``_sign_ports``."""
    p_plus = tuple(snap_certain(born_probability(state, b.plus_vec)) for b in basis_family(scheme, delta))
    thr = tuple(None if p in (0.0, 1.0) else _u32_threshold(p) for p in p_plus)
    fixed = tuple(int(p == 1.0) for p in p_plus)
    forced = _sign_ports(delta, len(thr))[thr.index(None)][fixed[thr.index(None)]] if thr.count(None) == 1 else None
    return p_plus, forced, thr, fixed


@lru_cache(maxsize=64)
def _sign_ports(delta: int, family: int) -> tuple:
    """The ports the sign byte, 0 minus or 1 plus, of each of ``family`` bases decodes to, for all states."""
    return tuple(tuple(decode_outcome(Outcome(b, sign), delta) for sign in (MINUS, PLUS)) for b in range(family))


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
    p_plus = _decode_table(state, delta, scheme)[0]
    draws = rng.uniforms(n * len(p_plus)).reshape(len(p_plus), n)
    return list(np.where(draws < np.array(p_plus)[:, None], PLUS, MINUS).astype(np.int8))


def decide_fixed(tallies: list[np.ndarray], delta: int) -> int | None:
    """Uniform-run rule: decode iff exactly one basis is single-signed.

    Returns the 1-based port, or None for the ambiguous cases (two or more
    uniform bases, or none at all).
    """
    candidates = [Outcome(i, int(s[0])) for i, s in enumerate(tallies) if len(s) and (s == s[0]).all()]
    return decode_outcome(candidates[0], delta) if len(candidates) == 1 else None


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
    draws from ``rng``, one per sample: the reference for ``_eliminate``.
    """
    _check_args(Adaptive(cap), scheme, None, delta)
    state = pebble.emitted_state if isinstance(pebble, QuantumPebble) else pebble
    p_plus = _decode_table(state, delta, scheme)[0]
    live = list(range(len(p_plus)))
    # each basis's previous sign, 0 until it is first sampled
    last = [0] * len(p_plus)
    pos = 0
    for used in range(1, cap + 1):
        pos %= len(live)
        b = live[pos]
        sign = PLUS if rng.uniform() < p_plus[b] else MINUS
        if last[b] == -sign:
            del live[pos]
        else:
            last[b] = sign
            pos += 1
        if len(live) == 1 and last[live[0]]:
            return decode_outcome(Outcome(live[0], last[live[0]]), delta), used
    return None, cap


class _Signs:
    """An adaptive trial's draws as sign bytes, one bytes object per threshold
    in ``of``: byte k is 1 iff draw ``base + k``'s u32 is at most the
    threshold. It holds the last block read, draws ``base`` to ``read``: block
    j is draws 4096j to 4096j + 4095, read by offset through
    :meth:`RngStream.runs` only once every draw before it is used, so ``rng``
    does not move."""

    __slots__ = ("rng", "of", "base", "read")

    def __init__(self, rng: RngStream, thresholds) -> None:
        self.rng, self.of, self.base, self.read = rng, dict.fromkeys(thresholds, b""), 0, 0

    def more(self) -> None:
        """Read the next block of 4096 draws."""
        u32 = self.rng.runs(np.array([self.read]), 4096)[0]
        for t in self.of:
            self.of[t] = (u32 <= t).tobytes()
        self.base, self.read = self.read, self.read + 4096


def _eliminate(table: tuple, ports: tuple, cap: int, signs: _Signs, at: int) -> tuple[int | None, int]:
    """measure_node_adaptive's result on a checked cap for a state with
    ``_decode_table`` ``table`` and ``_sign_ports`` ``ports``, whose draws start at stream offset ``at``.

    It steps from one elimination to the next, not from draw to draw. Between two, the draws go round-robin
    over the m live bases, so a basis's samples are every m-th draw from its first, and its first contradiction
    is one find on that slice of its sign bytes; the earliest over the live bases, looked for in windows of 128
    draws, is the next elimination. A certain basis never contradicts."""
    _, _, thr, fixed = table
    of = signs.of
    lo, size = at - signs.base, signs.read - signs.base  # the next draw's byte in the block, and the block's size
    live = list(range(len(thr)))
    last = [-1] * len(thr)  # each basis's previous sign byte, -1 until it is first sampled
    pos = t = 0  # the cursor into live, and the draws used
    while len(live) > 1:
        if t == cap:
            return None, cap
        if lo == size:
            signs.more()
            lo, size = 0, signs.read - signs.base
        m = len(live)
        pos %= m
        # bytes lo + k, k < end, in the block, the window and the cap, until the event at k = end, if any
        end, who = min(cap - t, size - lo, 128), -1
        # in draw order, so every basis looked at is sampled before the event: an
        # event found later falls on a later basis's draw
        for k, b in enumerate(live[pos:] + live[:pos]):
            if k >= end:
                break
            if thr[b] is None:
                last[b] = fixed[b]
                continue
            s, run = last[b], of[thr[b]][lo + k : lo + end : m]
            if s < 0:
                s = last[b] = run[0]
                j = run.find(1 - s, 1)
            else:
                j = run.find(1 - s)
            if j >= 0:
                end, who = k + j * m, k
        if who < 0:
            pos += end
        else:  # the cursor stays on an elimination
            end, pos = end + 1, (pos + who) % m
            del live[pos]
        t, lo = t + end, lo + end
    b = live[0]
    if last[b] < 0:  # a lone survivor never sampled, so a family of one basis: one draw decodes it
        if lo == size:
            signs.more()
            lo = 0
        last[b], t = fixed[b] if thr[b] is None else of[thr[b]][lo], 1
    return ports[b][last[b]], t


def _fixed_block(g: PortGraph, placement: Placement, cur: int, limit: int, n: int, meas: int) -> tuple:
    """The block a fixed-n round tests from ``cur``, which has a pebble, at stream offset ``meas``: it and
    the next nodes in the placement's columns, up to and including the first that is unforced, has an
    out-of-range forced port, is the ``limit``-th, or whose forced port leads to the treasure or off the
    columns. As ``_lockstep`` unpacks it: the node count; the last node and its forced port; the uncertain
    (node, basis) runs' node, u32 threshold, first draw's offset in the block, and ``_jump`` to their first
    draw in the stream; and each node's count of certain bases, which is one at every node but the last."""
    offsets, nbr = g.csr
    tables = [_decode_table(state, placement.delta, placement.scheme) for state in placement.states]
    i = int((placement.nodes == cur).argmax())  # cur's column
    nodes, kinds = placement.nodes[i : i + limit], placement.state_index[i : i + limit]
    forced = np.array([table[1] or 0 for table in tables])[kinds]  # 0: unforced
    lo = offsets[nodes]
    fits = (forced > 0) & (forced <= offsets[nodes + 1] - lo)
    nxt = nbr[np.where(fits, lo + forced - 1, 0)]
    # the first node that does not lead on to the next column ends the block; the last always does
    goes_on = np.append(fits[:-1] & (nxt[:-1] == nodes[1:]) & (nodes[1:] != g.treasure), False)
    k = int(goes_on.argmin()) + 1
    thr = np.array([[-1 if t is None else t for t in table[2]] for table in tables])[kinds[:k]]  # -1: certain
    node, basis = np.nonzero(thr >= 0)
    base = (node * thr.shape[1] + basis) * n
    certain = (thr < 0).sum(axis=1)
    runs = node, thr[node, basis].astype(np.uint32), base, _jump(base + meas)
    return k, int(nodes[k - 1]), int(forced[k - 1]) or None, *runs, certain


_BATCH_DRAWS = 1 << 14  # the most words, draws and carried states, of a first round's Streams call


def _uniform_signs(u: np.ndarray, thr: np.ndarray) -> tuple:
    """Which runs of draws ``u``, along its last axis, are all at most their u32 threshold, plus, and all above it."""
    return np.maximum.reduce(u, axis=-1) <= thr, np.minimum.reduce(u, axis=-1) > thr


# one kept record per row, so equal neighbouring records are one object
_result = lru_cache(maxsize=1 << 12)(TrialResult)


def _block(run: _Run, cur: int, rounds: int, meas: int) -> tuple:
    """The run's block a fixed-n round tests from ``cur`` after ``rounds`` rounds, ``meas`` draws in, built once."""
    placement = run.placement
    limit = min(run.budget - rounds, max(1, _ROUND_DRAWS // len(basis_family(placement.scheme, placement.delta))))
    if (key := (cur, meas, limit)) not in run.blocks:
        run.blocks[key] = _fixed_block(run.g, placement, cur, limit, run.strategy.n, meas)
    return run.blocks[key]


def _uniform_runs(block: tuple, n: int, meas: int, t: np.ndarray, state, inc, draw) -> tuple:
    """The (trial, run) pairs of ``block``'s runs, for trials ``t`` of LCG states ``state`` and increments ``inc``,
    whose n draws from offset ``meas`` on are uniform: each one's place in ``t``, run and first sign (True: plus).
    Slices of ``t`` whose first round fits in _BATCH_DRAWS words go through the rounds one after another."""
    (node, thr, base, (a, c)), parts = block[3:7], []
    step = max(1, _BATCH_DRAWS // ((min(n, 8) + 1) * node.size))
    for lo in range(0, t.size, step):
        ts, done, r = t[lo : lo + step, None], min(n, 8), 0  # a row of runs per trial
        u, states = draw(base + meas, done, a * state[ts] + c * inc[ts], ts)
        plus, minus = (x.ravel() for x in _uniform_signs(u, thr))
        idx = (plus | minus).nonzero()[0]
        who, run, first, states = idx // node.size, idx % node.size, plus.take(idx), states.ravel().take(idx)
        while who.size and done < n:
            r, w = r + 1, _round_width(n - done, who.size, r + 1)
            u, states = draw(base.take(run) + (meas + done), w, states, ts.take(who))
            idx = np.where(first, *_uniform_signs(u, thr.take(run))).nonzero()[0]
            who, run, first, states = (x.take(idx) for x in (who, run, first, states))
            done += w
        parts.append((who + lo, run, first))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _lockstep(walk: _Run, state, inc, draw) -> list:
    """The fixed-n records, for run ``walk``, of trials whose streams have LCG states ``state`` and increments ``inc``,
    uint64 arrays, walked in lockstep: a group of trials at one node, round and stream offset tests a block together,
    each trial failing at its first node whose count of uniform bases is not one; the rest go on, split by port if
    unforced. ``draw(starts, width, states, trials)`` is ``Streams.run_states`` with each run's stream."""
    g, placement, n, budget = walk.g, walk.placement, walk.strategy.n, walk.budget
    offsets, nbr, family = *g.csr, len(basis_family(placement.scheme, placement.delta))
    out = np.empty(state.size, object)
    groups = [(np.arange(state.size), g.start, 0, 0, 0)]  # trials, node, steps, rounds, stream offset
    while groups:
        t, cur, steps, rounds, meas = groups.pop()
        if rounds == budget or cur not in placement.index_of:
            kind = FailureKind.MISSING_PEBBLE if rounds < budget else FailureKind.STEP_BUDGET_EXHAUSTED
            out[t] = _result(False, steps, meas, kind)
            continue
        k, last, forced, node, *_, base, _, certain = block = _block(walk, cur, rounds, meas)
        who, run, first = _uniform_runs(block, n, meas, t, state, inc, draw) if node.size else ((),) * 3
        if len(who):  # each trial's count of uniform bases per node
            bad = np.bincount(who * k + node.take(run), minlength=t.size * k).reshape(t.size, k) + certain != 1
            m = np.where(bad.any(axis=1), bad.argmax(axis=1), k)
        else:  # only the last node can be unforced
            m = np.full(t.size, k - (certain[-1] != 1))
        for at in set(m[m < k].tolist()):
            out[t[m == at]] = _result(False, steps + at, meas + (at + 1) * n * family, FailureKind.AMBIGUOUS_DECODE)
        if not (ok := m == k).any():
            continue
        # every node before the last decoded to its forced port
        steps, rounds, meas = steps + k - 1, rounds + k, meas + k * n * family
        if forced:
            moves = [(t[ok], forced)]
        else:  # each decoding trial's one uniform run at the last node; base // n = node * F + basis
            one = ok.take(who) & (node.take(run) == k - 1)
            port = np.array(_sign_ports(placement.delta, family))[base.take(run[one]) // n % family, first[one] * 1]
            moves = [(t.take(who[one][port == p]), p) for p in set(port.tolist())]
        lo, degree = offsets.item(last), offsets.item(last + 1) - offsets.item(last)
        for movers, port in moves:
            if not 1 <= port <= degree:
                out[movers] = _result(False, steps, meas, FailureKind.WRONG_PORT_RANGE)
            elif (nxt := nbr.item(lo + port - 1)) == g.treasure:
                out[movers] = _result(True, steps + 1, meas, FailureKind.NONE)
            else:
                groups.append((movers, nxt, steps + 1, rounds, meas))
    return out.tolist()


def _fixed_trial(run: _Run, rng: RngStream | int) -> TrialResult:
    """A fixed-n trial's record. Trial index i of the run's chunk walks a batch from i, as many of the chunk seed's
    next streams as fit the first block's first round in _BATCH_DRAWS words, which run_trial reads by position; where
    one trial fills a batch, and on a stream a caller passes, a trial walks alone."""
    if type(rng) is int:  # no batch holds trial i
        i, (seed, end) = rng, run.chunk
        runs = run.g.start in run.placement.index_of and _block(run, run.g.start, 0, 0)[3].size
        if (hi := min(end, i + _BATCH_DRAWS // ((min(run.strategy.n, 8) + 1) * max(runs, 1)))) > i + 1:
            streams = Streams(seed, i, hi)
            run.batch = i, _lockstep(run, streams.state, streams.inc, streams.run_states)
            return run.batch[1][0]
        rng = RngStream(seed, i)
    alone = np.array([rng._state], np.uint64), np.array([rng._inc], np.uint64)
    return _lockstep(run, *alone, lambda at, w, st, _: rng.run_states(at, w, st.ravel()))[0]


class _Run:
    """A run's shared state: ``g``, ``placement``, ``strategy`` and ``budget``, which passed run_trial's checks;
    ``blocks``, the fixed-n blocks built for them, by where their round starts; ``kept``, the record of a strategy that
    draws nothing, else None; ``chunk``, the seed and end of the harness chunk whose trial indices run_trial reads, or
    None; and ``batch``, the fixed-n batch walked last, its first index and records, or None."""

    __slots__ = ("g", "placement", "strategy", "budget", "blocks", "kept", "chunk", "batch")

    def __init__(self, g: PortGraph, placement, strategy: AgentStrategy, budget: int, chunk: tuple | None) -> None:
        quantum = isinstance(strategy, (FixedN, Adaptive, QuditOneShot))
        if quantum and not isinstance(placement, Placement):
            raise ValueError("quantum strategies need a full Placement")
        _check_args(strategy, placement.scheme if quantum else None, budget, placement.delta if quantum else None)
        if isinstance(strategy, FixedN) and strategy.n is None:
            raise ValueError("FixedN.n must be resolved to a positive sample count")
        if isinstance(placement, Placement):  # a classical strategy's bare set is not checked
            bad = placement.nodes[(placement.nodes < 0) | (placement.nodes >= g.node_count)].tolist()
            if bad:
                raise ValueError(f"placement references nodes outside the graph: {bad}")
        self.g, self.placement, self.strategy, self.budget, self.blocks, self.chunk, self.batch = (
            g, placement, strategy, budget, {}, chunk, None)
        self.kept = _walk(g, placement, strategy, budget, None) if isinstance(strategy, _DRAWS_NOTHING) else None


_CHUNK: _Run | None = None  # the run of the harness chunk open in this process


@contextmanager
def _chunk(g: PortGraph, placement, strategy: AgentStrategy, budget: int, seed: int, end: int):
    """Open a harness chunk: until the with block ends, however it ends, run_trial calls with these arguments read its
    run, and any call's int trial index i reads RngStream(seed, i), batched up to ``end`` for fixed-n."""
    global _CHUNK
    _CHUNK = _Run(g, placement, strategy, budget, (seed, end))
    try:
        yield _CHUNK
    finally:
        _CHUNK = None


# The schemes each walking strategy decodes; classical strategies read no pebble.
_QUBIT_SCHEMES = (EncodingScheme.GENERAL, EncodingScheme.BITSIGN4)
_DECODES = {QuditOneShot: (EncodingScheme.QUDIT,), FixedN: _QUBIT_SCHEMES, Adaptive: _QUBIT_SCHEMES}
_DRAWS_NOTHING = (QuditOneShot, ClassicalTable)  # their trials read no stream: one record a run


def _check_args(strategy: AgentStrategy, scheme: EncodingScheme | None, step_budget: int | None, delta=None) -> None:
    """run_trial's argument rules, which run_experiment applies before its set-up; None skips a
    rule. A walking strategy on full_path gets place_pebbles's message."""
    if step_budget is not None and step_budget < 1:
        raise ValueError(f"step_budget must be >= 1, got {step_budget}")
    if scheme not in _DECODES.get(type(strategy), (scheme,)):
        if scheme is EncodingScheme.FULL_PATH:
            raise ValueError("full_path is analysis-only; a walking agent cannot decode it")
        if isinstance(strategy, QuditOneShot):
            raise ValueError("QuditOneShot requires the qudit scheme")
        raise ValueError(f"{type(strategy).__name__} cannot decode scheme {scheme.value}")
    if isinstance(strategy, Adaptive) and delta is not None and strategy.cap < len(basis_family(scheme, delta)):
        raise ValueError(f"cap {strategy.cap} below family size {len(basis_family(scheme, delta))}")
    if isinstance(strategy, FixedN) and None not in (strategy.n, step_budget, delta):
        # a trial's stream offsets lie below budget * n * F; they, and n, must fit in int64
        draws = step_budget * strategy.n * len(basis_family(scheme, delta))
        if draws >= 2**63:
            raise ValueError(f"FixedN.n {strategy.n} too large: {step_budget} rounds read {draws} draws, over 2**63-1")


def run_trial(
    g: PortGraph,
    placement: Union[Placement, AbstractSet[int]],
    strategy: AgentStrategy,
    step_budget: int,
    rng: RngStream | int | None,
) -> TrialResult:
    """Walk one agent from start until treasure, failure, or budget.

    The budget caps rounds; every round moves through at most one edge, so
    steps_taken <= step_budget (a classical 'stay' burns a round without a
    move, which keeps stay-forever tables finite). Classical strategies may
    receive a bare set of pebbled nodes instead of a full Placement.

    One loop serves every other strategy: each round yields a 1-based exit
    port, which one shared tail range-checks and follows. A fixed-n trial
    walks in lockstep as a batch of one, or reads its record from its
    harness chunk's batch (module docstring); each trial is still one call.

    ``rng`` is the trial's stream, or in a harness chunk its index i, for
    RngStream(seed, i) of the chunk's seed; qudit and table trials read
    none, so it may be None for them. A fixed-n or adaptive trial leaves a
    stream where it was; a random walk takes one scalar draw per round. A
    call with the open chunk's arguments reads its run; any other checks
    them and builds its own. A qudit or table trial returns its kept record.
    """
    run = _CHUNK  # the chunk's test inline: a call would cost a qudit trial about 5%
    if not (run and run.g is g and run.placement is placement and run.strategy is strategy
            and run.budget == step_budget):
        run = _Run(g, placement, strategy, step_budget, run and run.chunk)
    if run.kept is not None:
        return run.kept
    if type(rng) is int and run.chunk is not None:  # a trial index of the open chunk
        if run.batch is not None and 0 <= rng - run.batch[0] < len(run.batch[1]):  # in the fixed-n batch walked last
            return run.batch[1][rng - run.batch[0]]
        if not isinstance(strategy, FixedN):
            rng = RngStream(run.chunk[0], rng)
    elif not isinstance(rng, RngStream):
        raise ValueError(_stream_error(strategy, rng))
    if isinstance(strategy, FixedN):
        return _fixed_trial(run, rng)
    return _walk(g, placement, strategy, step_budget, rng)


def _stream_error(strategy: AgentStrategy, rng) -> str:
    """run_trial's message for an ``rng`` that names no stream of a drawing strategy's trial."""
    name = type(strategy).__name__
    if rng is None:
        return f"{name} trials draw from a stream; got None"
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool) and _CHUNK is None:
        return f"{name} trial index {rng} names no stream: no harness chunk is open; pass an RngStream"
    return f"rng must be an RngStream, an int trial index of an open harness chunk, or None; got {rng!r}"


def _walk(g: PortGraph, placement, strategy: AgentStrategy, step_budget: int, rng: RngStream | None) -> TrialResult:
    """run_trial's round loop for all but fixed-n trials, on checked arguments."""
    quantum = isinstance(strategy, (Adaptive, QuditOneShot))
    if quantum:
        delta, scheme, states = placement.delta, placement.scheme, placement.states
    pebbled = placement.index_of if isinstance(placement, Placement) else placement  # node -> state index, or a set
    offsets, nbr = g.csr  # read through ndarray.item, so cur stays a Python int
    signs = None  # an adaptive trial's sign bytes, made at its first round

    cur = g.start
    steps = rounds = meas = 0
    while rounds < step_budget:
        rounds += 1
        if quantum and cur not in pebbled:
            return _result(False, steps, meas, FailureKind.MISSING_PEBBLE)
        if isinstance(strategy, QuditOneShot):
            meas += 1
            port = decode_qudit(states[pebbled[cur]])
        elif isinstance(strategy, Adaptive):
            if signs is None:  # the placement's decode tables, and their distinct thresholds
                tables = [_decode_table(state, delta, scheme) for state in states]
                signs = _Signs(rng, {t for table in tables for t in table[2] if t is not None})
                ports = _sign_ports(delta, len(basis_family(scheme, delta)))
            port, used = _eliminate(tables[pebbled[cur]], ports, strategy.cap, signs, meas)
            meas += used
            if port is None:
                return _result(False, steps, meas, FailureKind.DECLARED_FAILURE)
        elif isinstance(strategy, ClassicalTable):
            action = strategy.table.action(offsets.item(cur + 1) - offsets.item(cur), cur in pebbled)
            if action is None:
                continue  # stay: round spent, no move
            port = action + 1
        elif isinstance(strategy, RandomWalk):
            port = rng.below(offsets.item(cur + 1) - offsets.item(cur)) + 1
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        lo = offsets.item(cur)
        if not 1 <= port <= offsets.item(cur + 1) - lo:
            return _result(False, steps, meas, FailureKind.WRONG_PORT_RANGE)
        cur = nbr.item(lo + port - 1)
        steps += 1
        if cur == g.treasure:
            return _result(True, steps, meas, FailureKind.NONE)
    return _result(False, steps, meas, FailureKind.STEP_BUDGET_EXHAUSTED)


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
