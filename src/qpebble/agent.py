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
  ambiguous. So a fixed-n round of ``run_trial`` tests a block of the forced
  nodes ahead together (``_forced_run``: a run of the placement's columns,
  at most the budget or ``_ROUND_DRAWS // F`` nodes), one round and step per
  node, ending at the first node whose count of uniform bases is not one.
  Draws are sparse: an uncertain basis's run is uniform only while each draw
  falls on its first draw's side, so only runs still uniform draw on; a round
  reads that from each run's draw-major extremes (plus iff the largest u32 is
  at most the threshold, minus iff the least is above it). A block
  depends only on where its round starts (n, ``_ROUND_DRAWS``, node, stream
  offset, node limit), so the run's memo builds each block once, with the
  stream jumps of its runs' first draws, which a trial's first round there
  passes to ``RngStream.runs``. No record depends on where blocks begin,
  because a node's draws sit at a fixed stream offset.
* adaptive: round-robin over the bases still alive, killing a basis the
  first time it contradicts its own previous outcome; decode once a single
  basis survives, give up at the measurement cap. A trial reads its
  stream straight through from offset 0, node after node, in blocks read
  by offset, and keeps the last block's draws as one sign byte per draw
  and threshold of the placement's states (``_Signs``). ``_eliminate``
  steps a node from one elimination to the next: a basis's samples
  between two are a strided slice of those bytes, and its first
  contradiction one find.
  ``measure_node_adaptive`` keeps the per-draw loop on scalar draws, the
  reference the walk is tested against.
* qudit one-shot: read the level in one computational-basis measurement.

Both qubit rules compare each uniform draw with the Born probability as
snapped by ``quantum.snap_certain``, the rule ``sample_measurement`` uses,
so a correct-basis run is always uniform. Ports decode through
``encoding.decode_outcome``.
"""

from __future__ import annotations

import enum
import math
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
from .rng import RngStream, _run_jumps

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


# Draws per round of the sparse fixed-n test: each run still uniform gets max(8,
# _ROUND_DRAWS // runs) more; a block has at most _ROUND_DRAWS // F nodes, so
# no round generates more than 8 * _ROUND_DRAWS.
_ROUND_DRAWS = 1 << 13


def _round_width(left: int, runs: int) -> int:
    """Draws per run in a sparse fixed-n round: ``left`` to take, ``runs`` runs uniform so far."""
    return min(left, max(8, _ROUND_DRAWS // runs))


@lru_cache(maxsize=1024)
def _decode_table(state: QubitState, delta: int, scheme: EncodingScheme) -> tuple[tuple[float, ...], int | None]:
    """P(plus) of ``state`` in each family basis, in index order, snapped
    to certainty; and the forced port, the decode of the one certain basis
    (None unless exactly one basis is certain)."""
    p_plus = tuple(snap_certain(born_probability(state, b.plus_vec)) for b in basis_family(scheme, delta))
    certain = [Outcome(i, PLUS if p else MINUS) for i, p in enumerate(p_plus) if p in (0.0, 1.0)]
    return p_plus, decode_outcome(certain[0], delta) if len(certain) == 1 else None


def _block_pairs(rows, n: int, meas: int) -> tuple[np.ndarray, ...]:
    """The uncertain (node, basis) runs of a fixed-n block with P(plus) rows
    ``rows`` (k by F), drawing from stream offset ``meas`` on: each run's node,
    u32 threshold (u = u32 * 2**-32 is below p iff u32 <= ceil(p * 2**32) - 1)
    and first draw's offset in the block and in the stream; the first round's
    ``_run_jumps``; each node's count of certain bases; and the nodes where it
    is not one, the ambiguous nodes once no run is uniform."""
    p = np.asarray(rows, dtype=float)
    node, basis = np.nonzero((p > 0.0) & (p < 1.0))
    thr = (np.ceil(p[node, basis] * 2.0**32) - 1).astype(np.uint32)
    base = (node * p.shape[1] + basis) * n
    certain = ((p == 0.0) | (p == 1.0)).sum(axis=1)
    jumps = _run_jumps(base + meas, _round_width(n, max(node.size, 1)))
    return node, thr, base, base + meas, jumps, certain, np.flatnonzero(certain != 1)


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
    p_plus, _ = _decode_table(state, delta, scheme)
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


@lru_cache(maxsize=1024)
def _sign_table(state: QubitState, delta: int, scheme: EncodingScheme) -> tuple[tuple, tuple, tuple]:
    """``state``'s family bases as ``_eliminate`` reads them: each one's u32
    threshold (a draw's sign is plus iff its u32 is at most it, the rule of
    ``_block_pairs``), None if the basis is certain; each certain one's sign
    byte (1 plus, 0 minus); and the ports each sign byte decodes to."""
    p_plus, _ = _decode_table(state, delta, scheme)
    thr = tuple(None if p in (0.0, 1.0) else math.ceil(p * 2.0**32) - 1 for p in p_plus)
    ports = [[decode_outcome(Outcome(b, sign), delta) for sign in (MINUS, PLUS)] for b in range(len(p_plus))]
    return thr, tuple(int(p == 1.0) for p in p_plus), tuple(map(tuple, ports))


class _Signs:
    """An adaptive trial's draws as sign bytes, one bytes object per threshold
    in ``of``: byte k is 1 iff draw ``base + k``'s u32 is at most the
    threshold. It holds the last block read, draws ``base`` to ``read``: a
    block is read only once every draw before it is used. Blocks of 64
    doubling to 4096 draws are read by offset through :meth:`RngStream.runs`,
    so ``rng`` does not move."""

    __slots__ = ("rng", "of", "base", "read")

    def __init__(self, rng: RngStream, thresholds) -> None:
        self.rng, self.of, self.base, self.read = rng, dict.fromkeys(thresholds, b""), 0, 0

    def more(self) -> None:
        """Read the next block: as many draws as read so far plus 64, at most 4096."""
        block = min(self.read + 64, 4096)
        u32 = self.rng.runs(np.array([self.read]), block)[0]
        for t in self.of:
            self.of[t] = (u32 <= t).tobytes()
        self.base, self.read = self.read, self.read + block


def _eliminate(table: tuple, cap: int, signs: _Signs, at: int) -> tuple[int | None, int]:
    """measure_node_adaptive's result on a checked cap for a state with
    ``_sign_table`` ``table``, whose draws start at stream offset ``at``.

    It steps from one elimination to the next, not from draw to draw. Between
    two, the draws go round-robin over the m live bases, so a basis's samples
    are every m-th draw from its first, and its first contradiction is one
    find on that slice of its sign bytes; the earliest over the live bases is
    the next elimination. A certain basis never contradicts."""
    thr, fixed, ports = table
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
        # bytes lo + k, k < end, in the block and within the cap, until the event at k = end, if any
        end, who = min(cap - t, size - lo), -1
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


def _forced_run(g: PortGraph, placement: Placement, cur: int, limit: int) -> tuple[int, int | None, np.ndarray]:
    """The nodes one fixed-n round tests together from ``cur``, which has a
    pebble: it and the next nodes in the placement's columns, up to and
    including the first that is unforced, has an out-of-range forced port, is
    the ``limit``-th, or whose forced port leads to the treasure or off the
    columns. Returns the last of them, its forced port and their P(plus) rows."""
    offsets, nbr = g.csr
    table = [_decode_table(state, placement.delta, placement.scheme) for state in placement.states]
    i = int((placement.nodes == cur).argmax())  # cur's column
    nodes, kinds = placement.nodes[i : i + limit], placement.state_index[i : i + limit]
    forced = np.array([port or 0 for _, port in table])[kinds]  # 0: unforced
    lo = offsets[nodes]
    fits = (forced > 0) & (forced <= offsets[nodes + 1] - lo)
    nxt = nbr[np.where(fits, lo + forced - 1, 0)]
    # the first node that does not lead on to the next column ends the block; the last always does
    goes_on = np.append(fits[:-1] & (nxt[:-1] == nodes[1:]) & (nodes[1:] != g.treasure), False)
    k = int(goes_on.argmin()) + 1
    return int(nodes[k - 1]), int(forced[k - 1]) or None, np.array([row for row, _ in table])[kinds[:k]]


# run_trial's memo, which a run's trials share: the last (graph, placement) pair, both
# compared by identity; the fixed-n blocks built for it, by where their round starts
# (module docstring), and under the key Adaptive the placement's sign tables and their
# thresholds; and the last strategy and budget that passed run_trial's checks, with
# their record if they draw nothing. Keeping one pair bounds what it holds alive to one
# graph, and a run clears it.
_MEMO: list = []


def _memo(g: PortGraph, placement) -> list:
    """_MEMO for this pair: kept, or made anew once the pebbles are checked to lie in the graph."""
    if not (_MEMO and _MEMO[0] is g and _MEMO[1] is placement):
        if isinstance(placement, Placement):  # a classical strategy's bare set is not checked
            bad = placement.nodes[(placement.nodes < 0) | (placement.nodes >= g.node_count)].tolist()
            if bad:
                raise ValueError(f"placement references nodes outside the graph: {bad}")
        _MEMO[:] = g, placement, {}, None, None, None
    return _MEMO


def _fail(kind: FailureKind, steps: int, meas: int) -> TrialResult:
    return TrialResult(False, steps, meas, kind)


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
    rng: RngStream | None,
) -> TrialResult:
    """Walk one agent from start until treasure, failure, or budget.

    The budget caps rounds; every round moves through at most one edge, so
    steps_taken <= step_budget (a classical 'stay' burns a round without a
    move, which keeps stay-forever tables finite). Classical strategies may
    receive a bare set of pebbled nodes instead of a full Placement.

    One loop serves every strategy: each round yields a 1-based exit port,
    which one shared tail range-checks and follows. A fixed-n round walks
    ``cur`` through a block of forced nodes first (module docstring).

    A fixed-n or adaptive trial reads its draws by offset and leaves ``rng``
    where it was; a random walk takes one scalar draw per round. Qudit and
    table trials never read it, so it may be None for them. A call with the
    memo's graph, placement, strategy and budget, which passed the checks,
    skips them: it returns the kept record of a qudit or table trial, or
    checks ``rng`` and walks.
    """
    memo = _MEMO  # the memo's test inline: a call would cost a qudit trial about 5%
    if not (memo and memo[0] is g and memo[1] is placement and memo[3] is strategy and memo[4] == step_budget):
        quantum = isinstance(strategy, (FixedN, Adaptive, QuditOneShot))
        if quantum and not isinstance(placement, Placement):
            raise ValueError("quantum strategies need a full Placement")
        _check_args(strategy, placement.scheme if quantum else None, step_budget, placement.delta if quantum else None)
        if isinstance(strategy, FixedN) and strategy.n is None:
            raise ValueError("FixedN.n must be resolved to a positive sample count")
        walks = not isinstance(strategy, _DRAWS_NOTHING)
        memo = _memo(g, placement)
        memo[3:] = strategy, step_budget, None if walks else _walk(g, placement, strategy, step_budget, None)
    if memo[5] is not None:
        return memo[5]
    if rng is None:
        raise ValueError(f"{type(strategy).__name__} trials draw from a stream; got None")
    return _walk(g, placement, strategy, step_budget, rng)


def _walk(g: PortGraph, placement, strategy: AgentStrategy, step_budget: int, rng: RngStream | None) -> TrialResult:
    """run_trial's round loop, on checked arguments."""
    quantum = isinstance(strategy, (FixedN, Adaptive, QuditOneShot))
    if quantum:
        delta, scheme, states, blocks = placement.delta, placement.scheme, placement.states, _memo(g, placement)[2]
    pebbled = placement.index_of if isinstance(placement, Placement) else placement  # node -> state index, or a set
    offsets, nbr = g.csr  # read through ndarray.item, so cur stays a Python int
    signs = None  # an adaptive trial's sign bytes, made at its first round

    cur = g.start
    steps = rounds = meas = 0
    while rounds < step_budget:
        rounds += 1
        if quantum and cur not in pebbled:
            return _fail(FailureKind.MISSING_PEBBLE, steps, meas)
        if isinstance(strategy, QuditOneShot):
            meas += 1
            port = decode_qudit(states[pebbled[cur]])
        elif isinstance(strategy, Adaptive):
            if signs is None:
                if Adaptive not in blocks:  # the placement's sign tables, and their distinct thresholds
                    tables = [_sign_table(state, delta, scheme) for state in states]
                    blocks[Adaptive] = tables, {t for thr, _, _ in tables for t in thr if t is not None}
                tables, thresholds = blocks[Adaptive]
                signs = _Signs(rng, thresholds)
            port, used = _eliminate(tables[pebbled[cur]], strategy.cap, signs, meas)
            meas += used
            if port is None:
                return _fail(FailureKind.DECLARED_FAILURE, steps, meas)
        elif isinstance(strategy, FixedN):
            # this round and one per forced node ahead, tested together
            n, family = strategy.n, len(basis_family(scheme, delta))
            limit = min(step_budget - rounds + 1, max(1, _ROUND_DRAWS // family))
            key = (n, _ROUND_DRAWS, cur, meas, limit)
            if key not in blocks:
                last, forced, rows = _forced_run(g, placement, cur, limit)
                blocks[key] = len(rows), last, forced, _block_pairs(rows, n, meas)
            k, cur, forced, (node, thr, base, starts, jumps, certain, dead) = blocks[key]
            # draw j of a run is stream offset meas + base + j; keep the runs
            # whose draws so far all fall on their first draw's side
            first, done = None, 0
            while node.size and done < n:
                w = _round_width(n - done, node.size)
                u = rng.runs(starts, w, jumps)
                plus, minus = np.maximum.reduce(u, axis=1) <= thr, np.minimum.reduce(u, axis=1) > thr
                first, keep = (plus, plus | minus) if first is None else (first, np.where(first, plus, minus))
                if not np.count_nonzero(keep):  # no run is uniform, as is common after one round: skip the gathers
                    node = node[:0]
                    break
                node, thr, base, first = node[keep], thr[keep], base[keep], first[keep]
                done += w
                starts, jumps = base + (meas + done), None
            ambiguous = np.flatnonzero(certain + np.bincount(node, minlength=k) != 1) if node.size else dead
            if ambiguous.size:
                m = int(ambiguous[0])
                return _fail(FailureKind.AMBIGUOUS_DECODE, steps + m, meas + (m + 1) * n * family)
            # every node before the last decoded to its forced port
            steps += k - 1
            rounds += k - 1
            meas += k * n * family
            # unforced: the one run left is the last node's; base // n = node * F + basis
            port = forced or decode_outcome(Outcome(int(base[-1]) // n % family, PLUS if first[-1] else MINUS), delta)
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
            return _fail(FailureKind.WRONG_PORT_RANGE, steps, meas)
        cur = nbr.item(lo + port - 1)
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
