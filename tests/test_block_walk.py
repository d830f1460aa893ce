"""The fixed-n walk, which tests a block of nodes with sparse draws,
against the per-node walk built from measure_node_fixed and decide_fixed,
which draws every sample."""

import math

import numpy as np
import pytest

from qpebble import (
    FailureKind,
    FixedN,
    Placement,
    QuantumPebble,
    QubitState,
    RngStream,
    encode_port,
    gen_padded_path,
    neighbor_via_port,
    place_pebbles,
    run_trial,
)
from qpebble import agent, basis_family
from qpebble.agent import _ROUND_DRAWS, _decode_table, _u32_threshold
from qpebble.encoding import decode_outcome, route
from qpebble.quantum import MINUS, PLUS, Outcome
from qpebble.rng import _BLOCK
from walks import (
    GENERAL,
    bitsign4,
    delta_two,
    flipped_sign,
    missing_mid_route,
    port_out_of_range,
    reference_walk,
    route_placement,
    short_budget,
    turned,
)

SEEDS = range(200)


def off_family():
    # every route node but the start emits its port's state pushed off the
    # family by a random offset, so no basis is certain
    g = gen_padded_path(8, 4, 5)
    placement = place_pebbles(g, GENERAL)
    noise = np.random.default_rng(2).normal(scale=0.1, size=(g.node_count, 2, 2))
    pebbles = dict(placement.pebbles)
    for node, pebble in list(pebbles.items())[1:]:
        (r0, i0), (r1, i1) = noise[node]
        amp0 = pebble.emitted_state.amp0 + complex(r0, i0)
        amp1 = pebble.emitted_state.amp1 + complex(r1, i1)
        norm = math.hypot(abs(amp0), abs(amp1))
        pebbles[node] = QuantumPebble(node, QubitState(amp0 / norm, amp1 / norm), pebble.exit_port)
    return g, Placement(GENERAL, 4, pebbles), 8


def pebble_on_treasure():
    # the treasure's own pebble points back along the route; the walk ends
    # on arrival all the same, with budget to spare
    g = gen_padded_path(6, 4, 2)
    placement = place_pebbles(g, GENERAL)
    back = QuantumPebble(g.treasure, encode_port(1, 4), 1)
    return g, Placement(GENERAL, 4, {**placement.pebbles, g.treasure: back}), 12


def single_sample():
    g = gen_padded_path(5, 4, 1)
    return g, place_pebbles(g, GENERAL), 5


def several_blocks():
    # one block at the module's round size, fifteen at SMALL_ROUNDS
    g = gen_padded_path(120, 8, 9)
    return g, place_pebbles(g, GENERAL), 120


def delta_sixteen():
    # the nearest wrong basis has p = cos^2(pi/32) ~ 0.990, so its run
    # outlasts several widening rounds before it breaks, when it does
    g = gen_padded_path(12, 16, 5)
    return g, place_pebbles(g, GENERAL), 12


def near_certain():
    # each pebble's state turned 0.01 rad off its port's state, so the right
    # basis has p = 1 - 1e-4 and no basis is certain; at n=5000 (10000
    # draws a node, more than 8192) its run stays uniform about 61% of the
    # time, and the node decodes from that run's first sign
    g = gen_padded_path(6, 4, 2)
    pebbles = {
        node: QuantumPebble(node, turned(pebble.emitted_state, 0.01), pebble.exit_port)
        for node, pebble in place_pebbles(g, GENERAL).pebbles.items()
    }
    return g, Placement(GENERAL, 4, pebbles), 6


# each case, its sample count, and a failure kind its records must show
CASES = {
    "off_family": (off_family, 20, FailureKind.MISSING_PEBBLE),
    "flipped_sign": (flipped_sign, 8, FailureKind.MISSING_PEBBLE),
    "port_out_of_range": (port_out_of_range, 6, FailureKind.WRONG_PORT_RANGE),
    "missing_mid_route": (missing_mid_route, 10, FailureKind.MISSING_PEBBLE),
    "pebble_on_treasure": (pebble_on_treasure, 12, FailureKind.NONE),
    "short_budget": (short_budget, 12, FailureKind.STEP_BUDGET_EXHAUSTED),
    "bitsign4": (bitsign4, 6, FailureKind.AMBIGUOUS_DECODE),
    "n1": (single_sample, 1, FailureKind.AMBIGUOUS_DECODE),
    "delta2": (delta_two, 2, FailureKind.NONE),
    "several_blocks": (several_blocks, 200, FailureKind.AMBIGUOUS_DECODE),
    "delta16": (delta_sixteen, 300, FailureKind.AMBIGUOUS_DECODE),
    "near_certain": (near_certain, 5000, FailureKind.AMBIGUOUS_DECODE),
}

# a round size that cuts every case into blocks of a few nodes, tested in
# rounds of 8 draws or so
SMALL_ROUNDS = 32


@pytest.mark.parametrize("name", list(CASES))
def test_block_walk_matches_per_node_walk(name):
    build, n, shown = CASES[name]
    g, placement, budget = build()
    kinds = set()
    for seed in SEEDS:
        got = run_trial(g, placement, FixedN(n), budget, RngStream(seed, 1))
        assert got == reference_walk(g, placement, FixedN(n), budget, RngStream(seed, 1)), seed
        kinds.add(got.failure_kind)
    assert shown in kinds


@pytest.mark.parametrize("name", list(CASES))
def test_small_rounds_match_per_node_walk(name, monkeypatch):
    monkeypatch.setattr(agent, "_ROUND_DRAWS", SMALL_ROUNDS)
    test_block_walk_matches_per_node_walk(name)


def turned_at(placement, node, angle):
    """``placement`` with ``node``'s pebble turned ``angle`` rad off its port's state."""
    pebble = placement.pebbles[node]
    pebbles = {**placement.pebbles, node: QuantumPebble(node, turned(pebble.emitted_state, angle), pebble.exit_port)}
    return Placement(GENERAL, placement.delta, pebbles)


def budget_mid_block():
    # 21 rounds: inside the one block at the module's round size, inside the
    # second block of 16 nodes at SMALL_ROUNDS
    g = gen_padded_path(40, 4, 8)
    return g, place_pebbles(g, GENERAL), 21


def unforced_mid_route():
    g = gen_padded_path(12, 4, 4)
    return g, turned_at(place_pebbles(g, GENERAL), route(g)[5][0], 0.4), 12


def failures_spread():
    # the wrong basis runs uniform with chance about cos(pi/8)**40 = 0.04 per
    # node, so trials fail all along the route
    g = gen_padded_path(40, 4, 2)
    return g, place_pebbles(g, GENERAL), 40


def long_route_unforced():
    # two blocks at the module's round size (2048 nodes each at F = 4); the
    # chain ends at route node 2060, in the second
    g = gen_padded_path(2100, 8, 6)
    return g, turned_at(place_pebbles(g, GENERAL), route(g)[2060][0], 0.05), 2100


# each case, its sample count, the length of its forced chain from the start, the seeds to run,
# and the round size at which its failures must fall both in the first block and in a later one
PLAN_CASES = {
    "budget_mid_block": (budget_mid_block, 12, 40, 40, None),
    "hole": (missing_mid_route, 10, 5, 100, None),
    "unforced_mid_route": (unforced_mid_route, 8, 6, 100, None),
    "port_out_of_range": (port_out_of_range, 6, 4, 100, None),
    "failures_spread": (failures_spread, 20, 40, 100, SMALL_ROUNDS),
    "long_route_unforced": (long_route_unforced, 230, 2061, 12, _ROUND_DRAWS),
}


@pytest.mark.parametrize("round_draws", [_ROUND_DRAWS, SMALL_ROUNDS], ids=["module_rounds", "small_rounds"])
@pytest.mark.parametrize("name", list(PLAN_CASES))
def test_plan_matches_per_node_walk(name, round_draws, monkeypatch):
    """run_trial walks the blocks of the forced chain from the start, then on
    past the chain's end; the records are the per-node walk's."""
    monkeypatch.setattr(agent, "_ROUND_DRAWS", round_draws)
    build, n, chain_length, seeds, spread = PLAN_CASES[name]
    g, placement, budget = build()
    assert agent._fixed_block(g, placement, g.start, g.node_count, n, 0)[0] == chain_length
    size = max(1, round_draws // len(basis_family(GENERAL, placement.delta)))
    failed_blocks, strategy = set(), FixedN(n)
    with agent._chunk(g, placement, strategy, budget, 0, seeds) as run:
        for seed in range(seeds):
            got = run_trial(g, placement, strategy, budget, RngStream(seed, 3))
            assert got == reference_walk(g, placement, FixedN(n), budget, RngStream(seed, 3)), seed
            if got.failure_kind in (FailureKind.AMBIGUOUS_DECODE, FailureKind.WRONG_PORT_RANGE):
                failed_blocks.add(got.steps_taken // size)
    if spread == round_draws:
        assert 0 in failed_blocks and max(failed_blocks) > 0
    # every trial's first block: the chain's start, cut by the round size and the budget
    first = run.blocks[(g.start, 0, min(budget, size))]
    assert first[0] == min(chain_length, budget, size)


# each case of the kept-jump test, its sample counts in the order run, and its
# round size; several_blocks, budget_mid_block, delta16 and n_reused cut the
# chain into several blocks
KEPT_CASES = {
    "several_blocks": (several_blocks, (200,), SMALL_ROUNDS),
    "budget_mid_block": (budget_mid_block, (12,), SMALL_ROUNDS),
    "near_certain": (near_certain, (5000,), _ROUND_DRAWS),
    "n1_n5": (single_sample, (1, 5), _ROUND_DRAWS),
    "bitsign4": (bitsign4, (6,), SMALL_ROUNDS),
    "delta16": (delta_sixteen, (300,), SMALL_ROUNDS),
    "n_reused": (failures_spread, (20, 31, 20), SMALL_ROUNDS),
    "round_draws": (failures_spread, (20,), 200),
}


@pytest.mark.parametrize("name", list(KEPT_CASES))
def test_kept_jumps_match_a_fresh_plan_and_the_per_node_walk(name, monkeypatch):
    """A trial's first round in each block reads its draws through jumps the
    run keeps. One chunk's run serves every trial of a pass, pass after pass;
    each record must equal a walk from a run made for that trial alone, and
    the per-node walk."""
    build, ns, round_draws = KEPT_CASES[name]
    monkeypatch.setattr(agent, "_ROUND_DRAWS", round_draws)
    g, placement, budget = build()
    passes = []
    for n in ns:
        with agent._chunk(g, placement, strategy := FixedN(n), budget, 0, 60) as run:
            passes.append((n, [run_trial(g, placement, strategy, budget, RngStream(seed, 4)) for seed in range(60)]))
        assert run.blocks
    for n, kept in passes:
        for seed, got in enumerate(kept):
            assert got == run_trial(g, placement, FixedN(n), budget, RngStream(seed, 4)), (n, seed)
            assert got == reference_walk(g, placement, FixedN(n), budget, RngStream(seed, 4)), (n, seed)


@pytest.mark.parametrize("build, block_meas", [(budget_mid_block, 0), (unforced_mid_route, 6 * 8 * 2)])
def test_each_block_is_built_once_per_run(build, block_meas, monkeypatch):
    """A block cut short by the budget, and one past an unforced node, are
    built once and then read by every trial that reaches them."""
    built = []
    fixed_block = agent._fixed_block
    monkeypatch.setattr(agent, "_fixed_block", lambda *args: built.append(args[-1]) or fixed_block(*args))
    g, placement, budget = build()
    n = PLAN_CASES[build.__name__][1]
    with agent._chunk(g, placement, strategy := FixedN(n), budget, 0, 50):
        for seed in range(50):
            got = run_trial(g, placement, strategy, budget, RngStream(seed, 5))
            assert got == reference_walk(g, placement, FixedN(n), budget, RngStream(seed, 5)), seed
    assert block_meas in built
    assert len(built) == len(set(built))
    # a later run on the same pair with a smaller budget must not read the longer blocks
    for seed in range(5):
        got = run_trial(g, placement, FixedN(n), budget - 7, RngStream(seed, 5))
        assert got == reference_walk(g, placement, FixedN(n), budget - 7, RngStream(seed, 5)), seed


def test_a_node_reached_again_gets_a_block_at_its_new_offset(monkeypatch):
    """Route node 5 points back to node 4, so a trial walks 4, 5, 4, 5, ...
    until it fails or the budget ends; rounds of up to four nodes start at
    node 4 at steps 4, 8, 12, ..., each reading its own stream offsets."""
    monkeypatch.setattr(agent, "_ROUND_DRAWS", 8)
    g = gen_padded_path(12, 4, 4)
    (v4, _), (v5, _) = route(g)[4:6]
    back = next(p + 1 for p in range(g.degree(v5)) if neighbor_via_port(g, v5, p)[0] == v4)
    placement = route_placement(g, 4, ports={v5: back})
    kinds = set()
    for seed in range(100):
        got = run_trial(g, placement, FixedN(20), 30, RngStream(seed, 6))
        assert got == reference_walk(g, placement, FixedN(20), 30, RngStream(seed, 6)), seed
        kinds.add(got.failure_kind)
    assert kinds == {FailureKind.AMBIGUOUS_DECODE, FailureKind.STEP_BUDGET_EXHAUSTED}


def test_off_family_states_are_not_forced():
    _, placement, _ = off_family()
    forced = [_decode_table(p.emitted_state, 4, GENERAL)[1] for p in placement.pebbles.values()]
    assert forced.count(None) == 7


def test_u32_thresholds_match_the_float_comparison():
    # u = u32 * 2**-32 is below p exactly when u32 is below the threshold,
    # also where p * 2**32 is an integer or half-way between two
    for v in (1, 12345, 2**31, 2**32 - 2):
        for frac in (0.0, 0.5):
            p = (v + frac) * 2.0**-32
            thr = _u32_threshold(p)
            for u32 in (v - 1, v, v + 1):
                assert (u32 <= thr) == (u32 * 2.0**-32 < p)


@pytest.mark.parametrize("build", [delta_sixteen, off_family])
def test_block_runs_read_the_decode_table(build):
    """A block's runs, their uint32 thresholds and each node's count of certain
    bases are those of the nodes' decode tables, from every column on; the
    ports a sign decodes to are one table for the family, shared by all."""
    g, placement, _ = build()
    family, n = len(basis_family(GENERAL, placement.delta)), 3
    ports = agent._sign_ports(placement.delta, family)
    assert ports == tuple(tuple(decode_outcome(Outcome(b, s), placement.delta) for s in (MINUS, PLUS)) for b in range(family))
    for i, cur in enumerate(placement.nodes.tolist()):
        k, _, _, node, thr, base, *_, certain = agent._fixed_block(g, placement, cur, g.node_count, n, 0)
        states = [placement.states[s] for s in placement.state_index[i : i + k]]
        tables = [_decode_table(state, placement.delta, GENERAL) for state in states]
        want = [(v, b, t) for v, table in enumerate(tables) for b, t in enumerate(table[2]) if t is not None]
        assert thr.dtype == np.uint32
        assert list(zip(node.tolist(), (base // n % family).tolist(), thr.tolist())) == want
        assert certain.tolist() == [table[2].count(None) for table in tables]
        assert all(len(table) == 4 for table in tables)  # no copy of the sign ports


class CountingStream(RngStream):
    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.offsets = []

    def run_states(self, starts, length, states=None):
        # states made from the jumps a block keeps, and states carried from the round
        # before, must be those of the offsets counted here
        if states is not None:
            assert np.array_equal(states, super().run_states(starts, 0)[1])
        self.offsets.append((starts[:, None] + np.arange(length)).ravel())
        return super().run_states(starts, length, states)


@pytest.mark.parametrize(
    "dist, n, trials, outcomes", [(200, 200, 40, {True, False}), (3000, 400, 4, {True})], ids=["D200", "D3000"]
)
def test_sparse_draws_stay_bounded_on_a_long_route(dist, n, trials, outcomes):
    """Every call generates at most 8 * _ROUND_DRAWS draws, whatever the
    route length; no draw is generated twice; and a successful trial draws
    only inside the n * F * dist measurements it records, and fewer of
    them than a quarter."""
    g = gen_padded_path(dist, 8, 3)
    placement = place_pebbles(g, GENERAL)
    per_node = n * 4
    assert dist * per_node > 8 * _ROUND_DRAWS
    seen = set()
    for seed in range(trials):
        rng = CountingStream(seed)
        r = run_trial(g, placement, FixedN(n), dist, rng)
        seen.add(r.success)
        assert max(map(len, rng.offsets)) <= 8 * _ROUND_DRAWS
        drawn = np.concatenate(rng.offsets)
        assert np.unique(drawn).size == drawn.size
        assert drawn.min() >= 0 and drawn.max() < dist * per_node
        if r.success:
            assert r.measurements_total == dist * per_node
            assert drawn.size < r.measurements_total / 4
    assert seen == outcomes


class CraftedStream(RngStream):
    """Draw j of basis b's run at the start node is ``thr[b] + step(b, j)``:
    a step of 0 sits on the basis's u32 threshold, so reads as plus, and a
    step of 1 just above it, so reads as minus. ``uniforms`` reads through
    ``runs`` and it through ``run_states``, so the per-node walk reads the same
    draws. ``widths`` keeps each call's run length; the states it returns are
    zeros, as it reads by offset alone."""

    def __init__(self, thr, n, step):
        super().__init__(0)
        self.thr, self.n, self.step, self.widths = thr, n, step, []

    def run_states(self, starts, length, states=None):
        self.widths.append(length)
        offsets = starts[:, None] + np.arange(length)
        b, j = offsets // self.n, offsets % self.n  # uniforms reads whole blocks, past the last basis
        return (self.thr.take(b, mode="clip") + self.step(b, j)).astype(np.uint32), np.zeros(len(starts), np.uint64)


def mixed_but(basis, step):
    """Every run mixed, j % 2, but basis ``basis``'s, which takes ``step(j)``."""
    return lambda b, j: np.where(b == basis, step(j), j % 2)


def one_round(placement, step, n=16):
    """The record of a one-round trial at the start node of ``placement``'s
    D=2 path, n = 16 in two rounds of 8 draws, which must equal the per-node
    walk's, and the widths of its rounds; the port-1 exit leads on to node 1,
    so a decode ends the budget."""
    g = gen_padded_path(2, placement.delta, 3)
    p = np.array(_decode_table(placement.pebbles[g.start].emitted_state, placement.delta, GENERAL)[0])
    thr = np.where(p < 1, np.ceil(p * 2.0**32) - 1, 0).astype(np.int64)
    rng = CraftedStream(thr, n, step)
    got = run_trial(g, placement, FixedN(n), 1, rng)
    assert got == reference_walk(g, placement, FixedN(n), 1, CraftedStream(thr, n, step))
    return p, got, rng.widths


ROUND = 8
DECODED = FailureKind.STEP_BUDGET_EXHAUSTED
# basis 2's run, with n = 16, spans both rounds
THRESHOLD_CASES = {
    "mixed": (lambda b, j: j % 2, DECODED),
    "all_at_thr_is_plus_uniform": (mixed_but(2, lambda j: 0), FailureKind.AMBIGUOUS_DECODE),
    "all_above_thr_is_minus_uniform": (mixed_but(2, lambda j: 1), FailureKind.AMBIGUOUS_DECODE),
    "thr_then_above_in_round_one": (mixed_but(2, lambda j: j == 3), DECODED),
    "above_then_thr_in_round_one": (mixed_but(2, lambda j: j != 5), DECODED),
    "plus_then_minus_rounds": (mixed_but(2, lambda j: j >= ROUND), DECODED),
    "minus_then_plus_rounds": (mixed_but(2, lambda j: j < ROUND), DECODED),
    "minus_then_one_plus_draw": (mixed_but(2, lambda j: j != 12), DECODED),
}


@pytest.mark.parametrize("name", list(THRESHOLD_CASES))
def test_uniform_runs_at_the_threshold(name, monkeypatch):
    """A run is plus-uniform iff every draw is at most its u32 threshold and
    minus-uniform iff every draw is above it; a run kept in round one must
    stay on its first round's side in every later round. At delta = 8 the
    start node has basis 0 certain and bases 1-3 uncertain, so a second
    uniform run makes its decode ambiguous."""
    step, kind = THRESHOLD_CASES[name]
    monkeypatch.setattr(agent, "_ROUND_DRAWS", ROUND)
    p, got, _ = one_round(place_pebbles(gen_padded_path(2, 8, 3), GENERAL), step)
    assert p[0] == 1.0 and ((p[1:] > 0) & (p[1:] < 1)).all()
    assert got.failure_kind == kind


@pytest.mark.parametrize("sign, kind", [(0, DECODED), (1, FailureKind.WRONG_PORT_RANGE)])
def test_an_unforced_node_decodes_its_one_uniform_run_by_its_sign(sign, kind, monkeypatch):
    """With no certain basis, the one uniform run decodes the port: basis 0
    plus is the start node's port 1, and basis 0 minus a port it lacks."""
    monkeypatch.setattr(agent, "_ROUND_DRAWS", ROUND)
    state = turned(place_pebbles(gen_padded_path(2, 4, 3), GENERAL).states[0], 0.01)  # as in near_certain
    placement = Placement(GENERAL, 4, {0: QuantumPebble(0, state, 1)})
    p, got, _ = one_round(placement, mixed_but(0, lambda j: sign))
    assert ((p > 0) & (p < 1)).all()
    assert got.failure_kind == kind


def test_a_run_uniform_past_the_jump_tables_reads_on_from_carried_states():
    """A run that stays uniform through n = 12 * 8192 draws: after a first
    round of 8 draws over the three uncertain bases it is the one run
    left, so later rounds take 8192 draws, the jump tables' length, also once
    the doubling width passes it. Each reads on from the state the round before
    carried; the record is the per-node walk's, which is ambiguous, as the
    certain basis 0 is uniform too."""
    p, got, widths = one_round(place_pebbles(gen_padded_path(2, 8, 3), GENERAL), mixed_but(2, lambda j: 0), 12 * _BLOCK)
    assert got.failure_kind == FailureKind.AMBIGUOUS_DECODE
    assert widths[0] == 8 and sum(widths) == 12 * _BLOCK
    assert widths[1:-1] == [_BLOCK] * 11  # rounds 1 to 11: 8 << 11 is past the cap
