"""The fixed-n walk, which tests a block of nodes with sparse draws,
against the per-node walk built from measure_node_fixed and decide_fixed,
which draws every sample."""

import json
import math

import numpy as np
import pytest

from qpebble import (
    EncodingScheme,
    FailureKind,
    FixedN,
    Placement,
    QuantumPebble,
    QubitState,
    RngStream,
    TrialResult,
    decide_fixed,
    encode_port,
    gen_padded_path,
    measure_node_fixed,
    neighbor_via_port,
    place_pebbles,
    placement_from_json,
    placement_to_json,
    run_trial,
)
from qpebble import agent, basis_family
from qpebble.agent import _ROUND_DRAWS, _block_pairs, _decode_table
from qpebble.encoding import route
from qpebble.rng import _run_jumps

SEEDS = range(200)
GENERAL = EncodingScheme.GENERAL


def reference_walk(g, placement, n, step_budget, rng):
    """One round per node: measure_node_fixed, then decide_fixed."""
    cur, steps, meas = g.start, 0, 0
    for _ in range(step_budget):
        if cur not in placement.pebbles:
            return TrialResult(False, steps, meas, FailureKind.MISSING_PEBBLE)
        tallies = measure_node_fixed(placement.pebbles[cur], placement.delta, n, rng, placement.scheme)
        meas += n * len(tallies)
        port = decide_fixed(tallies, placement.delta)
        if port is None:
            return TrialResult(False, steps, meas, FailureKind.AMBIGUOUS_DECODE)
        if port > g.degree(cur):
            return TrialResult(False, steps, meas, FailureKind.WRONG_PORT_RANGE)
        cur = neighbor_via_port(g, cur, port - 1)[0]
        steps += 1
        if cur == g.treasure:
            return TrialResult(True, steps, meas, FailureKind.NONE)
    return TrialResult(False, steps, meas, FailureKind.STEP_BUDGET_EXHAUSTED)


def route_placement(g, delta, ports=None):
    """General-scheme pebbles on the route; ``ports`` overrides the 1-based
    exit port advertised at chosen nodes."""
    pebbles = {}
    for node, port in route(g):
        j = (ports or {}).get(node, port + 1)
        pebbles[node] = QuantumPebble(node, encode_port(j, delta), j)
    return Placement(GENERAL, delta, pebbles)


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
    return g, Placement(GENERAL, 4, pebbles), 20, 8


def flipped_sign():
    # node 5 advertises port 1; port 2 leads to a decoy with no pebble
    g = gen_padded_path(12, 4, 11)
    doc = json.loads(placement_to_json(place_pebbles(g, GENERAL)))
    for row in doc["pebbles"]:
        if row["node"] == 5:
            row["sign"] = "-"
    return g, placement_from_json(json.dumps(doc)), 8, 12


def port_out_of_range():
    # a plain path: interior nodes have degree 2, node 3 advertises port 4
    g = gen_padded_path(6, 2, 0)
    return g, route_placement(g, 4, ports={3: 4}), 6, 6


def missing_mid_route():
    g = gen_padded_path(9, 4, 3)
    placement = place_pebbles(g, GENERAL)
    hole = route(g)[5][0]
    pebbles = {v: p for v, p in placement.pebbles.items() if v != hole}
    return g, Placement(GENERAL, 4, pebbles), 10, 9


def pebble_on_treasure():
    # the treasure's own pebble points back along the route; the walk ends
    # on arrival all the same, with budget to spare
    g = gen_padded_path(6, 4, 2)
    placement = place_pebbles(g, GENERAL)
    back = QuantumPebble(g.treasure, encode_port(1, 4), 1)
    return g, Placement(GENERAL, 4, {**placement.pebbles, g.treasure: back}), 12, 12


def short_budget():
    g = gen_padded_path(30, 4, 8)
    return g, place_pebbles(g, GENERAL), 12, 17


def bitsign4():
    g = gen_padded_path(10, 4, 6)
    return g, place_pebbles(g, EncodingScheme.BITSIGN4), 6, 10


def single_sample():
    g = gen_padded_path(5, 4, 1)
    return g, place_pebbles(g, GENERAL), 1, 5


def delta_two():
    # one basis in the family: every node decodes, from any n
    g = gen_padded_path(7, 2, 4)
    return g, place_pebbles(g, GENERAL), 2, 7


def several_blocks():
    # one block at the module's round size, fifteen at SMALL_ROUNDS
    g = gen_padded_path(120, 8, 9)
    return g, place_pebbles(g, GENERAL), 200, 120


def delta_sixteen():
    # the nearest wrong basis has p = cos^2(pi/32) ~ 0.990, so its run
    # outlasts several widening rounds before it breaks, when it does
    g = gen_padded_path(12, 16, 5)
    return g, place_pebbles(g, GENERAL), 300, 12


def near_certain():
    # each pebble's state turned 0.01 rad off its port's state, so the right
    # basis has p = 1 - 1e-4 and no basis is certain; at n=5000 (10000
    # draws a node, more than 8192) its run stays uniform about 61% of the
    # time, and the node decodes from that run's first sign
    g = gen_padded_path(6, 4, 2)
    placement = place_pebbles(g, GENERAL)
    pebbles = {}
    for node, pebble in placement.pebbles.items():
        a0, a1 = pebble.emitted_state.amp0, pebble.emitted_state.amp1
        c, s = math.cos(0.01), math.sin(0.01)
        state = QubitState(c * a0 - s * a1.conjugate(), c * a1 + s * a0.conjugate())
        pebbles[node] = QuantumPebble(node, state, pebble.exit_port)
    return g, Placement(GENERAL, 4, pebbles), 5000, 6


# each case, and a failure kind its records must show
CASES = {
    "off_family": (off_family, FailureKind.MISSING_PEBBLE),
    "flipped_sign": (flipped_sign, FailureKind.MISSING_PEBBLE),
    "port_out_of_range": (port_out_of_range, FailureKind.WRONG_PORT_RANGE),
    "missing_mid_route": (missing_mid_route, FailureKind.MISSING_PEBBLE),
    "pebble_on_treasure": (pebble_on_treasure, FailureKind.NONE),
    "short_budget": (short_budget, FailureKind.STEP_BUDGET_EXHAUSTED),
    "bitsign4": (bitsign4, FailureKind.AMBIGUOUS_DECODE),
    "n1": (single_sample, FailureKind.AMBIGUOUS_DECODE),
    "delta2": (delta_two, FailureKind.NONE),
    "several_blocks": (several_blocks, FailureKind.AMBIGUOUS_DECODE),
    "delta16": (delta_sixteen, FailureKind.AMBIGUOUS_DECODE),
    "near_certain": (near_certain, FailureKind.AMBIGUOUS_DECODE),
}

# a round size that cuts every case into blocks of a few nodes, tested in
# rounds of 8 draws or so
SMALL_ROUNDS = 32


@pytest.mark.parametrize("name", list(CASES))
def test_block_walk_matches_per_node_walk(name):
    build, shown = CASES[name]
    g, placement, n, budget = build()
    kinds = set()
    for seed in SEEDS:
        got = run_trial(g, placement, FixedN(n), budget, RngStream(seed, 1))
        assert got == reference_walk(g, placement, n, budget, RngStream(seed, 1)), seed
        kinds.add(got.failure_kind)
    assert shown in kinds


@pytest.mark.parametrize("name", list(CASES))
def test_small_rounds_match_per_node_walk(name, monkeypatch):
    monkeypatch.setattr(agent, "_ROUND_DRAWS", SMALL_ROUNDS)
    test_block_walk_matches_per_node_walk(name)


def turned(pebble, angle):
    """The pebble with its state turned ``angle`` rad off its port's state, so
    no family basis is certain."""
    a0, a1 = pebble.emitted_state.amp0, pebble.emitted_state.amp1
    c, s = math.cos(angle), math.sin(angle)
    state = QubitState(c * a0 - s * a1.conjugate(), c * a1 + s * a0.conjugate())
    return QuantumPebble(pebble.node, state, pebble.exit_port)


def budget_mid_block():
    # 21 rounds: inside the one block at the module's round size, inside the
    # second block of 16 nodes at SMALL_ROUNDS
    g = gen_padded_path(40, 4, 8)
    return g, place_pebbles(g, GENERAL), 12, 21


def unforced_mid_route():
    g = gen_padded_path(12, 4, 4)
    placement = place_pebbles(g, GENERAL)
    node = route(g)[5][0]
    pebbles = {**placement.pebbles, node: turned(placement.pebbles[node], 0.4)}
    return g, Placement(GENERAL, 4, pebbles), 8, 12


def failures_spread():
    # the wrong basis runs uniform with chance about cos(pi/8)**40 = 0.04 per
    # node, so trials fail all along the route
    g = gen_padded_path(40, 4, 2)
    return g, place_pebbles(g, GENERAL), 20, 40


def long_route_unforced():
    # two blocks at the module's round size (2048 nodes each at F = 4); the
    # chain ends at route node 2060, in the second
    g = gen_padded_path(2100, 8, 6)
    placement = place_pebbles(g, GENERAL)
    node = route(g)[2060][0]
    pebbles = {**placement.pebbles, node: turned(placement.pebbles[node], 0.05)}
    return g, Placement(GENERAL, 8, pebbles), 230, 2100


# each case, the length of its forced chain from the start, the seeds to run, and the round
# size at which its failures must fall both in the first block and in a later one
PLAN_CASES = {
    "budget_mid_block": (budget_mid_block, 40, 40, None),
    "hole": (missing_mid_route, 5, 100, None),
    "unforced_mid_route": (unforced_mid_route, 6, 100, None),
    "port_out_of_range": (port_out_of_range, 4, 100, None),
    "failures_spread": (failures_spread, 40, 100, SMALL_ROUNDS),
    "long_route_unforced": (long_route_unforced, 2061, 12, _ROUND_DRAWS),
}


@pytest.mark.parametrize("round_draws", [_ROUND_DRAWS, SMALL_ROUNDS], ids=["module_rounds", "small_rounds"])
@pytest.mark.parametrize("name", list(PLAN_CASES))
def test_plan_matches_per_node_walk(name, round_draws, monkeypatch):
    """run_trial walks the blocks of the forced chain from the start, then on
    past the chain's end; the records are the per-node walk's."""
    monkeypatch.setattr(agent, "_ROUND_DRAWS", round_draws)
    monkeypatch.setattr(agent, "_MEMO", [])
    build, chain_length, seeds, spread = PLAN_CASES[name]
    g, placement, n, budget = build()
    assert len(agent._forced_run(g, placement, g.start, g.node_count)[2]) == chain_length
    size = max(1, round_draws // len(basis_family(GENERAL, placement.delta)))
    failed_blocks = set()
    for seed in range(seeds):
        got = run_trial(g, placement, FixedN(n), budget, RngStream(seed, 3))
        assert got == reference_walk(g, placement, n, budget, RngStream(seed, 3)), seed
        if got.failure_kind in (FailureKind.AMBIGUOUS_DECODE, FailureKind.WRONG_PORT_RANGE):
            failed_blocks.add(got.steps_taken // size)
    if spread == round_draws:
        assert 0 in failed_blocks and max(failed_blocks) > 0
    # every trial's first block: the chain's start, cut by the round size and the budget
    first = agent._MEMO[2][(n, round_draws, g.start, 0, min(budget, size))]
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
    memo keeps. One memo serves every pass, in order; each record must equal
    a walk from a memo made for that trial alone, and the per-node walk."""
    build, ns, round_draws = KEPT_CASES[name]
    monkeypatch.setattr(agent, "_ROUND_DRAWS", round_draws)
    monkeypatch.setattr(agent, "_MEMO", [])
    g, placement, _, budget = build()
    passes = [(n, [run_trial(g, placement, FixedN(n), budget, RngStream(seed, 4)) for seed in range(60)]) for n in ns]
    assert agent._MEMO[2]
    for n, kept in passes:
        for seed, got in enumerate(kept):
            agent._MEMO.clear()
            assert got == run_trial(g, placement, FixedN(n), budget, RngStream(seed, 4)), (n, seed)
            assert got == reference_walk(g, placement, n, budget, RngStream(seed, 4)), (n, seed)


@pytest.mark.parametrize("build, block_meas", [(budget_mid_block, 0), (unforced_mid_route, 6 * 8 * 2)])
def test_each_block_is_built_once_per_run(build, block_meas, monkeypatch):
    """A block cut short by the budget, and one past an unforced node, are
    built once and then read by every trial that reaches them."""
    built = []
    block_pairs = agent._block_pairs
    monkeypatch.setattr(agent, "_block_pairs", lambda rows, n, meas: built.append(meas) or block_pairs(rows, n, meas))
    monkeypatch.setattr(agent, "_MEMO", [])
    g, placement, n, budget = build()
    for seed in range(50):
        got = run_trial(g, placement, FixedN(n), budget, RngStream(seed, 5))
        assert got == reference_walk(g, placement, n, budget, RngStream(seed, 5)), seed
    assert block_meas in built
    assert len(built) == len(set(built))
    # a later run on the same pair with a smaller budget must not read the longer blocks
    for seed in range(5):
        got = run_trial(g, placement, FixedN(n), budget - 7, RngStream(seed, 5))
        assert got == reference_walk(g, placement, n, budget - 7, RngStream(seed, 5)), seed


def test_a_node_reached_again_gets_a_block_at_its_new_offset(monkeypatch):
    """Route node 5 points back to node 4, so a trial walks 4, 5, 4, 5, ...
    until it fails or the budget ends; rounds of up to four nodes start at
    node 4 at steps 4, 8, 12, ..., each reading its own stream offsets."""
    monkeypatch.setattr(agent, "_ROUND_DRAWS", 8)
    monkeypatch.setattr(agent, "_MEMO", [])
    g = gen_padded_path(12, 4, 4)
    (v4, _), (v5, _) = route(g)[4:6]
    back = next(p + 1 for p in range(g.degree(v5)) if neighbor_via_port(g, v5, p)[0] == v4)
    placement = route_placement(g, 4, ports={v5: back})
    kinds = set()
    for seed in range(100):
        got = run_trial(g, placement, FixedN(20), 30, RngStream(seed, 6))
        assert got == reference_walk(g, placement, 20, 30, RngStream(seed, 6)), seed
        kinds.add(got.failure_kind)
    assert kinds == {FailureKind.AMBIGUOUS_DECODE, FailureKind.STEP_BUDGET_EXHAUSTED}


def test_off_family_states_are_not_forced():
    _, placement, _, _ = off_family()
    forced = [_decode_table(p.emitted_state, 4, GENERAL)[1] for p in placement.pebbles.values()]
    assert forced.count(None) == 7


def test_u32_thresholds_match_the_float_comparison():
    # u = u32 * 2**-32 is below p exactly when u32 is below the threshold,
    # also where p * 2**32 is an integer or half-way between two
    for v in (1, 12345, 2**31, 2**32 - 2):
        for frac in (0.0, 0.5):
            p = (v + frac) * 2.0**-32
            _, (thr,), *_ = _block_pairs(((1.0, p),), 1, 0)
            for u32 in (v - 1, v, v + 1):
                assert (u32 <= thr) == (u32 * 2.0**-32 < p)


class CountingStream(RngStream):
    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.offsets = []

    def runs(self, starts, length, jumps=None):
        # jumps kept by the memo must be those of the offsets counted here
        if jumps is not None:
            assert all(np.array_equal(kept, fresh) for kept, fresh in zip(jumps, _run_jumps(starts, length)))
        self.offsets.append((starts[:, None] + np.arange(length)).ravel())
        return super().runs(starts, length, jumps)


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
