"""The fixed-n walk, measured a block of nodes per draw call, against the
per-node walk built from measure_node_fixed and decide_fixed."""

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
    place_pebbles,
    placement_from_json,
    placement_to_json,
    run_trial,
)
from qpebble.agent import _BLOCK_DRAWS, _decode_table
from qpebble.encoding import route

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
        cur = g.adjacency[cur][port - 1][0]
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
    g = gen_padded_path(120, 8, 9)
    return g, place_pebbles(g, GENERAL), 200, 120


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
}


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


def test_off_family_states_are_not_forced():
    _, placement, _, _ = off_family()
    forced = [_decode_table(p.emitted_state, 4, GENERAL)[1] for p in placement.pebbles.values()]
    assert forced.count(None) == 7


class CountingStream(RngStream):
    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.requests = []

    def uniforms(self, n):
        self.requests.append(n)
        return super().uniforms(n)


def test_block_draws_stay_bounded_on_a_long_route():
    g = gen_padded_path(200, 8, 3)
    placement = place_pebbles(g, GENERAL)
    n = 200
    per_node = n * 4
    assert 200 * per_node > 2 * _BLOCK_DRAWS  # the route spans three blocks
    outcomes = set()
    for seed in range(40):
        rng = CountingStream(seed)
        r = run_trial(g, placement, FixedN(n), 200, rng)
        outcomes.add(r.success)
        assert max(rng.requests) <= _BLOCK_DRAWS
        assert r.measurements_total <= sum(rng.requests) <= r.measurements_total + _BLOCK_DRAWS
        if r.success:
            assert sum(rng.requests) == r.measurements_total == 200 * per_node
            assert len(rng.requests) >= 3
    assert outcomes == {True, False}
