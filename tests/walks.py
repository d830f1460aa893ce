"""The per-node reference walk and the walk cases the walk tests share.

Each case builder returns ``(graph, placement, step_budget)``; the tests pick
the strategy and its sample count or cap.
"""

import json
import math

from qpebble import (
    Adaptive,
    ClassicalTable,
    EncodingScheme,
    FailureKind,
    FixedN,
    Placement,
    QuantumPebble,
    QubitState,
    RandomWalk,
    TrialResult,
    decide_fixed,
    decode_qudit,
    encode_port,
    gen_padded_path,
    measure_node_adaptive,
    measure_node_fixed,
    neighbor_via_port,
    place_pebbles,
    placement_from_json,
    placement_to_json,
)
from qpebble.encoding import route

GENERAL = EncodingScheme.GENERAL


def reference_walk(g, placement, strategy, step_budget, rng):
    """One round per node, from the public per-node functions: fixed-n draws
    every sample, adaptive draws one at a time, a qudit decodes its level, a
    table acts on the degree and the pebble (a stay spends the round) and a
    random walk draws one exit port."""
    pebbled = placement.pebbles if isinstance(placement, Placement) else placement
    cur, steps, meas = g.start, 0, 0
    for _ in range(step_budget):
        if isinstance(strategy, ClassicalTable):
            action = strategy.table.action(g.degree(cur), cur in pebbled)
            if action is None:
                continue
            port = action + 1
        elif isinstance(strategy, RandomWalk):
            port = rng.below(g.degree(cur)) + 1
        elif cur not in pebbled:
            return TrialResult(False, steps, meas, FailureKind.MISSING_PEBBLE)
        elif isinstance(strategy, FixedN):
            tallies = measure_node_fixed(pebbled[cur], placement.delta, strategy.n, rng, placement.scheme)
            meas += strategy.n * len(tallies)
            port = decide_fixed(tallies, placement.delta)
            if port is None:
                return TrialResult(False, steps, meas, FailureKind.AMBIGUOUS_DECODE)
        elif isinstance(strategy, Adaptive):
            port, used = measure_node_adaptive(pebbled[cur], placement.delta, strategy.cap, rng, placement.scheme)
            meas += used
            if port is None:
                return TrialResult(False, steps, meas, FailureKind.DECLARED_FAILURE)
        else:
            meas += 1
            port = decode_qudit(pebbled[cur].emitted_state)
        if not 1 <= port <= g.degree(cur):
            return TrialResult(False, steps, meas, FailureKind.WRONG_PORT_RANGE)
        cur = neighbor_via_port(g, cur, port - 1)[0]
        steps += 1
        if cur == g.treasure:
            return TrialResult(True, steps, meas, FailureKind.NONE)
    return TrialResult(False, steps, meas, FailureKind.STEP_BUDGET_EXHAUSTED)


def turned(state, angle):
    """``state`` turned ``angle`` rad off itself, so that no basis of the
    family it was on is certain."""
    a0, a1 = state.amp0, state.amp1
    c, s = math.cos(angle), math.sin(angle)
    return QubitState(c * a0 - s * a1.conjugate(), c * a1 + s * a0.conjugate())


def route_placement(g, delta, ports=None):
    """General-scheme pebbles on the route; ``ports`` overrides the 1-based
    exit port advertised at chosen nodes."""
    pebbles = {}
    for node, port in route(g):
        j = (ports or {}).get(node, port + 1)
        pebbles[node] = QuantumPebble(node, encode_port(j, delta), j)
    return Placement(GENERAL, delta, pebbles)


# flipped_sign's route leaves this node through port 1 (basis 0, plus)
FLIPPED_NODE = 5


def flipped_sign():
    # the flipped sign sends the agent through port 2, to a decoy with no pebble
    g = gen_padded_path(12, 4, 11)
    doc = json.loads(placement_to_json(place_pebbles(g, GENERAL)))
    row = next(r for r in doc["pebbles"] if r["node"] == FLIPPED_NODE)
    assert row["sign"] == "+"
    row["sign"] = "-"
    return g, placement_from_json(json.dumps(doc)), 12


def missing_mid_route():
    g = gen_padded_path(9, 4, 3)
    placement = place_pebbles(g, GENERAL)
    hole = route(g)[5][0]
    pebbles = {v: p for v, p in placement.pebbles.items() if v != hole}
    return g, Placement(GENERAL, 4, pebbles), 9


def port_out_of_range():
    # a plain path: interior nodes have degree 2, node 3 advertises port 4
    g = gen_padded_path(6, 2, 0)
    return g, route_placement(g, 4, ports={3: 4}), 6


def short_budget():
    g = gen_padded_path(30, 4, 8)
    return g, place_pebbles(g, GENERAL), 17


def bitsign4():
    g = gen_padded_path(10, 4, 6)
    return g, place_pebbles(g, EncodingScheme.BITSIGN4), 10


def delta_two():
    # one basis in the family: every node decodes from its first sample
    g = gen_padded_path(7, 2, 4)
    return g, place_pebbles(g, GENERAL), 7
