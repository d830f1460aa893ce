"""The adaptive walk, reading one trial's sign bytes by stream offset, and its
per-node elimination, against the per-node walk built from
measure_node_adaptive and scalar draws."""

import cmath
import math
import random
import tracemalloc

import pytest

from qpebble import (
    KET0,
    Adaptive,
    EncodingScheme,
    FailureKind,
    QubitState,
    RngStream,
    basis_family,
    encode_port,
    gen_padded_path,
    measure_node_adaptive,
    place_pebbles,
    run_trial,
)
from qpebble import agent
from walks import (
    GENERAL,
    bitsign4,
    delta_two,
    flipped_sign,
    missing_mid_route,
    port_out_of_range,
    reference_walk,
    short_budget,
    turned,
)

SEEDS = range(200)
DEFAULT_CAP = Adaptive().cap


def cap_at_family_size():
    # two bases, two samples: no basis can be eliminated in time
    g = gen_padded_path(6, 4, 0)
    return g, place_pebbles(g, GENERAL), 6


def default_cap():
    # about 3000 draws a trial, several refills of the buffer
    g = gen_padded_path(40, 8, 9)
    return g, place_pebbles(g, GENERAL), 40


def cap_mid_route():
    # a cap of 300 at delta 8 declares failure at nodes along the route
    g = gen_padded_path(40, 8, 9)
    return g, place_pebbles(g, GENERAL), 40


# each case, its cap, and a failure kind its records must show
CASES = {
    "cap_at_family_size": (cap_at_family_size, 2, FailureKind.DECLARED_FAILURE),
    "default_cap": (default_cap, DEFAULT_CAP, FailureKind.NONE),
    "cap_mid_route": (cap_mid_route, 300, FailureKind.DECLARED_FAILURE),
    "flipped_sign": (flipped_sign, DEFAULT_CAP, FailureKind.MISSING_PEBBLE),
    "missing_mid_route": (missing_mid_route, DEFAULT_CAP, FailureKind.MISSING_PEBBLE),
    "port_out_of_range": (port_out_of_range, DEFAULT_CAP, FailureKind.WRONG_PORT_RANGE),
    "short_budget": (short_budget, DEFAULT_CAP, FailureKind.STEP_BUDGET_EXHAUSTED),
    "bitsign4": (bitsign4, DEFAULT_CAP, FailureKind.NONE),
    "delta2": (delta_two, 1, FailureKind.NONE),
}


@pytest.mark.parametrize("name", list(CASES))
def test_adaptive_walk_matches_per_node_walk(name):
    build, cap, shown = CASES[name]
    g, placement, budget = build()
    kinds, steps = set(), set()
    for seed in SEEDS:
        got = run_trial(g, placement, Adaptive(cap), budget, RngStream(seed, 1))
        assert got == reference_walk(g, placement, Adaptive(cap), budget, RngStream(seed, 1)), seed
        kinds.add(got.failure_kind)
        steps.add(got.steps_taken)
    assert shown in kinds
    if name == "cap_mid_route":
        assert len(steps) > 10  # failures spread along the route


@pytest.mark.parametrize("cap", [4, 6, DEFAULT_CAP])
def test_measure_node_adaptive_takes_exactly_its_measurements(cap):
    # a cap of 4 or 6 ends some nodes at the cap, the default cap none
    g = gen_padded_path(12, 8, 5)
    pebbles = list(place_pebbles(g, GENERAL).pebbles.values())
    for seed in range(40):
        rng = RngStream(seed, 3)
        used = 0
        for pebble in pebbles:
            used += measure_node_adaptive(pebble, 8, cap, rng, GENERAL)[1]
        fresh = RngStream(seed, 3)
        for _ in range(used):
            fresh.next_u32()
        assert rng.next_u32() == fresh.next_u32()


# an adaptive trial reads its stream in blocks of 4096 draws, which end at these offsets
BLOCK_EDGES = (4096, 8192, 12288)
OFFSETS = (0, 1, *(edge + d for edge in BLOCK_EDGES for d in (-1, 0, 1)))
BITSIGN4 = EncodingScheme.BITSIGN4


def node_states(delta, scheme, rand):
    """Every port's state, and states off the family: one turned a little off a
    port's state, so no basis is certain and the right one is nearly so; |0>;
    and two at random points of the Bloch sphere."""
    on = [encode_port(j, delta, scheme) for j in range(1, delta + 1)]
    off = [turned(on[-1], 0.01), KET0]
    for _ in range(2):
        theta, phi = math.acos(rand.uniform(-1, 1)), rand.uniform(0, 2 * math.pi)
        off.append(QubitState(complex(math.cos(theta / 2)), cmath.exp(1j * phi) * math.sin(theta / 2)))
    return on + off


@pytest.mark.parametrize(
    "scheme, delta", [(GENERAL, d) for d in (2, 3, 4, 6, 8, 12, 16)] + [(BITSIGN4, d) for d in (2, 3, 4)]
)
def test_eliminate_matches_measure_node_adaptive(scheme, delta):
    """The walk's elimination, which steps from one elimination to the next,
    gives the port and measurement count of measure_node_adaptive's per-draw
    loop: at caps of the family size and a little above, where nodes end at the
    cap, and at the default cap; from stream offsets on both sides of the read
    blocks' edges, with blocks read until they reach the offset, as a walk
    reads them."""
    family = len(basis_family(scheme, delta))
    rand = random.Random(f"{scheme.value}-{delta}")
    ends = set()
    for state in node_states(delta, scheme, rand):
        table, ports = agent._decode_table(state, delta, scheme), agent._sign_ports(delta, family)
        thresholds = {t for t in table[2] if t is not None}
        for cap in (family, family + 1, family + 3, DEFAULT_CAP):
            for at in OFFSETS:
                seed = rand.getrandbits(64)
                signs = agent._Signs(RngStream(seed, 2), thresholds)
                while signs.read < at:
                    signs.more()
                rng = RngStream(seed, 2)
                rng.uniforms(at)
                want = measure_node_adaptive(state, delta, cap, rng, scheme)
                assert agent._eliminate(table, ports, cap, signs, at) == want, (state, cap, at)
                ends.add(want[0] is None)
    assert ends == ({False} if family == 1 else {False, True})  # some nodes end at the cap


def test_an_adaptive_trial_holds_one_block_of_sign_bytes():
    """A trial keeps the sign bytes of the last block it read, not of every draw:
    at D=3000, delta=8 it makes about 240k measurements, which as 6 thresholds'
    bytes each would take 1.4 MB."""
    g = gen_padded_path(3000, 8, 7)
    placement = place_pebbles(g, GENERAL)
    run_trial(g, placement, Adaptive(), 3000, RngStream(7, 0))  # the cached decode tables, outside the trace
    tracemalloc.start()
    try:
        got = run_trial(g, placement, Adaptive(), 3000, RngStream(7, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.success and got.measurements_total > 200_000
    assert peak < 500_000, peak


class CountedStream(RngStream):
    """An RngStream that records the (offsets, length) of each block it reads."""

    def __init__(self, seed, stream_id):
        super().__init__(seed, stream_id)
        self.reads = []

    def run_states(self, starts, length, states=None):
        self.reads.append((starts.tolist(), length))
        return super().run_states(starts, length, states)


def test_an_adaptive_trial_reads_one_4096_draw_block_per_4096_measurements():
    """A trial making M measurements reads blocks 0 to ceil(M / 4096) - 1, each
    of 4096 draws, in order: on adaptive_wide's D=100, delta=8 path about 7800
    measurements read two blocks."""
    g = gen_padded_path(100, 8, 7)
    placement = place_pebbles(g, GENERAL)
    for i in range(20):
        rng = CountedStream(7, i)
        got = run_trial(g, placement, Adaptive(), 100, rng)
        assert got.success
        assert rng.reads == [([4096 * k], 4096) for k in range(math.ceil(got.measurements_total / 4096))], i
