"""Many PCG32 streams in one array draw (rng.Streams), against one
RngStream per stream, and the fixed-n walk's first rounds drawn for a
chunk of trials at once, against trials drawn one by one."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpebble import EncodingScheme, ExperimentConfig, FixedN, RngStream, place_pebbles, run_experiment, run_trial
from qpebble import agent
from qpebble.harness import parse_graph_source
from qpebble.rng import Streams, _run_jumps
from walks import reference_walk

MASK64 = (1 << 64) - 1
# negative seeds and seeds past 2^64 are masked as RngStream masks them
SEEDS = st.one_of(st.integers(0, MASK64), st.integers(-(2**70), -1), st.integers(2**64, 2**66))
# stream ids up to 2^63, and ranges that wrap at 2^64 to 0
FIRST_IDS = st.one_of(st.integers(0, 2**32), st.integers(2**63 - 3, 2**63), st.integers(2**64 - 3, 2**64 + 1))
# offsets on both sides of the table edges at 2^13 and 2^26
EDGES = st.one_of(st.integers(0, 2**13 + 40), st.integers(2**26 - 2**13 - 40, 2**26 + 40), st.integers(2**26, 2**40))


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    lo=FIRST_IDS,
    count=st.integers(1, 4),
    starts=st.lists(EDGES, min_size=1, max_size=4),
    width=st.integers(1, 300),
    more=st.integers(0, 300),
)
def test_streams_match_one_rngstream_per_stream(seed, lo, count, starts, width, more):
    """Row t of a Streams call is RngStream(seed, lo + t)'s run_states: the
    draws and carried states from jumps to the offsets, from the kept jumps,
    and read on from the carried states."""
    streams, starts = Streams(seed, lo, lo + count), np.array(starts)
    u, carried = streams.run_states(starts, width)
    kept, kept_carried = streams.run_states(starts, width, None, _run_jumps(starts, width + 1))
    on, after = streams.run_states(starts + width, more, carried)
    assert u.shape == (count, len(starts), width) and carried.shape == (count, len(starts))
    for t in range(count):
        one = RngStream(seed, lo + t)
        want, want_carried = one.run_states(starts, width)
        assert np.array_equal(u[t], want) and np.array_equal(carried[t], want_carried)
        assert np.array_equal(kept[t], want) and np.array_equal(kept_carried[t], want_carried)
        want_on, want_after = one.run_states(starts + width, more, want_carried)
        assert np.array_equal(on[t], want_on) and np.array_equal(after[t], want_after)
        assert np.array_equal(want_on, one.runs(starts + width, more))


def test_streams_seed_as_rngstream_seeds():
    """The seeded states are RngStream's, also where the ids wrap at 2^64."""
    for seed, lo in [(0, 0), (-1, 5), (2**64 + 3, 2**63), (7, 2**64 - 2)]:
        got = Streams(seed, lo, lo + 4).state.tolist()
        assert got == [RngStream(seed, i)._state for i in range(lo, lo + 4)]
    assert Streams(7, 2**64 - 1, 2**64 + 1).state.tolist() == [RngStream(7, i)._state for i in (-1, 0)]


def test_pcg32_demo_as_a_streams_of_one():
    """The PCG32 reference demo's first six outputs at seed 42, stream 54."""
    want = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]
    assert Streams(42, 54, 55).run_states(np.array([0]), 6)[0][0, 0].tolist() == want
    assert Streams(42, 53, 56).run_states(np.arange(6), 1)[0][1, :, 0].tolist() == want


def test_a_batched_call_at_the_walks_bound_stays_small():
    """One Streams call of the walk's largest batch, short_fixed's first round
    (10 runs of 53 draws), peaks below 32 bytes a word, draws and states."""
    runs, width = 10, 53
    words = (width + 1) * runs * (agent._BATCH_DRAWS // ((width + 1) * runs))
    streams, starts = Streams(7, 0, words // ((width + 1) * runs)), np.arange(runs) * 106
    jumps = _run_jumps(starts, width + 1)
    streams.run_states(starts, width, None, jumps)
    tracemalloc.start()
    try:
        streams.run_states(starts, width, None, jumps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words <= agent._BATCH_DRAWS
    assert peak < 32 * words


class CountedStreams(Streams):
    made: list = []

    def __init__(self, seed, lo, hi):
        super().__init__(seed, lo, hi)
        self.made.append((lo, hi))


# spec, n, trials, workers, round size: D=10 at delta=4 batches 30 trials at n=53, and
# at n=4, where runs often stay uniform, up to the chunk's end; D=2000 at delta=8 fills
# a batch with one trial; at a round size of 32 the first round is 8 draws, so rows of
# 182 trials read on from their batch's carried states
ENGINE_CASES = {
    "D10_n53": ("path:D=10,delta=4", 53, 77, 1, None),
    "D10_n4_workers2": ("path:D=10,delta=4", 4, 151, 2, None),
    "D2000_n4_workers2": ("path:D=2000,delta=8", 4, 5, 2, None),
    "D2000_n20": ("path:D=2000,delta=8", 20, 3, 1, None),
    "D10_n20_small_rounds": ("path:D=10,delta=4", 20, 200, 1, 32),
}


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_batched_first_rounds_match_batches_of_one(name, monkeypatch):
    """run_experiment's records, whose trials read a block's first round from
    a batch drawn for the chunk, equal direct run_trial calls, each a batch of
    one, and the per-node walk's where it is quick."""
    spec, n, trials, workers, round_draws = ENGINE_CASES[name]
    if round_draws is not None:
        monkeypatch.setattr(agent, "_ROUND_DRAWS", round_draws)
    monkeypatch.setattr(agent, "Streams", CountedStreams)
    monkeypatch.setattr(CountedStreams, "made", [])
    got = run_experiment(ExperimentConfig(graph_source=spec, strategy=FixedN(n), trials=trials, seed=11), workers)
    g = parse_graph_source(spec, 11)
    placement = place_pebbles(g, EncodingScheme.GENERAL)
    budget = len(placement.nodes)
    want = [run_trial(g, placement, FixedN(n), budget, RngStream(11, i)) for i in range(trials)]
    assert list(got.records) == want
    if budget <= 10:
        assert want == [reference_walk(g, placement, FixedN(n), budget, RngStream(11, i)) for i in range(trials)]
    if workers == 1:  # the batches drawn in this process: at D=10, of more than one trial each, within the chunk
        assert bool(CountedStreams.made) == spec.startswith("path:D=10,")
        assert all(1 < hi - lo and hi <= trials for lo, hi in CountedStreams.made)


def test_a_moved_or_crafted_stream_in_a_chunk_draws_alone():
    """Inside a chunk, a trial reads a batch row only while its stream is the
    fresh RngStream(seed, i) the row was drawn for: a moved stream, or one of
    a subclass that draws otherwise, draws its own first round."""

    class Inverted(RngStream):
        def run_states(self, starts, length, states=None, jumps=None):
            u, after = super().run_states(starts, length, states, jumps)
            return ~u, after  # each draw on the other side of its threshold, mostly

    g = parse_graph_source("path:D=10,delta=4", 3)
    placement = place_pebbles(g, EncodingScheme.GENERAL)
    agent._MEMO.clear()
    want = []
    for i in range(20):
        moved = RngStream(3, i)
        moved.next_u32()
        want.append(run_trial(g, placement, FixedN(4), 10, moved))
        want.append(run_trial(g, placement, FixedN(4), 10, Inverted(3, i)))
    try:
        agent._memo(g, placement)[6] = 3, 20
        for i in range(20):
            moved = RngStream(3, i)
            moved.next_u32()
            assert run_trial(g, placement, FixedN(4), 10, moved) == want[2 * i], i
            assert run_trial(g, placement, FixedN(4), 10, Inverted(3, i)) == want[2 * i + 1], i
        assert agent._MEMO[2][(4, g.start, 0, 10)][-1] is not None  # a batch was drawn, and not read
    finally:
        agent._MEMO.clear()
