"""Many PCG32 streams in one array draw (rng.Streams), against one
RngStream per stream, and fixed-n trials walked in lockstep for a chunk
of trials at once, against trials walked one by one."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpebble import (
    Adaptive,
    EncodingScheme,
    ExperimentConfig,
    FixedN,
    Placement,
    QuantumPebble,
    QuditOneShot,
    RandomWalk,
    RngStream,
    encode_port,
    gen_padded_path,
    place_pebbles,
    run_experiment,
    run_trial,
)
from qpebble import agent, harness
from qpebble.encoding import route
from qpebble.graph import _GEN_STREAM
from qpebble.harness import parse_graph_source, parse_strategy
from qpebble.rng import Streams, _jump
from walks import reference_walk, turned

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
    draws and carried states from jumps to the offsets, from states made of
    the kept jumps (each row naming its stream, as a lockstep first round
    does), and read on from the carried states; and so is each run of a flat
    call that names its stream, as a lockstep later round does."""
    streams, starts = Streams(seed, lo, lo + count), np.array(starts)
    u, carried = streams.run_states(starts, width)
    a, c = _jump(starts)
    rows = np.arange(count)[:, None]
    kept, kept_carried = streams.run_states(starts, width, a * streams.state[rows] + c * streams.inc[rows], rows)
    on, after = streams.run_states(starts + width, more, carried)
    assert u.shape == (count, len(starts), width) and carried.shape == (count, len(starts))
    of, flat = np.arange(count).repeat(len(starts)), np.tile(starts, count)
    flat_u, flat_carried = streams.run_states(flat, width, None, of)
    flat_on, flat_after = streams.run_states(flat + width, more, carried.ravel(), of)
    assert np.array_equal(flat_u, u.reshape(-1, width)) and np.array_equal(flat_carried, carried.ravel())
    assert np.array_equal(flat_on, on.reshape(flat.size, more)) and np.array_equal(flat_after, after.ravel())
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
    (10 runs of 8 draws in each of 182 trials, a row of runs per trial naming
    its stream, from the block's kept jumps), peaks below 32 bytes a word,
    draws and states."""
    runs, width = 10, 8
    trials = agent._BATCH_DRAWS // ((width + 1) * runs)
    words = (width + 1) * runs * trials
    streams, starts, rows = Streams(7, 0, trials), np.arange(runs) * 106, np.arange(trials)[:, None]
    a, c = _jump(starts)
    states = a * streams.state[rows] + c * streams.inc[rows]
    streams.run_states(starts, width, states, rows)
    tracemalloc.start()
    try:
        streams.run_states(starts, width, states, rows)
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


# spec, n, trials, workers, round size: D=10 at delta=4 batches 182 trials at n=53, cut
# by the chunk's end, and at n=4, where runs often stay uniform; D=2000 at delta=8 fills
# a batch with one trial; at a round size of 32 the blocks are cut short, and the later
# rounds of a batch's 182 trials read on from their carried states
ENGINE_CASES = {
    "D10_n53": ("path:D=10,delta=4", 53, 77, 1, None),
    "D10_n4_workers2": ("path:D=10,delta=4", 4, 151, 2, None),
    "D2000_n4_workers2": ("path:D=2000,delta=8", 4, 5, 2, None),
    "D2000_n20": ("path:D=2000,delta=8", 20, 3, 1, None),
    "D10_n20_small_rounds": ("path:D=10,delta=4", 20, 200, 1, 32),
}


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_batched_first_rounds_match_batches_of_one(name, monkeypatch):
    """run_experiment's records, whose trials read their records from a batch
    walked in lockstep for the chunk, equal direct run_trial calls, each a
    batch of one, and the per-node walk's where it is quick."""
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
    """Inside a chunk, a trial reads a batch's record only by its index: a
    stream a caller passes, even a moved one or one of a subclass that draws
    otherwise, walks alone."""

    class Inverted(RngStream):
        def run_states(self, starts, length, states=None):
            u, after = super().run_states(starts, length, states)
            return ~u, after  # each draw on the other side of its threshold, mostly

    g = parse_graph_source("path:D=10,delta=4", 3)
    placement = place_pebbles(g, EncodingScheme.GENERAL)
    strategy, want, fresh = FixedN(4), [], []
    for i in range(20):
        moved = RngStream(3, i)
        moved.next_u32()
        want.append(run_trial(g, placement, FixedN(4), 10, moved))
        want.append(run_trial(g, placement, FixedN(4), 10, Inverted(3, i)))
        fresh.append(run_trial(g, placement, strategy, 10, RngStream(3, i)))
    with agent._chunk(g, placement, strategy, 10, 3, 20) as run:
        for i in range(20):
            assert run_trial(g, placement, strategy, 10, i) == fresh[i], i
            moved = RngStream(3, i)
            moved.next_u32()
            assert run_trial(g, placement, FixedN(4), 10, moved) == want[2 * i], i
            assert run_trial(g, placement, FixedN(4), 10, Inverted(3, i)) == want[2 * i + 1], i
        batch = run.batch  # the indices' one batch: calls with other arguments walk their own
        assert batch[0] == 0 and len(batch[1]) == 20
        assert run_trial(g, placement, strategy, 10, 0) == fresh[0]
        assert run_trial(g, placement, strategy, 10, Inverted(3, 1)) == want[3]
        assert run.batch is batch  # a batch holding trial 1 was walked, and the stream did not read it


def test_an_index_with_other_arguments_in_a_chunk_walks_alone(monkeypatch):
    """Inside an open chunk, a fixed-n call with an int index but another FixedN object, budget or placement walks
    its one trial alone on RngStream(seed, i): it builds no Streams batch, returns the fresh stream's record, and
    leaves the chunk's batch as it was."""
    monkeypatch.setattr(agent, "Streams", CountedStreams)
    monkeypatch.setattr(CountedStreams, "made", [])
    g = parse_graph_source("path:D=10,delta=4", 3)
    placement, strategy = place_pebbles(g, EncodingScheme.GENERAL), FixedN(5)
    copy = place_pebbles(g, EncodingScheme.GENERAL)
    others = [(placement, FixedN(5), 10), (placement, strategy, 9), (copy, strategy, 10)]
    calls = [(i, *other) for i in (1, 2, 3, 272, 273, 3999) for other in others]
    want = [run_trial(g, p, s, budget, RngStream(3, i)) for i, p, s, budget in calls]
    with agent._chunk(g, placement, strategy, 10, 3, 4000) as run:
        first = run_trial(g, placement, strategy, 10, 0)
        batch = run.batch
        assert CountedStreams.made == [(0, 273)]
        assert [run_trial(g, p, s, budget, i) for i, p, s, budget in calls] == want
        assert CountedStreams.made == [(0, 273)] and run.batch is batch
        assert run_trial(g, placement, strategy, 10, 1) is batch[1][1] and first is batch[1][0]


CHUNK_STRATEGIES = {
    "fixed": (EncodingScheme.GENERAL, FixedN(53), 10),
    "adaptive": (EncodingScheme.GENERAL, Adaptive(), 10),
    "qudit": (EncodingScheme.QUDIT, QuditOneShot(), 10),
    "random": (None, RandomWalk(), 60),
    "table": (None, parse_strategy("table:1p=0,1n=0,4p=0,4n=s"), 10),
}


@pytest.mark.parametrize("name", list(CHUNK_STRATEGIES))
def test_an_index_in_an_open_chunk_reads_what_its_fresh_stream_reads(name, monkeypatch):
    """Inside an open chunk of seed 11 up to trial 400, run_trial(..., i)
    returns what run_trial(..., RngStream(11, i)) returns with no chunk open.
    At D=10, delta=4 a fixed-n batch holds 182 trials, so the indices fall in
    order across the batch edges at 182 and 364 to the chunk's end, then past
    it, and then back, each into a new batch from that index on."""
    monkeypatch.setattr(agent, "Streams", CountedStreams)
    monkeypatch.setattr(CountedStreams, "made", [])
    scheme, strategy, budget = CHUNK_STRATEGIES[name]
    g = parse_graph_source("path:D=10,delta=4", 11)
    placement = frozenset(node for node, _ in route(g)) if scheme is None else place_pebbles(g, scheme)
    indices = [*range(400), 400, 450, 5, 200, 181, 182, 0]
    want = [run_trial(g, placement, strategy, budget, RngStream(11, i)) for i in indices]
    with agent._chunk(g, placement, strategy, budget, 11, 400):
        got = [run_trial(g, placement, strategy, budget, i) for i in indices]
    assert got == want and (len(set(want)) > 1 or name in ("qudit", "table"))
    batches = [(0, 182), (182, 364), (364, 400), (5, 187), (200, 382), (181, 363), (0, 182)]
    assert CountedStreams.made == (batches if name == "fixed" else [])


def test_a_fixed_n_run_builds_no_stream_per_trial(monkeypatch):
    """A run's chunk passes run_trial trial indices, so 4000 fixed-n trials at
    D=10, delta=4 build one RngStream, the one that draws the graph's ports."""
    made, init = [], RngStream.__init__

    def counted(self, seed, stream_id=0):
        made.append(stream_id)
        init(self, seed, stream_id)

    monkeypatch.setattr(RngStream, "__init__", counted)
    res = run_experiment(ExperimentConfig(graph_source="path:D=10,delta=4", strategy=FixedN(), trials=4000, seed=7))
    assert len(res.records) == 4000 and made == [_GEN_STREAM]


def test_an_open_chunk_never_reads_a_batch_walked_for_other_arguments():
    """A chunk's batch serves only the strategy and budget it was walked for:
    a trial with other arguments gets the record it gets with no chunk open."""
    g = parse_graph_source("path:D=10,delta=4", 3)
    placement = place_pebbles(g, EncodingScheme.GENERAL)
    calls = [(FixedN(5), 10), (FixedN(6), 10), (FixedN(5), 9), (FixedN(6), 12)]
    want = [run_trial(g, placement, strategy, budget, RngStream(3, i)) for i, (strategy, budget) in enumerate(calls)]
    with agent._chunk(g, placement, *calls[0], 3, 40):
        got = [run_trial(g, placement, strategy, budget, i) for i, (strategy, budget) in enumerate(calls)]
        assert got == want


def test_equal_neighbouring_fixed_n_records_are_one_object():
    """A fixed-n trial returns the one kept record of its row, read from a
    chunk's batch or walked alone, as qudit and table trials do: so equal
    neighbouring records are one object, and a run of them is found by
    identity."""
    g = parse_graph_source("path:D=10,delta=4", 7)
    placement, strategy = place_pebbles(g, EncodingScheme.GENERAL), FixedN(12)
    alone = [run_trial(g, placement, strategy, 10, RngStream(7, i)) for i in range(400)]
    with agent._chunk(g, placement, strategy, 10, 7, 400):
        batched = [run_trial(g, placement, strategy, 10, i) for i in range(400)]
    assert batched == alone and len(set(alone)) > 2
    for records in (alone, batched):
        assert all(a is b for a, b in zip(records, records[1:]) if a == b)
    assert all(a is b for a, b in zip(alone, batched))


class WordCounting(Streams):
    words: list = []

    def run_states(self, starts, length, states=None, of=None):
        u, after = super().run_states(starts, length, states, of)
        self.words.append(u.size + after.size)
        return u, after


def test_a_later_block_wider_than_the_first_is_walked_in_slices(monkeypatch):
    """A turned start node makes the first block one node of four runs, so a
    batch holds 455 trials; the next block's 897 runs are drawn for slices of
    two trials, each taken through its later rounds alone, so no call reads
    more than 8 * _ROUND_DRAWS words beyond a first round's _BATCH_DRAWS.
    The records are those of the trials walked alone."""
    monkeypatch.setattr(agent, "Streams", WordCounting)
    monkeypatch.setattr(WordCounting, "words", [])
    g = gen_padded_path(300, 8, 4)
    placed = place_pebbles(g, EncodingScheme.GENERAL)
    placement = changed(placed, g.start, "turned", 0.15)
    alone = [run_trial(g, placement, FixedN(20), 300, RngStream(5, i)) for i in range(455)]
    with agent._chunk(g, placement, strategy := FixedN(20), 300, 5, 455):
        batched = [run_trial(g, placement, strategy, 300, i) for i in range(455)]
    assert batched == alone and sum(r.steps_taken > 0 for r in alone) > 100
    assert len(WordCounting.words) > 100 and max(WordCounting.words) <= 8 * agent._ROUND_DRAWS + agent._BATCH_DRAWS


def changed(placement, node, change, angle):
    """``placement`` with ``node``'s pebble dropped (a hole), its port's sign
    flipped (the other port of its basis), or its state turned ``angle`` rad
    off the family, so that its decode is not forced."""
    pebbles = dict(placement.pebbles)
    pebble = pebbles.pop(node)
    if change == "flipped":
        j = pebble.exit_port + (1 if pebble.exit_port % 2 else -1)
        pebbles[node] = QuantumPebble(node, encode_port(j, placement.delta, placement.scheme), pebble.exit_port)
    elif change == "turned":
        pebbles[node] = QuantumPebble(node, turned(pebble.emitted_state, angle), pebble.exit_port)
    elif change != "hole":
        pebbles[node] = pebble
    return Placement(placement.scheme, placement.delta, pebbles)


@pytest.mark.parametrize("change", ["none", "hole", "flipped", "turned"])
def test_only_a_blocks_last_node_can_be_unforced(change):
    """Every node of a block but its last has a forced port, so exactly one
    certain basis: a trial none of whose runs is uniform fails at the last
    node if its count of certain bases is not one, and nowhere else."""
    ends = set()
    for scheme, delta in [(EncodingScheme.GENERAL, 4), (EncodingScheme.GENERAL, 16), (EncodingScheme.BITSIGN4, 4)]:
        g = gen_padded_path(12, delta, 3)
        placed = place_pebbles(g, scheme)
        for where in (0, 5, 11):
            placement = changed(placed, placed.nodes[where].item(), change, 0.3)
            for cur in placement.nodes.tolist():
                for limit in (1, 4, g.node_count):
                    k, *_, certain = agent._fixed_block(g, placement, cur, limit, 5, 0)
                    assert certain.shape == (k,) and (certain[:-1] == 1).all(), (scheme, delta, where, cur, limit)
                    ends.add(certain[-1].item())
    assert ends == ({0, 1} if change == "turned" else {1})


@settings(max_examples=30, deadline=None)
@given(
    scheme_delta=st.sampled_from([(EncodingScheme.GENERAL, 4), (EncodingScheme.GENERAL, 8),
                                  (EncodingScheme.GENERAL, 16), (EncodingScheme.BITSIGN4, 4)]),
    dist=st.integers(2, 12),
    n=st.integers(1, 60),
    change=st.sampled_from(["none", "hole", "flipped", "turned"]),
    where=st.integers(0, 11),
    angle=st.floats(0.05, 1.2),
    short=st.integers(0, 12),
    trials=st.integers(1, 90),
    batch_draws=st.sampled_from([2**14, 2**10, 600]),
    seed=st.integers(0, 2**32),
)
# a turned start node: one-node first blocks whose trials split by port, then a block whose first round
# is drawn in slices of 2 trials; a turned node mid-route under a budget below D; a hole; a flipped sign
@example((EncodingScheme.GENERAL, 8), 12, 12, "turned", 0, 0.15, 0, 90, 600, 5)
@example((EncodingScheme.BITSIGN4, 4), 10, 2, "turned", 4, 0.5, 3, 70, 2**10, 9)
@example((EncodingScheme.GENERAL, 16), 8, 40, "hole", 3, 0.1, 0, 50, 2**14, 2)
@example((EncodingScheme.GENERAL, 4), 12, 6, "flipped", 5, 0.1, 0, 90, 600, 3)
def test_lockstep_records_match_the_per_node_walk(scheme_delta, dist, n, change, where, angle, short, trials,
                                                  batch_draws, seed):
    """run_experiment's fixed-n records, at 1 and 2 workers, equal the per-node
    walk's for every trial: holes, flipped signs and turned states on the
    route (groups split by port at an unforced node), budgets below D, and
    trial counts across batch and chunk edges (batches of a few trials at the
    smaller batch sizes)."""
    scheme, delta = scheme_delta
    g = gen_padded_path(dist, delta, seed % 1000)
    placed = place_pebbles(g, scheme)
    placement = changed(placed, placed.nodes[where % dist].item(), change, angle)
    budget = dist - short % dist if short else None  # None: the harness's default, the pebble count
    cfg = ExperimentConfig(g, scheme, FixedN(n), trials, seed, budget)
    with mock.patch.object(harness, "place_pebbles", lambda *_: placement), \
            mock.patch.object(agent, "_BATCH_DRAWS", batch_draws):
        got = [run_experiment(cfg, workers).records for workers in (1, 2)]
    budget = budget or len(placement.nodes)
    want = [reference_walk(g, placement, FixedN(n), budget, RngStream(seed, i)) for i in range(trials)]
    assert list(got[0]) == want and list(got[1]) == want
