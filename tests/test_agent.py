"""Agent strategies: measurement loops, the decision rule, trial execution."""

import re

import numpy as np
import pytest

from qpebble import (
    KET0,
    KET_MINUS,
    KET_PLUS,
    MINUS,
    PLUS,
    Adaptive,
    ClassicalTable,
    DecisionTable,
    EncodingScheme,
    FailureKind,
    FixedN,
    GadgetSpec,
    Placement,
    PortGraph,
    QuantumPebble,
    QuditOneShot,
    RandomWalk,
    RngStream,
    basis_family,
    classical_trajectory,
    decide_fixed,
    encode_port,
    gen_gpqr,
    gen_padded_path,
    measure_node_adaptive,
    measure_node_fixed,
    place_pebbles,
    placement_from_json,
    placement_to_json,
    run_trial,
    sample_measurement,
)
from qpebble import agent

GENERAL = EncodingScheme.GENERAL

# triangle S-U-V with pendants; the pebble-means-port-1 rule oscillates here
OSC_GADGET = GadgetSpec((2, 2, 2), (True, False, False))
WLOG_TABLE = DecisionTable({(3, True): 1, (3, False): 0, (1, True): 0, (1, False): 0})
STAY_TABLE = DecisionTable({(3, True): None, (3, False): None, (1, True): None, (1, False): None})


def fresh(seed=0, stream=0):
    return RngStream(seed, stream)


def record(r):
    assert not r.success
    return r.failure_kind, r.steps_taken, r.measurements_total


def test_measure_node_fixed_shapes_and_certainty():
    pebble = encode_port(1, 4)  # plus vector of basis 0
    n = 40
    tallies = measure_node_fixed(pebble, 4, n, fresh(1))
    assert len(tallies) == 2
    assert all(t.shape == (n,) for t in tallies)
    assert all(t.dtype == np.int8 for t in tallies)
    # its own basis never flips; the other basis has both signs w.h.p.
    assert (tallies[0] == PLUS).all()
    assert len(set(tallies[1].tolist())) == 2


@pytest.mark.parametrize("state", [KET_PLUS, KET_MINUS, KET0], ids=["certain+", "certain-", "uncertain"])
def test_samplers_agree_on_the_same_draw(state):
    """The three samplers snap certainty alike: at one stream position they
    give the same sign. Degree 2 has one basis, so each takes one draw."""
    basis = basis_family(GENERAL, 2)[0]  # the Hadamard pair
    signs = set()
    for stream in range(200):
        one = sample_measurement(state, basis, fresh(4, stream)).sign
        fixed = int(measure_node_fixed(state, 2, 1, fresh(4, stream))[0][0])
        port, used = measure_node_adaptive(state, 2, 1, fresh(4, stream))
        assert used == 1
        assert one == fixed == (PLUS if port == 1 else MINUS)
        signs.add(one)
    assert len(signs) == (2 if state == KET0 else 1)


def test_measure_node_fixed_accepts_pebble_objects():
    pebble = QuantumPebble(3, encode_port(2, 4), 2)
    tallies = measure_node_fixed(pebble, 4, 10, fresh(2))
    assert (tallies[0] == MINUS).all()


def test_measure_node_fixed_draw_count_is_fixed():
    """Exactly n * family-size uniforms, independent of outcomes."""
    a, b = fresh(9), fresh(9)
    measure_node_fixed(encode_port(1, 4), 4, 25, a)
    b.uniforms(50)
    assert a.next_u32() == b.next_u32()


def test_measure_node_fixed_rejects_bad_n():
    with pytest.raises(ValueError):
        measure_node_fixed(encode_port(1, 4), 4, 0, fresh())


def test_decide_fixed_rule():
    one = np.ones(8, dtype=np.int8)
    mixed = np.array([1, -1, 1, 1, -1, 1, 1, 1], dtype=np.int8)
    assert decide_fixed([one, mixed], 4) == 1
    assert decide_fixed([mixed, -one], 4) == 4
    assert decide_fixed([one, -one], 4) is None  # two uniform runs
    assert decide_fixed([mixed, mixed.copy()], 4) is None  # none uniform


def test_decide_fixed_single_sample_is_always_ambiguous_for_two_bases():
    """With n=1 every basis is trivially uniform, so delta >= 4 cannot
    decode from one sample per basis."""
    for seed in range(50):
        tallies = measure_node_fixed(encode_port(1, 4), 4, 1, fresh(seed))
        assert decide_fixed(tallies, 4) is None


def test_decide_fixed_single_basis_decodes_from_one_sample():
    # delta=2: the family is one basis, a single sample is a uniform run
    tallies = measure_node_fixed(encode_port(2, 2), 2, 1, fresh(4))
    assert decide_fixed(tallies, 2) == 2


def test_adaptive_single_basis_uses_one_measurement():
    port, used = measure_node_adaptive(encode_port(1, 2), 2, 100, fresh(5))
    assert (port, used) == (1, 1)


def test_adaptive_always_decodes_the_certain_basis():
    for seed in range(200):
        port, used = measure_node_adaptive(encode_port(1, 4), 4, 10_000, fresh(seed))
        assert port == 1
        assert used >= 3  # needs at least two looks at the dying basis


def test_adaptive_is_cheaper_than_fixed_on_average():
    total = 0
    runs = 2000
    for seed in range(runs):
        _, used = measure_node_adaptive(encode_port(3, 4), 4, 10_000, fresh(seed, 7))
        total += used
    assert total / runs < 15  # fixed-n at delta=4, eps=0.01, D=10 costs 106


def test_adaptive_cap_and_validation():
    port, used = measure_node_adaptive(encode_port(1, 4), 4, 2, fresh(0))
    assert port is None and used == 2
    with pytest.raises(ValueError, match="cap"):
        measure_node_adaptive(encode_port(1, 4), 4, 1, fresh(0))


def test_run_trial_single_edge_success():
    g = gen_padded_path(1, 2, 0)
    placement = place_pebbles(g, GENERAL)
    r = run_trial(g, placement, FixedN(1), 1, fresh(3))
    assert r.success
    assert r.steps_taken == 1
    assert r.measurements_total == 1
    assert r.failure_kind is FailureKind.NONE


def test_run_trial_qudit_one_measurement_per_node():
    g = gen_padded_path(5, 4, 8)
    placement = place_pebbles(g, EncodingScheme.QUDIT)
    r = run_trial(g, placement, QuditOneShot(), 5, fresh(1))
    assert r.success
    assert (r.steps_taken, r.measurements_total) == (5, 5)


def test_run_trial_fixed_n_measurement_accounting():
    g = gen_padded_path(3, 4, 5)
    placement = place_pebbles(g, GENERAL)
    r = run_trial(g, placement, FixedN(30), 3, fresh(2))
    assert r.success
    assert r.measurements_total == 3 * 30 * 2


def test_run_trial_missing_pebble():
    g = gen_padded_path(2, 4, 4)
    full = place_pebbles(g, GENERAL)
    holey = Placement(full.scheme, full.delta, {g.start: full.pebbles[g.start]})
    r = run_trial(g, holey, FixedN(20), 2, fresh(0))
    assert not r.success
    assert r.failure_kind is FailureKind.MISSING_PEBBLE
    assert r.steps_taken == 1  # died at the second node
    # qudit route 0-1-2-3-4 without node 2's pebble: two one-shot reads, two moves
    g = gen_padded_path(4, 4, 3)
    full = place_pebbles(g, EncodingScheme.QUDIT)
    holey = Placement(full.scheme, full.delta, {v: p for v, p in full.pebbles.items() if v != 2})
    assert record(run_trial(g, holey, QuditOneShot(), 8, fresh(0))) == (FailureKind.MISSING_PEBBLE, 2, 2)


def test_run_trial_wrong_port_range():
    g = gen_padded_path(1, 2, 0)  # start has degree 1
    placement = Placement(GENERAL, 4, {0: QuantumPebble(0, encode_port(3, 4), 3)})
    r = run_trial(g, placement, FixedN(12), 1, fresh(6))
    assert r.failure_kind is FailureKind.WRONG_PORT_RANGE
    assert r.measurements_total == 24
    # qudit: node 1 emits level 7 (port 8) at degree 4, after one move
    g = gen_padded_path(4, 4, 3)
    full = place_pebbles(g, EncodingScheme.QUDIT)
    pebbles = {**full.pebbles, 1: QuantumPebble(1, 7, 8)}
    placement = Placement(full.scheme, full.delta, pebbles)
    assert record(run_trial(g, placement, QuditOneShot(), 8, fresh(0))) == (FailureKind.WRONG_PORT_RANGE, 1, 2)
    # classical: an exit port above the start's degree 3, or below port 0
    g = gen_gpqr(GadgetSpec((0, 1, 2)))
    for action in (5, -1):
        table = DecisionTable({(3, True): action, (3, False): action, (1, True): 0, (1, False): 0})
        r = run_trial(g, frozenset(), ClassicalTable(table), 5, fresh(0))
        assert record(r) == (FailureKind.WRONG_PORT_RANGE, 0, 0)


def test_run_trial_adaptive_gives_up_at_cap():
    # cap 2 on a two-basis family: one look each, no chance to eliminate
    g = gen_padded_path(2, 4, 4)
    placement = place_pebbles(g, GENERAL)
    r = run_trial(g, placement, Adaptive(cap=2), 2, fresh(11))
    assert r.failure_kind is FailureKind.DECLARED_FAILURE
    assert r.measurements_total == 2
    assert r.steps_taken == 0


def test_run_trial_classical_oscillation_burns_the_budget():
    g = gen_gpqr(OSC_GADGET)
    r = run_trial(g, frozenset({0, 1, 2}), ClassicalTable(WLOG_TABLE), 7, fresh(0))
    assert not r.success
    assert r.failure_kind is FailureKind.STEP_BUDGET_EXHAUSTED
    assert r.steps_taken == 7
    assert r.measurements_total == 0


def test_run_trial_stay_table_spends_rounds_without_moving():
    g = gen_gpqr(OSC_GADGET)
    r = run_trial(g, frozenset(), ClassicalTable(STAY_TABLE), 3, fresh(0))
    assert r.failure_kind is FailureKind.STEP_BUDGET_EXHAUSTED
    assert r.steps_taken == 0


def test_run_trial_random_walk_on_single_edge_always_wins():
    g = gen_padded_path(1, 2, 0)
    for seed in range(20):
        r = run_trial(g, frozenset(), RandomWalk(), 1, fresh(seed))
        assert r.success and r.steps_taken == 1
    assert r.measurements_total == 0


def test_run_trial_validation():
    g = gen_padded_path(2, 4, 1)
    placement = place_pebbles(g, GENERAL)
    with pytest.raises(ValueError, match="step_budget"):
        run_trial(g, placement, FixedN(5), 0, fresh(0))
    with pytest.raises(ValueError, match="resolved"):
        run_trial(g, placement, FixedN(), 2, fresh(0))
    for n in (0, -2):
        with pytest.raises(ValueError, match=rf"^FixedN.n must be >= 1, got {n}$"):
            FixedN(n)
    with pytest.raises(ValueError, match="Placement"):
        run_trial(g, frozenset({0}), FixedN(5), 2, fresh(0))
    qudit = place_pebbles(g, EncodingScheme.QUDIT)
    with pytest.raises(ValueError, match="decode scheme"):
        run_trial(g, qudit, FixedN(5), 2, fresh(0))
    with pytest.raises(ValueError, match="qudit"):
        run_trial(g, placement, QuditOneShot(), 2, fresh(0))
    with pytest.raises(ValueError, match=r"^cap 1 below family size 2$"):
        run_trial(g, Placement(GENERAL, 4, {}), Adaptive(1), 2, fresh(0))
    stray = Placement(GENERAL, 4, {99: QuantumPebble(99, encode_port(1, 4), 1)})
    for strategy in (FixedN(5), FixedN(5), Adaptive()):
        with pytest.raises(ValueError, match="outside the graph"):
            run_trial(g, stray, strategy, 2, fresh(0))


def test_a_fixed_n_run_trial_rejects_offsets_past_int64():
    """A trial reads stream offsets below budget * n * F; at 2**63 and past it, n is named."""
    g = gen_padded_path(2, 4, 1)
    placement = place_pebbles(g, GENERAL)  # F = 2
    with pytest.raises(ValueError, match=rf"^FixedN.n {2**60} too large: 4 rounds read {2**63} draws, over 2\*\*63-1$"):
        run_trial(g, placement, FixedN(2**60), 4, fresh(0))
    with pytest.raises(ValueError, match=rf"^FixedN.n {2**63} too large: 1 rounds read {2**64} draws"):
        run_trial(g, placement, FixedN(2**63), 1, fresh(0))
    assert run_trial(g, placement, FixedN(2**60 - 1), 4, fresh(0)).success


@pytest.mark.parametrize("strategy", [FixedN(3), FixedN(53), Adaptive(), Adaptive(5), RandomWalk()])
def test_only_a_random_walk_moves_its_stream(strategy):
    """Fixed-n and adaptive trials read their draws by offset and leave the
    stream where it was; a random walk takes one scalar draw per round."""
    g = gen_padded_path(10, 4, 3)
    placement = place_pebbles(g, GENERAL)
    for trial in range(20):
        rng = fresh(11, trial)
        res = run_trial(g, placement, strategy, 10, rng)
        assert (res.measurements_total > 0) == (not isinstance(strategy, RandomWalk))
        reference = fresh(11, trial)
        for _ in range(res.steps_taken if isinstance(strategy, RandomWalk) else 0):
            reference.next_u32()
        assert rng.next_u32() == reference.next_u32()


def test_only_drawing_strategies_need_a_stream():
    """Qudit and table trials draw nothing and accept None for a stream, with
    the records of a walk given one; fixed-n, adaptive and random trials
    reject None, naming their strategy."""
    g = gen_padded_path(4, 4, 2)
    gadget = gen_gpqr(OSC_GADGET)
    for graph, placement, strategy in [
        (g, place_pebbles(g, EncodingScheme.QUDIT), QuditOneShot()),
        (gadget, frozenset({0, 1, 2}), ClassicalTable(WLOG_TABLE)),
    ]:
        assert run_trial(graph, placement, strategy, 7, None) == agent._walk(graph, placement, strategy, 7, fresh(0))
    for strategy in (FixedN(5), Adaptive(), RandomWalk()):
        name = type(strategy).__name__
        with pytest.raises(ValueError, match=f"^{name} trials draw from a stream; got None$"):
            run_trial(g, place_pebbles(g, GENERAL), strategy, 4, None)


def test_run_trial_plans_each_graph_and_placement_once(monkeypatch):
    """The placement's nodes are checked, and its memo made, once per
    (graph, placement) pair, not once per trial."""
    made = []

    class Memo(list):
        def __setitem__(self, key, value):
            if key == slice(None):  # the memo made anew, for the pair value[:2]
                made.append(tuple(value[:2]))
            super().__setitem__(key, value)

    monkeypatch.setattr(agent, "_MEMO", Memo())
    g = gen_padded_path(6, 4, 1)
    placement = place_pebbles(g, GENERAL)
    first = [run_trial(g, placement, FixedN(7), 6, fresh(seed)) for seed in range(5)]
    run_trial(g, placement, Adaptive(), 6, fresh(0))
    assert made == [(g, placement)]
    # an equal copy of the placement gets its own memo, and the same records
    copy = Placement(placement.scheme, placement.delta, dict(placement.pebbles))
    assert [run_trial(g, copy, FixedN(7), 6, fresh(seed)) for seed in range(5)] == first
    assert made == [(g, placement), (g, copy)]


def test_kept_records_equal_a_fresh_walk():
    """Qudit and table trials draw nothing, so run_trial keeps the last
    record and returns it again; it must equal the walk made from scratch,
    including budgets below D and every way such a walk fails."""
    qg = gen_padded_path(6, 4, 3)
    full = place_pebbles(qg, EncodingScheme.QUDIT)
    holey = Placement(full.scheme, full.delta, {v: p for v, p in full.pebbles.items() if v != 3})
    # node 2 emits level 7 (port 8) at degree 4
    bad_level = Placement(full.scheme, full.delta, {**full.pebbles, 2: QuantumPebble(2, 7, 8)})
    gadget = gen_gpqr(OSC_GADGET)
    out_of_range = DecisionTable({(3, True): 5, (3, False): 5, (1, True): 0, (1, False): 0})
    cases = [
        *((qg, full, QuditOneShot(), budget) for budget in (1, 3, 5, 6, 9)),
        (qg, holey, QuditOneShot(), 6),
        (qg, bad_level, QuditOneShot(), 6),
        (gadget, frozenset({0, 1, 2}), ClassicalTable(WLOG_TABLE), 7),
        (gadget, frozenset(), ClassicalTable(STAY_TABLE), 3),
        (gadget, frozenset(), ClassicalTable(out_of_range), 5),
        # only a Placement is checked, so a pebbled set naming no node of the graph is no error
        (gadget, frozenset({99}), ClassicalTable(WLOG_TABLE), 4),
    ]
    kinds = set()
    for g, placement, strategy, budget in cases * 2:
        walked = agent._walk(g, placement, strategy, budget, fresh(0))
        kept = [run_trial(g, placement, strategy, budget, fresh(seed)) for seed in range(5)]
        assert kept == [walked] * 5
        assert all(r is kept[0] for r in kept)
        kinds.add(walked.failure_kind)
    assert kinds == {
        FailureKind.NONE,
        FailureKind.STEP_BUDGET_EXHAUSTED,
        FailureKind.MISSING_PEBBLE,
        FailureKind.WRONG_PORT_RANGE,
    }


def test_a_kept_record_is_recomputed_when_an_argument_changes(monkeypatch):
    walked = []
    walk = agent._walk
    monkeypatch.setattr(agent, "_walk", lambda *args: walked.append(args[1:4]) or walk(*args))
    monkeypatch.setattr(agent, "_MEMO", [])
    g = gen_padded_path(6, 4, 3)
    placement = place_pebbles(g, EncodingScheme.QUDIT)
    strategy = QuditOneShot()
    first = run_trial(g, placement, strategy, 6, fresh(0))
    assert first.success and run_trial(g, placement, strategy, 6, fresh(1)) is first
    assert len(walked) == 1
    # the argument checks still run on every call
    with pytest.raises(ValueError, match="step_budget"):
        run_trial(g, placement, strategy, 0, fresh(0))
    with pytest.raises(ValueError, match="qudit"):
        run_trial(g, place_pebbles(g, GENERAL), strategy, 6, fresh(0))
    short = run_trial(g, placement, strategy, 3, fresh(0))
    assert (short.failure_kind, short.steps_taken) == (FailureKind.STEP_BUDGET_EXHAUSTED, 3)
    # an equal copy of the placement or of the strategy is a new argument: compared by identity
    copy = Placement(placement.scheme, placement.delta, dict(placement.pebbles))
    assert run_trial(g, copy, strategy, 3, fresh(0)) == short
    assert run_trial(g, copy, QuditOneShot(), 3, fresh(0)) == short
    assert run_trial(g, copy, QuditOneShot(), 6, fresh(0)) == first
    assert len(walked) == 5
    table = ClassicalTable(WLOG_TABLE)
    gadget = gen_gpqr(OSC_GADGET)
    assert run_trial(gadget, frozenset({0, 1, 2}), table, 7, fresh(0)) == run_trial(
        gadget, frozenset({0, 1, 2}), table, 7, fresh(1)
    )
    assert len(walked) == 7  # two frozenset objects, one per call


def test_bad_arguments_raise_after_a_memo_hit(monkeypatch):
    """A call with the memo's graph, placement, strategy and budget skips the
    argument checks. Bad arguments never enter the memo, so after a hit each
    bad call still raises its message, and the next good call returns the
    record a fresh memo gives."""
    monkeypatch.setattr(agent, "_MEMO", [])
    g, small = gen_padded_path(6, 4, 3), gen_padded_path(2, 4, 3)
    general, qudit = place_pebbles(g, GENERAL), place_pebbles(g, EncodingScheme.QUDIT)
    outside = [v for v in general.nodes.tolist() if v >= small.node_count]
    fixed = FixedN(5)
    for placement, strategy, rng in [(general, fixed, fresh(0, 3)), (qudit, QuditOneShot(), None)]:
        bad_calls = [
            ((g, placement, strategy, 0, rng), "step_budget must be >= 1, got 0"),
            ((g, general, FixedN(None), 6, fresh(0)), "FixedN.n must be resolved to a positive sample count"),
            ((g, general, QuditOneShot(), 6, None), "QuditOneShot requires the qudit scheme"),
            ((small, placement, strategy, 6, rng), f"placement references nodes outside the graph: {outside}"),
            # for fixed-n, the memo's four arguments with no stream
            ((g, general, fixed, 6, None), "FixedN trials draw from a stream; got None"),
        ]
        agent._MEMO.clear()
        fresh_record = run_trial(g, placement, strategy, 6, rng)
        for args, message in bad_calls:
            assert run_trial(g, placement, strategy, 6, rng) == fresh_record  # a memo hit
            assert agent._MEMO[3] is strategy
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_trial(*args)
            assert run_trial(g, placement, strategy, 6, rng) == fresh_record


def test_a_round_tripped_placement_builds_as_many_blocks(monkeypatch):
    """placement_to_json writes its rows in column order, route order for a
    placed placement, so a JSON round trip keeps the fixed-n blocks whole even
    where node ids descend along the route."""
    path = gen_padded_path(200, 8, 7)
    top = path.node_count - 1
    edges = path.edges.copy()
    edges[:, [0, 2]] = top - edges[:, [0, 2]]
    g = PortGraph(path.node_count, edges, top - path.start, top - path.treasure)
    placed = place_pebbles(g, GENERAL)
    tripped = placement_from_json(placement_to_json(placed))
    assert tripped == placed and placed.nodes[0] > placed.nodes[-1]
    built, records = [], []
    for placement in (placed, tripped):
        monkeypatch.setattr(agent, "_MEMO", [])
        records.append([run_trial(g, placement, FixedN(300), 200, fresh(0, i)) for i in range(3)])
        built.append(len(agent._MEMO[2]))
    assert records[0] == records[1]
    assert built[0] == built[1] == 1


def test_a_qudit_run_decodes_each_node_once(monkeypatch):
    """1000 trials at D=10 share one walk: 10 decodes, not 10,000."""
    decoded = []
    decode = agent.decode_qudit
    monkeypatch.setattr(agent, "decode_qudit", lambda level: decoded.append(level) or decode(level))
    g = gen_padded_path(10, 4, 5)
    placement = place_pebbles(g, EncodingScheme.QUDIT)
    strategy = QuditOneShot()
    records = [run_trial(g, placement, strategy, 10, fresh(0, i)) for i in range(1000)]
    assert records[0].success and records[-1] is records[0]
    assert len(decoded) == 10


def test_decision_table_requires_known_observation():
    with pytest.raises(ValueError, match="no action"):
        WLOG_TABLE.action(2, True)
    assert WLOG_TABLE.action(3, True) == 1
    assert STAY_TABLE.action(1, False) is None


def test_classical_trajectory_cases():
    g = gen_gpqr(OSC_GADGET)
    assert classical_trajectory(g, {0, 1, 2}, WLOG_TABLE) == [0, 1, 0]
    assert classical_trajectory(g, set(), STAY_TABLE) == [0, 0]
    direct = DecisionTable({(3, True): 2, (3, False): 2, (1, True): 0, (1, False): 0})
    assert classical_trajectory(g, set(), direct) == [0, 3]


def test_classical_trajectory_never_longer_than_node_count():
    """Next node is a function of the current one, so a walk that has not
    hit the treasure within node_count steps is already cycling."""
    g = gen_gpqr(GadgetSpec((0, 1, 2), (True, True, False)))
    for bits in range(64):
        pebbled = {v for v in range(6) if bits >> v & 1}
        traj = classical_trajectory(g, pebbled, WLOG_TABLE)
        assert len(traj) - 1 <= g.node_count


def test_full_run_success_is_product_of_node_successes():
    """Obliviousness means per-node decodes are independent: the run rate
    matches (per-node rate)^D."""
    delta, n, dist = 4, 8, 4
    per_node_trials = 40_000
    hits = 0
    for i in range(per_node_trials):
        tallies = measure_node_fixed(encode_port(2, delta), delta, n, fresh(100 + i))
        hits += decide_fixed(tallies, delta) == 2
    p_node = hits / per_node_trials

    g = gen_padded_path(dist, delta, 77)
    placement = place_pebbles(g, GENERAL)
    run_trials = 40_000
    wins = sum(
        run_trial(g, placement, FixedN(n), dist, RngStream(55, i)).success
        for i in range(run_trials)
    )
    rate = wins / run_trials
    assert rate == pytest.approx(p_node**dist, abs=0.02)


@pytest.mark.parametrize("offset", [0, -1])
def test_pebbles_off_the_graph_are_named(offset):
    """The memo's one array check names every pebble outside 0..node_count-1,
    in the placement's order, for quantum and table strategies alike."""
    g = gen_padded_path(4, 4, 2)
    full = place_pebbles(g, GENERAL)
    bad = g.node_count if offset == 0 else -1
    pebbles = {**full.pebbles, bad: QuantumPebble(bad, encode_port(1, 4), 1), 2 * g.node_count: full.pebbles[0]}
    placement = Placement(GENERAL, 4, pebbles)
    table = ClassicalTable(DecisionTable({(d, p): 0 for d in (1, 4) for p in (True, False)}))
    for strategy in (FixedN(5), Adaptive(), table):
        with pytest.raises(ValueError, match=rf"^placement references nodes outside the graph: \[{bad}, {2 * g.node_count}\]$"):
            run_trial(g, placement, strategy, 4, fresh(0))
    copy = Placement(GENERAL, 4, dict(full.pebbles))
    assert run_trial(g, copy, FixedN(5), 4, fresh(0)) == run_trial(g, full, FixedN(5), 4, fresh(0))
