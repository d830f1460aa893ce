"""Agent strategies: measurement loops, the decision rule, trial execution."""

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
    run_trial,
    sample_measurement,
)

GENERAL = EncodingScheme.GENERAL

# triangle S-U-V with pendants; the pebble-means-port-1 rule oscillates here
OSC_GADGET = GadgetSpec((2, 2, 2), (True, False, False))
WLOG_TABLE = DecisionTable({(3, True): 1, (3, False): 0, (1, True): 0, (1, False): 0})
STAY_TABLE = DecisionTable({(3, True): None, (3, False): None, (1, True): None, (1, False): None})


def fresh(seed=0, stream=0):
    return RngStream(seed, stream)


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


def test_run_trial_wrong_port_range():
    g = gen_padded_path(1, 2, 0)  # start has degree 1
    placement = Placement(GENERAL, 4, {0: QuantumPebble(0, encode_port(3, 4), 3)})
    r = run_trial(g, placement, FixedN(12), 1, fresh(6))
    assert r.failure_kind is FailureKind.WRONG_PORT_RANGE
    assert r.measurements_total == 24


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
    stray = Placement(GENERAL, 4, {99: QuantumPebble(99, encode_port(1, 4), 1)})
    with pytest.raises(ValueError, match="outside the graph"):
        run_trial(g, stray, FixedN(5), 2, fresh(0))


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
