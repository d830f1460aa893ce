"""Port encodings: qubit family map, bit/sign special case, qudit levels,
and the whole-path mixed-radix packing."""

import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpebble import (
    FULL_PATH_CAP,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    MINUS,
    PLUS,
    EncodingScheme,
    QubitState,
    Outcome,
    basis_family,
    born_probability,
    build_basis,
    decode_full_path,
    decode_outcome,
    decode_qudit,
    encode_full_path,
    encode_port,
    encode_qudit,
    gen_padded_path,
    neighbor_via_port,
    place_pebbles,
    placement_from_json,
    placement_to_json,
    shortest_path,
)
from qpebble.encoding import Placement, QuantumPebble, port_outcome, route

GENERAL = EncodingScheme.GENERAL
BITSIGN4 = EncodingScheme.BITSIGN4
QUDIT = EncodingScheme.QUDIT
FULL_PATH = EncodingScheme.FULL_PATH


@pytest.mark.parametrize("delta", [2, 4, 6, 8, 16, 128])
def test_encode_decode_is_a_bijection(delta):
    """Every port 1..delta maps to a distinct (basis, sign) pair and back."""
    seen = set()
    for j in range(1, delta + 1):
        state = encode_port(j, delta)
        basis = build_basis((j - 1) // 2, delta)
        if j % 2:
            assert state == basis.plus_vec
            sign = PLUS
        else:
            assert state == basis.minus_vec
            sign = MINUS
        key = ((j - 1) // 2, sign)
        assert key not in seen
        seen.add(key)
        assert decode_outcome(Outcome(*key), delta) == j
        assert port_outcome(j) == Outcome(*key)
        assert decode_outcome(port_outcome(j), delta) == j
    assert len(seen) == delta


def test_encode_port_known_sequence():
    """Ports 1,4,3,2 at delta=4 hit all four family states."""
    b0, b1 = build_basis(0, 4), build_basis(1, 4)
    want = {1: b0.plus_vec, 2: b0.minus_vec, 3: b1.plus_vec, 4: b1.minus_vec}
    for j, state in want.items():
        assert encode_port(j, 4) == state


def test_encode_port_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        encode_port(0, 4)
    with pytest.raises(ValueError, match="outside"):
        encode_port(5, 4)


def test_odd_degree_rounds_family_up():
    # a degree-3 graph still measures in the delta=4 family
    state = encode_port(3, 3)
    assert state == build_basis(1, 4).plus_vec
    fam = basis_family(GENERAL, 3)
    assert len(fam) == 2
    assert fam[1].delta == 4


def test_bitsign4_states_are_bit_and_sign_kets():
    want = [KET0, KET1, KET_PLUS, KET_MINUS]
    for j, state in enumerate(want, start=1):
        assert encode_port(j, 4, BITSIGN4) == state
    with pytest.raises(ValueError, match="degree <= 4"):
        encode_port(1, 6, BITSIGN4)


def test_bitsign4_family_decodes_its_own_states():
    fam = basis_family(BITSIGN4, 4)
    assert len(fam) == 2
    assert (fam[0].plus_vec, fam[0].minus_vec) == (KET0, KET1)
    assert (fam[1].plus_vec, fam[1].minus_vec) == (KET_PLUS, KET_MINUS)
    for j in range(1, 5):
        state = encode_port(j, 4, BITSIGN4)
        i, sign = (j - 1) // 2, PLUS if j % 2 else MINUS
        vec = fam[i].plus_vec if sign == PLUS else fam[i].minus_vec
        assert born_probability(state, vec) == pytest.approx(1.0)
        assert decode_outcome(Outcome(i, sign), 4) == j


def test_bitsign4_cross_basis_probability_is_half():
    fam = basis_family(BITSIGN4, 4)
    for state in (KET0, KET1):
        assert born_probability(state, fam[1].plus_vec) == pytest.approx(0.5)
    for state in (KET_PLUS, KET_MINUS):
        assert born_probability(state, fam[0].plus_vec) == pytest.approx(0.5)


def test_qudit_levels_roundtrip():
    for delta in (2, 3, 7):
        for j in range(1, delta + 1):
            assert decode_qudit(encode_qudit(j, delta)) == j
    with pytest.raises(ValueError):
        encode_qudit(0, 4)
    with pytest.raises(ValueError):
        encode_qudit(5, 4)
    with pytest.raises(ValueError):
        decode_qudit(-1)


def test_full_path_two_step_binary_example():
    half, idx = encode_full_path([1, 2], 2)
    assert (half, idx) == (2, 2)
    assert decode_full_path(2, 2, 2) == [1, 2]


def test_full_path_family_size():
    half, idx = encode_full_path([1, 2, 3], 4)
    assert half == 32  # 4^3 / 2 bases in the enlarged family
    assert 1 <= idx <= 64


def test_full_path_msb_first():
    # first step is the most significant digit
    _, a = encode_full_path([2, 1, 1], 4)
    _, b = encode_full_path([1, 1, 2], 4)
    assert a == 1 * 16 + 1
    assert b == 1 + 1


@given(
    st.sampled_from([2, 4, 8]),
    st.lists(st.integers(1, 8), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_full_path_roundtrip(delta, ports):
    ports = [((p - 1) % delta) + 1 for p in ports]
    _, idx = encode_full_path(ports, delta)
    assert decode_full_path(idx, delta, len(ports)) == ports


def test_full_path_cap():
    assert 4**10 == FULL_PATH_CAP
    encode_full_path([1] * 10, 4)  # exactly at the cap: fine
    with pytest.raises(ValueError, match="cap"):
        encode_full_path([1] * 11, 4)
    with pytest.raises(ValueError):
        encode_full_path([], 4)
    with pytest.raises(ValueError):
        encode_full_path([1, 2], 3)


def test_full_path_state_decodes_by_born_argmax():
    """The packed state is one family member of the enlarged family, so a
    noiseless argmax over the bases recovers the whole port list."""
    ports = [2, 1, 2]
    total, idx = encode_full_path(ports, 2)
    state = encode_port(idx, 2 ** len(ports))
    best = None
    for basis in basis_family(GENERAL, 2 ** len(ports)):
        p = born_probability(state, basis.plus_vec)
        score = abs(2 * p - 1)
        if best is None or score > best[0]:
            best = (score, basis.index, PLUS if p > 0.5 else MINUS)
    assert best[0] == pytest.approx(1.0)
    decoded = decode_outcome(Outcome(best[1], best[2]), 2 ** len(ports))
    assert decoded == idx
    assert decode_full_path(decoded, 2, len(ports)) == ports


def path_nodes(g):
    _, ports = shortest_path(g, g.start, g.treasure)
    nodes, cur = [], g.start
    for p in ports:
        nodes.append((cur, p))
        cur = neighbor_via_port(g, cur, p)[0]
    return nodes


@pytest.mark.parametrize("scheme", [GENERAL, BITSIGN4, QUDIT])
def test_place_pebbles_covers_the_path(scheme):
    g = gen_padded_path(6, 4, 3)
    placement = place_pebbles(g, scheme)
    on_path = path_nodes(g)
    assert placement.delta == 4
    assert placement.scheme is scheme
    assert set(placement.pebbles) == {v for v, _ in on_path}
    assert g.treasure not in placement.pebbles
    for v, port in on_path:
        pebble = placement.pebbles[v]
        assert pebble.node == v
        assert pebble.exit_port == port + 1
        if scheme is QUDIT:
            assert pebble.emitted_state == port
        else:
            assert pebble.emitted_state == encode_port(port + 1, 4, scheme)


def test_pebbles_with_one_port_share_one_state():
    g = gen_padded_path(40, 4, 3)
    for scheme in (GENERAL, BITSIGN4):
        by_port = {}
        for pebble in place_pebbles(g, scheme).pebbles.values():
            assert by_port.setdefault(pebble.exit_port, pebble.emitted_state) is pebble.emitted_state
        assert sorted(by_port) == [1, 2, 3, 4]
    # the cache is bounded, so full-path sized indices cannot grow it for good
    for j in range(1, 3 * 4096, 3):
        encode_port(j, 1 << 14)
    assert encode_port(1, 4) is encode_port(1, 4)
    assert encode_port(1, 4, BITSIGN4) is not encode_port(1, 4)


# Guard on set-up memory: the tracemalloc peak of placing pebbles on a fresh
# D=20000, delta=8 padded path (about 140k nodes) was 40.5 MB on arrays, and
# 117 MB when the graph was kept as per-node dicts and tuples.
SETUP_PEAK_BOUND = 60 * 2**20


def test_long_route_set_up_memory_stays_bounded():
    tracemalloc.start()
    try:
        place_pebbles(gen_padded_path(20000, 8, 7), GENERAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SETUP_PEAK_BOUND, f"peak {peak / 2**20:.1f} MB"


def test_place_pebbles_rejects_full_path_and_bad_graphs():
    g = gen_padded_path(3, 4, 0)
    with pytest.raises(ValueError, match="analysis-only"):
        place_pebbles(g, FULL_PATH)
    from qpebble import PortGraph

    bad = PortGraph(node_count=2, edges=((0, 0, 1, 0),), start=0, treasure=0)
    with pytest.raises(ValueError, match="invalid graph"):
        place_pebbles(bad, GENERAL)
    # the graph is checked before the scheme
    with pytest.raises(ValueError, match="invalid graph"):
        place_pebbles(bad, FULL_PATH)


def test_route_follows_the_smallest_port_shortest_path():
    g = gen_padded_path(6, 4, 3)
    assert route(g) == path_nodes(g)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 0, 1, 0), (1, 2, 2, 0)), r"^invalid graph: port set not contiguous at node 1: \[0, 2\]$"),
        (((0, 0, 1, 0),), r"^invalid graph: not connected: node 2 unreachable$"),
    ],
)
def test_route_rejects_an_invalid_graph(edges, message):
    from qpebble import PortGraph

    with pytest.raises(ValueError, match=message):
        route(PortGraph(3, edges, 0, 1))


@pytest.mark.parametrize("scheme", [GENERAL, BITSIGN4, QUDIT])
def test_placement_json_roundtrip(scheme):
    g = gen_padded_path(5, 4, 11)
    placement = place_pebbles(g, scheme)
    text = placement_to_json(placement)
    assert placement_from_json(text) == placement
    doc = json.loads(text)
    assert doc["scheme"] == scheme.value
    assert doc["delta"] == 4
    nodes = [row["node"] for row in doc["pebbles"]]
    assert nodes == sorted(nodes)
    key = "level" if scheme is QUDIT else "basis_index"
    assert all(key in row for row in doc["pebbles"])


def test_decode_outcome_rejects_negative_basis():
    with pytest.raises(ValueError):
        decode_outcome(Outcome(-1, PLUS), 4)


@pytest.mark.parametrize(
    "scheme, dist, delta",
    [(s, d, k) for s in (GENERAL, BITSIGN4, QUDIT) for d in (1, 7, 50) for k in (2, 4, 8) if s is not BITSIGN4 or k <= 4],
)
def test_placement_view_equals_the_per_node_pebbles(scheme, dist, delta):
    """place_pebbles keeps columns; its pebbles view must hold, in route order,
    the pebbles made one per route node from the encoders (bitsign4 handles
    degree <= 4 only)."""
    g = gen_padded_path(dist, delta, dist + delta)
    placement = place_pebbles(g, scheme)
    degree = g.max_degree  # 1 on the single edge of D=1
    want = {}
    for node, port in route(g):
        state = encode_qudit(port + 1, degree) if scheme is QUDIT else encode_port(port + 1, degree, scheme)
        want[node] = QuantumPebble(node, state, port + 1)
    assert list(placement.pebbles.items()) == list(want.items())
    assert len(placement.pebbles) == dist and placement.nodes.tolist() == list(want)
    assert placement_from_json(placement_to_json(placement)) == placement
    assert Placement(scheme, degree, want) == placement


def test_place_pebbles_makes_no_pebble(monkeypatch):
    made = []
    init = QuantumPebble.__init__
    monkeypatch.setattr(QuantumPebble, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    placement = place_pebbles(gen_padded_path(50, 8, 1), GENERAL)
    assert made == []
    placement.pebbles[0]
    assert len(made) == 1


def test_hand_built_placement_keeps_its_order_states_and_ports():
    """Any Mapping is accepted as given: off-family states, exit ports that
    disagree with the state, stray nodes; the JSON round trip of an
    on-family one is equal to it, whatever the row order."""
    turned = QubitState(0.6 + 0j, 0.8 + 0j)
    pebbles = {
        9: QuantumPebble(9, encode_port(3, 4), 3),
        2: QuantumPebble(2, turned, 1),
        -1: QuantumPebble(-1, turned, 4),
        5: QuantumPebble(5, encode_port(3, 4), 3),
    }
    placement = Placement(GENERAL, 4, pebbles)
    assert list(placement.pebbles.items()) == list(pebbles.items())
    assert placement.nodes.tolist() == [9, 2, -1, 5] and placement.state_index.tolist() == [0, 1, 2, 0]
    assert placement.states == (encode_port(3, 4), turned, turned)
    assert 7 not in placement.pebbles and dict(placement.pebbles) == pebbles
    on_family = Placement(GENERAL, 4, {v: p for v, p in pebbles.items() if p.emitted_state is not turned})
    assert placement_from_json(placement_to_json(on_family)) == on_family
    assert on_family != placement and on_family != Placement(BITSIGN4, 4, dict(on_family.pebbles))
    with pytest.raises(AttributeError, match="cannot assign"):
        placement.delta = 8
    with pytest.raises(ValueError, match="read-only"):
        placement.nodes[0] = 1


@pytest.mark.parametrize(
    "scheme, rows, message",
    [
        (GENERAL, [{"node": 0, "basis_index": 0, "sign": "+"}, {"node": 1, "basis_index": 1, "sign": "x"}],
         r"^pebble row 1: sign must be '\+' or '-', got 'x'$"),
        (GENERAL, [{"node": 3, "basis_index": 0, "sign": "+"}, {"node": 3, "basis_index": 1, "sign": "-"}],
         r"^pebble row 1: node 3 repeats an earlier row$"),
        (GENERAL, [{"node": 0, "basis_index": 2, "sign": "+"}], r"^pebble row 0: port 5 outside 1\.\.4$"),
        (QUDIT, [{"node": 0, "level": 3}, {"node": 1, "level": 9}], r"^pebble row 1: level 9 outside 0\.\.3$"),
        (QUDIT, [{"node": 0, "level": -1}], r"^pebble row 0: level -1 outside 0\.\.3$"),
    ],
)
def test_placement_from_json_rejects_bad_rows(scheme, rows, message):
    text = json.dumps({"scheme": scheme.value, "delta": 4, "pebbles": rows})
    with pytest.raises(ValueError, match=message):
        placement_from_json(text)


ROW = {"node": 0, "basis_index": 0, "sign": "+"}


def general(*rows, **keys):
    return {"scheme": "general", "delta": 4, "pebbles": list(rows), **keys}


def qudit(*rows):
    return {"scheme": "qudit", "delta": 4, "pebbles": list(rows)}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([ROW], "placement JSON must be an object, got list"),
        ({"delta": 4, "pebbles": [ROW]}, 'placement JSON needs a "scheme"'),
        ({"scheme": "general", "pebbles": [ROW]}, 'placement JSON needs a "delta"'),
        (general(ROW, delta="4"), """placement JSON "delta" must be an integer, got '4'"""),
        (general(ROW, delta=True), 'placement JSON "delta" must be an integer, got True'),
        (general(ROW, [1, 0, "+"]), "pebble row 1: must be an object, got list"),
        (general({"node": 0, "basis_index": 0}), 'pebble row 0: needs a "sign"'),
        (general({"basis_index": 0, "sign": "+"}), 'pebble row 0: needs a "node"'),
        (general({"node": 0, "sign": "+"}), 'pebble row 0: needs a "basis_index"'),
        (qudit({"node": 0}), 'pebble row 0: needs a "level"'),
        (general(ROW, {**ROW, "node": 1.5}), 'pebble row 1: "node" must be an integer, got 1.5'),
        (general({**ROW, "node": True}), 'pebble row 0: "node" must be an integer, got True'),
        (general({**ROW, "basis_index": 0.5}), 'pebble row 0: "basis_index" must be an integer, got 0.5'),
        (general({**ROW, "basis_index": False}), 'pebble row 0: "basis_index" must be an integer, got False'),
        (qudit({"node": 0, "level": 1.0}), 'pebble row 0: "level" must be an integer, got 1.0'),
        (qudit({"node": 0, "level": True}), 'pebble row 0: "level" must be an integer, got True'),
        (general(ROW, scheme="bogus"), """placement JSON "scheme" must be one of ['general', 'bitsign4', 'qudit', 'full_path'], got 'bogus'"""),
    ],
)
def test_placement_from_json_names_the_bad_row_or_key(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        placement_from_json(json.dumps(doc))


# about 10**5 bytes each, nested past the interpreter's recursion limit: a bare run of "[", and a valid document
DEEP_JSON = ["[" * 100_000, '{"a": ' * 16_000 + "1" + "}" * 16_000]


@pytest.mark.parametrize("text", DEEP_JSON, ids=["open_brackets", "nested_objects"])
def test_placement_json_nested_too_deeply_is_a_named_value_error(text):
    with pytest.raises(ValueError, match="^placement JSON is nested too deeply$"):
        placement_from_json(text)


def test_placement_from_json_needs_a_pebble_list():
    for doc in ({"scheme": "general", "delta": 4}, {"scheme": "general", "delta": 4, "pebbles": {"0": 1}}):
        with pytest.raises(ValueError, match=r'^placement JSON needs a "pebbles" list$'):
            placement_from_json(json.dumps(doc))
