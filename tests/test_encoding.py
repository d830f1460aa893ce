"""Port encodings: qubit family map, bit/sign special case, qudit levels,
and the whole-path mixed-radix packing."""

import json

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
from qpebble.encoding import port_outcome, route

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
