"""Port-labeled graphs: invariants, generators, text format, BFS."""

import pickle
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpebble import (
    GadgetSpec,
    GraphFormatError,
    PortGraph,
    RngStream,
    gen_gpqr,
    gen_padded_path,
    gpqr_family,
    neighbor_via_port,
    parse_graph,
    serialize_graph,
    shortest_path,
    validate,
)
from qpebble import graph as graph_module
from qpebble.graph import _GEN_STREAM, _bfs

FIVE_CYCLE = """\
5 5
0 2
0 0 1 0
1 1 2 0
2 1 3 0
3 1 4 0
4 1 0 1
"""


def brute_force_dist(g: PortGraph, s: int, t: int) -> int:
    """Oracle: breadth-first over raw neighbor sets, no port logic."""
    frontier = {s}
    seen = {s}
    d = 0
    while frontier:
        if t in frontier:
            return d
        frontier = {neighbor_via_port(g, v, p)[0] for v in frontier for p in range(g.degree(v))} - seen
        seen |= frontier
        d += 1
    raise AssertionError("unreachable")


def test_validate_accepts_generated_graphs():
    assert validate(gen_padded_path(4, 4, 0)) is None
    assert validate(gen_gpqr(GadgetSpec((1, 1, 1)))) is None


def test_validate_rejects_tiny_and_bad_ids():
    g = PortGraph(node_count=1, edges=(), start=0, treasure=0)
    assert "node_count" in validate(g)
    g = PortGraph(node_count=2, edges=((0, 0, 5, 0),), start=0, treasure=1)
    assert validate(g) is not None


def test_validate_rejects_start_equals_treasure():
    g = PortGraph(node_count=2, edges=((0, 0, 1, 0),), start=1, treasure=1)
    assert "start" in validate(g)


def test_validate_rejects_self_loop_and_parallel():
    loop = PortGraph(node_count=2, edges=((0, 0, 0, 1), (0, 2, 1, 0)), start=0, treasure=1)
    assert "self-loop" in validate(loop)
    par = PortGraph(
        node_count=2, edges=((0, 0, 1, 0), (0, 1, 1, 1)), start=0, treasure=1
    )
    assert "parallel" in validate(par)


def test_validate_rejects_port_gaps_with_node_id():
    # node 1 has ports {0, 2}: not contiguous
    g = PortGraph(
        node_count=3,
        edges=((0, 0, 1, 0), (1, 2, 2, 0)),
        start=0,
        treasure=2,
    )
    msg = validate(g)
    assert msg == "port set not contiguous at node 1: [0, 2]"


def test_validate_rejects_disconnected():
    g = PortGraph(
        node_count=4,
        edges=((0, 0, 1, 0), (2, 0, 3, 0)),
        start=0,
        treasure=1,
    )
    assert validate(g) == "not connected: node 2 unreachable"


def test_neighbor_via_port_errors_on_missing_port():
    g = parse_graph(FIVE_CYCLE)
    with pytest.raises(ValueError, match="port"):
        neighbor_via_port(g, 0, 2)


@given(st.integers(1, 8), st.sampled_from([2, 4, 6]), st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_port_maps_are_involutions(dist, delta, seed):
    """Crossing an edge and crossing back lands on the same (node, port)."""
    g = gen_padded_path(dist, delta, seed)
    assert validate(g) is None
    for v in range(g.node_count):
        for p in range(g.degree(v)):
            w, entry = neighbor_via_port(g, v, p)
            back, back_entry = neighbor_via_port(g, w, entry)
            assert (back, back_entry) == (v, p)


def test_shortest_path_matches_brute_force():
    cases = [gen_padded_path(d, 4, s) for d, s in [(1, 0), (2, 3), (3, 7), (5, 1)]]
    cases += [g for _, g in gpqr_family()[:20]]
    cases.append(parse_graph(FIVE_CYCLE))
    for g in cases:
        dist, ports = shortest_path(g, g.start, g.treasure)
        assert dist == brute_force_dist(g, g.start, g.treasure)
        cur = g.start
        for p in ports:
            cur = neighbor_via_port(g, cur, p)[0]
        assert cur == g.treasure
        assert len(ports) == dist


def test_shortest_path_prefers_smallest_ports():
    # on the 5-cycle both directions from 0 reach 2 in 2 steps only one way;
    # re-rooting to treasure 3 gives a genuine tie, broken toward port 0
    g = parse_graph(FIVE_CYCLE)
    dist, ports = shortest_path(g, 0, 2)
    assert (dist, ports) == (2, [0, 1])


def test_padded_path_smallest_case_is_single_edge():
    g = gen_padded_path(1, 2, 9)
    assert g.node_count == 2
    assert g.edges.tolist() == [[0, 0, 1, 0]]
    assert (g.start, g.treasure) == (0, 1)


def test_padded_path_shape():
    dist, delta, seed = 10, 4, 42
    g = gen_padded_path(dist, delta, seed)
    assert g.node_count == dist + 1 + (dist - 1) * (delta - 2)
    assert g.max_degree == delta
    assert g.degree(g.start) == 1 and g.degree(g.treasure) == 1
    for i in range(1, dist):
        assert g.degree(i) == delta
    d, _ = shortest_path(g, g.start, g.treasure)
    assert d == dist


def test_padded_path_is_seed_deterministic():
    a = serialize_graph(gen_padded_path(6, 4, 13))
    b = serialize_graph(gen_padded_path(6, 4, 13))
    c = serialize_graph(gen_padded_path(6, 4, 14))
    assert a == b
    assert a != c


def reference_padded_path_edges(dist, delta, seed):
    """gen_padded_path's edges, its port shuffles drawn one below() at a time."""
    rng = RngStream(seed, stream_id=_GEN_STREAM)
    slots = {}
    for i in range(1, dist):
        perm = list(range(delta))
        for k in range(delta - 1, 0, -1):
            j = rng.below(k + 1)
            perm[k], perm[j] = perm[j], perm[k]
        slots[i] = perm
    edges = [(i, slots[i][1] if i else 0, i + 1, slots[i + 1][0] if i + 1 < dist else 0) for i in range(dist)]
    decoys = (dist + 1 + n for n in range((dist - 1) * (delta - 2)))
    edges += [(i, slots[i][2 + k], next(decoys), 0) for i in range(1, dist) for k in range(delta - 2)]
    return tuple(edges)


@pytest.mark.parametrize("dist, delta, seed", [(1, 2, 0), (1, 8, 3), (2, 4, 5), (7, 2, 1), (30, 6, 9), (1200, 8, 7)])
def test_padded_path_shuffles_match_scalar_draws(dist, delta, seed):
    reference = [list(e) for e in reference_padded_path_edges(dist, delta, seed)]
    assert gen_padded_path(dist, delta, seed).edges.tolist() == reference


def test_padded_path_exit_ports_cover_all_labels():
    """Across seeds the interior exit port takes every value 0..delta-1."""
    seen = set()
    for seed in range(40):
        g = gen_padded_path(4, 4, seed)
        _, ports = shortest_path(g, g.start, g.treasure)
        seen.update(ports[1:])
    assert seen == {0, 1, 2, 3}


def test_padded_path_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_padded_path(0, 4, 1)
    with pytest.raises(ValueError):
        gen_padded_path(3, 3, 1)
    with pytest.raises(ValueError):
        gen_padded_path(3, 0, 1)


def test_gadget_shape():
    g = gen_gpqr(GadgetSpec((2, 2, 2)))
    assert [g.degree(v) for v in range(6)] == [3, 3, 3, 1, 1, 1]
    assert (g.start, g.treasure) == (0, 3)
    assert validate(g) is None
    # pendant port choice is honored: S reaches T through port 2
    assert neighbor_via_port(g, 0, 2)[0] == 3


def test_gadget_pendant_port_parameter():
    for p in (0, 1, 2):
        g = gen_gpqr(GadgetSpec((p, 0, 0)))
        assert neighbor_via_port(g, 0, p)[0] == 3


def test_gadget_family_is_216_distinct_graphs():
    fam = gpqr_family()
    assert len(fam) == 216
    assert len({serialize_graph(g) for _, g in fam}) == 216
    specs = {s for s, _ in fam}
    assert len(specs) == 216
    assert all(validate(g) is None for _, g in fam)


def test_gadget_swaps_change_port_assignment():
    plain = gen_gpqr(GadgetSpec((2, 2, 2), (False, False, False)))
    swapped = gen_gpqr(GadgetSpec((2, 2, 2), (True, False, False)))
    assert serialize_graph(plain) != serialize_graph(swapped)
    # the swap flips which triangle neighbor sits on S's lower port
    a = neighbor_via_port(plain, 0, 0)[0]
    b = neighbor_via_port(swapped, 0, 0)[0]
    assert {a, b} == {1, 2}


def test_parse_serialize_roundtrip():
    for g in [gen_padded_path(5, 4, 2), gen_gpqr(GadgetSpec((1, 2, 0), (True, False, True)))]:
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text


def test_parse_accepts_comments_and_blank_lines():
    text = "# treasure two hops away\n\n5 5  # n m\n0 2\n" + "\n".join(
        FIVE_CYCLE.splitlines()[2:]
    )
    g = parse_graph(text)
    assert (g.node_count, g.start, g.treasure) == (5, 0, 2)


def test_parse_reports_line_numbers():
    bad = "5 5\n0 2\n0 0 1 0\n1 1 2 zero\n2 1 3 0\n3 1 4 0\n4 1 0 1\n"
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_graph(bad)
    with pytest.raises(GraphFormatError, match="edge lines"):
        parse_graph("2 1\n0 1\n0 0 1\n")


def test_parse_checks_edge_count_and_header():
    with pytest.raises(GraphFormatError, match="expected 2 edge lines"):
        parse_graph("3 2\n0 2\n0 0 1 0\n")
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("3\n0 2\n")


def test_parse_rejects_a_header_with_too_few_edges_before_building_the_graph():
    """A connected graph needs m >= n - 1, so the header alone rules out n > m + 1,
    named by its line, before any array grows with n: 99999999999 nodes would
    need 745 GiB. The graph is never built, so a lost check fails here, not in
    an allocation."""
    with mock.patch.object(graph_module, "PortGraph", side_effect=AssertionError("built")):
        huge = "^line 1: 99999999999 nodes need at least 99999999998 edges to be connected, got 1$"
        with pytest.raises(GraphFormatError, match=huge):
            parse_graph("99999999999 1\n0 1\n0 0 1 0\n")
        with pytest.raises(GraphFormatError, match="^line 2: 4 nodes need at least 3 edges to be connected, got 2$"):
            parse_graph("# a path with an isolated node\n4 2\n0 2\n0 0 1 0\n1 1 2 0\n")
    # n = m + 1 passes the header check
    with pytest.raises(GraphFormatError, match="^invalid graph: not connected: node 3 unreachable$"):
        parse_graph("4 3\n0 2\n0 0 1 0\n1 1 2 0\n0 1 2 1\n")


def test_parse_rejects_invariant_violations():
    # start == treasure
    with pytest.raises(GraphFormatError, match="invalid graph"):
        parse_graph("2 1\n0 0\n0 0 1 0\n")


def test_serialize_is_orientation_canonical():
    g = PortGraph(node_count=2, edges=((1, 0, 0, 0),), start=0, treasure=1)
    assert serialize_graph(g) == "2 1\n0 1\n0 0 1 0\n"


def test_degree_and_adjacency_agree():
    """Port p of node v leads along the edge that names (v, p)."""
    g = gen_gpqr(GadgetSpec((0, 1, 2), (False, True, False)))
    ends = {}
    for u, pu, v, pv in g.edges.tolist():
        ends[u, pu], ends[v, pv] = (v, pv), (u, pu)
    for v in range(g.node_count):
        assert g.degree(v) == sum(w == v for w, _ in ends)
        assert [neighbor_via_port(g, v, p) for p in range(g.degree(v))] == [ends[v, p] for p in range(g.degree(v))]


def test_graph_arrays_are_read_only_and_graphs_compare_by_identity():
    g = gen_padded_path(5, 4, 1)
    assert validate(g) is None
    for a in (g.edges, *g.csr, pickle.loads(pickle.dumps(g)).edges):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    # the graph keeps its own copy of the rows it was given
    rows = g.edges.copy()
    h = PortGraph(g.node_count, rows, g.start, g.treasure)
    rows[0, 1] = 7
    assert validate(h) is None and h.edges[0, 1] == g.edges[0, 1]
    assert h != g and len({g, h, g}) == 2


def test_graph_rows_must_have_four_columns():
    with pytest.raises(ValueError, match="rows"):
        PortGraph(3, ((0, 0, 1), (1, 1, 2)), 0, 2)
    with pytest.raises(ValueError, match="64-bit"):
        PortGraph(2, ((0, 0, 1, 2**70),), 0, 1)


def reference_first_violation(g):
    """validate() as a loop over edges and nodes: the reference for the
    array checks in graph._first_violation."""
    n = g.node_count
    if n < 2:
        return f"node_count must be >= 2, got {n}"
    if not (0 <= g.start < n):
        return f"start {g.start} is not a valid node id"
    if not (0 <= g.treasure < n):
        return f"treasure {g.treasure} is not a valid node id"
    if g.start == g.treasure:
        return "start equals treasure"
    seen_pairs = set()
    ports = [[] for _ in range(n)]
    adjacency = [[] for _ in range(n)]
    for i, (u, pu, v, pv) in enumerate(g.edges.tolist()):
        for node in (u, v):
            if not (0 <= node < n):
                return f"edge {i} references invalid node {node}"
        if u == v:
            return f"self-loop at edge {i} (node {u})"
        pair = frozenset((u, v))
        if pair in seen_pairs:
            return f"parallel edge at edge {i} ({u}-{v})"
        seen_pairs.add(pair)
        ports[u].append(pu)
        ports[v].append(pv)
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v in range(n):
        if sorted(ports[v]) != list(range(len(ports[v]))):
            return f"port set not contiguous at node {v}: {sorted(ports[v])}"
    reached = {0}
    frontier = [0]
    while frontier:
        frontier = [w for v in frontier for w in adjacency[v] if w not in reached]
        reached.update(frontier)
    unreached = [v for v in range(n) if v not in reached]
    return f"not connected: node {unreached[0]} unreachable" if unreached else None


BASES = [gen_padded_path(1, 2, 0), gen_padded_path(3, 4, 5), gen_padded_path(4, 6, 2), gen_gpqr(GadgetSpec((2, 0, 1)))]


@st.composite
def damaged_graphs(draw):
    """A valid graph, with a few edits that can break each invariant: ports
    moved (gaps, repeats, negatives), edges repeated in either orientation,
    self-loops, edges dropped, ids out of range, isolated nodes and a second,
    disconnected copy."""
    base = draw(st.sampled_from(BASES))
    n = base.node_count
    edges = base.edges.tolist()
    bad_node = st.sampled_from([-1, n, n + 5])
    port = st.integers(-2, 4)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(edges) - 1)) if edges else None
        edit = draw(st.sampled_from(["port", "port", "twin", "loop", "drop", "node", "isolated", "copy"]))
        if edit == "port" and edges:
            edges[i][draw(st.sampled_from([1, 3]))] = draw(port)
        elif edit == "twin" and edges:
            u, pu, v, pv = edges[i]
            twin = [u, draw(port), v, draw(port)]
            edges.insert(draw(st.integers(0, len(edges))), twin if draw(st.booleans()) else twin[2:] + twin[:2])
        elif edit == "loop":
            v = draw(st.integers(0, n - 1))
            edges.append([v, draw(port), v, draw(port)])
        elif edit == "drop" and edges:
            del edges[i]
        elif edit == "node" and edges:
            edges[i][draw(st.sampled_from([0, 2]))] = draw(bad_node)
        elif edit == "isolated":
            n += 1
        elif edit == "copy":
            edges += [[u + n, pu, v + n, pv] for u, pu, v, pv in base.edges.tolist()]
            n += base.node_count
    ends = [(base.start, base.treasure)] * 6 + [(0, 0), (-1, 1), (0, n)]
    start, treasure = draw(st.sampled_from(ends))
    return PortGraph(n, edges, start, treasure)


@given(damaged_graphs())
@example(PortGraph(1, (), 0, 0))
@example(PortGraph(3, ((0, 0, 1, 0), (1, 1, 3, 0)), 0, 2))  # id out of range
@example(PortGraph(3, ((0, 0, 1, 0), (1, 1, -1, 0)), 0, 2))  # negative id
@example(PortGraph(3, ((0, 0, 1, 0), (1, 1, 1, 2)), 0, 2))  # self-loop
@example(PortGraph(3, ((0, 0, 1, 0), (1, 1, 0, 1)), 0, 1))  # parallel, reversed
@example(PortGraph(3, ((0, 0, 1, 0), (0, 1, 1, 1)), 0, 1))  # parallel, same way
@example(PortGraph(3, ((0, 0, 1, 0), (1, 2, 2, 0)), 0, 2))  # port gap
@example(PortGraph(3, ((0, 0, 1, 0), (1, 0, 2, 0)), 0, 2))  # repeated port
@example(PortGraph(3, ((0, 0, 1, 0), (1, -1, 2, 0)), 0, 2))  # negative port
@example(PortGraph(4, ((0, 0, 1, 0), (1, 1, 2, 0)), 0, 2))  # isolated node
@example(PortGraph(4, ((0, 0, 1, 0), (2, 0, 3, 0)), 0, 1))  # two parts
@settings(max_examples=300, deadline=None)
def test_validation_matches_the_loop_reference(g):
    assert validate(g) == reference_first_violation(g)


def reference_bfs(g, root):
    """Hop distances from ``root`` by a plain queue over every node's port
    table, read straight off the edge rows: the reference for graph._bfs."""
    ports = [{} for _ in range(g.node_count)]
    for u, pu, v, pv in g.edges.tolist():
        ports[u][pu], ports[v][pv] = v, u
    dist = [-1] * g.node_count
    dist[root] = 0
    queue = [root]
    for cur in queue:
        for w in ports[cur].values():
            if dist[w] < 0:
                dist[w] = dist[cur] + 1
                queue.append(w)
    return dist, ports


def reference_path(g, s, t):
    """(distance, nodes, ports) of the smallest-port shortest path from s to t,
    None when t is out of reach."""
    dist, ports = reference_bfs(g, t)
    if dist[s] < 0:
        return None
    nodes, steps, cur = [], [], s
    while cur != t:
        port = min(p for p, w in ports[cur].items() if dist[w] == dist[cur] - 1)
        nodes.append(cur)
        steps.append(port)
        cur = ports[cur][port]
    return dist[s], nodes, steps


@st.composite
def sound_graphs(draw):
    """A simple graph on 2..10 nodes with contiguous, shuffled ports at every
    node, in any number of components (isolated nodes and lone edges
    included), and a root, treasure and start among its nodes."""
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    deg = [0] * n
    for u, v in chosen:
        deg[u] += 1
        deg[v] += 1
    free = [draw(st.permutations(range(d))) for d in deg]
    edges = [(u, free[u].pop(), v, free[v].pop()) for u, v in chosen]
    nodes = st.integers(0, n - 1)
    return PortGraph(n, edges, draw(nodes), draw(nodes)), draw(nodes)


@given(sound_graphs())
@example((PortGraph(4, ((0, 0, 1, 0), (2, 0, 3, 0)), 0, 1), 2))  # two lone edges; root of degree 1
@example((PortGraph(4, ((0, 0, 1, 0), (1, 1, 2, 0)), 0, 2), 3))  # isolated root, degree 0
@example((PortGraph(5, ((0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0)), 3, 0), 0))  # a chain and an isolated node
@example((PortGraph(6, ((0, 0, 1, 1), (1, 0, 2, 0), (3, 0, 4, 0)), 0, 2), 4))  # a path and a lone edge
@example((gen_padded_path(5, 4, 3), 0))  # decoys hang off every interior node
@settings(max_examples=300, deadline=None)
def test_bfs_and_route_walk_match_a_plain_bfs(case):
    """_bfs skips degree-1 nodes but must give every distance a plain BFS
    does, from any root; shortest_path must give the smallest-port ports of
    the reference walk, toward the treasure (the graph's kept search) and
    toward any other node; and the kept search must hold the reference
    walk's nodes and whether every node reaches the treasure."""
    g, root = case
    assert _bfs(g.csr[0].tolist(), g.csr[1].tolist(), root) == reference_bfs(g, root)[0]
    assert g._search[0] == (-1 not in reference_bfs(g, g.treasure)[0])
    for s, t in ((g.start, g.treasure), (root, g.treasure), (g.start, root), (root, g.start)):
        if s == t:
            continue
        want = reference_path(g, s, t)
        if want is None:
            with pytest.raises(ValueError, match=f"^no path from {s} to {t}$"):
                shortest_path(g, s, t)
            continue
        assert shortest_path(g, s, t) == (want[0], want[2])
        if (s, t) == (g.start, g.treasure):
            assert g._search[1:] == (want[1], want[2])


def comb(chain, every, pendants=1):
    """A path 0..chain-1 with ``pendants`` pendants on every ``every``-th node
    from node 0, at its highest ports; start 0, treasure chain-1."""
    edges = [(v, int(v > 0), v + 1, 0) for v in range(chain - 1)]
    n = chain
    for v in range(0, chain, every):
        deg = (v > 0) + (v < chain - 1)
        for k in range(pendants):
            edges.append((v, deg + k, n, 0))
            n += 1
    return PortGraph(n, edges, 0, chain - 1)


@given(sound_graphs())
@example((PortGraph(3, ((0, 0, 1, 0), (1, 1, 2, 0)), 0, 2), 1))  # s and t both pendants
@example((PortGraph(5, ((1, 0, 0, 0), (1, 1, 2, 0), (1, 2, 3, 0), (1, 3, 4, 0)), 2, 4), 1))  # pendants of one hub
@example((PortGraph(5, ((0, 0, 1, 0), (1, 1, 2, 0), (3, 0, 4, 0)), 0, 2), 3))  # a K2 away from t: pendants of pendants
@example((PortGraph(5, ((0, 0, 1, 0), (1, 1, 2, 0), (3, 0, 4, 0)), 3, 2), 0))  # s on that K2
@example((PortGraph(4, ((0, 0, 1, 0), (1, 1, 2, 0)), 0, 2), 3))  # isolated node, the last id
@example((PortGraph(5, ((0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0)), 3, 0), 0))  # isolated node, not s, t or root
@example((PortGraph(4, ((0, 0, 1, 0), (1, 1, 2, 0), (1, 2, 3, 0)), 1, 0), 3))  # s next to t, t a pendant
@example((PortGraph(2, ((0, 0, 1, 0),), 0, 1), 0))  # s next to t, both pendants
@example((PortGraph(4, ((0, 0, 1, 0), (2, 0, 3, 0)), 0, 1), 2))  # s next to t, and a K2 apart
@example((gen_padded_path(5, 4, 3), 7))  # root a decoy
@example((comb(13, 4), 14))  # a pendant on every fourth node, the end nodes' included; root a pendant
@example((comb(9, 1), 4))  # a pendant on every node: half the nodes of degree 1
@example((comb(9, 3, 2), 11))  # two pendants on every third node
@settings(max_examples=300, deadline=None)
def test_the_core_search_matches_a_plain_bfs(case):
    """The checks of test_bfs_and_route_walk_match_a_plain_bfs with the gate
    open, so every graph's route searches run over its core: the nodes of
    degree > 1, s and t."""
    with mock.patch.object(graph_module, "_core_gate", lambda offsets: offsets[1:] - offsets[:-1]):
        test_bfs_and_route_walk_match_a_plain_bfs.hypothesis.inner_test(case)


def searched_sizes(monkeypatch):
    """The node count of each list graph _bfs is given from now on."""
    sizes, bfs = [], graph_module._bfs
    monkeypatch.setattr(graph_module, "_bfs", lambda offsets, nbr, root: sizes.append(len(offsets) - 1) or bfs(offsets, nbr, root))
    return sizes


def test_a_padded_path_above_the_gate_is_searched_over_its_core(monkeypatch):
    """D=2000, delta=8: 13995 nodes, 11996 of degree 1. The kept search and
    searches between other pairs, decoys included, give the reference walk."""
    g = gen_padded_path(2000, 8, 7)
    sizes = searched_sizes(monkeypatch)
    assert validate(g) is None
    assert g._search[1:] == reference_path(g, g.start, g.treasure)[1:]
    decoys = (2001, 2006, 2007, g.node_count - 1)  # two decoys of node 1, one of node 2, one of node 1999
    pairs = [(decoys[0], g.treasure), (g.start, decoys[1]), (decoys[1], decoys[2]), (decoys[3], decoys[0]), (1000, decoys[3])]
    for s, t in pairs:
        want = reference_path(g, s, t)
        assert shortest_path(g, s, t) == (want[0], want[2])
        assert graph_module._route_search(g, s, t) == (True, want[1], want[2])
    assert len(sizes) == 1 + 2 * len(pairs) and max(sizes) <= 2001  # the 1999 interior nodes, s and t


@pytest.mark.parametrize("dist, delta, core", [(10, 4, None), (170, 4, None), (255, 4, None), (256, 4, 257), (3000, 2, None)])
def test_the_gate_reads_the_graph(dist, delta, core, monkeypatch):
    """The lists hold every node of a graph under _PRUNE_FROM nodes (509 at
    D=170, delta=4) or degree-1 nodes (510 at D=255; 2 at delta=2), and only
    the core from 512 degree-1 nodes (D=256)."""
    g = gen_padded_path(dist, delta, 3)
    sizes = searched_sizes(monkeypatch)
    assert g._search[0] and sizes == [core or g.node_count]


@pytest.mark.parametrize(
    "chain, every, pendants, core",
    [(4000, 4, 1, None), (2000, 1, 1, None), (1000, 1, 2, 1000), (200, 1, 2, None)],
)
def test_the_gate_reads_the_share_of_degree_1_nodes(chain, every, pendants, core, monkeypatch):
    """Combs: a pendant on every fourth node (1001 of 5000 nodes of degree 1)
    or on every node (2000 of 4000, half) are searched over every node; two on
    every node (2000 of 3000) over the core, but not 400 of 600, under the
    512 floor."""
    g = comb(chain, every, pendants)
    sizes = searched_sizes(monkeypatch)
    assert g._search[1:] == reference_path(g, g.start, g.treasure)[1:]
    assert g._search[0] and sizes == [core or g.node_count]
