"""Anonymous port-labeled graphs and the two generator families.

Nodes are anonymous: an agent standing at a node sees only its degree and
the local port numbers 0..deg-1. Each undirected edge carries an
independent port number at each endpoint, so an edge is a 4-tuple
``(u, port_at_u, v, port_at_v)``.

Two generators cover the experiments: padded paths (a start-to-treasure
chain whose interior nodes are disguised with pendant decoys and shuffled
port labels) and the 6-node triangle-plus-pendants gadget family used by
the impossibility checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .rng import RngStream

__all__ = [
    "GraphFormatError",
    "PortGraph",
    "GadgetSpec",
    "validate",
    "neighbor_via_port",
    "shortest_path",
    "gen_padded_path",
    "gen_gpqr",
    "gpqr_family",
    "parse_graph",
    "serialize_graph",
]

# Stream id reserved for graph generation, out of the way of per-trial
# streams which use small consecutive ids.
_GEN_STREAM = 0x67726170


class GraphFormatError(ValueError):
    """Raised by parse_graph on syntax or invariant violations."""


@dataclass(frozen=True)
class PortGraph:
    node_count: int
    edges: tuple[tuple[int, int, int, int], ...]
    start: int
    treasure: int

    @cached_property
    def adjacency(self) -> tuple[dict[int, tuple[int, int]], ...]:
        """Per node: port -> (neighbor, entry port at the neighbor)."""
        adj: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in range(self.node_count))
        for u, pu, v, pv in self.edges:
            adj[u][pu] = (v, pv)
            adj[v][pv] = (u, pu)
        return adj

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(self.node_count))

    @cached_property
    def violation(self) -> str | None:
        return _first_violation(self)


def validate(g: PortGraph) -> str | None:
    """None if all invariants hold, else a message naming the first violation.

    Checked in order: node ids in range, start != treasure, no self-loops,
    no parallel edges, contiguous port sets 0..deg-1 at every node,
    connectivity. The answer is cached on the graph, which is frozen.
    """
    return g.violation


def _first_violation(g: PortGraph) -> str | None:
    n = g.node_count
    if n < 2:
        return f"node_count must be >= 2, got {n}"
    if not (0 <= g.start < n):
        return f"start {g.start} is not a valid node id"
    if not (0 <= g.treasure < n):
        return f"treasure {g.treasure} is not a valid node id"
    if g.start == g.treasure:
        return "start equals treasure"
    seen_pairs: set[frozenset[int]] = set()
    ports: list[list[int]] = [[] for _ in range(n)]
    for i, (u, pu, v, pv) in enumerate(g.edges):
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
    for v in range(n):
        if sorted(ports[v]) != list(range(len(ports[v]))):
            return f"port set not contiguous at node {v}: {sorted(ports[v])}"
    # ids, ports and edges are sound by now, so g.adjacency is exact;
    # isolated nodes (empty port set) fall out of the connectivity check
    dist = _bfs(g, 0)
    if -1 in dist:
        return f"not connected: node {dist.index(-1)} unreachable"
    return None


def _bfs(g: PortGraph, root: int) -> list[int]:
    """Hop distance from ``root`` to every node, -1 where unreachable."""
    dist = [-1] * g.node_count
    dist[root] = 0
    queue = [root]
    for cur in queue:  # the loop also visits nodes appended while it runs
        for nbr, _ in g.adjacency[cur].values():
            if dist[nbr] < 0:
                dist[nbr] = dist[cur] + 1
                queue.append(nbr)
    return dist


def neighbor_via_port(g: PortGraph, v: int, port: int) -> tuple[int, int]:
    """Cross the edge leaving ``v`` through ``port``: (neighbor, entry port)."""
    try:
        return g.adjacency[v][port]
    except (IndexError, KeyError):
        raise ValueError(f"node {v} has no port {port}") from None


def shortest_path(g: PortGraph, s: int, t: int) -> tuple[int, list[int]]:
    """BFS distance from s to t plus one witness port sequence.

    Ties are broken by taking the smallest exit port at each step, so the
    returned port list is deterministic.
    """
    n = g.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"invalid endpoint: s={s}, t={t}")
    dist = _bfs(g, t)
    if dist[s] < 0:
        raise ValueError(f"no path from {s} to {t}")
    ports: list[int] = []
    cur = s
    while cur != t:
        for port in sorted(g.adjacency[cur]):
            nbr, _ = g.adjacency[cur][port]
            if dist[nbr] == dist[cur] - 1:
                ports.append(port)
                cur = nbr
                break
    return dist[s], ports


def gen_padded_path(dist: int, delta: int, seed: int) -> PortGraph:
    """Chain of length ``dist`` from start 0 to treasure ``dist``, padded.

    Interior chain nodes get pendant decoys up to degree ``delta`` and a
    seed-determined permutation of their port labels, so the exit port that
    continues toward the treasure is uniform over 0..delta-1. Decoys and
    the two chain endpoints keep degree 1 with port 0.
    """
    if dist < 1:
        raise ValueError(f"dist must be >= 1, got {dist}")
    if delta < 2 or delta % 2:
        raise ValueError(f"delta must be an even integer >= 2, got {delta}")
    # one Fisher-Yates shuffle per interior node, k from delta-1 down to 1;
    # int(u * (k + 1)) is RngStream.below(k + 1) on the same draw
    draws = iter(RngStream(seed, stream_id=_GEN_STREAM).uniforms((dist - 1) * (delta - 1)).tolist())
    # slot k of node i: 0 = toward i-1, 1 = toward i+1, 2.. = decoys
    slot_ports: dict[int, list[int]] = {}
    for i in range(1, dist):
        perm = list(range(delta))
        for k in range(delta - 1, 0, -1):
            j = int(next(draws) * (k + 1))
            perm[k], perm[j] = perm[j], perm[k]
        slot_ports[i] = perm

    def port_toward_next(i: int) -> int:
        return 0 if i == 0 else slot_ports[i][1]

    def port_toward_prev(i: int) -> int:
        return 0 if i == dist else slot_ports[i][0]

    edges: list[tuple[int, int, int, int]] = []
    for i in range(dist):
        edges.append((i, port_toward_next(i), i + 1, port_toward_prev(i + 1)))
    decoy = dist + 1
    for i in range(1, dist):
        for k in range(delta - 2):
            edges.append((i, slot_ports[i][2 + k], decoy, 0))
            decoy += 1
    return PortGraph(node_count=decoy, edges=tuple(edges), start=0, treasure=dist)


# Gadget node ids: triangle S, U, V then pendants T (treasure), U', V'.
_S, _U, _V, _T, _UP, _VP = range(6)
_TRIANGLE_NEIGHBORS = {_S: (_U, _V), _U: (_V, _S), _V: (_S, _U)}
_PENDANT_OF = {_S: _T, _U: _UP, _V: _VP}


@dataclass(frozen=True)
class GadgetSpec:
    """Port labeling of the 6-node triangle-plus-pendants gadget.

    ``pendant_ports = (p, q, r)`` fix which port at S, U, V leads to the
    pendant neighbor; ``swaps`` flip the otherwise-ascending assignment of
    the two remaining ports to the two triangle neighbors (taken in cyclic
    order S->U->V->S). The full (p, q, r) x swaps space enumerates all
    6^3 = 216 labelings.
    """

    pendant_ports: tuple[int, int, int]
    swaps: tuple[bool, bool, bool] = (False, False, False)


def gen_gpqr(spec: GadgetSpec) -> PortGraph:
    """Build the gadget graph for one labeling. Start S, treasure T."""
    if len(spec.pendant_ports) != 3 or any(p not in (0, 1, 2) for p in spec.pendant_ports):
        raise ValueError(f"pendant_ports must be three values in 0..2, got {spec.pendant_ports}")
    port_to: dict[int, dict[int, int]] = {}
    for x, pend_port, swap in zip((_S, _U, _V), spec.pendant_ports, spec.swaps):
        remaining = sorted({0, 1, 2} - {pend_port})
        n1, n2 = _TRIANGLE_NEIGHBORS[x]
        if swap:
            n1, n2 = n2, n1
        port_to[x] = {_PENDANT_OF[x]: pend_port, n1: remaining[0], n2: remaining[1]}
    edges = (
        (_S, port_to[_S][_T], _T, 0),
        (_U, port_to[_U][_UP], _UP, 0),
        (_V, port_to[_V][_VP], _VP, 0),
        (_S, port_to[_S][_U], _U, port_to[_U][_S]),
        (_U, port_to[_U][_V], _V, port_to[_V][_U]),
        (_S, port_to[_S][_V], _V, port_to[_V][_S]),
    )
    return PortGraph(node_count=6, edges=edges, start=_S, treasure=_T)


def gpqr_family() -> list[tuple[GadgetSpec, PortGraph]]:
    """All 216 gadget labelings, in lexicographic spec order."""
    out = []
    for p, q, r in product(range(3), repeat=3):
        for swaps in product((False, True), repeat=3):
            spec = GadgetSpec((p, q, r), swaps)
            out.append((spec, gen_gpqr(spec)))
    return out


def parse_graph(text: str) -> PortGraph:
    """Parse the plain-text graph format.

    Line 1: ``n m``. Line 2: ``start treasure``. Then m lines
    ``u port_at_u v port_at_v``. ``#`` starts a comment; blank lines are
    skipped. Ids and ports are 0-based. Invariant violations are rejected
    with the validate() message.
    """
    rows: list[tuple[int, list[int]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        fields = []
        for tok in body.split():
            try:
                fields.append(int(tok))
            except ValueError:
                raise GraphFormatError(f"line {ln}: expected integer, got {tok!r}") from None
        rows.append((ln, fields))
    if len(rows) < 2:
        raise GraphFormatError("need at least a header line and a start/treasure line")
    ln, header = rows[0]
    if len(header) != 2:
        raise GraphFormatError(f"line {ln}: header must be 'n m'")
    n, m = header
    ln, meta = rows[1]
    if len(meta) != 2:
        raise GraphFormatError(f"line {ln}: expected 'start treasure'")
    start, treasure = meta
    if len(rows) - 2 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 2}")
    edges = []
    for ln, fields in rows[2:]:
        if len(fields) != 4:
            raise GraphFormatError(f"line {ln}: edge lines are 'u port_at_u v port_at_v'")
        edges.append(tuple(fields))
    g = PortGraph(node_count=n, edges=tuple(edges), start=start, treasure=treasure)
    violation = validate(g)
    if violation is not None:
        raise GraphFormatError(f"invalid graph: {violation}")
    return g


def serialize_graph(g: PortGraph) -> str:
    """Canonical text form: edges oriented u < v and sorted by (u, port)."""
    oriented = []
    for u, pu, v, pv in g.edges:
        if u > v:
            u, pu, v, pv = v, pv, u, pu
        oriented.append((u, pu, v, pv))
    oriented.sort()
    lines = [f"{g.node_count} {len(oriented)}", f"{g.start} {g.treasure}"]
    lines.extend(f"{u} {pu} {v} {pv}" for u, pu, v, pv in oriented)
    return "\n".join(lines) + "\n"
