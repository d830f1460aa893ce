"""Anonymous port-labeled graphs and the two generator families.

Nodes are anonymous: an agent standing at a node sees only its degree and
the local port numbers 0..deg-1. Each undirected edge carries an
independent port number at each endpoint, so an edge is a row
``(u, port_at_u, v, port_at_v)`` of the graph's read-only (m, 4) int array.

Lookups go through a CSR form built by a counting sort: port p of node v
leads to ``neighbor[offsets[v] + p]``, entered through ``entry[offsets[v] + p]``.
Each graph keeps one route search: a BFS from the treasure, which enqueues no
degree-1 node, and the smallest-port walk from the start, both over the core
(the other nodes, the start and the treasure) of a graph mostly of degree-1 nodes.
Validation's connectivity check and :func:`shortest_path` read it, and the
pebbled route is the nodes that walk leaves beside their ports.

Two generators cover the experiments: padded paths (a start-to-treasure
chain whose interior nodes are disguised with pendant decoys and shuffled
port labels) and the 6-node triangle-plus-pendants gadget family used by
the impossibility checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PortGraph:
    """``edges`` (any (m, 4) integer array-like) is kept as a read-only int64
    copy, so the cached answers below cannot go stale; graphs compare by
    identity. The CSR lookups are exact once :func:`validate` passes."""

    node_count: int
    edges: np.ndarray
    start: int
    treasure: int

    def __post_init__(self) -> None:
        try:
            edges = np.array(self.edges, dtype=np.int64)
        except OverflowError:
            raise ValueError("edge entries must fit in 64-bit integers") from None
        if edges.size == 0:
            edges = edges.reshape(0, 4)
        if edges.ndim != 2 or edges.shape[1] != 4:
            raise ValueError("edges must be rows (u, port_at_u, v, port_at_v)")
        object.__setattr__(self, "edges", _read_only(edges))

    def __reduce__(self):
        # rebuild through __init__: the copy is read-only again and caches nothing
        return PortGraph, (self.node_count, self.edges, self.start, self.treasure)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (offsets, neighbor, entry port): each edge end, u's then
        v's, scattered to its slot offsets[node] + port."""
        ends, ports = self.edges[:, ::2].T.ravel(), self.edges[:, 1::2].T.ravel()
        offsets = np.zeros(self.node_count + 1, dtype=np.int64)
        np.bincount(ends, minlength=self.node_count).cumsum(out=offsets[1:])
        slot = offsets[ends] + ports
        m = len(self.edges)
        nbr, entry = np.empty_like(ends), np.empty_like(ends)
        nbr[slot[:m]], nbr[slot[m:]] = ends[m:], ends[:m]
        entry[slot[:m]], entry[slot[m:]] = ports[m:], ports[:m]
        return _read_only(offsets), _read_only(nbr), _read_only(entry)

    def degree(self, v: int) -> int:
        offsets = self.csr[0]
        return offsets.item(v + 1) - offsets.item(v)

    @cached_property
    def max_degree(self) -> int:
        offsets = self.csr[0]
        return int((offsets[1:] - offsets[:-1]).max())

    @cached_property
    def violation(self) -> str | None:
        return _first_violation(self)

    @cached_property
    def _search(self) -> tuple[bool, list[int] | None, list[int] | None]:
        """_route_search from the start to the treasure: whether every node
        reaches the treasure, and the route's nodes and ports."""
        return _route_search(self, self.start, self.treasure)


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
    edges = g.edges
    u, v = edges[:, 0], edges[:, 2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # equal keys are parallel edges; a key wrapped by a bad id is never first
    key = lo * n + hi
    order = key.argsort(kind="stable")
    twin = np.zeros(len(key), dtype=bool)
    twin[order[1:]] = key[order[1:]] == key[order[:-1]]
    flagged = ((lo < 0) | (hi >= n) | (lo == hi) | twin).nonzero()[0]
    if flagged.size:
        i = int(flagged[0])
        a, b = int(u[i]), int(v[i])
        for node in (a, b):
            if not 0 <= node < n:
                return f"edge {i} references invalid node {node}"
        if a == b:
            return f"self-loop at edge {i} (node {a})"
        return f"parallel edge at edge {i} ({a}-{b})"
    # ports 0..deg-1 are deg distinct values in [0, deg): one end per CSR slot
    ends, ports = edges[:, ::2].T.ravel(), edges[:, 1::2].T.ravel()
    deg = np.bincount(ends, minlength=n)
    fits = (ports >= 0) & (ports < deg[ends])
    slot = np.where(fits, deg.cumsum()[ends] - deg[ends] + ports, 0)
    bad = ends[~fits | (np.bincount(slot[fits], minlength=len(slot))[slot] > 1)]
    if bad.size:
        node = int(bad.min())
        return f"port set not contiguous at node {node}: {sorted(ports[ends == node].tolist())}"
    # ids, ports and edges are sound by now, so g.csr is exact; isolated nodes
    # (empty port set) fall out of the connectivity check, named as from node 0
    if not g._search[0]:
        dist = _bfs(g.csr[0].tolist(), g.csr[1].tolist(), 0)
        return f"not connected: node {dist.index(-1)} unreachable"
    return None


def _bfs(offsets: list[int], nbr: list[int], root: int) -> list[int]:
    """Hop distance from ``root`` to every node, -1 where unreachable, over the
    CSR offsets and neighbours as int lists: a whole graph's, or its core's from
    _route_search. A degree-1 node other than the root is not enqueued: its one
    neighbour found it."""
    dist = [-1] * (len(offsets) - 1)
    dist[root] = 0
    queue = [root]
    for cur in queue:  # the loop also visits nodes appended while it runs
        d = dist[cur] + 1
        for w in nbr[offsets[cur] : offsets[cur + 1]]:
            if dist[w] < 0:
                dist[w] = d
                if offsets[w + 1] - offsets[w] > 1:
                    queue.append(w)
    return dist


def neighbor_via_port(g: PortGraph, v: int, port: int) -> tuple[int, int]:
    """Cross the edge leaving ``v`` through ``port``: (neighbor, entry port)."""
    if not (0 <= v < g.node_count and 0 <= port < g.degree(v)):
        raise ValueError(f"node {v} has no port {port}")
    offsets, nbr, entry = g.csr
    i = int(offsets[v]) + port
    return int(nbr[i]), int(entry[i])


# _route_search searches only the core of a graph with this many nodes and degree-1 nodes or more, and
# only if the degree-1 nodes are more than half of it. Plain against core, in process on a 2-core machine,
# padded paths: 599 nodes, 400 of degree 1 (δ=4), 128-150 against 130-161 µs; 695, 596 (δ=8), 185 against
# 125 µs; 140k (δ=8), 24 against 11 ms; 90k, 60k (δ=4), 21 against 16 ms; 10⁵, none (δ=2), 39 against
# 51-60 ms. Combs, a 50k chain with a pendant on every fourth node or on every node: 62.5k, 12.5k of
# degree 1, 19-20 against 29-30 ms; 100k, 50k, 25 against 25 ms.
_PRUNE_FROM = 512


def _core_gate(offsets: np.ndarray) -> np.ndarray | None:
    """The node degrees from CSR ``offsets`` if _route_search should search only
    the graph's core (see _PRUNE_FROM), else None."""
    n = len(offsets) - 1
    if n < _PRUNE_FROM:
        return None
    deg = offsets[1:] - offsets[:-1]
    leaves = np.count_nonzero(deg == 1)
    return deg if leaves >= _PRUNE_FROM and 2 * leaves > n else None


def _route_search(g: PortGraph, s: int, t: int) -> tuple[bool, list[int] | None, list[int] | None]:
    """_bfs from t and the smallest-port walk from s: whether every node
    reaches t, and the nodes the walk leaves and the port it leaves each by,
    both None if s does not reach t. The CSR becomes int lists here, for the
    per-step lookups, and is dropped with them. Past _core_gate they hold only the
    core, s, t and the nodes of degree > 1, joined by its CSR entries in port order:
    no shortest path passes another node, and one is reached iff its neighbour is."""
    offsets, nbr = g.csr[0], g.csr[1]
    n, core, hangs = g.node_count, None, True
    if (deg := _core_gate(offsets)) is not None:
        keep = deg > 1
        keep[[s, t]] = True
        own, to = np.repeat(keep, deg), keep[nbr]  # per CSR entry: its node, its neighbour in the core
        core, slot = keep.nonzero()[0], (own & to).nonzero()[0]
        # the rest is connected iff every node outside the core has one entry, leading into it
        hangs = bool(np.count_nonzero(to & ~own) == n - len(core))
        rank, offsets = keep.cumsum() - 1, slot.searchsorted(offsets[np.append(core, n)])
        nbr, s, t = rank[nbr[slot]], int(rank[s]), int(rank[t])
    off, nb = offsets.tolist(), nbr.tolist()
    dist = _bfs(off, nb, t)
    if dist[s] < 0:
        return False, None, None
    nodes, ports, cur = [], [], s
    while cur != t:
        # neighbours in port order; one is a step closer to t
        lo, port, closer = off[cur], 0, dist[cur] - 1
        while dist[nb[lo + port]] != closer:
            port += 1
        nodes.append(cur)
        ports.append(port)
        cur = nb[lo + port]
    if core is not None:  # core ranks and list ports back to the graph's nodes and ports
        nodes, at = core[nodes], slot[offsets[nodes] + np.array(ports, np.int64)]
        nodes, ports = nodes.tolist(), (at - g.csr[0][nodes]).tolist()
    return hangs and -1 not in dist, nodes, ports


def shortest_path(g: PortGraph, s: int, t: int) -> tuple[int, list[int]]:
    """BFS distance from s to t plus one witness port sequence.

    Ties are broken by taking the smallest exit port at each step, so the
    returned port list is deterministic. From the start to the treasure it
    reads the graph's kept search; other pairs are searched afresh.
    """
    n = g.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"invalid endpoint: s={s}, t={t}")
    _, _, ports = g._search if (s, t) == (g.start, g.treasure) else _route_search(g, s, t)
    if ports is None:
        raise ValueError(f"no path from {s} to {t}")
    return len(ports), list(ports)


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
    # a Fisher-Yates shuffle per interior node, k from delta-1 down to 1, run
    # column-wise; int(u * (k + 1)) is RngStream.below(k + 1) on the same draw.
    # Slot k of node i (row i-1): 0 = toward i-1, 1 = toward i+1, 2.. = decoys
    draws = RngStream(seed, stream_id=_GEN_STREAM).uniforms((dist - 1) * (delta - 1)).reshape(dist - 1, delta - 1)
    slots = np.empty((dist - 1, delta), dtype=np.int64)
    slots[:] = np.arange(delta)
    # flat index of each row's pick j, so a swap with column k is three moves
    picks = (draws * np.arange(delta, 1, -1)).astype(np.int64) + np.arange(0, slots.size, delta)[:, None]
    flat = slots.ravel()
    for col, k in enumerate(range(delta - 1, 0, -1)):
        j = picks[:, col]
        held = flat[j]
        flat[j] = slots[:, k]
        slots[:, k] = held
    decoys = (dist - 1) * (delta - 2)
    # chain edges i -> i+1, then each node's decoys; endpoints and decoys use port 0
    ids = np.arange(dist + 1 + decoys)
    edges = np.zeros((dist + decoys, 4), dtype=np.int64)
    edges[:dist, 0], edges[:, 2] = ids[:dist], ids[1:]
    edges[1:dist, 1], edges[: dist - 1, 3] = slots[:, 1], slots[:, 0]
    edges[dist:, 0] = ids[1:dist].repeat(delta - 2)
    edges[dist:, 1] = slots[:, 2:].ravel()
    return PortGraph(node_count=dist + 1 + decoys, edges=edges, start=0, treasure=dist)


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
    skipped. Ids and ports are 0-based. A header with more nodes than edges
    plus one is rejected before the graph is built, since a connected graph
    needs m >= n - 1; other invariant violations are rejected with the
    validate() message.
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
    head, header = rows[0]
    if len(header) != 2:
        raise GraphFormatError(f"line {head}: header must be 'n m'")
    n, m = header
    ln, meta = rows[1]
    if len(meta) != 2:
        raise GraphFormatError(f"line {ln}: expected 'start treasure'")
    start, treasure = meta
    if len(rows) - 2 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 2}")
    if n > m + 1:  # checked before any array grows with n
        raise GraphFormatError(f"line {head}: {n} nodes need at least {n - 1} edges to be connected, got {m}")
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
    oriented = sorted((u, pu, v, pv) if u <= v else (v, pv, u, pu) for u, pu, v, pv in g.edges.tolist())
    lines = [f"{g.node_count} {len(oriented)}", f"{g.start} {g.treasure}"]
    lines.extend(f"{u} {pu} {v} {pv}" for u, pu, v, pv in oriented)
    return "\n".join(lines) + "\n"
