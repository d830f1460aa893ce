"""Port-to-state encodings and pebble placement.

A pebble parked at a node broadcasts which exit port continues toward the
treasure. Ports are spoken of 1-based here (port j means internal port
j-1) because the encodings index states from 1:

* General: port j maps to the plus vector of family basis (j-1)//2 when j
  is odd, the minus vector when j is even. Decoding inverts that from the
  (basis_index, sign) of a uniform measurement run.
* BitSign4: the degree-4 special case |0>, |1>, |+>, |-> for ports 1..4,
  measured in the bit basis and the sign basis.
* Qudit: port j becomes computational-basis level j-1 of a
  degree-dimensional qudit, read back in one shot.
* Full path: the entire port sequence becomes a single index in
  [1, delta^D], encoded in the general family with delta replaced by
  delta^D. Analysis-only; no walking agent can use it.

This module owns the port code (:func:`port_outcome` and its inverse
:func:`decode_outcome`), the degree rounding of qubit families
(:func:`family_delta`) and the pebbled route (:func:`route`).

A :class:`Placement` holds columns, so placing pebbles builds no object per
node; ``Placement.pebbles`` makes a :class:`QuantumPebble` only when asked.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .graph import PortGraph, _read_only, shortest_path, validate
from .quantum import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    MINUS,
    PLUS,
    MeasurementBasis,
    Outcome,
    QubitState,
    build_basis,
)

__all__ = [
    "EncodingScheme",
    "QuantumPebble",
    "Placement",
    "FULL_PATH_CAP",
    "basis_family",
    "encode_port",
    "decode_outcome",
    "encode_qudit",
    "decode_qudit",
    "encode_full_path",
    "decode_full_path",
    "place_pebbles",
    "placement_to_json",
    "placement_from_json",
]


class EncodingScheme(str, enum.Enum):
    GENERAL = "general"
    BITSIGN4 = "bitsign4"
    QUDIT = "qudit"
    FULL_PATH = "full_path"


# Direct-mode cap for the full-path variant: delta^D states at most.
FULL_PATH_CAP = 1 << 20


def _scheme_named(value, what: str) -> EncodingScheme:
    """The scheme called ``value``; a ValueError names ``what`` and the accepted names otherwise."""
    try:
        return EncodingScheme(value)
    except ValueError:
        raise ValueError(f"{what} must be one of {[s.value for s in EncodingScheme]}, got {value!r}") from None


def family_delta(delta: int) -> int:
    """The even degree bound a qubit family is built for: odd degrees round
    up to the next even value, and the floor is 2."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    return max(2, delta + (delta & 1))


@lru_cache(maxsize=None)
def basis_family(scheme: EncodingScheme, delta: int) -> tuple[MeasurementBasis, ...]:
    """The measurement bases an agent cycles through at one node."""
    fd = family_delta(delta)
    if scheme is EncodingScheme.GENERAL:
        return tuple(build_basis(j, fd) for j in range(fd // 2))
    if scheme is EncodingScheme.BITSIGN4:
        if delta > 4:
            raise ValueError(f"bitsign4 handles degree <= 4, got {delta}")
        return (
            MeasurementBasis(0, 4, KET0, KET1),
            MeasurementBasis(1, 4, KET_PLUS, KET_MINUS),
        )
    raise ValueError(f"scheme {scheme.value} has no qubit basis family")


# bounded: full-path indices run up to delta^D
@lru_cache(maxsize=4096)
def encode_port(j: int, delta: int, scheme: EncodingScheme = EncodingScheme.GENERAL) -> QubitState:
    """State a pebble emits to advertise 1-based exit port ``j``. Calls with
    the same arguments share one state object while it stays cached."""
    if not 1 <= j <= delta:
        raise ValueError(f"port {j} outside 1..{delta}")
    o = port_outcome(j)
    if scheme is EncodingScheme.GENERAL:
        # built on demand: full-path indices make delta far too large to
        # materialize the whole family
        basis = build_basis(o.basis_index, family_delta(delta))
    elif scheme is EncodingScheme.BITSIGN4:
        basis = basis_family(scheme, delta)[o.basis_index]
    else:
        raise ValueError(f"encode_port does not apply to scheme {scheme.value}")
    return basis.plus_vec if o.sign == PLUS else basis.minus_vec


def port_outcome(j: int) -> Outcome:
    """The (basis_index, sign) advertising 1-based port ``j``: basis (j-1)//2,
    plus iff j is odd. Inverse of :func:`decode_outcome`."""
    return Outcome((j - 1) // 2, PLUS if j % 2 else MINUS)


def decode_outcome(o: Outcome, delta: int) -> int:
    """Invert the encoding: a uniform run in basis i with sign s means port
    2i+1 (plus) or 2i+2 (minus). Pure mapping; whether the port fits the
    node's degree (or ``delta`` at all) is the walker's range check."""
    if o.basis_index < 0:
        raise ValueError(f"basis index must be >= 0, got {o.basis_index}")
    return 2 * o.basis_index + (1 if o.sign == PLUS else 2)


def encode_qudit(j: int, delta: int) -> int:
    """Computational-basis level for port ``j`` of a ``delta``-level qudit."""
    if not 1 <= j <= delta:
        raise ValueError(f"port {j} outside 1..{delta}")
    return j - 1


def decode_qudit(level: int) -> int:
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    return level + 1


def encode_full_path(ports: Sequence[int], delta: int) -> tuple[int, int]:
    """Collapse a whole port sequence into one enlarged-family index.

    Returns ``(basis_count, state_index)`` where basis_count = delta^D / 2
    and state_index is the mixed-radix value of the 1-based ports, most
    significant step first, in [1, delta^D]. The emitted state is
    ``encode_port(state_index, delta**D)``.
    """
    if not ports:
        raise ValueError("need at least one port")
    if delta < 2 or delta % 2:
        raise ValueError(f"delta must be an even integer >= 2, got {delta}")
    total = delta ** len(ports)
    if total > FULL_PATH_CAP:
        raise ValueError(f"delta^D = {total} exceeds the direct-mode cap {FULL_PATH_CAP}")
    index = 0
    for p in ports:
        if not 1 <= p <= delta:
            raise ValueError(f"port {p} outside 1..{delta}")
        index = index * delta + (p - 1)
    return total // 2, index + 1


def decode_full_path(state_index: int, delta: int, length: int) -> list[int]:
    """Inverse of encode_full_path's mixed-radix packing."""
    total = delta**length
    if not 1 <= state_index <= total:
        raise ValueError(f"state index {state_index} outside 1..{total}")
    rem = state_index - 1
    ports = []
    for _ in range(length):
        ports.append(rem % delta + 1)
        rem //= delta
    return ports[::-1]


@dataclass(frozen=True)
class QuantumPebble:
    """A stationary emitter: fresh qubits (or qudit levels), one fixed state.

    ``exit_port`` is the 1-based exit port the state encodes; it is
    redundant with ``emitted_state`` but makes serialization and soundness
    checks direct.
    """

    node: int
    emitted_state: Union[QubitState, int]
    exit_port: int


class _Columns(Mapping):
    """Pebbles as read-only columns: ``nodes``, an int array, and ``state_index``,
    an int per node into ``states`` and ``ports``, the distinct pairs of emitted
    state and 1-based exit port. As a Mapping, node to a pebble made on lookup."""

    def __init__(self, nodes: list, index, states, ports) -> None:
        self.nodes, self.states, self.ports = _read_only(np.array(nodes, dtype=np.int64)), tuple(states), tuple(ports)
        self.state_index = _read_only(np.array(index, dtype=np.intp))
        # node -> state index: the walker's membership test and state lookup, one dict lookup each
        self.index_of = dict(zip(nodes, self.state_index.tolist()))

    def __getitem__(self, node: int) -> QuantumPebble:
        k = self.index_of[node]
        return QuantumPebble(node, self.states[k], self.ports[k])

    def __iter__(self) -> Iterator[int]:
        return iter(self.index_of)

    def __len__(self) -> int:
        return len(self.index_of)

    def __reduce__(self):  # rebuilt read-only
        return _Columns, (self.nodes.tolist(), self.state_index, self.states, self.ports)


@dataclass(frozen=True)
class Placement:
    """Where the pebbles sit and what they emit. ``pebbles``, any Mapping of
    node to pebble, is kept as :class:`_Columns` in its order (route order from
    :func:`place_pebbles`); ``nodes``, ``state_index``, ``states`` and the
    node-to-index dict ``index_of`` are those columns, which the walker reads."""

    scheme: EncodingScheme
    delta: int
    pebbles: Mapping[int, QuantumPebble]

    def __post_init__(self) -> None:
        view = self.pebbles
        if not isinstance(view, _Columns):
            table: dict = {}  # (state, exit port) -> index
            index = [table.setdefault((p.emitted_state, p.exit_port), len(table)) for p in view.values()]
            view = _Columns(list(view), index, [s for s, _ in table], [j for _, j in table])
        for name in ("pebbles", "nodes", "state_index", "states", "index_of"):
            object.__setattr__(self, name, view if name == "pebbles" else getattr(view, name))

    def __reduce__(self):  # rebuilt through __post_init__, so the columns are shared again
        return Placement, (self.scheme, self.delta, self.pebbles)


def _route(g: PortGraph) -> tuple[list[int], list[int]]:
    """:func:`route` as its node and port lists: the walk of the route search ``g`` keeps."""
    violation = validate(g)
    if violation is not None:
        raise ValueError(f"invalid graph: {violation}")
    shortest_path(g, g.start, g.treasure)  # a cached lookup, under the name the bench's spans wrap
    return g._search[1:]


def route(g: PortGraph) -> list[tuple[int, int]]:
    """(node, 0-based exit port) for each step of the deterministic
    smallest-port shortest path from start, treasure excluded. An invalid
    graph raises ``ValueError("invalid graph: ...")`` first."""
    return list(zip(*_route(g)))


def place_pebbles(g: PortGraph, scheme: EncodingScheme) -> Placement:
    """One pebble per on-path node (treasure excluded), encoding its exit port.

    The path is :func:`route` (which checks the graph); delta is the graph's
    max degree. The placement's table has one state per port the route uses.
    """
    nodes, ports = _route(g)
    if scheme is EncodingScheme.FULL_PATH:
        raise ValueError("full_path is analysis-only; a walking agent cannot decode it")
    delta = g.max_degree
    used, qudit = sorted(set(ports)), scheme is EncodingScheme.QUDIT
    states = [encode_qudit(j + 1, delta) if qudit else encode_port(j + 1, delta, scheme) for j in used]
    return Placement(scheme, delta, _Columns(nodes, np.searchsorted(used, ports), states, [j + 1 for j in used]))


def placement_to_json(placement: Placement) -> str:
    """JSON form: scheme, delta, and per-pebble (node, basis_index, sign)
    for qubit schemes or (node, level) for the qudit scheme, in the
    placement's column order, which :func:`placement_from_json` keeps."""
    rows = []
    for node, pebble in placement.pebbles.items():
        if placement.scheme is EncodingScheme.QUDIT:
            rows.append({"node": node, "level": pebble.emitted_state})
        else:
            o = port_outcome(pebble.exit_port)
            rows.append({"node": node, "basis_index": o.basis_index, "sign": "+" if o.sign == PLUS else "-"})
    doc = {"scheme": placement.scheme.value, "delta": placement.delta, "pebbles": rows}
    return json.dumps(doc, indent=2)


def _int_field(doc: dict, key: str, prefix: str = "") -> int:
    """``doc[key]``, which must be a JSON integer in 64 bits, not a boolean; ``prefix`` starts the messages."""
    if key not in doc:
        raise ValueError(f'{prefix}needs a "{key}"')
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f'{prefix}"{key}" must be an integer, got {value!r}')
    if not -(2**63) <= value < 2**63:
        raise ValueError(f'{prefix}"{key}" must fit in a 64-bit integer')
    return value


def _json_int(text: str) -> int:
    """An integer literal's value; past int()'s digit limit, 2**64 with its sign, which fails the 64-bit rule as the
    literal does, so _int_field names the key where int() would raise a ValueError naming none."""
    try:
        return int(text)
    except ValueError:  # json hands over only well-formed literals: this is the digit limit
        return -(2**64) if text.startswith("-") else 2**64


def placement_from_json(text: str) -> Placement:
    """Inverse of :func:`placement_to_json`. A document or row that is not an
    object, a missing key, a scheme, delta, node, level or basis index of the
    wrong type, a missing pebble list, a repeated node, a sign other than
    ``+`` or ``-``, a level or port outside the degree and an integer past 64
    bits (past int()'s digit limit too) raise ValueError, naming the row or
    key, as do text that is not JSON and JSON nested past the recursion limit."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("placement JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:  # its message gives the position
        raise ValueError(f"placement JSON is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"placement JSON must be an object, got {type(doc).__name__}")
    if "scheme" not in doc:
        raise ValueError('placement JSON needs a "scheme"')
    scheme = _scheme_named(doc["scheme"], 'placement JSON "scheme"')
    delta = _int_field(doc, "delta", "placement JSON ")
    if not isinstance(doc.get("pebbles"), list):
        raise ValueError('placement JSON needs a "pebbles" list')
    pebbles: dict[int, QuantumPebble] = {}
    for i, row in enumerate(doc["pebbles"]):
        try:
            if not isinstance(row, dict):
                raise ValueError(f"must be an object, got {type(row).__name__}")
            node = _int_field(row, "node")
            if node in pebbles:
                raise ValueError(f"node {node} repeats an earlier row")
            if scheme is EncodingScheme.QUDIT:
                level = _int_field(row, "level")
                if not 0 <= level < delta:
                    raise ValueError(f"level {level} outside 0..{delta - 1}")
                pebbles[node] = QuantumPebble(node, level, decode_qudit(level))
            else:
                if "sign" not in row:
                    raise ValueError('needs a "sign"')
                if row["sign"] not in ("+", "-"):
                    raise ValueError(f"sign must be '+' or '-', got {row['sign']!r}")
                basis = _int_field(row, "basis_index")
                j = decode_outcome(Outcome(basis, PLUS if row["sign"] == "+" else MINUS), delta)
                pebbles[node] = QuantumPebble(node, encode_port(j, delta, scheme), j)
        except ValueError as exc:
            raise ValueError(f"pebble row {i}: {exc}") from None
    return Placement(scheme, delta, pebbles)
