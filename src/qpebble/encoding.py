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
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .graph import PortGraph, shortest_path, validate
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


def family_delta(delta: int) -> int:
    """The even degree bound a qubit family is built for: odd degrees round
    up to the next even value, and the floor is 2."""
    return max(2, delta + (delta & 1))


@lru_cache(maxsize=None)
def basis_family(scheme: EncodingScheme, delta: int) -> tuple[MeasurementBasis, ...]:
    """The measurement bases an agent cycles through at one node."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if scheme is EncodingScheme.GENERAL:
        fd = family_delta(delta)
        return tuple(build_basis(j, fd) for j in range(fd // 2))
    if scheme is EncodingScheme.BITSIGN4:
        if delta > 4:
            raise ValueError(f"bitsign4 handles degree <= 4, got {delta}")
        return (
            MeasurementBasis(0, 4, KET0, KET1),
            MeasurementBasis(1, 4, KET_PLUS, KET_MINUS),
        )
    raise ValueError(f"scheme {scheme.value} has no qubit basis family")


def encode_port(j: int, delta: int, scheme: EncodingScheme = EncodingScheme.GENERAL) -> QubitState:
    """State a pebble emits to advertise 1-based exit port ``j``."""
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


@dataclass(frozen=True)
class Placement:
    """Where the pebbles sit and what they emit."""

    scheme: EncodingScheme
    delta: int
    pebbles: Mapping[int, QuantumPebble]


def route(g: PortGraph) -> list[tuple[int, int]]:
    """(node, 0-based exit port) for each step of the deterministic
    smallest-port shortest path from start, treasure excluded. An invalid
    graph raises ``ValueError("invalid graph: ...")`` first."""
    violation = validate(g)
    if violation is not None:
        raise ValueError(f"invalid graph: {violation}")
    _, ports = shortest_path(g, g.start, g.treasure)
    steps = []
    cur = g.start
    for port in ports:
        steps.append((cur, port))
        cur = g.adjacency[cur][port][0]
    return steps


def place_pebbles(g: PortGraph, scheme: EncodingScheme) -> Placement:
    """One pebble per on-path node (treasure excluded), encoding its exit port.

    The path is :func:`route` (which checks the graph); delta is the graph's max degree.
    """
    steps = route(g)
    if scheme is EncodingScheme.FULL_PATH:
        raise ValueError("full_path is analysis-only; a walking agent cannot decode it")
    delta = g.max_degree
    pebbles: dict[int, QuantumPebble] = {}
    for node, port in steps:
        j = port + 1
        if scheme is EncodingScheme.QUDIT:
            state: Union[QubitState, int] = encode_qudit(j, delta)
        else:
            state = encode_port(j, delta, scheme)
        pebbles[node] = QuantumPebble(node, state, j)
    return Placement(scheme=scheme, delta=delta, pebbles=pebbles)


def placement_to_json(placement: Placement) -> str:
    """JSON form: scheme, delta, and per-pebble (node, basis_index, sign)
    for qubit schemes or (node, level) for the qudit scheme."""
    rows = []
    for node in sorted(placement.pebbles):
        pebble = placement.pebbles[node]
        if placement.scheme is EncodingScheme.QUDIT:
            rows.append({"node": node, "level": pebble.emitted_state})
        else:
            o = port_outcome(pebble.exit_port)
            rows.append(
                {
                    "node": node,
                    "basis_index": o.basis_index,
                    "sign": "+" if o.sign == PLUS else "-",
                }
            )
    doc = {"scheme": placement.scheme.value, "delta": placement.delta, "pebbles": rows}
    return json.dumps(doc, indent=2)


def placement_from_json(text: str) -> Placement:
    doc = json.loads(text)
    scheme = EncodingScheme(doc["scheme"])
    delta = doc["delta"]
    pebbles: dict[int, QuantumPebble] = {}
    for row in doc["pebbles"]:
        node = row["node"]
        if scheme is EncodingScheme.QUDIT:
            level = row["level"]
            pebbles[node] = QuantumPebble(node, level, decode_qudit(level))
        else:
            j = decode_outcome(Outcome(row["basis_index"], PLUS if row["sign"] == "+" else MINUS), delta)
            pebbles[node] = QuantumPebble(node, encode_port(j, delta, scheme), j)
    return Placement(scheme=scheme, delta=delta, pebbles=pebbles)
