"""Single-qubit states, measurement bases, and Born sampling.

The measurement side of the protocol only ever needs one qubit at a time:
the pebble at a node emits fresh qubits in one fixed state, and the agent
measures each one in some orthonormal basis. The basis family used for
port decoding is parametrized by an index ``j`` and the (even) degree
bound ``delta``::

    plus  = (|0> + e^{i j phi} |1>) / sqrt(2)
    minus = (|0> - e^{i j phi} |1>) / sqrt(2)      phi = pi / delta

Index ``j = 0`` gives the Hadamard pair. Overlaps between family members
have the closed forms ``(1 +- cos((k - j) phi)) / 2``, bounded by
``delta_bound(delta) = cos^2(pi / (2 delta))``.

This module owns the certainty rule, :func:`snap_certain`. Every sampler,
here and in ``agent``, compares a uniform draw with the snapped Born
probability, so all of them give the same sign for the same draw.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .rng import RngStream

__all__ = [
    "PLUS",
    "MINUS",
    "QubitState",
    "MeasurementBasis",
    "Outcome",
    "KET0",
    "KET1",
    "KET_PLUS",
    "KET_MINUS",
    "build_basis",
    "born_probability",
    "cross_overlap_closed_form",
    "sample_measurement",
    "bloch_angles",
    "delta_bound",
]

PLUS = 1
MINUS = -1

_NORM_TOL = 1e-12
# Born probabilities this close to 0 or 1 are certainty (snap_certain).
_CERTAINTY_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """A pure single-qubit state ``amp0 |0> + amp1 |1>``, unit norm."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r}, not 1 within {_NORM_TOL}")

    def canonical(self) -> QubitState:
        """Global-phase-normalized copy: amp0 real non-negative.

        If amp0 vanishes, amp1 is rotated to be real positive instead, so
        equal rays compare equal.
        """
        rot = cmath.exp(-1j * cmath.phase(self.amp0 if abs(self.amp0) > _CERTAINTY_TOL else self.amp1))
        return QubitState(self.amp0 * rot, self.amp1 * rot)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
KET0 = QubitState(1.0 + 0j, 0j)
KET1 = QubitState(0j, 1.0 + 0j)
KET_PLUS = QubitState(_INV_SQRT2 + 0j, _INV_SQRT2 + 0j)
KET_MINUS = QubitState(_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j)


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal pair with a family position ``index``.

    ``index`` is what decoding reads; the vectors define the physics. For
    bases built by :func:`build_basis` the vectors follow the
    ``(|0> +- e^{i j phi} |1>)/sqrt(2)`` form; the bit basis used by the
    four-port scheme stores plain ``|0>``, ``|1>`` instead.
    """

    index: int
    delta: int
    plus_vec: QubitState
    minus_vec: QubitState


@dataclass(frozen=True)
class Outcome:
    """One measurement record: which basis, and which eigenvector fired."""

    basis_index: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


def build_basis(j: int, delta: int) -> MeasurementBasis:
    """Basis ``j`` of the family at angle step phi = pi/delta.

    ``delta`` must be even and >= 2; ``j`` ranges over [0, delta/2).
    """
    if delta < 2 or delta % 2:
        raise ValueError(f"delta must be an even integer >= 2, got {delta}")
    if not 0 <= j < delta // 2:
        raise ValueError(f"basis index {j} outside [0, {delta // 2})")
    phase = cmath.exp(1j * j * math.pi / delta)
    plus = QubitState(_INV_SQRT2 + 0j, phase * _INV_SQRT2)
    minus = QubitState(_INV_SQRT2 + 0j, -phase * _INV_SQRT2)
    return MeasurementBasis(j, delta, plus, minus)


def born_probability(state: QubitState, vec: QubitState) -> float:
    """|<vec|state>|^2, clipped into [0, 1]."""
    ip = vec.amp0.conjugate() * state.amp0 + vec.amp1.conjugate() * state.amp1
    p = abs(ip) ** 2
    return min(max(p, 0.0), 1.0)


def cross_overlap_closed_form(j: int, k: int, sign_j: int, sign_k: int, delta: int) -> float:
    """Closed-form |<k, sign_k | j, sign_j>|^2 inside one family.

    Same signs give (1 + cos((k - j) phi))/2, opposite signs
    (1 - cos((k - j) phi))/2, with phi = pi/delta.
    """
    c = math.cos((k - j) * math.pi / delta)
    return 0.5 * (1.0 + c) if sign_j == sign_k else 0.5 * (1.0 - c)


def snap_certain(p: float) -> float:
    """Born probability ``p``, snapped to exactly 0 or 1 when within 1e-12 of
    it, so probability-1 events (a correct-basis run) are exact."""
    if p >= 1.0 - _CERTAINTY_TOL:
        return 1.0
    if p <= _CERTAINTY_TOL:
        return 0.0
    return p


def sample_measurement(state: QubitState, basis: MeasurementBasis, rng: RngStream) -> Outcome:
    """Measure one fresh qubit; consumes exactly one uniform draw.

    The draw is thresholded against :func:`snap_certain` of the Born
    probability, so eigenstate measurements are deterministic. It is
    consumed either way to keep the stream position independent of the
    state being measured.
    """
    p_plus = snap_certain(born_probability(state, basis.plus_vec))
    # u lies in [0, 1), so a snapped 1 always gives plus and a snapped 0 minus
    return Outcome(basis.index, PLUS if rng.uniform() < p_plus else MINUS)


def bloch_angles(state: QubitState) -> tuple[float, float]:
    """Polar representation (theta, phi) with amp0 = cos(theta) >= 0.

    Non-half-angle convention: after global-phase normalization,
    ``state = cos(theta)|0> + sin(theta) e^{i phi} |1>`` with phi kept in
    [0, pi) and theta in [0, 2pi) absorbing the sign of sin(theta). A state
    with amp0 = 0 is globally-phase-equal to |1>, so it maps to (pi/2, 0).
    """
    s = state.canonical()
    a0 = s.amp0.real
    if a0 <= _CERTAINTY_TOL:
        # canonical() made amp1 real positive here; the phase is gone
        return math.pi / 2.0, 0.0
    a1 = abs(s.amp1)
    # atan2 keeps full precision at both poles, where acos(a0) would
    # collapse to 0 once a0 rounds to 1 and the fold below would then
    # emit an out-of-range theta == 2 pi
    theta = math.atan2(a1, a0)
    if a1 <= _CERTAINTY_TOL:
        return theta, 0.0
    psi = cmath.phase(s.amp1)
    # snap rounding dust at the branch cuts, else a phase of -1e-16 folds
    # to an out-of-range phi == pi
    if abs(psi) <= _CERTAINTY_TOL:
        return theta, 0.0
    if abs(abs(psi) - math.pi) <= _CERTAINTY_TOL:
        return 2.0 * math.pi - theta, 0.0
    if 0.0 < psi < math.pi:
        return theta, psi
    # lower half-plane phase: fold into [0, pi) and flip sin(theta)
    phi = psi + math.pi if psi < 0.0 else psi - math.pi
    return 2.0 * math.pi - theta, phi


def delta_bound(delta: int) -> float:
    """Worst-case wrong-basis mimic probability cos^2(pi / (2 delta))."""
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    return math.cos(math.pi / (2.0 * delta)) ** 2
