"""Reproducible random streams.

Every stochastic routine in this package draws from :class:`RngStream`, a
PCG32 generator (64-bit LCG state, XSH-RR output permutation) with the
reference constants spelled out below. The point is bit-reproducibility:
given the same ``(seed, stream_id)`` pair, any implementation of this
generator produces the same u32 sequence, so experiment results are stable
across machines, processes, and reimplementations.

Stream layout: a uniform double is ``next_u32() * 2**-32`` (one u32 per
draw, exactly representable in float64). The LCG jumps ahead in closed
form (state_o = A^o*s + (A^o-1)/(A-1)*inc mod 2^64), so
:meth:`RngStream.run_states`, the one array draw, reads draws at any offsets,
bit-identical to repeated scalar draws: XSH-RR of A^o*s + G_o*inc, with the
jumps (A^o, G_o) of the offsets kept by a caller that reads them in many
streams, or else along each run from its first state, jumped to or carried
from a previous read. It builds draw-major rows, one per position in the runs
and one for the states after them, so its arithmetic and a caller's reduction
along each run (the fixed-n walk's min and max) go across the runs.
:meth:`RngStream.uniforms` is the run at offset 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream"]

# PCG32 reference constants. The multiplier is the PCG 64-bit default; the
# per-stream increment (2*stream_id + 1) must be odd.
MULTIPLIER = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

_BLOCK = 8192  # 2**13
# _POW[k] = MULTIPLIER**k, _GEO[k] = sum_{i<k} MULTIPLIER**i, _POW2 and _GEO2
# the same at k * _BLOCK; uint64 products and sums wrap mod 2^64, the LCG's modulus
_POW = np.multiply.accumulate(np.r_[np.uint64(1), np.full(_BLOCK, MULTIPLIER, dtype=np.uint64)])
_GEO = np.r_[np.uint64(0), np.cumsum(_POW[:-1])]
_POW2 = np.multiply.accumulate(np.r_[np.uint64(1), np.full(_BLOCK, _POW[-1], dtype=np.uint64)])
_GEO2 = np.r_[np.uint64(0), np.cumsum(_POW2[:-1] * _GEO[-1])]


def _jump(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^o, G_o) for each offset o >= 0 of an integer array, the state o steps
    past s being A^o*s + G_o*inc: from the tables below 2^26, by squaring above."""
    lo, hi = offsets & (_BLOCK - 1), offsets >> 13
    a, c = _POW.take(lo), _GEO.take(lo)
    if hi.any():
        if (hi < 0).any():  # an arithmetic shift keeps hi at -1, so the loop below would never end
            raise ValueError(f"stream offsets must be >= 0, got {offsets.min()}")
        mid = hi & (_BLOCK - 1)
        a, c = _POW2.take(mid) * a, _POW2.take(mid) * c + _GEO2.take(mid)
        hi, step_a, step_c = hi >> 13, _POW2[-1:], _GEO2[-1:]
        while hi.any():
            odd = (hi & 1) == 1
            a, c = np.where(odd, a * step_a, a), np.where(odd, c * step_a + step_c, c)
            hi, step_a, step_c = hi >> 1, step_a * step_a, step_c * step_a + step_c
    return a, c


def _run_jumps(starts: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(A^o, G_o) for the offsets o = starts[i] + j, j < length, as two draw-major (length, len(starts)) arrays."""
    a, c = _jump(starts)
    return _POW[:length, None] * a, _POW[:length, None] * c + _GEO[:length, None]


def _output(state: int) -> int:
    """XSH-RR permutation of one 64-bit state word to a u32."""
    xorshifted = (((state >> 18) ^ state) >> 27) & _MASK32
    rot = state >> 59
    return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32


# _output_vec's operands as uint64 scalars: numpy converts a Python int operand per call
_U18, _U27, _U59, _UMASK32, _UTWICE = map(np.uint64, (18, 27, 59, _MASK32, 0x100000001))


def _output_vec(states: np.ndarray) -> np.ndarray:
    """_output over a uint64 array, to uint32, in place, so never on a kept array: the
    32-bit xorshift is copied into both halves of a word, so a right shift by rot rotates it."""
    rot = states >> _U59
    states ^= states >> _U18
    states >>= _U27
    states &= _UMASK32
    states *= _UTWICE
    states >>= rot
    return states.astype(np.uint32)


class RngStream:
    """One independent PCG32 stream, identified by ``(seed, stream_id)``.

    Identical ``(seed, stream_id)`` pairs yield identical sequences;
    distinct stream ids give statistically independent streams off the same
    seed, which is how per-trial streams stay stable under parallelism.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        self._inc = ((self.stream_id << 1) | 1) & _MASK64
        # PCG32 seeding: step from 0 (giving inc), add the seed, step.
        self._state = ((self._inc + self.seed) * MULTIPLIER + self._inc) & _MASK64

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * MULTIPLIER + self._inc) & _MASK64
        return _output(old)

    def uniform(self) -> float:
        """One double in [0, 1), exactly next_u32() * 2**-32."""
        return self.next_u32() * 2.0**-32

    def runs(self, starts: np.ndarray, length: int) -> np.ndarray:
        """The draws of ``run_states(starts, length)``."""
        return self.run_states(starts, length)[0]

    def run_states(self, starts: np.ndarray, length: int, states=None, jumps: tuple | None = None) -> tuple:
        """The u32 draws at ``starts[i] + j`` >= 0 past the current position, j < ``length`` <= 8192 (a transposed
        draw-major array), and the LCG states after them, which a call reading on passes as ``states``; a caller reading
        these offsets in many streams keeps ``jumps = _run_jumps(starts, length + 1)``. The stream does not move."""
        if length > _BLOCK:
            raise ValueError(f"run length must be <= {_BLOCK}, got {length}")
        state, inc = np.uint64(self._state), np.uint64(self._inc)
        if jumps is None:  # jump to each run's first state unless carried, then along the run from there
            if states is None:
                a, c = _jump(starts)
                states = a * state + c * inc
            state, jumps = states, (_POW[: length + 1, None], _GEO[: length + 1, None])
        rows = jumps[0] * state + jumps[1] * inc  # uint64 wraparound; a fresh array, with a row for the states
        return _output_vec(rows[:length]).T, rows[length]

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniform doubles, bit-identical to ``n`` scalar draws."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        # the run at offset 0, in rows of _BLOCK draws
        u32 = self.runs(np.arange(0, n, _BLOCK), min(n, _BLOCK)).ravel()[:n]
        # then the stream moves to offset n, by the tables' jump while n is in them
        a, c = (_POW[n], _GEO[n]) if n <= _BLOCK else [x[0] for x in _jump(np.array([n]))]
        self._state = (int(a) * self._state + int(c) * self._inc) & _MASK64
        return u32 * 2.0**-32

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), via floor(u * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return int(self.uniform() * bound)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

