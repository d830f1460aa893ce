"""Reproducible random streams.

Every stochastic routine in this package draws from :class:`RngStream`, a
PCG32 generator (64-bit LCG state, XSH-RR output permutation) with the
reference constants spelled out below. The point is bit-reproducibility:
given the same ``(seed, stream_id)`` pair, any implementation of this
generator produces the same u32 sequence, so experiment results are stable
across machines, processes, and reimplementations.

Stream layout: a uniform double is ``next_u32() * 2**-32`` (one u32 per
draw, exactly representable in float64). Block generation via
:meth:`RngStream.uniforms` is bit-identical to repeated scalar draws; it
jumps the LCG ahead in closed form (state_k = A^k*s + (A^k-1)/(A-1)*inc
mod 2^64) so blocks vectorize without changing the stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream"]

# PCG32 reference constants. The multiplier is the PCG 64-bit default; the
# per-stream increment (2*stream_id + 1) must be odd.
MULTIPLIER = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

_BLOCK = 8192
# _POW[k] = MULTIPLIER**k mod 2^64, _GEO[k] = sum_{i<k} MULTIPLIER**i mod 2^64
_POW: np.ndarray | None = None
_GEO: np.ndarray | None = None


def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    global _POW, _GEO
    if _POW is None:
        pw = [1]
        geo = [0]
        for _ in range(_BLOCK):
            pw.append((pw[-1] * MULTIPLIER) & _MASK64)
            geo.append((geo[-1] * MULTIPLIER + 1) & _MASK64)
        _POW = np.array(pw, dtype=np.uint64)
        _GEO = np.array(geo, dtype=np.uint64)
    return _POW, _GEO


def _output(state: int) -> int:
    """XSH-RR permutation of one 64-bit state word to a u32."""
    xorshifted = (((state >> 18) ^ state) >> 27) & _MASK32
    rot = state >> 59
    return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32


def _output_vec(states: np.ndarray) -> np.ndarray:
    xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)) & np.uint64(_MASK32)
    rot = states >> np.uint64(59)
    left = (np.uint64(32) - rot) & np.uint64(31)
    return ((xorshifted >> rot) | (xorshifted << left)) & np.uint64(_MASK32)


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
        # PCG32 seeding: step, add seed, step.
        self._state = 0
        self._advance(1)
        self._state = (self._state + self.seed) & _MASK64
        self._advance(1)

    def _advance(self, k: int) -> None:
        # state <- A^k * state + (A^k - 1)/(A - 1) * inc, all mod 2^64
        a, b = 1, 0
        mult, plus = MULTIPLIER, self._inc
        while k:
            if k & 1:
                a = (a * mult) & _MASK64
                b = (b * mult + plus) & _MASK64
            plus = (plus * mult + plus) & _MASK64
            mult = (mult * mult) & _MASK64
            k >>= 1
        self._state = (a * self._state + b) & _MASK64

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * MULTIPLIER + self._inc) & _MASK64
        return _output(old)

    def uniform(self) -> float:
        """One double in [0, 1), exactly next_u32() * 2**-32."""
        return self.next_u32() * 2.0**-32

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniform doubles, bit-identical to ``n`` scalar draws."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        pw, geo = _jump_tables()
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            m = min(_BLOCK, n - filled)
            state = np.uint64(self._state)
            inc = np.uint64(self._inc)
            states = pw[:m] * state + geo[:m] * inc  # uint64 wraparound
            out[filled : filled + m] = _output_vec(states) * 2.0**-32
            # scalar jump in Python ints (numpy scalars warn on wraparound)
            self._state = (int(pw[m]) * self._state + int(geo[m]) * self._inc) & _MASK64
            filled += m
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), via floor(u * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return int(self.uniform() * bound)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
