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

from typing import Iterator

import numpy as np

__all__ = ["RngStream"]

# PCG32 reference constants. The multiplier is the PCG 64-bit default; the
# per-stream increment (2*stream_id + 1) must be odd.
MULTIPLIER = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

_BLOCK = 8192
# _POW[k] = MULTIPLIER**k mod 2^64, _GEO[k] = sum_{i<k} MULTIPLIER**i mod 2^64;
# uint64 products and sums wrap mod 2^64, which is the LCG's modulus
_POW = np.multiply.accumulate(np.r_[np.uint64(1), np.full(_BLOCK, MULTIPLIER, dtype=np.uint64)])
_GEO = np.r_[np.uint64(0), np.cumsum(_POW[:-1])]


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
        # PCG32 seeding: step from 0 (giving inc), add the seed, step.
        self._state = ((self._inc + self.seed) * MULTIPLIER + self._inc) & _MASK64

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
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            m = min(_BLOCK, n - filled)
            states = _POW[:m] * np.uint64(self._state) + _GEO[:m] * np.uint64(self._inc)  # uint64 wraparound
            out[filled : filled + m] = _output_vec(states) * 2.0**-32
            # scalar jump in Python ints (numpy scalars warn on wraparound)
            self._state = (int(_POW[m]) * self._state + int(_GEO[m]) * self._inc) & _MASK64
            filled += m
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), via floor(u * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return int(self.uniform() * bound)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def buffered_uniforms(rng: RngStream) -> Iterator[float]:
    """The uniforms of ``rng`` in order, drawn in blocks of 64 doubling to
    4096. The reader may leave ``rng`` up to a block past the last uniform
    taken, so use it only on a stream nothing reads afterwards, such as
    trial i's own ``RngStream(seed, i)``."""
    m = 64
    while True:
        yield from rng.uniforms(m).tolist()
        m = min(2 * m, 4096)
