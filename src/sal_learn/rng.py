"""Deterministic, platform-independent random numbers (splitmix64).

Dataset generation and network initialization must be bit-reproducible
across machines, so nothing here depends on an external library's stream.
The generator is the splitmix64 mixer: the 64-bit state advances by a
fixed odd constant and each output is a finalizing hash of the new state.

Reference outputs for seed 1 (frozen in tests/test_rng.py):

    next_u64:  10451216379200822465, 13757245211066428519, 17911839290282890590
    uniform:   0.5665615751722809, 0.7457817572627011, 0.9710027535867962
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LOG, _SIN, _COS = (np.frompyfunc(f, 1, 1) for f in (math.log, math.sin, math.cos))


class SplitMix64:
    """splitmix64 stream; uniform doubles take the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """n calls of uniform() at once: the same doubles and the same state
        after.  np.uint64 arithmetic wraps modulo 2**64 as the masks do."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + len(z) * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(float) * 2.0**-53

    def standard_normal(self) -> float:
        """Box-Muller; consumes two uniforms per pair, caches the spare."""
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
            return z
        # shift u1 into (0, 1] so the log is finite
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def standard_normals(self, n: int) -> np.ndarray:
        """n calls of standard_normal() at once: the same doubles, the same
        state and the same spare after.  log, sin and cos go through the
        math module element by element (np.log can differ from libm's in
        the last bit); the other steps are correctly rounded either way."""
        out = np.empty(n)
        start = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            start = 1
        pairs = (n - start + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = 1.0 - u[0::2]
        angle = 2.0 * math.pi * u[1::2]
        r = np.sqrt(-2.0 * _LOG(u1).astype(float))
        cos = r * _COS(angle).astype(float)
        sin = r * _SIN(angle).astype(float)
        out[start::2] = cos
        out[start + 1 :: 2] = sin[: (n - start) // 2]
        if (n - start) % 2:
            self._spare_normal = float(sin[-1])
        return out
