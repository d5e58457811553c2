"""Deterministic 64-bit pseudo random generator for schedules and data.

The generator is counter based so that scalar and bulk draws interleave
consistently and so that another implementation (in any language) can
reproduce a stream from the seed alone.  A seed is an integer in
[0, 2**64): a Python or numpy integer, not a bool.  Any other value, such
as -1, 2**64 or 1.7, raises ``ValueError`` naming it; it is never wrapped
or truncated onto another seed's stream.  Draw number j (1-indexed) is

    out_j = mix((seed + j * 0x9E3779B97F4A7C15) mod 2**64)

with the output mixing function

    mix(z): z ^= z >> 30;  z = (z * 0xBF58476D1CE4E5B9) mod 2**64
            z ^= z >> 27;  z = (z * 0x94D049BB133111EB) mod 2**64
            return z ^ (z >> 31)

Derived draws are defined on top of the 64-bit stream:

* ``below(n)``     -- ``next_u64() % n`` (modulo bias is negligible for the
  small ``n`` used here and keeps the recurrence trivial to port),
* ``uniforms(n)``  -- ``(u >> 11) * 2**-53`` giving doubles in ``[0, 1)``,
* ``normals(n)``   -- Box-Muller on consecutive uniform blocks ``u1 = U[:m]``,
  ``u2 = U[m:]`` producing ``r*cos`` values followed by ``r*sin`` values,
  truncated to ``n``.

Layout and memory.  The bulk draws do each elementwise step in place:
``u64_array``, ``uniforms`` and ``normals`` hold two n-element arrays at
their peak, the result and one scratch, so about twice the output bytes.
The array ``normals`` returns starts on a 64-byte (cache-line) boundary,
so a matrix reshaped from it is aligned with no copy, and so is every row
whose byte length is a multiple of 64.  A draw count, bound or shuffle size that is
not an integer in range raises ``ValueError`` and leaves the stream where it was.
"""

from __future__ import annotations

import numpy as np

from .inputs import is_integer

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ALIGN = 64  # bytes: one cache line


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _count(n) -> int:
    """A draw count: an integer, at least 0."""
    if not (is_integer(n) and n >= 0):
        raise ValueError(f"draw count must be a nonnegative integer, got {n!r}")
    return int(n)


def _aligned_doubles(n: int) -> np.ndarray:
    """Uninitialised float64 array of length n starting on a 64-byte boundary."""
    per_line = _ALIGN // 8
    buf = np.empty(n + per_line - 1, dtype=np.float64)
    skip = (-buf.ctypes.data % _ALIGN) // 8  # malloc aligns to at least 8 bytes
    return buf[skip : skip + n]


class SplitMix64:
    """Counter-based SplitMix64 stream over a 64-bit seed."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        if not (is_integer(seed) and 0 <= seed <= _MASK):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self.seed = int(seed)
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix((self.seed + self.counter * _GAMMA) & _MASK)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if not (is_integer(n) and n > 0):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        return self.next_u64() % n

    def _fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next len(out) draws into the uint64 array out.

        Returns the uint64 scratch array of the same length that the mixing
        used, free for the caller to reuse.
        """
        n = len(out)
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        np.multiply(z, np.uint64(_GAMMA), out=out)
        out += np.uint64(self.seed)
        for shift, factor in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(out, np.uint64(shift), out=z)
            out ^= z
            out *= np.uint64(factor)
        np.right_shift(out, np.uint64(31), out=z)
        out ^= z
        return z

    def _fill_uniforms(self, draws: np.ndarray) -> np.ndarray:
        """Next len(draws) uniforms, with the uint64 array draws holding the raw draws.

        Returns them as a float64 view of the scratch array ``_fill`` returns,
        so draws is free for the caller afterwards.
        """
        u = self._fill(draws).view(np.float64)
        draws >>= np.uint64(11)
        np.copyto(u, draws, casting="unsafe")  # exact: every value is below 2**53
        u *= 2.0**-53
        return u

    def u64_array(self, n: int) -> np.ndarray:
        """Next n raw draws as a uint64 array (same stream as next_u64)."""
        out = np.empty(_count(n), dtype=np.uint64)
        self._fill(out)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """Doubles in [0, 1) with 53-bit resolution."""
        return self._fill_uniforms(np.empty(_count(n), dtype=np.uint64))

    def normals(self, n: int) -> np.ndarray:
        """Standard normal draws via Box-Muller on uniform blocks, 64-byte aligned."""
        m = (_count(n) + 1) // 2
        z = _aligned_doubles(2 * m)
        u = self._fill_uniforms(z.view(np.uint64))
        r, theta = u[:m], u[m:]
        np.maximum(r, 2.0**-53, out=r)  # keep log finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        np.cos(theta, out=z[:m])
        z[:m] *= r
        np.sin(theta, out=z[m:])
        z[m:] *= r
        return z[:n]

    def shuffle_prefix(self, n: int, k: int) -> np.ndarray:
        """First k entries of a Fisher-Yates shuffle of range(n), sorted."""
        if not (is_integer(n) and is_integer(k) and 0 <= k <= n):
            raise ValueError(f"need integers 0 <= k <= n, got n={n!r}, k={k!r}")
        idx = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(sorted(idx[:k]), dtype=int)
