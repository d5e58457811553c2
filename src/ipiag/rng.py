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

Layout and memory.  The bulk draws ``u64_array``, ``uniforms`` and
``normals`` run the counter, the mix, the 53-bit conversion and Box-Muller
over one block of ``BLOCK`` (2**15) draws at a time, in place, so they hold
their output plus one block-sized scratch array (256 KB) at their peak;
a draw of one block or less holds at most twice its output, as before.  Every
value is the one the whole-array formula gives.
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
BLOCK = 1 << 15  # draws per pass of a bulk draw: 256 KB of uint64 scratch, well inside L2


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

    def _fill(self, first: int, out: np.ndarray) -> np.ndarray:
        """Write draws first + 1 .. first + len(out) into the uint64 array out.

        Returns the uint64 scratch array of the same length that the mixing
        used, free for the caller to reuse.
        """
        z = np.arange(first + 1, first + len(out) + 1, dtype=np.uint64)
        np.multiply(z, np.uint64(_GAMMA), out=out)
        out += np.uint64(self.seed)
        for shift, factor in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(out, np.uint64(shift), out=z)
            out ^= z
            out *= np.uint64(factor)
        np.right_shift(out, np.uint64(31), out=z)
        out ^= z
        return z

    def _fill_uniforms(self, first: int, out: np.ndarray) -> np.ndarray:
        """Write the uniforms of draws first + 1 .. first + len(out) into the float64 array out.

        Returns the float64 scratch array of the same length that it used,
        free for the caller to reuse.
        """
        draws = out.view(np.uint64)
        u = self._fill(first, draws).view(np.float64)
        draws >>= np.uint64(11)
        np.copyto(u, draws, casting="unsafe")  # exact: every value is below 2**53
        np.multiply(u, 2.0**-53, out=out)
        return u

    def _bulk(self, n, dtype, fill) -> np.ndarray:
        """The next n draws, written by ``fill`` one block at a time."""
        out = np.empty(_count(n), dtype=dtype)
        for lo in range(0, len(out), BLOCK):
            fill(self.counter + lo, out[lo : lo + BLOCK])
        self.counter += len(out)
        return out

    def u64_array(self, n: int) -> np.ndarray:
        """Next n raw draws as a uint64 array (same stream as next_u64)."""
        return self._bulk(n, np.uint64, self._fill)

    def uniforms(self, n: int) -> np.ndarray:
        """Doubles in [0, 1) with 53-bit resolution."""
        return self._bulk(n, np.float64, self._fill_uniforms)

    def normals(self, n: int) -> np.ndarray:
        """Standard normal draws via Box-Muller on uniform blocks, 64-byte aligned."""
        m = (_count(n) + 1) // 2
        z = _aligned_doubles(2 * m)
        for lo in range(0, m, BLOCK):
            hi = min(lo + BLOCK, m)
            r, theta = z[lo:hi], z[m + lo : m + hi]
            self._fill_uniforms(self.counter + lo, r)
            cos = self._fill_uniforms(self.counter + m + lo, theta)
            np.maximum(r, 2.0**-53, out=r)  # keep log finite
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * np.pi
            np.cos(theta, out=cos)
            np.sin(theta, out=theta)
            theta *= r
            r *= cos
            del cos  # so the next block's draws reuse its memory
        self.counter += 2 * m
        return z[:n]

    def shuffle_prefix(self, n: int, k: int) -> np.ndarray:
        """First k entries of a Fisher-Yates shuffle of range(n), sorted."""
        if not (is_integer(n) and is_integer(k) and 0 <= k <= n):
            raise ValueError(f"need integers 0 <= k <= n, got n={n!r}, k={k!r}")
        idx = list(range(n))
        for i, u in enumerate(self.u64_array(k).tolist()):  # the draws of k calls below(n - i)
            j = i + u % (n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(sorted(idx[:k]), dtype=int)
