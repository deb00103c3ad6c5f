"""Deterministic random streams derived from a single scenario seed.

All randomness in a simulation flows through splitmix64, the 64-bit
finalizer used to seed the xoshiro generator family.  Values are pure
functions of (seed, key...) rather than draws from a stateful stream, so
any sample can be recomputed in isolation and runs are reproducible
byte-for-byte.

Hashing takes one splitmix64 step for the seed and one per key.  A
stream is the hash of its constant keys (seed, stream, node ...),
taken once by its user; ``gauss(stream, key)`` takes one step on from
it for the varying last key.
"""

from __future__ import annotations

import math
import struct

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: returns the mixed output for state ``x``."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix64(seed: int, *keys: int) -> int:
    """Hash a seed plus integer keys into one 64-bit word."""
    h = splitmix64(seed & _MASK64)
    for k in keys:
        h = splitmix64(h ^ (k & _MASK64))
    return h


_DOUBLE = struct.Struct(">d")
_WORD = struct.Struct(">Q")


def float_key(t: float) -> int:
    """Stable integer key for a float (its IEEE-754 bit pattern)."""
    return _WORD.unpack(_DOUBLE.pack(t))[0]


def unit_uniform(seed: int, *keys: int) -> float:
    """Uniform value in [0, 1), a pure function of (seed, keys)."""
    return (mix64(seed, *keys) >> 11) * (1.0 / (1 << 53))


def gauss(stream: int, key: int) -> float:
    """Standard normal deviate via Box-Muller, pure in (stream, key).

    ``stream`` is ``mix64(seed, *keys)``; the deviate is that of the
    keys (seed, *keys, key).  Its uniforms are those of the keys
    (..., key, 0) and (..., key, 1), both one step on from
    ``h = splitmix64(stream ^ key)``.
    """
    h = splitmix64(stream ^ (key & _MASK64))
    # u1 in (0, 1] so the log is finite; h ^ 0 is h.
    u1 = (splitmix64(h) + 1) * (1.0 / (1 << 64))
    u2 = (splitmix64(h ^ 1) >> 11) * (1.0 / (1 << 53))
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
