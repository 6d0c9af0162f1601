"""Deterministic random stream derivation.

Every randomized trial draws from its own ``random.Random`` instance whose
seed is derived from (seed, suite, check, trial index) with a fixed 64-bit
mixing function, so a trial's draws never depend on which trials ran before.

Mixing: each label is hashed with FNV-1a (64-bit), folded into the state by
XOR, and the state is scrambled with the splitmix64 finalizer. The final
64-bit state seeds ``random.Random``.
"""

from __future__ import annotations

import random

_MASK = (1 << 64) - 1

COORD_LO = -9
COORD_HI = 9


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step (Steele/Lea/Flood finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def fnv1a64(data: str) -> int:
    h = 0xCBF29CE484222325
    for byte in data.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


def derive_stream(seed: int, *labels: object) -> int:
    """64-bit stream id for (seed, label, label, ...)."""
    state = splitmix64(seed & _MASK)
    for label in labels:
        state = splitmix64(state ^ fnv1a64(str(label)))
    return state


def stream_rng(seed: int, *labels: object) -> random.Random:
    return random.Random(derive_stream(seed, *labels))


def sample_coords(rng: random.Random, n: int, lo: int = COORD_LO, hi: int = COORD_HI) -> tuple:
    """Uniform integer coordinates in [lo, hi]."""
    return tuple(rng.randint(lo, hi) for _ in range(n))
