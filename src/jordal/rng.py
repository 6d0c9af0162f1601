"""Deterministic random stream derivation.

Every randomized trial draws from its own ``random.Random`` instance whose
seed is derived from (seed, suite, check, trial index) with a fixed 64-bit
mixing function, so a trial's draws never depend on which trials ran before.

Mixing: each label is hashed with FNV-1a (64-bit), folded into the state by
XOR, and the state is scrambled with the splitmix64 finalizer. The final
64-bit state seeds ``random.Random``. A run asks for many streams that share
all labels but the last (one per trial of a check), so ``stream_rng`` folds
the shared prefix once and only the last label per call.

Coordinates are drawn from 5-bit Mersenne Twister words
(``getrandbits(5)``): a word below 19 gives COORD_LO plus the word, and a
word of 19 or more is rejected and the next one read. This is exactly the
stream ``randint(COORD_LO, COORD_HI)`` consumes, draw for draw and state for
state, but it is written out here, so reports do not depend on the standard
library's ``randint`` code, only on MT19937's ``getrandbits``.
"""

from __future__ import annotations

import random
from functools import lru_cache

_MASK = (1 << 64) - 1


class DegenerateDraw(ValueError):
    """A draw that landed on a degenerate configuration: not a
    counterexample, so the trial draws again."""


COORD_LO = -9
COORD_HI = 9
# randint(lo, hi) reads words of span.bit_length() bits (not of
# (span - 1).bit_length()) and rejects those at span or more
_COORD_SPAN = COORD_HI - COORD_LO + 1
_COORD_BITS = _COORD_SPAN.bit_length()


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


@lru_cache(maxsize=1024)
def _prefix_state(seed: int, labels: tuple) -> int:
    # keyed on the masked seed and the label strings, the only things the
    # fold reads: 1 and True are equal keys but different labels
    return derive_stream(seed, *labels)


def stream_rng(seed: int, *labels: object) -> random.Random:
    """random.Random(derive_stream(seed, *labels)), folding all labels but
    the last through a cache."""
    if not labels:
        return random.Random(derive_stream(seed))
    state = _prefix_state(seed & _MASK, tuple(map(str, labels[:-1])))
    return random.Random(splitmix64(state ^ fnv1a64(str(labels[-1]))))


def sample_coords(rng: random.Random, n: int) -> tuple:
    """n uniform integer coordinates in [COORD_LO, COORD_HI], read from
    rng's getrandbits words as randint reads them."""
    bits = rng.getrandbits
    out = []
    while len(out) < n:
        r = bits(_COORD_BITS)
        if r < _COORD_SPAN:
            out.append(COORD_LO + r)
    return tuple(out)
