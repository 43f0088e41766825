"""numpy's ``SeedSequence`` and ``PCG64`` in pure Python, for the two draws
a job makes: the optimiser's visiting orders and the Lanczos solver's start
vectors. A job then never loads ``numpy.random``, which the tests keep as
the oracle. PCG64 is O'Neill's XSL-RR generator on a 128-bit LCG; the
seeding follows numpy's ``bit_generator.pyx`` word for word.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import InvalidParameter

_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA4_4385DF649FCCF645
# SeedSequence's hash and mix constants, for its pool of four 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: 32-bit words, least
    significant first, no leading zero word but the one of 0."""
    value = operator.index(value)
    if value < 0:
        raise InvalidParameter(f"a seed must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: list[int]) -> list[int]:
    """SeedSequence(entropy).generate_state(8, np.uint32): mix the entropy
    into the pool, then hash the pool out to eight words."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return out


class PCG64:
    """``np.random.default_rng(seeds[0])``, or ``default_rng(list(seeds))``
    for several seeds, restricted to the draws this package makes."""

    __slots__ = ("state", "inc", "spare")

    def __init__(self, *seeds: int) -> None:
        w = _seed_words([word for seed in seeds for word in _words(seed)])
        # Four little-endian 64-bit words: the initial state, then the stream.
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self.inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128) | 1
        # numpy's srandom: a step from 0, the state added, a second step.
        self.state = ((self.inc + state) * _MULTIPLIER + self.inc) & _MASK128
        self.spare: int | None = None

    def next64(self) -> int:
        self.state = state = (self.state * _MULTIPLIER + self.inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next32(self) -> int:
        """The low half of a 64-bit draw, and its high half on the next call."""
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        value = self.next64()
        self.spare = value >> 32
        return value & _MASK32

    def random(self, n: int) -> np.ndarray:
        """``Generator.random(n)``: n doubles in [0, 1) from 53-bit draws."""
        return np.array([(self.next64() >> 11) * (1.0 / 9007199254740992.0) for _ in range(n)])

    def interval(self, high: int) -> int:
        """numpy's ``random_interval`` for 0 <= high < 2**32: uniform in
        [0, high], by masked rejection of 32-bit draws."""
        mask = (1 << high.bit_length()) - 1
        while (value := self.next32() & mask) > high:
            pass
        return value


@functools.lru_cache(maxsize=128)
def visiting_order(seed: int, level: int, p: int) -> np.ndarray:
    """``np.random.default_rng([seed, level]).permutation(p)`` for
    p <= 2**32, read-only: the Fisher-Yates shuffle of ``Generator.shuffle``."""
    rng = PCG64(seed, level)
    order = list(range(p))
    for i in range(p - 1, 0, -1):
        j = rng.interval(i)
        order[i], order[j] = order[j], order[i]
    result = np.array(order, dtype=np.int64)
    result.setflags(write=False)
    return result
