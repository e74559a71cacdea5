"""numpy.random.default_rng(seed) for a non-negative integer seed, in Python.

The acceptance suite draws its economies from this generator, so `check`
runs without loading numpy yet draws numpy's numbers bit for bit:
SeedSequence's hash of the seed into four 64-bit words, PCG64 (a 128-bit
LCG with the XSL-RR output, O'Neill 2014) seeded from them, `uniform` as
numpy's 53-bit double and `integers` as its Lemire draw on 32-bit halves.
"""

from __future__ import annotations

from itertools import cycle

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hasher(const: int, mult: int):
    """SeedSequence's word hash, whose constant steps by `mult` per word."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64), for a pool of 4 words."""
    entropy = []
    while seed > 0:
        entropy.append(seed & _M32)
        seed >>= 32
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [output(word) for word, _ in zip(cycle(pool), range(8))]
    return [state[j] | state[j + 1] << 32 for j in range(0, 8, 2)]


class PCG64:
    """The draws of numpy.random.default_rng(seed), seed >= 0, that the
    suite uses."""

    def __init__(self, seed: int):
        # words 0-1 seed the state, 2-3 the odd increment; numpy steps from
        # state 0 (to inc), adds the seed and steps once more
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) * _MULT + self._inc & _M128
        self._half = None       # the high 32 bits of a half-used draw

    def _next64(self) -> int:
        self._state = s = (self._state * _MULT + self._inc) & _M128
        value, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self._next64() >> 11) * 2.0 ** -53)

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi), for 1 <= hi - lo < 2**32."""
        width = hi - lo
        if width == 1:
            return lo
        m = self._next32() * width
        if m & _M32 < width:
            threshold = (_M32 + 1 - width) % width
            while m & _M32 < threshold:
                m = self._next32() * width
        return lo + (m >> 32)
