"""Seeded draws that replay numpy's Generator stream in Python.

`SeededDraws(entropy)` returns, call for call, what `np.random.default_rng(entropy)`
returns for scalar `integers(low, high)`, `random()`, `choice(n, p=p)` and
`permutation(n)`, so results seeded through it are those numpy's Generator
gives. It never imports `numpy.random`, which would load `secrets`, `hmac` and
OpenSSL (about 6 MB of resident memory) only to seed a stream: the seed goes
through numpy's SeedSequence hash (O'Neill's seed_seq design) into a PCG64
XSL-RR 128/64 generator (O'Neill, "PCG", 2014), both written out here.
`Draws` holds the draw logic over any source of PCG64 outputs; synth feeds it
numpy's own bulk outputs instead.
"""

from __future__ import annotations

import numbers
import operator
from typing import Callable, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)  # numpy's tolerance on sum(p) - 1


class Draws:
    """`np.random.Generator`'s scalar draws over a source of PCG64 64-bit outputs.

    A subclass supplies `_next_word()`, the source's next output. `random()` is
    an output's top 53 bits over 2**53. `integers` is Lemire's bounded method
    (arXiv:1805.10941) over 32-bit draws; like numpy's PCG64, a 32-bit draw
    takes an output's low half and keeps its high half for the next 32-bit
    draw, and `random()` leaves a kept half in place. A width of 1 draws
    nothing, as in numpy. Widths above 2**32, which numpy draws from whole
    outputs, are rejected.
    """

    __slots__ = ("_half",)
    _next_word: Callable[[], int]

    def __init__(self) -> None:
        self._half: int | None = None

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next_word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def integers(self, low: int, high: int) -> int:
        width = high - low
        if width == 1:
            return low
        if not 1 < width <= 1 << 32:
            raise ValueError(f"integers({low}, {high}): the width must be in [1, 2**32]")
        m = self._uint32() * width
        if m & _MASK32 < width:
            threshold = ((1 << 32) - width) % width  # 2**32 mod width: the low products that would bias
            while m & _MASK32 < threshold:
                m = self._uint32() * width
        return low + (m >> 32)

    def random(self) -> float:
        return (self._next_word() >> 11) * (1.0 / (1 << 53))

    def choice(self, n: int, p: np.ndarray) -> int:
        """An index into range(n) drawn with probabilities `p`, as numpy's `choice(n, p=p)`.

        The cumulative sum divided by its last value is searched, from the
        right, for one `random()`. A `p` of another length, with a negative or
        NaN entry, or not summing to 1 raises ValueError, as in numpy.
        """
        p = np.asarray(p, dtype=np.float64)
        if n < 1 or p.shape != (n,):
            raise ValueError(f"choice over {n} items needs a 1-D p of that length, got shape {p.shape}")
        cdf = p.cumsum()
        if not ((p >= 0.0).all() and abs(cdf[-1] - 1.0) <= _CHOICE_ATOL):  # NaN fails both
            raise ValueError("probabilities must be non-negative and sum to 1")
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.random(), side="right"))


class SeededDraws(Draws):
    """The draws of `np.random.default_rng(entropy)`, from a PCG64 run in Python.

    `entropy` is a non-negative int or a sequence of them, as numpy's
    SeedSequence takes it; a negative one raises ValueError.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, entropy: int | Sequence[int]) -> None:
        super().__init__()
        initstate, initseq = _seed_sequence_words(entropy)
        # pcg_setseq_128_srandom_r: one step from 0, add the seed, one more step
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULTIPLIER + self._inc) & _MASK128

    def _next_word(self) -> int:
        state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64  # XSL-RR: xor the halves, rotate by the top 6 bits
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def permutation(self, n: int) -> list[int]:
        """`range(n)` shuffled as numpy's `permutation(n)`: Fisher-Yates from the top.

        Position i swaps with a j drawn uniform in [0, i] by masked rejection:
        each 32-bit draw is cut to the bits of i's width until it is at most i.
        `_next_word` and `_uint32` are inlined, because a call per draw costs
        more than the draw.
        """
        items = list(range(n))
        state, inc, half = self._state, self._inc, self._half
        multiplier, mask64, mask128 = _PCG_MULTIPLIER, _MASK64, _MASK128
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    state = (state * multiplier + inc) & mask128
                    x = ((state >> 64) ^ state) & mask64
                    rot = state >> 122
                    word = ((x >> rot) | (x << (64 - rot))) & mask64
                    half = word >> 32
                    j = word & mask
                else:
                    j = half & mask
                    half = None
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._state, self._half = state, half
        return items


def _seed_sequence_words(entropy: int | Sequence[int]) -> tuple[int, int]:
    """numpy's `SeedSequence(entropy).generate_state(4, uint64)` as PCG64's (initstate, initseq)."""
    words: list[int] = []  # each entry's 32-bit words, least significant first; 0 is one word
    for value in [entropy] if isinstance(entropy, numbers.Integral) else entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(8):  # 4 uint64 words from 8 uint32 ones, low word first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    w = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]
