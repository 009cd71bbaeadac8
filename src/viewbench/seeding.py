"""numpy's ``SeedSequence`` hashing, run on arrays of seeds.

``default_rng(entropy)`` spends most of its time hashing the entropy with
``SeedSequence``.  That hash is a fixed sequence of 32-bit multiplies,
xors and shifts whose constants do not depend on the entropy, so it runs
on a column of many entropies as one array operation per step.  A
generator built from the resulting state words is in the state
``default_rng`` gives it, so every draw is the same.

``synthetic.generate`` hashes a split's seeds here in one pass each.
Importing this module loads ``numpy.random``, which importing the package
does not, so ``generate`` imports it on first use.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's pool size, hash and mix constants and shift
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def int_words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, least
    significant first; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    an (N, L) uint32 array of entropy words, as one (N, 4) array.

    The hash constant advances the same way for every row, so each step of
    the mixing is one array operation on a column.  Rows shorter than the
    pool hash like their zero-padded form; words past the pool are mixed
    into every pool word, as SeedSequence does.
    """
    words = np.asarray(words, dtype=np.uint32)
    n, length = words.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value *= np.uint32(const)
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        out ^= out >> _XSHIFT
        return out

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    state = np.empty((n, 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value *= np.uint32(const)
        value ^= value >> _XSHIFT
        state[:, i] = value
    # word pairs read little-endian, as generate_state does
    return state.astype("<u4").view("<u8").astype(np.uint64)


def scene_states(seed, n: int) -> np.ndarray:
    """State words of ``default_rng([seed, i])`` for every i < n."""
    if isinstance(seed, (int, np.integer)) and seed >= 0 and n <= 2**32:
        seed_words = int_words(int(seed))
        words = np.empty((n, len(seed_words) + 1), dtype=np.uint32)
        words[:, :-1] = seed_words
        words[:, -1] = np.arange(n)
        return seed_states(words)
    # any other seed is hashed, or rejected, by numpy itself
    return np.array(
        [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64) for i in range(n)],
        dtype=np.uint64,
    ).reshape(n, 4)


def noise_states(seeds: list[int]) -> np.ndarray:
    """State words of ``default_rng(s)`` for every seed s in [0, 2**64)."""
    seeds = np.array(seeds, dtype=np.uint64)
    words = np.empty((seeds.size, 2), dtype=np.uint32)
    words[:, 0] = seeds & np.uint64(_MASK32)
    words[:, 1] = seeds >> np.uint64(32)
    return seed_states(words)


class _HashedSeed(ISeedSequence):
    """A seed sequence whose four uint64 state words, the ones PCG64 asks
    for, were hashed in advance."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds the 4 uint64 state words of PCG64 only")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``default_rng`` gives the entropy hashed to ``words``."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(words)))
