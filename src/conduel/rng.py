"""Counter-based random substreams.

Every random draw in a simulation run comes from a generator keyed by
(seed, round, purpose).  Streams for different purposes never share state,
so adding or removing instrumentation (or an extra draw in one module)
cannot perturb draws made elsewhere.  The same keying makes pools and
feedback coin flips common random numbers across algorithms run under the
same seed.

A stream is the PCG64 generator that
``SeedSequence(entropy=(_RUN_SALT, seed, t, purpose))`` seeds.  No
``SeedSequence`` is built per stream: the four uint64 seed words it would
hand PCG64 are computed for a block of rounds and every purpose at once, by
numpy's SeedSequence hash in vectorized uint32 arithmetic, and kept by the
``RunStream`` that asked.  A stream then costs little more than the
generator's construction, and its draws are the same.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

# Fixed salts keep run streams and environment-generation streams disjoint.
_RUN_SALT = 0x5EED_0001
_ENV_SALT = 0x5EED_0002

# Stable purpose codes; append only, never renumber.
POOL = 0
KEYTERM_SELECT = 1
KEYTERM_FEEDBACK = 2
ARM_SELECT = 3
ARM_FEEDBACK = 4
CHOICE_FEEDBACK = 5
KEYTERM_CHOICE_FEEDBACK = 6
ASSORTMENT_RANDOM = 7
_PURPOSES = ASSORTMENT_RANDOM + 1

# Rounds whose seed words are computed together.  A power of two that
# divides 2^32, so the rounds of a block differ in their lowest 32-bit word
# only and share the word count of t.
_BLOCK = 256

# numpy's SeedSequence hash constants (pool of four 32-bit words).
_MASK32 = 0xFFFF_FFFF
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = np.uint32(0xCA01_F9DD)
_MIX_MULT_R = np.uint32(0x4973_F715)
_XSHIFT = np.uint32(16)


def _words(value: int) -> list:
    """32-bit words of a nonnegative int, least significant first; at least one."""
    if value < 0:
        raise DomainError(f"stream keys must be nonnegative, got {value}")
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _pcg64_seed_words(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``, elementwise.

    ``entropy`` lists the 32-bit entropy words as uint32 arrays that
    broadcast together, at least four of them (so no zero padding); the
    result has their broadcast shape plus a last axis of four words.  The
    pool of four words is mixed from the entropy, eight output words are
    drawn by cycling the pool, and those are paired little-endian into
    uint64, as numpy does.  Every pool word mixes in every entropy word, so
    all outputs carry the full shape.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> _XSHIFT))
    state = np.stack(state, axis=-1).astype(np.uint64)
    return state[..., 0::2] | (state[..., 1::2] << np.uint64(32))


def _block_words(seed: int, block: int) -> np.ndarray:
    """Seed words, shape (_BLOCK, _PURPOSES, 4), of rounds block * _BLOCK + i."""
    low, *high = _words(block * _BLOCK)

    def const(word):
        return np.full((1, 1), word, dtype=np.uint32)

    rounds = np.arange(low, low + _BLOCK, dtype=np.uint32)[:, None]
    purposes = np.arange(_PURPOSES, dtype=np.uint32)[None, :]
    entropy = [const(_RUN_SALT), *map(const, _words(seed)), rounds, *map(const, high), purposes]
    return _pcg64_seed_words(entropy)


class _SeedWords(ISeedSequence):
    """Hands PCG64 its four precomputed uint64 seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise DomainError("precomputed seed words serve PCG64 only")
        return self.words


def env_rng(seed: int) -> np.random.Generator:
    """Generator used for synthetic environment construction."""
    ss = np.random.SeedSequence(entropy=(_ENV_SALT, int(seed)))
    return np.random.Generator(np.random.PCG64(ss))


class RunStream:
    """Seed-bound factory handed to policies; ``at(t, purpose)`` opens a stream.

    Keeps the seed words of the block of rounds it opened a stream in last.
    """

    __slots__ = ("seed", "_block", "_words")

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise DomainError(f"run seed must be nonnegative, got {self.seed}")
        self._block = None
        self._words = None

    def at(self, t: int, purpose: int) -> np.random.Generator:
        if not 0 <= purpose < _PURPOSES:
            raise DomainError(f"unknown stream purpose {purpose!r}")
        block, row = divmod(t, _BLOCK)
        if block != self._block:
            self._words = _block_words(self.seed, block)
            self._block = block
        return np.random.Generator(np.random.PCG64(_SeedWords(self._words[row, purpose])))
