"""Deterministic random number streams.

All stochastic code in the package draws from Philox, a counter-based
bit generator (Salmon et al. 2011). Each unit of work (a bootstrap
replicate, a simulated triangle) gets its own substream keyed by the
user seed plus an integer path, so results are bitwise identical no
matter how work is split across processes.

A substream's Philox key is what numpy's ``SeedSequence`` derives from
(seed, path), the hash of O'Neill's ``seed_seq_fe``. :func:`substreams`
derives the keys of a run of consecutive paths in one vectorised pass
of that documented hash, then hands each key to ``Philox``, so its
generators are those of :func:`substream` without building a
``SeedSequence`` per stream.
"""

from __future__ import annotations

from functools import cache
from typing import List, Sequence

import numpy as np

# SeedSequence's constants (numpy.random.bit_generator)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``(seed, *path)``.

    The same (seed, path) pair always yields the same stream, and
    distinct paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(ss))


def _words(n: int) -> List[int]:
    """``n`` as little-endian 32-bit words, [0] for zero, as SeedSequence reads an integer."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@cache
def _key_type() -> type:
    """The seed type that hands ``Philox`` a key already derived.

    ``Philox`` asks its seed sequence for two 64-bit words and takes
    them as its key. Built on first use, since importing numpy.random
    would add to the start-up of every run, drawing or not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Key


def substreams(seed: int, path: Sequence[int], lo: int, hi: int) -> List[np.random.Generator]:
    """The generators ``[substream(seed, *path, b) for b in range(lo, hi)]``, keyed in bulk.

    The entropy words of ``seed`` (padded to the pool size) and ``path``
    are the same for every stream, and ``b`` is the last word, so one
    pass of SeedSequence's mixing and output hash serves the whole
    range: Python integers up to ``b``, uint32 arrays over the range
    from there, both wrapping as the hash does. A range that reaches
    2**32, where ``b`` takes a second word, builds each generator with
    :func:`substream`.
    """
    if hi > 2**32:
        return [substream(seed, *path, b) for b in range(lo, hi)]
    head = _words(seed)
    head += [0] * (_POOL_SIZE - len(head))
    for x in path:
        head += _words(x)
    if lo >= hi:
        return []
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    # SeedSequence.mix_entropy
    pool = [hashmix(w) for w in head[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in head[_POOL_SIZE:] + [np.arange(lo, hi, dtype=np.uint32)]:
        pool = [mix(p, hashmix(w)) for p in pool]

    # SeedSequence.generate_state(2, np.uint64): the four pool words, hashed
    const = _INIT_B
    state = np.empty((hi - lo, _POOL_SIZE), dtype=np.uint32)
    for i, p in enumerate(pool):
        value = p ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ value >> 16
    keys = state.astype("<u4").view("<u8").astype(np.uint64)
    key_type = _key_type()
    return [np.random.Generator(np.random.Philox(key_type(key))) for key in keys]
