"""Seeded, replayable random streams with independent substreams.

A :class:`RandomSource` wraps a counter-based bit generator (Philox) keyed by a
64-bit master seed plus a spawn-key tuple.  Identical (seed, spawn_key) pairs
replay the identical draw sequence; `spawn(i)` derives a statistically
independent child stream, so parallel replicates never share randomness.
The seed and every spawn-key entry must be non-negative integers (numpy
integers are accepted, bools and floats are not).

The generator is built on the first access to `.generator`, not on
construction: a source that only spawns children, or hands an instance
generator nothing to draw, costs no SeedSequence or Philox.  Building it
later changes no draw, since the stream depends only on (seed, spawn_key).

A source that has not built its generator can instead run on a lent one:
`lend(generator)` re-keys a Philox-backed generator the caller owns to the
stream's start (counter 0, the stream's key, an empty buffer), which draws
what a new generator of the stream would, for a fraction of the cost of
building one.  `spend()` then ends the loan: from then on `.generator`
raises, so the source can neither restart its stream nor continue on a
generator that has moved on to another stream.  `philox_generator()` builds
a generator to lend.

A stream's Philox key is numpy's
`SeedSequence(seed, spawn_key=spawn_key).generate_state(2, uint64)`, and
Philox is built from that key alone, so `generator.bit_generator.seed_seq` is
a holder of the key, not a SeedSequence.  Numpy mixes the entropy into the
SeedSequence pool; the two output words per key are hashed out of the pool
here, in Python ints.

`children(first, count)` returns `spawn(first), ..., spawn(first + count - 1)`
with their keys derived in one pass.  A child's entropy is its parent's plus
one word, its index.  So the parent's pool comes from numpy's own
SeedSequence, and only that last word's mixing and `generate_state` are redone
here, for all indices at once in uint32 array arithmetic.  The keys equal
numpy's bit for bit (the tests compare them), so a batched child draws
exactly what `RandomSource(seed, spawn_key)` draws.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # mix
# generate_state's hash constant before each of its four output words and
# after the last: 0x8B51F9DD times 0x58F38DED^k (mod 2^32) for k = 0..4
_OUT = (0x8B51F9DD, 0x464A0A99, 0x819D14A5, 0xD369FDC1, 0x501638AD)
# below this many children, numpy's fixed cost (about 20 us) exceeds what a
# batch saves (about 8 us a child), so smaller batches are plain spawns
_BATCH_MIN = 3


def _word(value, name: str) -> int:
    """`value` as a non-negative Python int; bools and non-integers are refused."""
    if type(value) is not int:  # numpy integers are converted; bools are not
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} must be an integer, not a bool")
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _generate_state(pool: list) -> list:
    """numpy's `generate_state(2, uint64)` of a four-word pool: [low key, high key]."""
    a, b, c, d = [(p ^ x) * y & _MASK for p, x, y in zip(pool, _OUT, _OUT[1:])]
    return [(a ^ a >> 16) | (b ^ b >> 16) << 32, (c ^ c >> 16) | (d ^ d >> 16) << 32]


def _child_keys(first: int, count: int, pool: list, hashes: list) -> list:
    """Keys of the children at indices first, ..., first + count - 1.

    `pool` is the parent's SeedSequence pool and `hashes` are hashmix's five
    constants from the end of the parent's entropy on.  As numpy does with an
    entropy word past the pool size, each index is hashmixed and mixed into
    each of the four pool words in turn; the pool then goes through
    `generate_state(2, uint64)`.  Rows are pool words, columns children, and
    uint32 arithmetic wraps as numpy's does.
    """
    c = np.array([hashes[:4], hashes[1:], pool, _OUT[:4], _OUT[1:]], dtype=np.uint32)[:, :, None]
    h = (np.arange(first, first + count, dtype=np.uint32) ^ c[0]) * c[1]
    h ^= h >> 16
    w = _MIX_L * c[2] - _MIX_R * h
    w ^= w >> 16
    w = (w ^ c[3]) * c[4]
    w ^= w >> 16
    # numpy joins the words little-endian: word 2k is the low half of key k
    return np.ascontiguousarray(w.T, dtype="<u4").view("<u8").tolist()


class _StreamKey:
    """The seed sequence Philox is built from: it returns the stream's key.

    It becomes a virtual subclass of numpy's `ISeedSequence`, which Philox
    requires, on the first generator build, so that importing driftlab does
    not import numpy.random.
    """

    __slots__ = ("key",)
    registered = False

    def __init__(self, key: Sequence[int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a stream key only provides Philox's two 64-bit words")
        return np.array(self.key, dtype=np.uint64)


def philox_generator(key: Sequence[int] = (0, 0)) -> np.random.Generator:
    """A Generator on Philox with counter 0 and `key`, two 64-bit words."""
    if not _StreamKey.registered:
        np.random.bit_generator.ISeedSequence.register(_StreamKey)
        _StreamKey.registered = True
    return np.random.Generator(np.random.Philox(_StreamKey(key)))


_SPENT = False  # a source's `_generator` once its lent run has ended


class RandomSource:
    """A random stream identified by (seed, spawn_key)."""

    __slots__ = ("seed", "spawn_key", "_key", "_generator")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = (), *, _key=None):
        if _key is None:  # `children` passes a checked seed and spawn key with the stream's key
            seed = _word(seed, "seed")
            if seed >= 2**64:
                raise ValueError("seed must be a 64-bit unsigned integer")
            spawn_key = tuple([_word(k, "spawn key entry") for k in spawn_key])
        self.seed = seed
        self.spawn_key = spawn_key
        self._key = _key
        self._generator = None

    def _stream_key(self) -> list:
        key = self._key
        if key is None:
            key = _generate_state(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key).pool.tolist())
        return key

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, built on first use and kept from then on
        (the lent one while a loan lasts).  A spent source raises RuntimeError."""
        gen = self._generator
        if gen is None:
            gen = self._generator = philox_generator(self._stream_key())
        elif gen is _SPENT:
            raise RuntimeError(f"{self!r} is spent: its stream ran on a lent generator")
        return gen

    def lend(self, generator: np.random.Generator) -> bool:
        """Run this stream on `generator`, a Philox-backed Generator the caller
        owns, from the stream's start, until `spend()`.  Returns False and
        changes nothing if the source has built its generator (or is spent):
        its stream stays on its own generator."""
        if self._generator is not None:
            return False
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._stream_key()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the first draw steps the counter to 1
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._generator = generator
        return True

    def spend(self) -> None:
        """End a loan: the lent generator goes back to its owner and
        `.generator` raises from now on."""
        self._generator = _SPENT

    def spawn(self, index: int) -> "RandomSource":
        """Derive the `index`-th independent child stream."""
        return RandomSource(self.seed, self.spawn_key + (index,))

    def children(self, first: int, count: int) -> list["RandomSource"]:
        """`[spawn(first + j) for j in range(count)]`, with every key derived
        in one pass.  The indices must fit in one 32-bit word."""
        first = _word(first, "first child index")
        count = _word(count, "child count")
        if first + count > 2**32:
            raise ValueError("child indices must be below 2**32")
        if count < _BATCH_MIN:
            return [self.spawn(i) for i in range(first, first + count)]
        seed, parent_key = self.seed, self.spawn_key
        # The seed (at most two words) is padded to the pool size of four, so
        # hashmix has run 4 + 12 times on the pool and 4 times per parent-key
        # word before the child's index comes in.
        words = sum((k.bit_length() + 31) // 32 or 1 for k in parent_key)
        hashes = [_INIT_A * pow(_MULT_A, 16 + 4 * words + k, 2**32) & _MASK for k in range(5)]
        pool = np.random.SeedSequence(seed, spawn_key=parent_key).pool.tolist()
        keys = _child_keys(first, count, pool, hashes)
        return [RandomSource(seed, parent_key + (first + j,), _key=key) for j, key in enumerate(keys)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"
