"""Seeded, replayable random streams with independent substreams.

A :class:`RandomSource` wraps a counter-based bit generator (Philox) keyed by a
64-bit master seed plus a spawn-key tuple: its generator is numpy's
`Generator(Philox(SeedSequence(seed, spawn_key=spawn_key)))`.  Identical
(seed, spawn_key) pairs replay the identical draw sequence; `spawn(i)` derives
a statistically independent child stream, so parallel replicates never share
randomness.  The seed and every spawn-key entry must be non-negative integers
(numpy integers are accepted, bools and floats are not).

The generator is built on the first access to `.generator`, not on
construction: a source that only spawns children, or hands an instance
generator nothing to draw, costs no SeedSequence or Philox, and importing
driftlab does not import numpy.random.  Building it later changes no draw,
since the stream depends only on (seed, spawn_key).

`carry` holds what the last EA run on the stream drew and left unused, for
the next run on it to take up (see `ea.run_ea`); a new source holds nothing,
and the replicate engine drops it once a job's runs on the stream are done.
"""

from __future__ import annotations

import operator

import numpy as np


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


class RandomSource:
    """A random stream identified by (seed, spawn_key)."""

    __slots__ = ("seed", "spawn_key", "_generator", "carry", "__weakref__")  # the engine tells sources apart by weak reference

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        seed = _word(seed, "seed")
        if seed >= 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self.spawn_key = tuple([_word(k, "spawn key entry") for k in spawn_key])
        self._generator = None
        self.carry = None  # draws a run made on this stream and left to the next (see ea.run_ea)

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, built on first use and kept from then on."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)))
        return self._generator

    def spawn(self, index: int) -> "RandomSource":
        """Derive the `index`-th independent child stream."""
        return RandomSource(self.seed, self.spawn_key + (index,))

    def children(self, first: int, count: int) -> list["RandomSource"]:
        """`[spawn(first + j) for j in range(count)]`."""
        first = _word(first, "first child index")
        count = _word(count, "child count")
        return [self.spawn(i) for i in range(first, first + count)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"
