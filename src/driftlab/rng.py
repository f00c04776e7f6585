"""Seeded, replayable random streams with independent substreams.

A :class:`RandomSource` wraps a counter-based bit generator (Philox) keyed by a
64-bit master seed plus a spawn-key tuple.  Identical (seed, spawn_key) pairs
replay the identical draw sequence; `spawn(i)` derives a statistically
independent child stream, so parallel replicates never share randomness.

The generator is built on the first access to `.generator`, not on
construction: a source that only spawns children, or hands an instance
generator nothing to draw, costs no SeedSequence or Philox.  Building it
later changes no draw, since the stream depends only on (seed, spawn_key).
"""

from __future__ import annotations

import numpy as np


class RandomSource:
    """A random stream identified by (seed, spawn_key)."""

    __slots__ = ("seed", "spawn_key", "_generator")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, built on first use and kept from then on."""
        gen = self._generator
        if gen is None:
            sequence = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
            gen = self._generator = np.random.Generator(np.random.Philox(sequence))
        return gen

    def spawn(self, index: int) -> "RandomSource":
        """Derive the `index`-th independent child stream."""
        return RandomSource(self.seed, self.spawn_key + (int(index),))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"
