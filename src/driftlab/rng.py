"""Seeded, replayable random streams with independent substreams.

A :class:`RandomSource` wraps a counter-based bit generator (Philox) keyed by a
64-bit master seed plus a spawn-key tuple.  Identical (seed, spawn_key) pairs
replay the identical draw sequence; `spawn(i)` derives a statistically
independent child stream, so parallel replicates never share randomness.
"""

from __future__ import annotations

import numpy as np


class RandomSource:
    """A random stream identified by (seed, spawn_key)."""

    __slots__ = ("seed", "spawn_key", "generator")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        sequence = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.Philox(sequence))

    def spawn(self, index: int) -> "RandomSource":
        """Derive the `index`-th independent child stream."""
        return RandomSource(self.seed, self.spawn_key + (int(index),))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"
