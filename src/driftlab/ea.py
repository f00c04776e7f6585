"""The elitist single-parent, single-offspring EA with standard bit mutation.

Minimization convention: an offspring replaces the parent iff its objective
value does not exceed the parent's, so equal values (including the offspring
that flips nothing) are always accepted.  One repeat-loop iteration equals one
mutation + selection, whether or not any bit flips.

`run_ea` simulates that loop sparsely but with the exact law of standard bit
mutation: it draws each iteration's flip count K ~ Binomial(m, p) in blocks,
passes over the iterations with K = 0 (they leave the parent as it is), and
for K >= 1 draws K distinct uniform positions.  The parent carries its
linear pair (l1, l2), so f = combine(l1, l2) and the parent is optimal iff the
pair equals the instance's `optimum`.  Objectives with a `linear_form` (exact
sums) update the pair in O(K) per offspring; any other objective re-sums it in
full with `linear_values`.  Either way f is bit-identical to `value(x)`, which
is computed by the same left-to-right sums.  The random stream is
consumed in that sparse order, and the same (instance, config, stream) gives
the same run.

`standard_bit_mutation` (the dense one-step draw, one uniform per bit) and
its `MutationEvent` are kept only because the benchmark tracer wraps that
function; `run_ea` does not call them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .objectives import BitString, as_bits
from .rng import RandomSource


@dataclass
class EAConfig:
    """Run parameters; mutation_probability defaults to 1/n of the instance."""

    max_iterations: int
    mutation_probability: Optional[float] = None
    trace_stride: int = 0  # 0 records endpoints only

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.mutation_probability is not None and not 0.0 < self.mutation_probability <= 1.0:
            raise ValueError("mutation probability must lie in (0, 1]")
        if self.trace_stride < 0:
            raise ValueError("trace_stride must be non-negative")


@dataclass
class MutationEvent:
    """Exact flip set of one mutation, split by the parent's bit values."""

    mask: np.ndarray
    flipped_one_bits: np.ndarray
    flipped_zero_bits: np.ndarray
    accepted: bool = False

    @property
    def flip_count(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass
class RunTrace:
    """One EA execution: hitting time, acceptance count and sampled stats.

    samples is a list of (iteration, objective value, potential value or None,
    one-bit count) tuples; hitting_time is None iff the budget ran out first.
    accepted_steps counts accepted offspring that flipped at least one bit.
    """

    seed: int
    spawn_key: tuple
    hitting_time: Optional[int]
    budget_exhausted: bool
    accepted_steps: int
    samples: list
    final_state: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "spawn_key": list(self.spawn_key),
            "hitting_time": self.hitting_time,
            "budget_exhausted": self.budget_exhausted,
            "accepted_steps": self.accepted_steps,
            "samples": [
                [it, f, phi, ones] for (it, f, phi, ones) in self.samples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def standard_bit_mutation(
    x: BitString, p: float, rng: RandomSource
) -> tuple[BitString, MutationEvent]:
    """Flip each bit independently with probability p."""
    x = np.asarray(x, dtype=np.uint8)
    mask = rng.generator.random(x.size) < p
    y = x ^ mask
    flipped = np.flatnonzero(mask)
    parent_ones = x[flipped] == 1
    return y, MutationEvent(mask, flipped[parent_ones], flipped[~parent_ones])


# Flip counts (and uniform positions) are drawn in blocks that double from
# _FIRST_BLOCK up to _MAX_BLOCK: short runs draw little, long runs make few
# generator calls.  Block sizes depend only on how many blocks were drawn.
_FIRST_BLOCK = 32
_MAX_BLOCK = 4096


class _Mutations:
    """Standard bit mutation on m bits as buffered draws from one generator.

    An iteration flips K ~ Binomial(m, p) bits; given K = k >= 1 the flipped
    set is uniform among the k-subsets.  Small k take k iid uniform
    positions and redraw all of them on a repeat (k*k <= m keeps the success
    chance above 1/2); larger k use an exact subset draw.
    """

    __slots__ = ("gen", "m", "p", "size", "pool", "at")

    def __init__(self, gen: np.random.Generator, m: int, p: float):
        self.gen, self.m, self.p = gen, m, p
        self.size = _FIRST_BLOCK
        self.pool: list = []
        self.at = 0

    def block(self) -> tuple[list, list, int]:
        """The next block of iterations: offsets and flip counts of its
        non-empty ones, and its length."""
        size = self.size
        counts = self.gen.binomial(self.m, self.p, size=size)
        hits = np.flatnonzero(counts)
        self.size = min(2 * size, _MAX_BLOCK)
        return hits.tolist(), counts[hits].tolist(), size

    def positions(self, k: int) -> list:
        m = self.m
        if k == m:
            return list(range(m))
        if k * k > m:
            return self.gen.choice(m, k, replace=False).tolist()
        while True:
            if self.at + k > len(self.pool):
                self.pool = self.gen.integers(0, m, size=max(self.size, k)).tolist()
                self.at = 0
            flips = self.pool[self.at : self.at + k]
            self.at += k
            if k == 1 or len(set(flips)) == k:
                return flips


class _LinearParent:
    """The parent as a bit list plus its exact linear parts: offspring cost O(K).

    Valid for an instance with a LinearForm; the offspring value is
    combine(l1, l2), bit-identical to instance.value of the offspring.
    """

    __slots__ = ("bits", "l1", "l2", "w1", "w2", "combine", "optimum")

    def __init__(self, instance, form, x: BitString, pair):
        self.bits = x.tolist()
        self.l1, self.l2 = map(float, pair)
        self.w1, self.w2 = form.weights
        self.combine = instance.combine
        self.optimum = instance.optimum

    def select(self, flips: list, f_x: float) -> Optional[float]:
        """Move to the offspring and return its value if it is no worse than f_x."""
        bits, w1, w2 = self.bits, self.w1, self.w2
        l1, l2 = self.l1, self.l2
        for j in flips:
            if bits[j]:
                l1 -= w1[j]
                l2 -= w2[j]
            else:
                l1 += w1[j]
                l2 += w2[j]
        f_y = float(self.combine(l1, l2))
        if not f_y <= f_x:
            return None
        for j in flips:
            bits[j] ^= 1
        self.l1, self.l2 = l1, l2
        return f_y

    def is_optimal(self) -> bool:
        return (self.l1, self.l2) == self.optimum

    def state(self) -> BitString:
        return np.array(self.bits, dtype=np.uint8)


class _FullParent:
    """The parent as a bit array and its linear pair; offspring are summed in full."""

    __slots__ = ("x", "pair", "linear_values", "combine", "optimum")

    def __init__(self, instance, x: BitString, pair):
        self.x, self.pair = x, pair
        self.linear_values, self.combine = instance.linear_values, instance.combine
        self.optimum = instance.optimum

    def select(self, flips: list, f_x: float) -> Optional[float]:
        x = self.x
        x[flips] ^= 1
        pair = self.linear_values(x)
        f_y = float(self.combine(*pair))
        if f_y <= f_x:
            self.pair = pair
            return f_y
        x[flips] ^= 1
        return None

    def is_optimal(self) -> bool:
        return self.pair == self.optimum

    def state(self) -> BitString:
        return self.x


def run_ea(
    instance,
    config: EAConfig,
    rng: RandomSource,
    initial: Optional[BitString] = None,
    potential: Optional[Callable[[BitString], float]] = None,
) -> RunTrace:
    """Run to the first optimal point or until the iteration budget is spent.

    The start point is uniform over the domain unless `initial` is given.
    `instance` must expose domain_size, mutation_probability, value(x),
    linear_values(x), combine(l1, l2) and optimum; with a `linear_form` (see
    objectives.LinearForm) offspring are evaluated in O(flipped bits).  The
    start point is valued once, and its linear pair decides its optimality and
    seeds the parent.  `potential`, when given, fills the phi
    column of the trace.  The outcome is deterministic given (instance,
    config, rng state).
    """
    m = instance.domain_size
    p = config.mutation_probability
    if p is None:
        p = instance.mutation_probability
    if initial is None:
        x = rng.generator.integers(0, 2, m, dtype=np.uint8)
    else:
        x = as_bits(initial).copy()
        if x.size != m:
            raise ValueError(f"initial point must have {m} bits")
    f_x = instance.value(x)
    pair = instance.linear_values(x)

    samples = []
    snapshot = None  # (f, phi, ones) of the current parent, once computed

    def record(iteration: int):
        nonlocal snapshot
        if snapshot is None:
            state = parent.state()
            phi = float(potential(state)) if potential is not None else None
            snapshot = (f_x, phi, int(state.sum()))
        samples.append((iteration, *snapshot))

    form = getattr(instance, "linear_form", None)
    parent = _FullParent(instance, x, pair) if form is None else _LinearParent(instance, form, x, pair)
    record(0)
    hitting_time: Optional[int] = None
    accepted_steps = 0
    if parent.is_optimal():
        hitting_time = 0
    else:
        budget = config.max_iterations
        stride = config.trace_stride
        next_mark = stride  # next stride record still to write
        mutations = _Mutations(rng.generator, m, p)
        done = 0  # iterations simulated so far
        while hitting_time is None and done < budget:
            offsets, counts, size = mutations.block()
            for offset, k in zip(offsets, counts):
                t = done + offset + 1
                if t > budget:
                    break
                # the iterations since the last non-empty one left the parent as it is
                while stride and next_mark < t:
                    record(next_mark)
                    next_mark += stride
                f_y = parent.select(mutations.positions(k), f_x)
                if f_y is not None:
                    accepted_steps += 1
                    f_x = f_y
                    snapshot = None
                    if parent.is_optimal():
                        hitting_time = t
                        break
            done += size
        final_t = budget if hitting_time is None else hitting_time
        while stride and next_mark < final_t:
            record(next_mark)
            next_mark += stride
        record(final_t)

    return RunTrace(
        seed=rng.seed,
        spawn_key=rng.spawn_key,
        hitting_time=hitting_time,
        budget_exhausted=hitting_time is None,
        accepted_steps=accepted_steps,
        samples=samples,
        final_state=parent.state(),
    )


def default_budget(n: int, multiplier: float = 20.0) -> int:
    """Iteration budget 20*e*n*ln(n), floored at 100."""
    return max(100, math.ceil(multiplier * math.e * n * math.log(max(2, n))))
