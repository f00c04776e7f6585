"""The elitist single-parent, single-offspring EA with standard bit mutation.

Minimization convention: an offspring replaces the parent iff its objective
value does not exceed the parent's, so equal values (including the offspring
that flips nothing) are always accepted.  One repeat-loop iteration equals one
mutation + selection, whether or not any bit flips.

`run_ea` simulates that loop sparsely but with the exact law of standard bit
mutation: it draws each iteration's flip count K ~ Binomial(m, p) in blocks,
passes over the iterations with K = 0 (they leave the parent as it is), and
for K >= 1 draws K distinct uniform positions.  The parent carries its
linear pair (l1, l2) in the form of objectives.LinearForm, whose sums never
round, so f = float_kernel(l1, l2) is value(x) for every objective, the
parent is optimal iff the pair equals the instance's `optimum`, and one loop
values every offspring in O(K).  The random stream is consumed in that
sparse order, and the same (instance, config, stream) gives the same run.

Runs on one `RandomSource` go on from each other.  A run leaves its
`_Mutations` on the source (`carry`): the block it stopped in, from the
iteration after its last (after the hit, or after the budget's end), and the
position pool with its cursor.  The next run on the source takes those up
before it draws anything, if it has the same (m, p) and the source the same
generator; otherwise it starts afresh, so a fresh source draws what a lone
run always drew.  Block sizes keep doubling from run to run, so a stream of
short runs soon draws its flip counts and positions 4096 at a time.  The law
of every run stays exactly that of standard bit mutation: the flip counts
are one iid sequence, the pool's positions another (a refill drops the
pool's rest unseen, and a permutation or a drawn start is a fresh draw), and
a run stops at a stopping time of them, since its hit or its budget's end
depends only on the draws up to it and on its start.  What follows a
stopping time of an iid sequence is again iid and independent of all before
it, so each run sees fresh draws, independent of the runs before.  A run's
outcome thus depends on (instance, config, stream) and on the runs made on
the stream before it.

The loop never re-sums: it carries, per position, what a flip adds to the
pair (+w while the bit is 0, -w while it is 1), so an offspring's pair is
l1 + d1[j] (+ d1[i]) with no branch on the bit, and an accepted flip negates
the entries.  Every K with K*K <= m takes its positions from the
`_Mutations` pool inline, as ints,
with the draws `_Mutations.positions` would make (a repeated position
redraws all K): K = 1 (tested first), 2 and 3 are written out, each larger K
takes one slice of the pool.  Only K*K > m calls `positions`, which then
takes the first K entries of one uniform random permutation of range(m) (an
exactly uniform K-subset; K = m flips all with no draw) and neither reads
nor moves the pool.  The pool, its refill rule (`_Mutations.refill`) and the
subset draw have that one owner; the loop keeps the pool, its cursor and its
end in locals, and leaves the cursor in the carry when the run ends.

The parent's state at the start (its bits, its pair, its two delta lists and
its value) is a `PreparedStart`.  `prepare_starts` builds it for a batch of
rows at once, with a fixed number of numpy calls on the LinearForm's weights
and negated weights and one `value` call for the whole batch.  `run_ea` takes
a prepared start as `initial` and copies its lists, and it prepares a drawn
or given start as a batch of one, so every start is checked (by the check
every entry point shares, objectives._bits) and valued on that one path.

Each block's offsets are cut to the budget once, with `bisect` (an `islice`
of its pair iterator, whose rest the next run takes up), when the budget ends
inside it, so no offspring tests the budget, and the carry is read and
written once per run.  The iteration number t is computed only when an
offspring is accepted: stride records are written when the parent is about
to change (every mark before t saw the old parent) and when the run ends,
which gives the samples a per-iteration check would; a sample carries f as a
float.  A rejected offspring thus costs its
position draw, its pair, one `float_kernel` call and one comparison.

`standard_bit_mutation` (the dense one-step draw, one uniform per bit) and
its `MutationEvent` are kept only because the benchmark tracer wraps that
function; `run_ea` does not call them.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NamedTuple, Optional

import numpy as np

from .objectives import BitString, _bits
from .rng import RandomSource


def check_mutation_probability(p):
    """p, or a ValueError unless it is a real number in (0, 1]; as in config
    files, a bool is none, so True is no probability of 1 (and NaN lies in no range)."""
    if isinstance(p, (bool, np.bool_)) or not isinstance(p, numbers.Real):
        raise ValueError(f"mutation probability must be a real number, got {p!r}")
    if not 0.0 < p <= 1.0:
        raise ValueError("mutation probability must lie in (0, 1]")
    return p


@dataclass
class EAConfig:
    """Run parameters; mutation_probability defaults to 1/n of the instance."""

    max_iterations: int
    mutation_probability: Optional[float] = None
    trace_stride: int = 0  # 0 records endpoints only

    def __post_init__(self):
        # only an int is an integer, as in instance files and ExperimentConfig
        if type(self.max_iterations) is not int or type(self.trace_stride) is not int:
            raise ValueError(f"max_iterations and trace_stride must be integers, got "
                             f"{self.max_iterations!r} and {self.trace_stride!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.mutation_probability is not None:
            check_mutation_probability(self.mutation_probability)
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
    chance above 1/2); larger k take the first k entries of one
    `Generator.permutation(m)`, an exactly uniform k-subset, and k = m takes
    every position with no draw.

    The current block is kept with the offset of its first iteration not yet
    used (`first`), and the position pool with its cursor, so that the next
    run on the same stream goes on where the last one stopped.
    """

    __slots__ = ("gen", "m", "p", "size", "pool", "at", "offsets", "pairs", "length", "first")

    def __init__(self, gen: np.random.Generator, m: int, p: float):
        self.gen, self.m, self.p = gen, m, p
        self.size = _FIRST_BLOCK
        self.pool: list = []
        self.at = 0
        self.offsets, self.pairs, self.length, self.first = [], iter(()), 0, 0

    def block(self) -> tuple[list, list, int]:
        """The next block of iterations: offsets and flip counts of its
        non-empty ones, and its length."""
        size = self.size
        counts = self.gen.binomial(self.m, self.p, size=size)
        hits = counts.nonzero()[0]
        self.size = min(2 * size, _MAX_BLOCK)
        return hits.tolist(), counts[hits].tolist(), size

    def current(self) -> tuple[list, object, int, int]:
        """The block the next iteration lies in, drawn if none is left: the
        offsets of its non-empty iterations, an iterator over their (offset,
        flip count) pairs from `first` on, its length and `first`.  A run takes
        the rest of the block unless it ends inside it, when it sets `first`."""
        first = self.first
        if first == self.length:
            offsets, counts, self.length = self.block()
            self.offsets, self.pairs, first = offsets, zip(offsets, counts), 0
        self.first = self.length
        return self.offsets, self.pairs, self.length, first

    def refill(self, k: int) -> list:
        """A fresh pool of iid uniform positions, at least k of them and as
        many as the next block has iterations."""
        self.pool = self.gen.integers(0, self.m, size=max(self.size, k)).tolist()
        self.at = 0
        return self.pool

    def positions(self, k: int) -> list:
        m = self.m
        if k == m:
            return list(range(m))
        if k * k > m:
            return self.gen.permutation(m)[:k].tolist()
        while True:
            if self.at + k > len(self.pool):
                self.refill(k)
            flips = self.pool[self.at : self.at + k]
            self.at += k
            if k == 1 or len(set(flips)) == k:
                return flips


class PreparedStart(NamedTuple):
    """A parent state as `run_ea` carries it: its bits, its linear pair
    (l1, l2), what flipping each position adds to the pair (d1, d2: +w while
    the bit is 0, -w while it is 1) and its value f."""

    bits: list
    l1: object
    l2: object
    d1: list
    d2: list
    f: object


def prepare_starts(instance, rows) -> list[PreparedStart]:
    """Each row of `rows`, an (R, m) array of 0/1 values, as a start for `run_ea`.

    The rows are checked once, by objectives._bits: any bool, integer or float
    dtype of 0s and 1s, each row of m = instance.domain_size bits.  Every row's
    state then comes from a fixed number of numpy calls, whatever R is: the
    exact pairs from one dot with the LinearForm's weights (exact sums, the
    same in any order), the flip deltas from one np.where on its weights and
    negated weights, and f from one instance.value(rows).  `run_ea` copies
    a start's lists, so one prepared start can seed any number of runs.
    """
    rows = _bits(rows, instance.domain_size, (2,))
    form = instance.linear_form
    l1, l2 = form.weights.dot(rows.T).tolist()
    deltas = np.where(rows[:, None, :], form.negated, form.weights).tolist()  # row, part, position
    return list(map(PreparedStart, rows.tolist(), l1, l2, *zip(*deltas), instance.value(rows)))


def run_ea(
    instance,
    config: EAConfig,
    rng: RandomSource,
    initial: Optional[BitString | PreparedStart] = None,
    potential: Optional[Callable[[BitString], float]] = None,
) -> RunTrace:
    """Run to the first optimal point or until the iteration budget is spent.

    The start point is uniform over the domain unless `initial` is given,
    as a bit sequence or as a `PreparedStart`, whose lists the run copies;
    a drawn or given sequence goes through `prepare_starts` as a batch of
    one.  `instance` must expose domain_size, mutation_probability, value(x)
    of a batch of rows, optimum, a `linear_form` (see objectives.LinearForm;
    any object with its `weights` and `negated` will do) and
    float_kernel(l1, l2), the objective value of a pair of that form (equal
    to value(x) for x's pair).  The start's linear pair decides its
    optimality and seeds the parent; a prepared start of another width is
    refused.  `potential`, when given, fills the phi column of the trace.
    The run goes on with the draws the last run on `rng` left unused (module
    docstring), so the outcome is deterministic given (instance, config, rng
    state and carry).
    """
    m = instance.domain_size
    p = config.mutation_probability
    if p is None:
        p = instance.mutation_probability
    gen = rng.generator
    if isinstance(initial, PreparedStart):  # perhaps shared: the run changes copies of its lists
        bits, l1, l2, d1, d2, f_x = initial
        if len(bits) != m:
            raise ValueError(f"expected a start of {m} bits, got one prepared for {len(bits)}")
        bits, d1, d2 = bits.copy(), d1.copy(), d2.copy()
    else:  # a drawn or given start, prepared as a batch of one
        rows = gen.integers(0, 2, (1, m), dtype=np.uint8) if initial is None else np.asarray(initial)[None]
        bits, l1, l2, d1, d2, f_x = prepare_starts(instance, rows)[0]
    kernel, optimum = instance.float_kernel, instance.optimum
    mutations = rng.carry  # what the last run on this stream drew and left unused
    if mutations is None or mutations.gen is not gen or (mutations.m, mutations.p) != (m, p):
        mutations = rng.carry = _Mutations(gen, m, p)
    pool, at, end = mutations.pool, mutations.at, len(mutations.pool)  # the pool, its cursor and its length
    # every K with K*K <= m is drawn from the pool inline, as positions()
    # would draw it: K = 1, 2 and 3 written out, larger K by one slice.
    # Where positions() draws otherwise these are 0, which no K is (m = 1
    # draws nothing: its one K is the whole domain)
    one = 1 if m > 1 else 0
    two = 2 if m >= 4 else 0
    three = 3 if m >= 9 else 0
    most = math.isqrt(m) if m > 1 else 0  # the largest K drawn inline

    budget = config.max_iterations
    stride = config.trace_stride or budget + 1  # without a stride no mark after 0 is reached
    samples = []
    next_mark = 0  # the first stride mark not yet recorded

    def record(stop: int, f, parent: list, final: bool = False) -> None:
        """Sample the parent (a bit list), of value f (as a float), at each mark
        still due before iteration `stop`, and at `stop` itself when the run ends there."""
        nonlocal next_mark
        phi = float(potential(np.array(parent, dtype=np.uint8))) if potential is not None else None
        ones, f = parent.count(1), float(f)
        while next_mark < stop:
            samples.append((next_mark, f, phi, ones))
            next_mark += stride
        if final:
            samples.append((stop, f, phi, ones))

    # An accepted offspring at iteration t first records the marks before t,
    # which the parent it replaces held; a rejected one costs its draw, its
    # pair, one kernel call and one comparison.
    hitting_time: Optional[int] = None
    accepted_steps = 0
    if (l1, l2) == optimum:
        hitting_time = 0
    done = 0  # iterations simulated so far
    while hitting_time is None and done < budget:
        offsets, pairs, size, first = mutations.current()
        base = done - first  # offset o is iteration base + o + 1
        if base + size > budget:  # the budget ends in this block: cut it once, leave the rest
            mutations.first = budget - base
            pairs = islice(pairs, bisect_left(offsets, budget - base) - bisect_left(offsets, first))
        for offset, k in pairs:
            if k == one:
                if at == end:
                    pool, at = mutations.refill(1), 0
                    end = len(pool)
                j = pool[at]
                at += 1
                f_y = kernel(l1 + d1[j], l2 + d2[j])
                if not f_y <= f_x:
                    continue
                flips = (j,)
            elif k == two:
                while True:  # a repeated position redraws both
                    if at + 2 > end:
                        pool, at = mutations.refill(2), 0
                        end = len(pool)
                    j, i = pool[at], pool[at + 1]
                    at += 2
                    if j != i:
                        break
                f_y = kernel(l1 + d1[j] + d1[i], l2 + d2[j] + d2[i])
                if not f_y <= f_x:
                    continue
                flips = (j, i)
            elif k == three:
                while True:  # a repeated position redraws all three
                    if at + 3 > end:
                        pool, at = mutations.refill(3), 0
                        end = len(pool)
                    j, i, h = pool[at], pool[at + 1], pool[at + 2]
                    at += 3
                    if j != i and j != h and i != h:
                        break
                f_y = kernel(l1 + d1[j] + d1[i] + d1[h], l2 + d2[j] + d2[i] + d2[h])
                if not f_y <= f_x:
                    continue
                flips = (j, i, h)
            else:
                if k <= most:
                    while True:  # a repeated position redraws all k
                        if at + k > end:
                            pool, at = mutations.refill(k), 0
                            end = len(pool)
                        flips = pool[at : at + k]
                        at += k
                        if len(set(flips)) == k:
                            break
                else:  # K*K > m: range(m) or a permutation prefix, never the pool
                    flips = mutations.positions(k)
                y1, y2 = l1, l2
                for j in flips:
                    y1 += d1[j]
                    y2 += d2[j]
                f_y = kernel(y1, y2)
                if not f_y <= f_x:
                    continue
            t = base + offset + 1
            if next_mark < t:
                record(t, f_x, bits)
            for j in flips:  # the offspring's pair again, in the same order
                l1 += d1[j]
                l2 += d2[j]
                bits[j] ^= 1
                d1[j], d2[j] = -d1[j], -d2[j]
            f_x = f_y
            accepted_steps += 1
            if (l1, l2) == optimum:
                hitting_time = t
                mutations.first = offset + 1  # the next run on this stream goes on after t
                break
        done = base + size
    mutations.at = at
    record(budget if hitting_time is None else hitting_time, f_x, bits, final=True)

    return RunTrace(
        seed=rng.seed,
        spawn_key=rng.spawn_key,
        hitting_time=hitting_time,
        budget_exhausted=hitting_time is None,
        accepted_steps=accepted_steps,
        samples=samples,
        final_state=np.array(bits, dtype=np.uint8),
    )


def default_budget(n: int, multiplier: float = 20.0) -> int:
    """Iteration budget 20*e*n*ln(n), floored at 100."""
    return max(100, math.ceil(multiplier * math.e * n * math.log(max(2, n))))
