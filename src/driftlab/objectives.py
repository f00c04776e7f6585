"""Objective functions: weighted sums of two monotonically transformed linear parts.

Conventions used throughout the package:

* bitstrings are 1-D numpy ``uint8`` arrays with values in {0, 1};
* bit positions are 0-based in code and 1-based in JSON instance files;
* objectives are minimized, weights are non-negative, transforms are monotone
  non-decreasing, so the minimizers are exactly the strings whose
  positive-weight positions are all zero;
* every linear part (and every potential) is one left-to-right sum,
  :func:`linear_sums`, whether one state or a batch of states is evaluated.

A :class:`CompositeObjective` lives on ``m = n - s`` bits, where ``n`` is the
nominal dimension (the mutation probability defaults to ``1/n``) and ``s``
counts the bit positions shared by the two parts.  The fully equivalent view
with domain dimension ``D`` and mutation probability ``1/(D+s)`` corresponds to
``n = D + s`` here; only this parameterization is implemented.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .rng import RandomSource
from .transforms import MonotoneTransform, compose, from_name, identity, scale, square, square_root

BitString = np.ndarray

WEIGHT_SCHEMES = ("all-ones", "uniform-int", "doubling")
EMBEDDING_SCHEMES = ("canonical", "random")


def linear_sums(bits, weights) -> np.ndarray:
    """Sum_j weights[j] * bits[j] along the last axis, added left to right in float64.

    `bits` is one state (shape (m,)) or a batch of states (rows); `weights`
    broadcasts against it.  The products are added in position order
    0, ..., m-1, the same order for one state, for every row of a batch and
    for the independent oracle, so a state's value never depends on how it
    was evaluated.  This is np.cumsum's last entry; `@`, np.sum (pairwise)
    and the builtin sum() (compensated from Python 3.12) each choose their own
    order and are not used.
    """
    return np.add.accumulate(bits * weights, axis=-1)[..., -1]


def _linear_pair(x, weights: np.ndarray):
    """(l1, l2) for a (2, m) weight matrix: scalars for one state, arrays for a batch of rows."""
    x = np.asarray(x)
    # The pair axis leads: (2, m) weights meet one state, (2, 1, m) a batch of rows.
    l1, l2 = linear_sums(x, weights if x.ndim == 1 else weights[:, None, :])
    return l1, l2


def as_bits(x: Sequence[int]) -> BitString:
    """Coerce a 0/1 sequence to the canonical uint8 bitstring dtype."""
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bitstring must be a flat sequence of 0/1 values")
    return arr


@dataclass(eq=False)
class LinearFunction:
    """Non-negative weighted sum, evaluated in the caller's index order.

    A stable sorted view (ascending weights) plus the permutation between
    orders is kept because potential coefficients are assigned in sorted-weight
    order.
    """

    weights: np.ndarray
    sort_order: np.ndarray = field(init=False)
    sorted_weights: np.ndarray = field(init=False)

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty flat sequence")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        self.weights = w
        self.sort_order = np.argsort(w, kind="stable")
        self.sorted_weights = w[self.sort_order]

    @property
    def arity(self) -> int:
        return int(self.weights.size)

    @property
    def rank_in_sorted(self) -> np.ndarray:
        """For each original index, its 0-based position in the sorted view."""
        inv = np.empty_like(self.sort_order)
        inv[self.sort_order] = np.arange(self.arity)
        return inv

    def value(self, y: BitString) -> float:
        if len(y) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(y)}")
        return float(linear_sums(np.asarray(y), self.weights))


@dataclass(eq=False)
class DomainEmbedding:
    """Strictly increasing position set B placing a k-ary function on m bits."""

    positions: np.ndarray
    domain_size: int

    def __init__(self, positions: Sequence[int], domain_size: int):
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("positions must be a non-empty flat sequence")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if pos[0] < 0 or pos[-1] >= domain_size:
            raise ValueError("positions must lie in [0, domain_size)")
        self.positions = pos
        self.domain_size = int(domain_size)

    @property
    def arity(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class LinearForm:
    """An objective as combine(l1, l2) with linear sums that float64 keeps exact.

    Every subset sum of either per-position weight list is an integer below
    2**53, so adding or removing one position's weight never rounds, and every
    summation order gives the same bits: a pair (l1, l2) updated one flipped
    bit at a time equals linear_values(x), and so does combine(l1, l2) and
    value(x).
    """

    weights: tuple  # (w1, w2): lists of Python floats, one entry per position


def _linear_form(weights: np.ndarray) -> Optional[LinearForm]:
    """The exact incremental form of a (2, m) weight matrix, or None if some
    weight sum can round (a non-integer weight, or a part total of 2**53 or more)."""
    if not all(np.all(w == np.floor(w)) and math.fsum(w) < 2.0**53 for w in weights):
        return None
    return LinearForm(tuple(w.tolist() for w in weights))


def _check_shape(n: int, s: int, alpha: Fraction) -> None:
    """Reject (n, s, alpha) outside the model: n >= 1, 0 <= s <= (1-alpha)*n,
    alpha*n integral and 1/2 <= alpha < ln 2."""
    if n < 1:
        raise ValueError("nominal dimension n must be positive")
    if s < 0:
        raise ValueError("overlap s must be non-negative")
    if (alpha * n).denominator != 1:
        raise ValueError(f"alpha*n = {alpha}*{n} is not an integer")
    if not (Fraction(1, 2) <= alpha and float(alpha) < math.log(2)):
        raise ValueError(f"alpha = {alpha} outside [1/2, ln 2)")
    if s > (1 - alpha) * n:
        raise ValueError(f"overlap s = {s} exceeds (1-alpha)*n = {(1 - alpha) * n}")


@dataclass(eq=False)
class CompositeObjective:
    """h1(l1*(x)) + h2(l2*(x)) on m = n - s bits.

    The two linear parts sit on position sets B1 (|B1| = alpha*n) and B2
    (|B2| = (1-alpha)*n) with |B1 & B2| = s and B1 | B2 = {0, ..., m-1};
    alpha is rational with alpha*n integral, 1/2 <= alpha < ln 2, and
    slack = 2 - e^alpha > 0 is the instance's drift margin.

    Weights are non-negative, so a state is optimal iff its pair
    linear_values(x) equals `optimum` = (0, 0): a sum is 0 iff no
    positive-weight bit is set.
    """

    optimum = (0.0, 0.0)

    n: int
    s: int
    alpha: Fraction
    functions: tuple[LinearFunction, LinearFunction]
    embeddings: tuple[DomainEmbedding, DomainEmbedding]
    transforms: tuple[MonotoneTransform, MonotoneTransform]

    def __init__(self, n, s, alpha, functions, embeddings, transforms, label=""):
        self.n = int(n)
        self.s = int(s)
        self.alpha = Fraction(alpha)
        self.functions = tuple(functions)
        self.embeddings = tuple(embeddings)
        self.transforms = tuple(transforms)
        self.label = label
        self._validate()
        self._weights = np.zeros((2, self.domain_size))
        for w, lf, emb in zip(self._weights, self.functions, self.embeddings):
            w[emb.positions] = lf.weights

    def _validate(self):
        _check_shape(self.n, self.s, self.alpha)
        m = self.n - self.s
        k1 = int(self.alpha * self.n)
        k2 = self.n - k1
        f1, f2 = self.functions
        e1, e2 = self.embeddings
        if f1.arity != k1 or e1.arity != k1:
            raise ValueError(f"first part must have arity alpha*n = {k1}")
        if f2.arity != k2 or e2.arity != k2:
            raise ValueError(f"second part must have arity (1-alpha)*n = {k2}")
        if e1.domain_size != m or e2.domain_size != m:
            raise ValueError(f"embeddings must target the {m}-bit domain")
        b1 = set(e1.positions.tolist())
        b2 = set(e2.positions.tolist())
        if len(b1 & b2) != self.s:
            raise ValueError(f"|B1 & B2| = {len(b1 & b2)} but s = {self.s}")
        if b1 | b2 != set(range(m)):
            raise ValueError("B1 | B2 must cover the whole domain")

    @property
    def domain_size(self) -> int:
        return self.n - self.s

    @property
    def slack(self) -> float:
        """The margin 2 - e^alpha > 0 entering the reference drift rate."""
        return 2.0 - math.exp(float(self.alpha))

    @property
    def mutation_probability(self) -> float:
        return 1.0 / self.n

    def extended_weights(self, part: int) -> np.ndarray:
        """Per-position weight vector of part 0 or 1 over the full domain."""
        return self._weights[part]

    def linear_values(self, x: BitString):
        """(w1 . x, w2 . x) through linear_sums, for one state or a batch of rows."""
        return _linear_pair(x, self._weights)

    def combine(self, l1, l2):
        """h1(l1) + h2(l2) for linear-part values (scalars or arrays)."""
        return self.transforms[0].apply(l1) + self.transforms[1].apply(l2)

    def value(self, x: BitString) -> float:
        if len(x) != self.domain_size:
            raise ValueError(f"expected {self.domain_size} bits, got {len(x)}")
        return float(self.combine(*self.linear_values(x)))

    @functools.cached_property
    def linear_form(self) -> Optional[LinearForm]:
        """The exact incremental form, or None if some weight sum can round."""
        return _linear_form(self._weights)

    def is_optimal(self, x: BitString) -> bool:
        """True iff no position carrying positive weight in either part is set.

        This is the exact minimizer set (non-negative weights, monotone
        transforms), read off the linear pair without any value comparison.
        """
        if len(x) != self.domain_size:
            raise ValueError(f"expected {self.domain_size} bits, got {len(x)}")
        return self.linear_values(x) == self.optimum

    def to_dict(self) -> dict:
        f1, f2 = self.functions
        e1, e2 = self.embeddings
        return {
            "n": self.n,
            "s": self.s,
            "alpha_num": self.alpha.numerator,
            "alpha_den": self.alpha.denominator,
            "weights1": f1.weights.tolist(),
            "weights2": f2.weights.tolist(),
            "B1": (e1.positions + 1).tolist(),
            "B2": (e2.positions + 1).tolist(),
            "transform1": self.transforms[0].to_dict(),
            "transform2": self.transforms[1].to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "CompositeObjective":
        n = int(d["n"])
        s = int(d["s"])
        alpha = Fraction(int(d["alpha_num"]), int(d["alpha_den"]))
        m = n - s
        return CompositeObjective(
            n,
            s,
            alpha,
            (LinearFunction(d["weights1"]), LinearFunction(d["weights2"])),
            (
                DomainEmbedding(np.asarray(d["B1"], dtype=np.int64) - 1, m),
                DomainEmbedding(np.asarray(d["B2"], dtype=np.int64) - 1, m),
            ),
            (MonotoneTransform.from_dict(d["transform1"]), MonotoneTransform.from_dict(d["transform2"])),
        )


def normal_quantile(level: float) -> float:
    """Quantile of the standard normal distribution at `level` in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return float(ndtri(level))


@dataclass(eq=False)
class ChanceInstance:
    """Items with independent normal weights N(mu_i, sigma_i^2).

    The smallest W guaranteed with probability `confidence` for selection x is
    fitness(x) = mu(x) + quantile(confidence) * sigma(x); minimizing that is
    the deterministic equivalent of the probabilistic guarantee.  Both sums go
    through linear_sums, so fitness_value(x) equals build_chance(self).value(x)
    bit for bit.
    """

    mu: np.ndarray
    sigma: np.ndarray
    confidence: float

    def __init__(self, mu: Sequence[float], sigma: Sequence[float], confidence: float):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        if self.mu.ndim != 1 or self.mu.size == 0 or self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must be non-empty sequences of equal length")
        if np.any(self.mu < 0) or np.any(self.sigma < 0):
            raise ValueError("mu and sigma must be non-negative")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
        self.confidence = float(confidence)

    @property
    def item_count(self) -> int:
        return int(self.mu.size)

    @property
    def fractile(self) -> float:
        return normal_quantile(self.confidence)

    def mean_value(self, x: BitString) -> float:
        return float(linear_sums(np.asarray(x), self.mu))

    def std_value(self, x: BitString) -> float:
        return math.sqrt(float(linear_sums(np.asarray(x), self.sigma**2)))

    def fitness_value(self, x: BitString) -> float:
        return self.mean_value(x) + self.fractile * self.std_value(x)

    def to_dict(self) -> dict:
        return {
            "m": self.item_count,
            "mu": self.mu.tolist(),
            "sigma": self.sigma.tolist(),
            "alpha_c": self.confidence,
        }

    @staticmethod
    def from_dict(d: dict) -> "ChanceInstance":
        inst = ChanceInstance(d["mu"], d["sigma"], d["alpha_c"])
        if int(d.get("m", inst.item_count)) != inst.item_count:
            raise ValueError("declared item count m does not match mu length")
        return inst


def chance_level_check(
    c: ChanceInstance, x: BitString, samples: int, rng: RandomSource
) -> float:
    """Empirical Pr(w(x) <= fitness(x)) from per-item normal draws.

    Draws `samples` realizations of w(x) = sum_i w_i x_i with independent
    w_i ~ N(mu_i, sigma_i^2) and returns the fraction not exceeding the
    deterministic-equivalent fitness; converges to `confidence`.
    """
    x = as_bits(x)
    if len(x) != c.item_count:
        raise ValueError(f"expected {c.item_count} bits, got {len(x)}")
    if samples < 1:
        raise ValueError("samples must be positive")
    chosen = np.flatnonzero(x)
    if chosen.size == 0 or c.std_value(x) == 0.0:
        raise ValueError("probe has zero variance; the stochastic check is undefined")
    threshold = c.fitness_value(x)
    mu = c.mu[chosen]
    sig = c.sigma[chosen]
    gen = rng.generator
    hits = 0
    done = 0
    chunk = max(1, min(int(samples), 2_000_000 // max(1, chosen.size)))
    while done < samples:
        take = min(chunk, samples - done)
        draws = gen.normal(mu, sig, size=(take, chosen.size))
        hits += int(np.count_nonzero(draws.sum(axis=1) <= threshold))
        done += take
    return hits / samples


def build_chance(c: ChanceInstance) -> CompositeObjective:
    """Full-overlap composite whose value equals the chance fitness.

    Uses n = 2m, s = m, alpha = 1/2 (so the default mutation probability is
    1/(2m)); the first part carries the means under the identity, the second
    the variances under scale(fractile) o square_root.
    """
    m = c.item_count
    every = np.arange(m)
    return CompositeObjective(
        2 * m,
        m,
        Fraction(1, 2),
        (LinearFunction(c.mu), LinearFunction(c.sigma**2)),
        (DomainEmbedding(every, m), DomainEmbedding(every, m)),
        (identity(), compose(scale(c.fractile), square_root())),
        label=f"chance(m={m}, alpha_c={c.confidence})",
    )


def build_separable(w1: Sequence[float], w2: Sequence[float]) -> CompositeObjective:
    """Disjoint halves: square of the first linear part plus root of the second."""
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.size == 0 or w1.size != w2.size:
        raise ValueError("both halves need the same positive number of weights")
    half = w1.size
    n = 2 * half
    return CompositeObjective(
        n,
        0,
        Fraction(1, 2),
        (LinearFunction(w1), LinearFunction(w2)),
        (DomainEmbedding(np.arange(half), n), DomainEmbedding(np.arange(half, n), n)),
        (square(), square_root()),
        label=f"separable(n={n})",
    )


def onemax(n: int) -> CompositeObjective:
    """The all-ones-weight, identity-transform instance: f(x) = |x|_1."""
    if n < 2 or n % 2:
        raise ValueError("onemax preset needs an even n >= 2")
    half = n // 2
    ones = np.ones(half)
    return CompositeObjective(
        n,
        0,
        Fraction(1, 2),
        (LinearFunction(ones), LinearFunction(ones)),
        (DomainEmbedding(np.arange(half), n), DomainEmbedding(np.arange(half, n), n)),
        (identity(), identity()),
        label=f"onemax(n={n})",
    )


@dataclass(eq=False)
class MultimodalInstance:
    """Negative-weight counterexample with single-one-bit local optima.

    f(x) = (x_1/2 + sum_{i>=2} x_i) + (zeros(x)/(n-0.5))^E for a large even
    exponent E (default n^2): the second term is huge at the all-zeros string
    and negligible elsewhere, so each single-one-bit string at positions
    2..n is a strict local optimum while (1, 0, ..., 0) is the unique global
    minimizer.  Escaping a local optimum requires a simultaneous two-bit flip.

    The linear pair is (x_1, sum_{i>=2} x_i), with weight rows e_1 and 1 - e_1,
    and the optimum is the pair (1, 0).  The zeros term takes one value per
    one-count 0..n; it is tabulated once, so one state and a batch of states
    read the same bits.
    """

    n: int
    exponent: int = 0
    optimum = (1.0, 0.0)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.exponent == 0:
            self.exponent = self.n * self.n
        if self.exponent < 1:
            raise ValueError("exponent must be positive")
        self._weights = np.zeros((2, self.n))
        self._weights[0, 0] = 1.0
        self._weights[1, 1:] = 1.0
        try:
            self._zeros_term = np.array(
                [((self.n - k) / (self.n - 0.5)) ** self.exponent for k in range(self.n + 1)]
            )
        except OverflowError:
            raise ValueError(
                f"zeros term (n/(n-0.5))^exponent overflows float64 at n={self.n}, "
                f"exponent={self.exponent}"
            ) from None

    @property
    def domain_size(self) -> int:
        return self.n

    @property
    def mutation_probability(self) -> float:
        return 1.0 / self.n

    def linear_values(self, x: BitString):
        """(x_1, sum_{i>=2} x_i) through linear_sums, for one state or a batch of rows."""
        return _linear_pair(x, self._weights)

    def combine(self, l1, l2):
        """The ones term l1/2 + l2 plus the large power of the zeros count."""
        return 0.5 * l1 + l2 + self._zeros_term[np.intp(l1 + l2)]

    def value(self, x: BitString) -> float:
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(x)}")
        return float(self.combine(*self.linear_values(x)))

    @functools.cached_property
    def linear_form(self) -> LinearForm:
        """Both parts count bits, so their sums are exact."""
        return _linear_form(self._weights)

    def global_optimum(self) -> BitString:
        x = np.zeros(self.n, dtype=np.uint8)
        x[0] = 1
        return x

    def local_optimum(self, position: int = 1) -> BitString:
        """The planted single-one-bit point (0-based position >= 1)."""
        if not 1 <= position < self.n:
            raise ValueError("local optima sit at positions 1..n-1 (0-based)")
        x = np.zeros(self.n, dtype=np.uint8)
        x[position] = 1
        return x

    def is_optimal(self, x: BitString) -> bool:
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(x)}")
        return self.linear_values(x) == self.optimum


def generate_instance(
    n: int,
    s: int,
    alpha,
    weight_scheme: str = "uniform-int",
    weight_range: tuple[int, int] = (1, 100),
    transforms: tuple = ("square", "square_root"),
    embedding_scheme: str = "canonical",
    rng: Optional[RandomSource] = None,
) -> CompositeObjective:
    """Draw a valid composite instance from the given generation parameters.

    The canonical embedding places B1 = {1, ..., alpha*n} and
    B2 = {alpha*n - s + 1, ..., n - s} (1-based); the random scheme permutes
    the domain before carving out the exclusive and shared blocks.
    """
    alpha = Fraction(alpha)
    n = int(n)
    s = int(s)
    _check_shape(n, s, alpha)
    if weight_scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {weight_scheme!r}; choose from {WEIGHT_SCHEMES}")
    if embedding_scheme not in EMBEDDING_SCHEMES:
        raise ValueError(f"unknown embedding scheme {embedding_scheme!r}; choose from {EMBEDDING_SCHEMES}")

    needs_rng = weight_scheme == "uniform-int" or embedding_scheme == "random"
    if needs_rng and rng is None:
        raise ValueError(f"weight scheme {weight_scheme!r}/embedding {embedding_scheme!r} needs a RandomSource")
    gen = rng.generator if rng is not None else None

    m = n - s
    k1 = int(alpha * n)
    k2 = n - k1

    def draw_weights(k: int) -> np.ndarray:
        if weight_scheme == "all-ones":
            return np.ones(k)
        if weight_scheme == "doubling":
            return np.power(2.0, np.arange(k))
        lo, hi = weight_range
        if not 0 <= lo <= hi:
            raise ValueError("weight range must satisfy 0 <= lo <= hi")
        return gen.integers(lo, hi + 1, size=k).astype(np.float64)

    if embedding_scheme == "canonical":
        b1 = np.arange(k1)
        b2 = np.arange(k1 - s, m)
    else:
        perm = gen.permutation(m)
        only1 = perm[: k1 - s]
        shared = perm[k1 - s : k1]
        only2 = perm[k1:]
        b1 = np.sort(np.concatenate([only1, shared]))
        b2 = np.sort(np.concatenate([shared, only2]))

    pair = []
    for t in transforms:
        pair.append(t if isinstance(t, MonotoneTransform) else from_name(t))

    return CompositeObjective(
        n,
        s,
        alpha,
        (LinearFunction(draw_weights(k1)), LinearFunction(draw_weights(k2))),
        (DomainEmbedding(b1, m), DomainEmbedding(b2, m)),
        tuple(pair),
        label=f"generated(n={n}, s={s}, alpha={alpha}, weights={weight_scheme})",
    )


def save_instance(instance: CompositeObjective, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> CompositeObjective:
    with open(path, encoding="utf-8") as fh:
        return CompositeObjective.from_dict(json.load(fh))


def save_chance_instance(c: ChanceInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(c.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_chance_instance(path) -> ChanceInstance:
    with open(path, encoding="utf-8") as fh:
        return ChanceInstance.from_dict(json.load(fh))
