"""Objective functions: weighted sums of two monotonically transformed linear parts.

Conventions used throughout the package:

* bitstrings are 1-D numpy ``uint8`` arrays with values in {0, 1}; every entry
  point that takes bits checks them, and converts other 0/1 dtypes, with `_bits`;
* bit positions are 0-based in code and 1-based in JSON instance files;
* objectives are minimized, weights are non-negative, transforms are monotone
  non-decreasing, so the minimizers are exactly the strings whose
  positive-weight positions are all zero;
* a linear part's value is its exact sum correctly rounded (math.fsum of the
  chosen weights), whether one state or a batch of states is evaluated; the
  EA carries the exact pair itself (:class:`LinearForm`), and a potential is
  one left-to-right sum, :func:`linear_sums`.

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
import numbers
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .rng import RandomSource
from .transforms import (
    ARRAY_FUNCTIONS, FLOAT_FUNCTIONS, MonotoneTransform, compile_function, compose, from_name, identity, scale,
    square, square_root,
)

BitString = np.ndarray

WEIGHT_SCHEMES = ("all-ones", "uniform-int", "doubling")
EMBEDDING_SCHEMES = ("canonical", "random")


def linear_sums(bits, weights) -> np.ndarray:
    """Sum_j weights[j] * bits[j] along the last axis, added left to right in float64.

    `bits` is one state (shape (m,)) or a batch of states (rows); `weights`
    broadcasts against it.  The products are added in position order
    0, ..., m-1, the same order for one state, for every row of a batch and
    for the independent oracle, so a potential's value never depends on how
    it was evaluated.  This is np.cumsum's last entry; `@`, np.sum (pairwise)
    and the builtin sum() (compensated from Python 3.12) each choose their own
    order, which only exact sums (LinearForm) can afford.
    """
    return np.add.accumulate(bits * weights, axis=-1)[..., -1]


def _bits(x, m: Optional[int] = None, ndims: tuple = (1, 2)) -> np.ndarray:
    """x as uint8 bits, one state (m,) or a batch of rows (R, m) as `ndims`
    allows (any width where m is None): any bool, integer or float dtype of
    exact 0s and 1s, checked before the cast, so 2, 0.5, -1, NaN or 256 never
    wrap or truncate to a bit.  A uint8 array is returned as it is after one
    pass (0 and 1 are its only values <= 1); anything else is one ValueError
    naming the expected width."""
    x = np.asarray(x)
    if x.dtype != np.uint8 and x.dtype.kind in "biuf" and not ((x != 0) & (x != 1)).any():
        x = x.astype(np.uint8)  # bools, other ints and floats as the ints 0 and 1
    if x.dtype != np.uint8 or x.ndim not in ndims or m not in (None, x.shape[-1]) or x.max(initial=0) > 1:
        width = "a flat sequence" if m is None else f"{m} bits"
        shapes = " or ".join((f"({m or 'm'},)", f"(R, {m or 'm'})")[d - 1] for d in ndims)
        raise ValueError(f"expected {width} of 0/1 values, shape {shapes}; got {x.dtype} of shape {x.shape}")
    return x


def _values(instance, x):
    """f of one state, or each row's f as a list: float_kernel of the pair, as run_ea carries it."""
    x = _bits(x, instance.domain_size)
    pairs = instance.linear_form.pair(x)
    return instance.float_kernel(*pairs) if x.ndim == 1 else list(map(instance.float_kernel, *pairs))


def _at_optimum(instance, x):
    """Whether x's pair equals instance.optimum, as run_ea tests it: a bool, or a bool array for rows."""
    x = _bits(x, instance.domain_size)
    (l1, l2), (o1, o2) = instance.linear_form.weights.dot(x.T), instance.optimum  # LinearForm.pair's sums
    optimal = (l1 == o1) & (l2 == o2)
    return bool(optimal) if x.ndim == 1 else optimal


def as_bits(x: Sequence[int]) -> BitString:
    """One state of exact 0s and 1s, of any width, as the canonical uint8 bitstring
    (2, 0.5, -1 or 256 raise ValueError); a uint8 array is returned as it is."""
    return _bits(x, ndims=(1,))


@dataclass(eq=False)
class LinearFunction:
    """Non-negative weighted sum, evaluated in the caller's index order."""

    weights: np.ndarray

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty flat sequence")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("weights must be finite and non-negative")
        self.weights = w

    @property
    def arity(self) -> int:
        return int(self.weights.size)

    def value(self, y: BitString) -> float:
        return math.fsum(self.weights[_bits(y, self.arity, (1,)) == 1])


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


@dataclass(frozen=True, eq=False)
class LinearForm:
    """An objective's linear pair (l1, l2), held so that its sums never round.

    A part of integer weights totalling below 2**53 is held in float64, where
    every subset sum is exact.  Any other part is held as Python ints, its
    weights times S, the smallest power of two that makes each an integer;
    the kernel reads its sum l as l / S, correctly rounded, or as the int
    itself where S = 1.  A pair updated one flip at a time thus equals pair(x),
    and `sums` rounds each part's exact sum once (math.fsum of the chosen weights).
    """

    weights: np.ndarray  # (2, m), read-only: float64, or object where some part holds ints
    negated: np.ndarray  # -weights, read-only: what flipping a one-bit adds to the pair
    scales: tuple  # per part: None while it is float64, else its S

    def pair(self, x) -> list:
        """The kernel's arguments, floats or a part's exact int: [l1, l2] for
        one state, [l1 list, l2 list] for a batch of rows."""
        return self.weights.dot(x.T).tolist()

    def sums(self, x):
        """(l1, l2) as float64, each part's exact sum correctly rounded: scalars
        for one state, arrays for a batch of rows."""
        sums = self.weights.dot(np.asarray(x).T)
        if self.weights.dtype == object:  # int / int is correctly rounded
            sums = (sums.T / np.array([s or 1 for s in self.scales], dtype=object)).T.astype(np.float64)
        return sums[0], sums[1]


def _linear_form(weights: np.ndarray) -> LinearForm:
    """The exact form of a (2, m) weight matrix (see LinearForm)."""
    rows, scales = [], []
    for w in weights:
        values = w.tolist()  # non-negative: an integer total is below 2**53 iff its float sum is
        if np.all(w == np.floor(w)) and sum(values) < 2.0**53:
            rows.append(values)
            scales.append(None)
        else:
            ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of two
            scale = max(den for _, den in ratios)
            rows.append([num * (scale // den) for num, den in ratios])
            scales.append(scale)
    held = weights.copy() if scales == [None, None] else np.array(rows, dtype=object)
    negated = -held
    held.flags.writeable = negated.flags.writeable = False
    return LinearForm(held, negated, tuple(scales))


def _members(d: dict, keys: tuple, optional: tuple = (), integers: tuple = (), integer_lists: tuple = ()) -> list:
    """d[key] for each key of an instance object, then d.get(key) for each
    optional key.  A missing or unknown key is a ValueError naming it, and so
    is a value under one of `integers` that is no integer, or one under
    `integer_lists` that is not a list of integers.  Only an int is an integer:
    a bool, a float (8.0 included) or a string is not, so no int() truncates
    8.5 to 8."""
    if missing := [key for key in keys if not isinstance(d, dict) or key not in d]:
        raise ValueError(f"instance object lacks key(s) {missing}")
    if unknown := sorted(set(d) - set(keys) - set(optional)):
        raise ValueError(f"instance object has unknown key(s) {unknown}; its keys are {sorted(keys + optional)}")
    if bad := {key: d[key] for key in integers if key in d and type(d[key]) is not int}:
        raise ValueError(f"instance key(s) must be integers, got {bad}")
    if bad := {key: d[key] for key in integer_lists
               if not (isinstance(d[key], list) and all(type(v) is int for v in d[key]))}:
        raise ValueError(f"instance key(s) must be lists of integers, got {bad}")
    return [d[key] for key in keys] + [d.get(key) for key in optional]


def _check_shape(n: int, s: int, alpha: Fraction) -> None:
    """Reject (n, s, alpha) outside the model: n >= 1, 0 <= s <= (1-alpha)*n,
    alpha*n integral and 1/2 <= alpha < ln 2."""
    if n < 1:
        raise ValueError("nominal dimension n must be positive")
    if s < 0:
        raise ValueError("overlap s must be non-negative")
    # in integers on alpha = num/den (den > 0); num / den is float(alpha)
    num, den = alpha.numerator, alpha.denominator
    if n % den:
        raise ValueError(f"alpha*n = {alpha}*{n} is not an integer")
    if not (2 * num >= den and num / den < math.log(2)):
        raise ValueError(f"alpha = {alpha} outside [1/2, ln 2)")
    if s * den > (den - num) * n:
        raise ValueError(f"overlap s = {s} exceeds (1-alpha)*n = {(1 - alpha) * n}")


# CompositeObjective.float_kernel, around h1(l1) + h2(l2) written out as one
# expression.  math.sqrt raises ValueError on a negative value (a compose can
# feed a square root one), where combine's np.sqrt gives nan.
_FLOAT_KERNEL = """def f(l1, l2):
    try:
        return {}
    except ValueError:
        return float(combine(l1, l2))
"""


@dataclass(eq=False)
class CompositeObjective:
    """h1(l1*(x)) + h2(l2*(x)) on m = n - s bits.

    The two linear parts sit on position sets B1 (|B1| = alpha*n) and B2
    (|B2| = (1-alpha)*n) with |B1 & B2| = s and B1 | B2 = {0, ..., m-1};
    alpha is rational with alpha*n integral, 1/2 <= alpha < ln 2, and
    slack = 2 - e^alpha > 0 is the instance's drift margin.

    Weights are non-negative, so a state is optimal iff its pair
    linear_values(x) equals `optimum` = (0, 0): an exact sum, and so its
    correct rounding, is 0 iff no positive-weight bit is set.
    """

    optimum = (0.0, 0.0)

    n: int
    s: int
    alpha: Fraction
    functions: tuple[LinearFunction, LinearFunction]
    embeddings: tuple[DomainEmbedding, DomainEmbedding]
    transforms: tuple[MonotoneTransform, MonotoneTransform]

    def __init__(self, n, s, alpha, functions, embeddings, transforms):
        self.n = int(n)
        self.s = int(s)
        self.alpha = Fraction(alpha)
        self.functions = tuple(functions)
        self.embeddings = tuple(embeddings)
        self.transforms = tuple(transforms)
        self._validate()
        self._weights = np.zeros((2, self.domain_size))
        for w, lf, emb in zip(self._weights, self.functions, self.embeddings):
            w[emb.positions] = lf.weights
        self._check_finite()

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
        # how many of B1, B2 hold each position; with |B1| + |B2| = n, an
        # overlap of s leaves n - s = m positions covered, the whole domain
        cover = np.bincount(np.concatenate((e1.positions, e2.positions)), minlength=m)
        shared = int(np.count_nonzero(cover == 2))
        if shared != self.s:
            raise ValueError(f"|B1 & B2| = {shared} but s = {self.s}")

    def _check_finite(self):
        """Refuse a part total, or an f at the all-ones state (the largest f: the
        transforms are monotone), past float64.  A part total past it is an
        int that raises OverflowError on its way into any transform or float()."""
        ones, zeros = (self.linear_form.pair(np.full(self.domain_size, bit, dtype=np.uint8)) for bit in (1, 0))
        for name, pair in (("part 1", (ones[0], zeros[1])), ("part 2", (zeros[0], ones[1])), ("h1 + h2", ones)):
            try:
                with np.errstate(all="ignore"):
                    f = float(self.float_kernel(*pair))
            except OverflowError:
                f = math.inf
            if f == math.inf:
                raise ValueError(f"{name} of f overflows float64 at the all-ones state, n = {self.n}")

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
        """(w1 . x, w2 . x), each correctly rounded (LinearForm.sums), for one state or a batch of rows."""
        return self.linear_form.sums(_bits(x, self.domain_size))

    def _compile(self, template: str, functions: dict, scales=(None, None)):
        """h1(l1) + h2(l2) in `template`; a part with a scale S > 1 reads its argument as l / S."""
        h1, h2 = self.transforms

        def build(bind):
            l1, l2 = (f"(l{i} / {bind(s)})" if s and s > 1 else f"l{i}" for i, s in enumerate(scales, 1))
            return f"({h1.expression(l1, bind)}) + ({h2.expression(l2, bind)})"
        return compile_function(template, build, functions)

    @functools.cached_property
    def combine(self):
        """h1(l1) + h2(l2) for linear-part values (scalars or arrays): one
        function compiled on first use from both transforms' expressions."""
        return self._compile("f = lambda l1, l2: {}", ARRAY_FUNCTIONS)

    @functools.cached_property
    def float_kernel(self):
        """f of a pair as LinearForm.pair gives it: the same expression as
        combine compiled with Python floats' functions, so a call makes no
        numpy scalar.  On float arguments it is float(combine(l1, l2)) bit for
        bit; a part held in ints reads its sum l as l / S (S > 1) or as the int
        itself, on which identity and square stay exact."""
        scales = self.linear_form.scales
        fallback = self._compile("f = lambda l1, l2: {}", ARRAY_FUNCTIONS, scales)  # combine on the same arguments
        return self._compile(_FLOAT_KERNEL, {**FLOAT_FUNCTIONS, "combine": fallback}, scales)

    def __reduce__(self):  # the compiled functions do not pickle; build again from the parts
        return CompositeObjective, (self.n, self.s, self.alpha, self.functions, self.embeddings, self.transforms)

    def value(self, x: BitString):
        """f(x), the kernel of x's pair: a float, or the exact int where both
        parts hold ints under identity or square.  A batch of rows gives a
        list of each row's value(row), the pairs from one dot product."""
        return _values(self, x)

    @functools.cached_property
    def linear_form(self) -> LinearForm:
        """The exact incremental form of the weights (see LinearForm)."""
        return _linear_form(self._weights)

    def is_optimal(self, x: BitString):
        """True iff no position carrying positive weight in either part is set.

        This is the exact minimizer set (non-negative weights, monotone
        transforms), read off the linear pair without any value comparison.
        One state gives a bool, a batch of rows a bool array.
        """
        return _at_optimum(self, x)

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
        n, s, num, den, w1, w2, b1, b2, t1, t2 = _members(
            d,
            ("n", "s", "alpha_num", "alpha_den", "weights1", "weights2", "B1", "B2", "transform1", "transform2"),
            integers=("n", "s", "alpha_num", "alpha_den"),
            integer_lists=("B1", "B2"),
        )
        if den == 0:
            raise ValueError("instance key alpha_den must not be 0")
        return CompositeObjective(
            n, s, Fraction(num, den),
            (LinearFunction(w1), LinearFunction(w2)),
            tuple(DomainEmbedding(np.asarray(b, dtype=np.int64) - 1, n - s) for b in (b1, b2)),
            (MonotoneTransform.from_dict(t1), MonotoneTransform.from_dict(t2)),
        )


# Cephes `ndtri`, the algorithm of scipy.special.ndtri: three rational
# approximations with Cephes' coefficients, each evaluated in the order of its
# polevl/p1evl (Horner, leading coefficient first; p1evl's leading 1 implied).
_NDTRI_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_NDTRI_EXP_M2 = 0.13533528323661269189  # exp(-2)
# levels in (exp(-2), 1 - exp(-2)), in y - 1/2
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# the tails, in z = 1/x with x = sqrt(-2 ln y) and y = min(level, 1 - level):
# x in [2, 8), y between exp(-32) and exp(-2)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# x >= 8: y below exp(-32)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def normal_quantile(level: float) -> float:
    """Quantile of the standard normal distribution at `level` in (0, 1).

    A pure-Python port of Cephes `ndtri`, the routine scipy.special.ndtri
    runs: the same coefficients, branch points and operation order, so it
    returns the same bits (tests/test_objectives.py compares them densely).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    y = float(level)
    upper = y > 1.0 - _NDTRI_EXP_M2
    if upper:
        y = 1.0 - y
    if y > _NDTRI_EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


@dataclass(eq=False)
class ChanceInstance:
    """Items with independent normal weights N(mu_i, sigma_i^2).

    The smallest W guaranteed with probability `confidence` for selection x is
    fitness(x) = mu(x) + quantile(confidence) * sigma(x); minimizing that is
    the deterministic equivalent of the probabilistic guarantee.  Both sums are
    correctly rounded exact sums (math.fsum), the parts' rule, so
    fitness_value(x) equals build_chance(self).value(x) bit for bit.
    """

    mu: np.ndarray
    sigma: np.ndarray
    confidence: float

    def __init__(self, mu: Sequence[float], sigma: Sequence[float], confidence: float):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        if self.mu.ndim != 1 or self.mu.size == 0 or self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must be non-empty sequences of equal length")
        if not all(np.all(np.isfinite(v) & (v >= 0)) for v in (self.mu, self.sigma)):
            raise ValueError("mu and sigma must be finite and non-negative")
        if not (isinstance(confidence, numbers.Real) and 0.0 < confidence < 1.0):
            raise ValueError(f"confidence must be a real number in (0, 1), got {confidence!r}")
        self.confidence = float(confidence)

    @property
    def item_count(self) -> int:
        return int(self.mu.size)

    @property
    def fractile(self) -> float:
        return normal_quantile(self.confidence)

    def mean_value(self, x: BitString) -> float:
        return math.fsum(self.mu[_bits(x, self.item_count, (1,)) == 1])

    def std_value(self, x: BitString) -> float:
        return math.sqrt(math.fsum((self.sigma**2)[_bits(x, self.item_count, (1,)) == 1]))

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
        mu, sigma, alpha_c, m = _members(d, ("mu", "sigma", "alpha_c"), optional=("m",), integers=("m",))
        inst = ChanceInstance(mu, sigma, alpha_c)
        if m is not None and m != inst.item_count:
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
    x = _bits(x, c.item_count, (1,))
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
    fractile = c.fractile
    if fractile < 0.0:
        raise ValueError(
            f"confidence {c.confidence} has a negative fractile {fractile}; "
            "a chance objective needs confidence >= 0.5"
        )
    m = c.item_count
    every = np.arange(m)
    return CompositeObjective(
        2 * m,
        m,
        Fraction(1, 2),
        (LinearFunction(c.mu), LinearFunction(c.sigma**2)),
        (DomainEmbedding(every, m), DomainEmbedding(every, m)),
        (identity(), compose(scale(fractile), square_root())),
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
    )


def onemax(n: int) -> CompositeObjective:
    """The all-ones-weight, identity-transform instance: f(x) = |x|_1."""
    if n < 2 or n % 2:
        raise ValueError("onemax preset needs an even n >= 2")
    return generate_instance(n, 0, Fraction(1, 2), weight_scheme="all-ones", transforms=("identity", "identity"))


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
    exponent: Optional[int] = None
    optimum = (1.0, 0.0)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.exponent is None:
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
        self._zeros = self._zeros_term.tolist()

    @property
    def domain_size(self) -> int:
        return self.n

    @property
    def mutation_probability(self) -> float:
        return 1.0 / self.n

    def linear_values(self, x: BitString):
        """(x_1, sum_{i>=2} x_i), for one state or a batch of rows."""
        return self.linear_form.sums(_bits(x, self.domain_size))

    def combine(self, l1, l2):
        """The ones term l1/2 + l2 plus the large power of the zeros count."""
        return 0.5 * l1 + l2 + self._zeros_term[np.intp(l1 + l2)]

    def float_kernel(self, l1: float, l2: float) -> float:
        """float(combine(l1, l2)) for Python floats, read from the same table as a list."""
        return 0.5 * l1 + l2 + self._zeros[int(l1 + l2)]

    def value(self, x: BitString):
        """f(x) as a float; a batch of rows gives a list of each row's value(row)."""
        return _values(self, x)

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

    def is_optimal(self, x: BitString):
        """Whether the pair is (1, 0): a bool for one state, a bool array for a batch of rows."""
        return _at_optimum(self, x)


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
    n, s, alpha = int(n), int(s), Fraction(alpha)
    _check_shape(n, s, alpha)
    if weight_scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {weight_scheme!r}; choose from {WEIGHT_SCHEMES}")
    if embedding_scheme not in EMBEDDING_SCHEMES:
        raise ValueError(f"unknown embedding scheme {embedding_scheme!r}; choose from {EMBEDDING_SCHEMES}")

    needs_rng = weight_scheme == "uniform-int" or embedding_scheme == "random"
    if needs_rng and rng is None:
        raise ValueError(f"weight scheme {weight_scheme!r}/embedding {embedding_scheme!r} needs a RandomSource")
    gen = rng.generator if needs_rng else None  # a source that draws nothing builds no generator

    m = n - s
    k1 = int(alpha * n)
    k2 = n - k1

    def draw_weights(k: int, part: int) -> np.ndarray:
        if weight_scheme == "all-ones":
            return np.ones(k)
        if weight_scheme == "doubling":
            if k > 1023:  # 2^0 + ... + 2^(k-1) passes float64's largest value
                raise ValueError(f"doubling weights of part {part} total 2^{k} - 1, past float64, at n = {n}")
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

    return CompositeObjective(
        n,
        s,
        alpha,
        (LinearFunction(draw_weights(k1, 1)), LinearFunction(draw_weights(k2, 2))),
        (DomainEmbedding(b1, m), DomainEmbedding(b2, m)),
        tuple(t if isinstance(t, MonotoneTransform) else from_name(t) for t in transforms),
    )


def write_in_place(path, text: str) -> None:
    """Write text (UTF-8) to path in one write, without emptying the file first.

    Opening with mode "w" truncates an existing file to length zero and then
    rewrites it; on ext4 with its default ``auto_da_alloc`` that pattern makes
    the kernel flush the file on close, 0.1-0.8 ms per report on a 2-core Xeon
    (about 0.01 ms in place).  Here the new bytes go
    over the old ones and only then is a regular file cut to the new length, so
    it never passes through length zero.  The saving is only on rewriting a
    path that already exists; a new file costs the same either way.  Pipes and
    devices (``/dev/stdout``, ``/dev/null``) cannot be truncated and are not.

    Two caveats.  A write that fails part way (a full disk) can leave old bytes
    after the new ones; it raises OSError.  And the flush given up is ext4's
    guard for truncate-and-rewrite: after a system crash (power loss) soon
    after a rewrite, the file may still hold old bytes, cut to the new length,
    with no error to show it.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # one call, unless the kernel takes fewer bytes
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_json_object(path, what: str, **options) -> dict:
    """The JSON object that file `path`, a `what` file ("instance", "config"),
    holds; any other text is a ValueError naming the file.  `options` go to json.load."""
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh, **options)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{what} file {path} must hold a JSON object: {exc}") from None
    if not isinstance(d, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(d), "a number")
        raise ValueError(f"{what} file {path} must hold a JSON object, not {kind}")
    return d


def save_instance(instance: CompositeObjective, path) -> None:
    write_in_place(path, json.dumps(instance.to_dict(), indent=2, sort_keys=True) + "\n")


def load_instance(path) -> CompositeObjective:
    return CompositeObjective.from_dict(read_json_object(path, "instance"))


def save_chance_instance(c: ChanceInstance, path) -> None:
    write_in_place(path, json.dumps(c.to_dict(), indent=2, sort_keys=True) + "\n")


def load_chance_instance(path) -> ChanceInstance:
    return ChanceInstance.from_dict(read_json_object(path, "chance instance"))
