"""Potential functions used to certify multiplicative drift of the EA.

For a linear function with weights sorted ascending, the coefficient attached
to sorted index i (0-based) is (1 + 1/n)^t(i), where t(i) is the smallest
sorted index holding the same weight as i; ties therefore share one
coefficient, every coefficient lies in [1, (1+1/n)^(k-1)] and the sequence is
non-decreasing.  The combined potential of a composite objective adds the two
parts' coefficients position-wise, so it is itself a non-negative linear form
over the domain, evaluated like the objective's parts by
:func:`driftlab.objectives.linear_sums`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .objectives import BitString, CompositeObjective, linear_sums


@dataclass(eq=False)
class PotentialFunction:
    """Coefficients in sorted-weight order plus the tie-anchor map."""

    coefficients: np.ndarray
    base_dimension: int
    first_equal_index: np.ndarray  # 0-based smallest index with the same weight

    @property
    def arity(self) -> int:
        return int(self.coefficients.size)


def build_potential(weights: Sequence[float], n: int) -> PotentialFunction:
    """Potential coefficients for an ascending weight profile, base (1 + 1/n)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty flat sequence")
    if np.any(np.diff(w) < 0):
        raise ValueError("weights must be sorted ascending")
    if n < 1:
        raise ValueError("base dimension n must be positive")
    k = w.size
    anchor = np.empty(k, dtype=np.int64)
    anchor[0] = 0
    for i in range(1, k):
        anchor[i] = anchor[i - 1] if w[i] == w[i - 1] else i
    coeff = (1.0 + 1.0 / n) ** anchor.astype(np.float64)
    return PotentialFunction(coeff, int(n), anchor)


def zero_gain_series(k: int, n: int) -> float:
    """(1/n) * sum_{i=1..k} (1 + 1/n)^(i-1): worst-case gain from k zero-bit flips.

    Equals the closed form (1 + 1/n)^k - 1; computed as the literal series so
    the closed form stays an independent check.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError("n must be positive")
    base = 1.0 + 1.0 / n
    return math.fsum(base**i for i in range(k)) / n


def single_flip_drift_value(pot: PotentialFunction, index: int) -> float:
    """Potential drop from clearing one-bit `index` minus the worst zero-bit gain.

    The subtracted term is (1/n) * sum of the geometric ladder (1 + 1/n)^j over
    sorted indices j strictly below the tie anchor of `index` (the values the
    coefficients would take if all strictly smaller weights were distinct).
    The result is exactly 1 for every index of every weight profile.
    """
    if not 0 <= index < pot.arity:
        raise ValueError(f"index {index} out of range for arity {pot.arity}")
    n = pot.base_dimension
    base = 1.0 + 1.0 / n
    anchor = int(pot.first_equal_index[index])
    loss = math.fsum(base**j for j in range(anchor)) / n
    return float(pot.coefficients[index]) - loss


@dataclass(eq=False)
class CombinedPotential:
    """Sum of both parts' potentials, expressed per domain position."""

    parts: tuple[PotentialFunction, PotentialFunction]
    position_coefficients: np.ndarray

    def value(self, x: BitString) -> float:
        if len(x) != self.position_coefficients.size:
            raise ValueError(
                f"expected {self.position_coefficients.size} bits, got {len(x)}"
            )
        return float(linear_sums(np.asarray(x), self.position_coefficients))


def combine_potentials(
    instance: CompositeObjective, pots: tuple[PotentialFunction, PotentialFunction]
) -> CombinedPotential:
    """Attach two prebuilt potentials to an instance's embeddings."""
    m = instance.domain_size
    coeffs = np.zeros(m, dtype=np.float64)
    for part, pot in zip(range(2), pots):
        lf = instance.functions[part]
        emb = instance.embeddings[part]
        if pot.arity != lf.arity:
            raise ValueError(f"potential arity {pot.arity} does not match part {part} arity {lf.arity}")
        if pot.base_dimension != instance.n:
            raise ValueError("potential base dimension must equal the instance's nominal n")
        # positions listed in rank order; route each through the sorted-weight order
        coeffs[emb.positions] += pot.coefficients[lf.rank_in_sorted]
    return CombinedPotential(tuple(pots), coeffs)


def build_combined_potential(instance: CompositeObjective) -> CombinedPotential:
    pots = tuple(
        build_potential(lf.sorted_weights, instance.n) for lf in instance.functions
    )
    return combine_potentials(instance, pots)


PotentialLike = Union[CombinedPotential, np.ndarray, Sequence[float]]


def position_coefficients(potential: PotentialLike) -> np.ndarray:
    """Normalize a combined potential or a raw coefficient vector."""
    if isinstance(potential, CombinedPotential):
        return potential.position_coefficients
    arr = np.asarray(potential, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("potential coefficients must form a flat vector")
    return arr
