"""Potential functions used to certify multiplicative drift of the EA.

Inside each linear part, the coefficient of a position is (1 + 1/n)^t, where
t counts that part's weights strictly below its own; tied weights therefore
share one coefficient and every coefficient lies in [1, (1+1/n)^(k-1)].  The
combined potential of a composite objective adds the two parts' coefficients
position-wise, so it is itself a non-negative linear form over the domain,
one left-to-right sum, :func:`driftlab.objectives.linear_sums` (its
coefficients are not integers, so unlike the objective's parts its sum rounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import BitString, CompositeObjective, linear_sums


def part_coefficients(weights: Sequence[float], n: int) -> np.ndarray:
    """(1 + 1/n)^t per weight, t = the number of weights strictly below it; any order."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty flat sequence")
    if n < 1:
        raise ValueError("base dimension n must be positive")
    return (1.0 + 1.0 / n) ** np.searchsorted(np.sort(w), w, side="left").astype(np.float64)


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


def single_flip_drift_value(weights: Sequence[float], n: int, index: int) -> float:
    """Potential drop from clearing one-bit `index` minus the worst zero-bit gain.

    The subtracted term is (1/n) * sum of the geometric ladder (1 + 1/n)^j for
    j below the number of weights strictly smaller than weights[index] (the
    values the coefficients would take if all those weights were distinct).
    The result is exactly 1 for every index of every weight profile.
    """
    w = np.asarray(weights, dtype=np.float64)
    coeffs = part_coefficients(w, n)
    if not 0 <= index < coeffs.size:
        raise ValueError(f"index {index} out of range for arity {coeffs.size}")
    base = 1.0 + 1.0 / n
    loss = math.fsum(base**j for j in range(int(np.count_nonzero(w < w[index])))) / n
    return float(coeffs[index]) - loss


@dataclass(eq=False)
class CombinedPotential:
    """Sum of both parts' coefficients, expressed per domain position."""

    position_coefficients: np.ndarray

    def value(self, x: BitString):
        """phi(x): a float for one state, an array for a batch of rows (each row summed on its own)."""
        x = np.asarray(x)
        if x.shape[-1:] != self.position_coefficients.shape:
            raise ValueError(
                f"expected {self.position_coefficients.size} bits, got shape {x.shape}"
            )
        values = linear_sums(x, self.position_coefficients)
        return float(values) if x.ndim == 1 else values


def build_combined_potential(instance: CompositeObjective) -> CombinedPotential:
    """Each part's coefficients added onto the domain positions of its embedding."""
    coeffs = np.zeros(instance.domain_size, dtype=np.float64)
    for lf, emb in zip(instance.functions, instance.embeddings):
        coeffs[emb.positions] += part_coefficients(lf.weights, instance.n)
    return CombinedPotential(coeffs)


def zero_weight_positions(instance: CompositeObjective) -> list:
    """The domain positions (0-based) where some part's weight is zero.

    The potential still gives such a weight the coefficient (1+1/n)^0 = 1, so
    phi counts a bit that this part of f ignores, and the drift bound it
    certifies holds for positive weights only.
    """
    zero = set()
    for lf, emb in zip(instance.functions, instance.embeddings):
        zero.update(emb.positions[lf.weights == 0].tolist())
    return sorted(zero)
