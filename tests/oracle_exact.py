"""Exact drift/phi of the combined potential, written independently of driftlab.drift.

Works from the instance's JSON dictionary.  The mask probability
K(k) = p^k (1-p)^(m-k) is a Fraction of the float p.  Each potential
coefficient (1 + 1/n)^t, with t the number of the part's weights strictly
below the weight (its rank), is an integer over the common denominator n^T
(T the largest rank a part can have), so every phi value and phi difference
is an exact integer.  f is oracle_drift.objective_value.  The masks are
grouped by popcount k, the accepted phi differences of each group are summed
exactly as integers, and only the m + 1 group sums meet the Fractions K(k).
"""

from fractions import Fraction

import numpy as np

from oracle_drift import objective_value


def scaled_coefficients(data):
    """The potential's position coefficients times n^T, as ints."""
    n = data["n"]
    parts = ((data["weights1"], data["B1"]), (data["weights2"], data["B2"]))
    top = max(len(weights) for weights, _ in parts) - 1
    coeffs = [0] * (n - data["s"])
    for weights, positions in parts:
        for w, pos in zip(weights, positions):
            rank = sum(v < w for v in weights)
            coeffs[pos - 1] += (n + 1) ** rank * n ** (top - rank)
    return coeffs


def exact_ratios(data, p):
    """State code (bit j at position j) -> exact drift(u)/phi(u), for every state with phi(u) > 0."""
    m = data["n"] - data["s"]
    codes = np.arange(1 << m)
    states = (codes[:, None] >> np.arange(m)) & 1
    phi = states @ np.array(scaled_coefficients(data), dtype=np.int64)
    f = np.array([objective_value(data, x) for x in states.tolist()])
    popcount = states.sum(axis=1)
    masks = np.argsort(popcount, kind="stable")  # mask codes, grouped by popcount
    starts = np.searchsorted(popcount[masks], np.arange(m + 1))
    offspring = codes[:, None] ^ masks
    accepted = f[offspring] <= f[:, None]  # ties accepted, as in the EA
    sums = np.add.reduceat(np.where(accepted, phi[:, None] - phi[offspring], 0), starts, axis=1)
    p = Fraction(p)
    kernel = [p**k * (1 - p) ** (m - k) for k in range(m + 1)]
    # drift(u) / phi(u): the common denominator n^T cancels
    return {u: sum(K * s for K, s in zip(kernel, row)) / int(phi[u])
            for u, row in enumerate(sums.tolist()) if phi[u] > 0}
