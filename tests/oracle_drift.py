"""Brute-force drift oracle, written independently of the package internals.

Works from the instance's JSON dictionary (1-based positions, tagged
transforms) using plain Python arithmetic and itertools mask enumeration;
shares no code with the package's vectorized evaluation or potential
construction.
"""

import math
from itertools import product


def transform_value(tag, v):
    kind = tag["kind"]
    if kind == "identity":
        return v
    if kind == "square":
        return v * v
    if kind == "square_root":
        return math.sqrt(v)
    if kind == "power":
        return v ** tag["k"]
    if kind == "scale":
        return tag["R"] * v
    if kind == "affine":
        return tag["a"] * v + tag["b"]
    if kind == "compose":
        return transform_value(tag["outer"], transform_value(tag["inner"], v))
    raise ValueError(f"unknown transform {kind}")


def objective_value(data, x):
    """h1(l1) + h2(l2), each part's value its exact sum correctly rounded."""
    total = 0.0
    for wkey, bkey, tkey in (
        ("weights1", "B1", "transform1"),
        ("weights2", "B2", "transform2"),
    ):
        linear = math.fsum(w for w, pos in zip(data[wkey], data[bkey]) if x[pos - 1])
        total += transform_value(data[tkey], linear)
    return total


def potential_coefficients(data):
    """Per-position combined potential coefficients, derived from scratch."""
    n = data["n"]
    m = n - data["s"]
    base = 1.0 + 1.0 / n
    coeffs = [0.0] * m
    for wkey, bkey in (("weights1", "B1"), ("weights2", "B2")):
        weights = list(data[wkey])
        order = sorted(range(len(weights)), key=lambda i: (weights[i], i))
        sorted_w = [weights[i] for i in order]
        gain = []
        for j, w in enumerate(sorted_w):
            a = j
            while a > 0 and sorted_w[a - 1] == w:
                a -= 1
            gain.append(base**a)
        for j, i in enumerate(order):
            coeffs[data[bkey][i] - 1] += gain[j]
    return coeffs


def potential_value(data, x):
    return sum(c * xi for c, xi in zip(potential_coefficients(data), x))


def exact_drift(data, x, p):
    """Expected one-step potential decrease by full mask enumeration."""
    x = tuple(int(b) for b in x)
    m = len(x)
    coeffs = potential_coefficients(data)
    phi_x = sum(c * xi for c, xi in zip(coeffs, x))
    f_x = objective_value(data, x)
    drift = 0.0
    for mask in product((0, 1), repeat=m):
        prob = 1.0
        for bit in mask:
            prob *= p if bit else 1.0 - p
        y = tuple(xi ^ bit for xi, bit in zip(x, mask))
        if objective_value(data, y) <= f_x:
            phi_y = sum(c * yi for c, yi in zip(coeffs, y))
            drift += prob * (phi_x - phi_y)
    return drift
