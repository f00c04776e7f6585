"""Exact drift of the combined potential, certified over given or all states.

The drift of potential phi at state u is
drift(u) = sum_y K(u ^ y) [f(y) <= f(u)] (phi(u) - phi(y)), where
K(d) = p^|d| (1-p)^(m-|d|) is the probability of mutation mask d and ties are
accepted as in the EA.  Drift is only ever computed exactly: at one state
(`_drift_at`) by enumerating all 2^m masks (m capped at 20).
`exhaustive_drift_check` is the one certification entry, over given states
or every state, enumerating the instance once; `exact_drift` is the one-state
view of `_drift_at` and also conditions the drift on how many of the second
part's one-bits a mask flips: at least two (`drift_given_multi_flip`) or
exactly one (`drift_given_single_flip`).

`exhaustive_drift_check` over every state (m capped at 16) does not sweep 4^m
pairs.  Mutation is diagonal in the Walsh basis: the Walsh-Hadamard transform
of K is (1-2p)^|s|, so a sum over y of K(u ^ y) g(y) for all u at once (an XOR
convolution) is a forward fast Walsh-Hadamard transform of g, a multiply by
(1-2p)^|s|, an inverse transform and a divide by 2^m.  The states are sorted
by f and cut into blocks of about sqrt(m 2^m) states that never split a tie
level (a maximal run of equal f).  For a block, every state of an earlier
block is accepted and every state of a later one rejected, so
drift(u) = phi(u) A(u) - B(u), where A(u) sums K(u ^ y) over the accepted y
and B(u) sums K(u ^ y) phi(y).  The earlier blocks enter by convolution, the
indicator and the phi-mass transformed together as one (2, 2^m) array, and
the pairs inside the block directly, with the EA's f(y) <= f(u).  A tie
level of at least the block size is a block of its own and joins the accepted
set before its own convolution, since all its pairs are accepted both ways;
smaller levels group into blocks of fewer than twice the block size.  The
cost is O(2^1.5m sqrt(m)) instead of 4^m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .objectives import BitString, CompositeObjective, as_bits, linear_sums
from .potential import CombinedPotential, build_combined_potential

SINGLE_STATE_CAP = 20
ALL_STATES_CAP = 16
_STATE_CHUNK = 1 << 14  # states evaluated per batch while building a StateSpace


def drift_rate_reference(instance: CompositeObjective) -> float:
    """The certified multiplicative drift rate e^-3 * (2 - e^alpha) / (2n)."""
    return math.exp(-3.0) * instance.slack / (2.0 * instance.n)


class StateSpace:
    """All 2^m states of an instance with precomputed objective and potential.

    State `code` has bit j at position j.  Every instance takes one path, in
    batches of states: f = combine(*linear_values(states)), a state is optimal
    iff its linear pair equals instance.optimum, and phi is linear_sums of the
    states with the potential coefficients.  These are the values value(x),
    is_optimal(x) and CombinedPotential.value(x) compute for one state, so f,
    optimal and phi agree with them bit for bit and exact drift accepts and
    rejects exactly as the EA does.  A part of integers totalling 2**53 or
    more is refused: the EA compares its exact ints, which a float64 f can tie.
    """

    def __init__(self, instance, phi_coefficients: Optional[np.ndarray] = None, cap: int = SINGLE_STATE_CAP):
        m = instance.domain_size
        if m > cap:
            raise ValueError(f"domain size {m} exceeds enumeration cap {cap}")
        if 1 in instance.linear_form.scales:
            raise ValueError("exact drift tabulates f in float64, but a part's integer weights total 2**53 or more")
        self.instance = instance
        self.m = m
        codes = np.arange(1 << m, dtype=np.uint32)
        self.codes = codes
        self.popcount = np.bitwise_count(codes).astype(np.int64)
        self.f = np.empty(codes.size)
        self.optimal = np.empty(codes.size, dtype=bool)
        coeffs = None if phi_coefficients is None else np.asarray(phi_coefficients, dtype=np.float64)
        self.phi = None if coeffs is None else np.empty(codes.size)
        shifts = np.arange(m, dtype=np.uint32)
        o1, o2 = instance.optimum
        for start in range(0, codes.size, _STATE_CHUNK):
            rows = slice(start, start + _STATE_CHUNK)
            states = ((codes[rows, None] >> shifts) & 1).astype(np.uint8)
            l1, l2 = instance.linear_values(states)
            self.f[rows] = instance.combine(l1, l2)
            self.optimal[rows] = (l1 == o1) & (l2 == o2)
            if coeffs is not None:
                self.phi[rows] = linear_sums(states, coeffs)

    def encode(self, x: BitString) -> int:
        x = as_bits(x)
        if x.size != self.m:
            raise ValueError(f"expected {self.m} bits, got {x.size}")
        return int(x.astype(np.int64) @ (1 << np.arange(self.m, dtype=np.int64)))

    def mask_probabilities(self, p: float) -> np.ndarray:
        return _mask_kernel(p, self.m)[self.popcount]


def _powers(c: float, m: int) -> np.ndarray:
    """c^0, ..., c^m by repeated multiplication: c^k carries k-1 roundings."""
    return np.cumprod(np.r_[1.0, np.full(m, c)])


def _mask_kernel(p: float, m: int) -> np.ndarray:
    """K(k) = p^k (1-p)^(m-k), the probability of one given k-bit mutation mask, k = 0..m."""
    return _powers(p, m) * _powers(1.0 - p, m)[::-1]


@dataclass
class DriftSample:
    """Drift of the potential at one state, overall and per mutation class.

    Conditional entries are None when the conditioning event has zero
    probability.
    """

    state: np.ndarray
    potential: float
    drift: float
    drift_given_accepted: Optional[float]
    drift_given_multi_flip: Optional[float]
    drift_given_single_flip: Optional[float]
    acceptance_probability: float


def _drift_at(space: StateSpace, u: int, probs: np.ndarray):
    """Exact one-step drift at state code u under mask probabilities `probs`.

    Returns the acceptance of each mask (offspring u ^ mask no worse than u,
    ties accepted as in the EA), the accepted potential decrease per mask,
    and the drift probs @ dphi.
    """
    offspring = space.codes ^ np.uint32(u)
    accepted = space.f[offspring] <= space.f[u]
    dphi = (space.phi[u] - space.phi[offspring]) * accepted
    return accepted, dphi, float(probs @ dphi)


def _conditional(probs: np.ndarray, dphi: np.ndarray, mask: np.ndarray) -> Optional[float]:
    total = float(probs[mask].sum())
    if total == 0.0:
        return None
    return float(probs[mask] @ dphi[mask]) / total


def exact_drift(
    instance: CompositeObjective,
    potential: CombinedPotential,
    x: BitString,
    p: Optional[float] = None,
) -> DriftSample:
    """Exact one-step expected potential decrease at state x.

    Each call enumerates all 2^m states of the instance; for the drift at
    many states of one instance use exhaustive_drift_check(states=...), which
    enumerates it once.
    """
    x = as_bits(x)
    if p is None:
        p = instance.mutation_probability
    space = StateSpace(instance, potential.position_coefficients)
    u = space.encode(x)
    probs = space.mask_probabilities(p)
    accepted, dphi, drift = _drift_at(space, u, probs)
    phi_u = float(space.phi[u])

    b2_code = np.uint32(sum(1 << int(j) for j in instance.embeddings[1].positions))
    ones_flipped_b2 = np.bitwise_count(space.codes & np.uint32(u) & b2_code)
    moved = space.codes != 0
    return DriftSample(
        state=x,
        potential=phi_u,
        drift=drift,
        drift_given_accepted=_conditional(probs, dphi, accepted & moved),
        drift_given_multi_flip=_conditional(probs, dphi, ones_flipped_b2 >= 2),
        drift_given_single_flip=_conditional(probs, dphi, ones_flipped_b2 == 1),
        acceptance_probability=float(probs[accepted & moved].sum()),
    )


@dataclass
class DriftRow:
    state_index: int
    ones: int
    phi: float
    drift: float
    ratio: float


@dataclass
class DriftReport:
    """Per-state drift/potential ratios against the reference rate.

    rounding_bound bounds |computed - exact| drift/phi over the checked states
    (see exhaustive_drift_check); passed asks min_ratio - rounding_bound >= delta.
    `rows` holds one DriftRow per checked state, in state order; they are
    built from `columns` (state codes, one-bit counts, phi, drift and ratio,
    one array each) when `rows` is first read, so a caller that needs only
    the summary builds none.
    """

    epsilon: float
    delta_reference: float
    min_ratio: Optional[float]  # None when no non-optimal state was checked
    rounding_bound: Optional[float]  # None with min_ratio
    passed: bool  # False when no state was checked: nothing is certified
    columns: tuple = field(default=(), repr=False, compare=False)

    @functools.cached_property
    def rows(self) -> list:
        if not self.columns:
            return []
        return list(map(DriftRow, *(column.tolist() for column in self.columns)))

    def summary_dict(self) -> dict:
        return {
            "min_ratio": self.min_ratio,
            "rounding_bound": self.rounding_bound,
            "delta_ref": self.delta_reference,
            "epsilon": self.epsilon,
            "pass": self.passed,
        }


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k):
    """gamma_k = k u / (1 - k u): bounds the relative error of k chained roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of each row of `a` (length 2^m), as a new array.

    m constant-geometry butterfly stages, each writing the sum and difference
    of the two halves to the even and odd entries: every output is a signed
    sum of every input, each term through m rounded additions.
    """
    half = a.shape[1] // 2
    buffers = (np.empty_like(a), np.empty_like(a))
    for stage in range(half.bit_length()):
        out = buffers[stage % 2]
        np.add(a[:, :half], a[:, half:], out=out[:, 0::2])
        np.subtract(a[:, :half], a[:, half:], out=out[:, 1::2])
        a = out
    return a


def _direct_drift(space: StateSpace, p: float, codes: np.ndarray):
    """Drift at each state of `codes` by its 2^m-mask dot product, and the rounding bound."""
    probs = space.mask_probabilities(p)
    drift = np.array([_drift_at(space, u, probs)[2] for u in codes])
    bound = _gamma(space.codes.size + 2 * space.m + 2) * space.phi.max() / space.phi[codes].min()
    return drift, float(bound)


def _swept_drift(space: StateSpace, p: float, codes: np.ndarray):
    """Drift at each state of `codes` by XOR convolution over blocks of the f order.

    Returns the drift and the rounding bound (module docstring: the method;
    exhaustive_drift_check: the bound).
    """
    m, size = space.m, space.codes.size
    f, phi = space.f, space.phi
    order = np.argsort(f, kind="stable")
    ranked = f[order]
    level_ends = np.r_[np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, size]
    target = max(1, math.isqrt(m * size))
    kernel = _mask_kernel(p, m)
    walsh = _powers(1.0 - 2.0 * p, m)[space.popcount]  # (1-2p)^|s|
    weighted = np.vstack((np.ones(size), phi))  # [state] and [state] phi
    mass = np.zeros((2, size))  # the same over the accepted states so far
    sums = np.zeros((2, size))  # A and B
    # per state: count and phi-mass of the accepted states convolved, own block's pair count
    convolved = np.zeros((2, size))
    paired = np.zeros(size)
    lo = 0
    while lo < size:
        i = np.searchsorted(level_ends, min(lo + target, size))
        start = level_ends[i - 1] if i else 0
        hi = start if start > lo and level_ends[i] - start >= target else level_ends[i]
        block = order[lo:hi]
        whole_level = hi - lo >= target and ranked[lo] == ranked[hi - 1]
        if whole_level:
            mass[:, block] = weighted[:, block]
        convolved[:, block] = mass.sum(axis=1)[:, None]
        if convolved[0, block[0]]:
            spectrum = _fwht(mass)
            spectrum *= walsh
            sums[:, block] = _fwht(spectrum)[:, block] / size
        if not whole_level:
            mass[:, block] = weighted[:, block]
            code = space.codes[block]
            weights = kernel[np.bitwise_count(code[:, None] ^ code)]
            weights *= f[block] <= f[block][:, None]  # row u, column y: f(y) <= f(u)
            sums[:, block] += np.einsum("uy,ky->ku", weights, weighted[:, block])
            paired[block] = block.size
        lo = hi

    phi_u = phi[codes]
    drift = phi_u * sums[0, codes] - sums[1, codes]
    top = phi.max()
    spread = max(p, 1.0 - p) ** m
    g = _gamma(4 * m + 1 + paired[codes])
    err_a = g * (spread * convolved[0, codes] + 1.0)
    err_b = g * (spread * convolved[1, codes] + top)
    g3 = _gamma(3)
    bound = (1.0 + g3) * (err_a + err_b / phi_u) + g3 * (1.0 + top / phi_u)
    return drift, float(bound.max())


def exhaustive_drift_check(
    instance: CompositeObjective,
    p: Optional[float] = None,
    states: Optional[Sequence[BitString]] = None,
) -> DriftReport:
    """Certify drift >= delta * potential over all (or the given) non-optimal states.

    All-states mode requires m <= 16 and sweeps by XOR convolution (module
    docstring); sampled mode accepts explicit states up to the single-state
    cap of 20 bits and takes each state's 2^m-mask dot product.  A sweep that
    meets no non-optimal state certifies nothing: its min_ratio and
    rounding_bound are None and it does not pass.

    rounding_bound is a worst-case bound on |computed - exact| drift(u)/phi(u)
    over the checked states, where exact means exact arithmetic on the
    tabulated f, phi and the float p.  In the standard model each operation
    rounds with relative error at most u = 2^-53, and k chained roundings stay
    within gamma_k = k u / (1 - k u).  Let Phi = max phi >= phi(u) > 0 (the
    coefficients are positive) and N = 2^m.  The mask probability
    K(k) = p^k (1-p)^(m-k) and the Walsh eigenvalue (1-2p)^k are built by
    repeated products, each within gamma_2m; sum_d K(d) = 1.

    Direct path: each term K(d) (phi(u) - phi(y)) carries 2m + 2 roundings,
    the dot product adds at most N - 1 whatever its order, and the terms'
    magnitudes sum to at most Phi.  With the final division,
    |error| <= gamma_(N+2m+2) Phi / phi(u).

    Convolution path, for u with n_P accepted states of phi-mass Phi_P in the
    convolution and n_b states in its own block (0 for a whole tie level):
    an FWHT output is a signed sum of N inputs through m additions, so it is
    off by at most gamma_m times the inputs' 1-norm.  Forward transform (m),
    eigenvalue (2m), multiply (1) and inverse transform (m) make 4m + 1
    roundings per term; the inverse sums |(1-2p)^|s|| times the forward
    1-norm, and sum_s |1-2p|^|s| / N = q^m with q = max(p, 1-p).  The
    within-block sums have n_b - 1 additions of terms with up to 2m + 1
    roundings and total weight <= 1, and one addition joins the two parts.
    With a = 4m + n_b + 1:
        |A~ - A| <= gamma_a (q^m n_P + 1),  |B~ - B| <= gamma_a (q^m Phi_P + Phi).
    The product phi(u) A~, the subtraction of B~ and the division by phi(u)
    add three roundings of operands of size at most phi(u) + Phi, so
        |error| <= (1 + gamma_3)(|A~ - A| + |B~ - B| / phi(u))
                   + gamma_3 (1 + Phi / phi(u)).
    The bound itself is evaluated in floating point, to a relative error far
    below its own size.
    """
    if p is None:
        p = instance.mutation_probability
    cap = SINGLE_STATE_CAP if states is not None else ALL_STATES_CAP
    space = StateSpace(instance, build_combined_potential(instance).position_coefficients, cap=cap)

    if states is None:
        codes = np.flatnonzero(~space.optimal)
        sweep = _swept_drift
    else:
        codes = np.array(sorted({space.encode(s) for s in states}), dtype=np.int64)
        codes = codes[~space.optimal[codes]]
        sweep = _direct_drift

    min_ratio = rounding_bound = None
    columns = ()
    if codes.size:
        drift, rounding_bound = sweep(space, p, codes)
        phi = space.phi[codes]
        ratio = drift / phi
        min_ratio = float(ratio.min())
        columns = (codes, space.popcount[codes], phi, drift, ratio)

    delta = drift_rate_reference(instance)
    return DriftReport(
        epsilon=instance.slack,
        delta_reference=delta,
        min_ratio=min_ratio,
        rounding_bound=rounding_bound,
        passed=min_ratio is not None and min_ratio - rounding_bound >= delta,
        columns=columns,
    )

