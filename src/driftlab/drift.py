"""Exact and Monte-Carlo drift of the combined potential, plus time/tail bounds.

Exact drift enumerates all 2^m mutation masks of an m-bit state (m capped at
20 for a single state, 12 for whole-space sweeps), weighting mask mu by
p^|mu| (1-p)^(m-|mu|) and applying elitist selection against the objective.
Mutations are classified relative to the second part's sub-string: flipping
at least two of its one-bits ("multi_flip"), exactly one ("single_flip"), or
none.  The multiplicative-drift time bound turns a certified per-step rate
into an expected hitting time and exponential tail thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ea import MutationEvent
from .objectives import BitString, CompositeObjective, as_bits, linear_sums
from .potential import PotentialLike, build_combined_potential, position_coefficients
from .rng import RandomSource

SINGLE_STATE_CAP = 20
ALL_STATES_CAP = 12
_STATE_CHUNK = 1 << 14  # states evaluated per batch while building a StateSpace


def drift_rate_reference(instance: CompositeObjective) -> float:
    """The certified multiplicative drift rate e^-3 * (2 - e^alpha) / (2n)."""
    return math.exp(-3.0) * instance.slack / (2.0 * instance.n)


class StateSpace:
    """All 2^m states of an instance with precomputed objective and potential.

    State `code` has bit j at position j.  Every instance takes one path, in
    batches of states: f = combine(*linear_values(states)), a state is optimal
    iff its linear pair equals instance.optimum, and phi is linear_sums of the
    states with the potential coefficients.  These are the sums value(x),
    is_optimal(x) and CombinedPotential.value(x) compute for one state, so f,
    optimal and phi agree with them bit for bit and exact drift accepts and
    rejects exactly as the EA does.
    """

    def __init__(self, instance, phi_coefficients: Optional[np.ndarray] = None, cap: int = SINGLE_STATE_CAP):
        m = instance.domain_size
        if m > cap:
            raise ValueError(f"domain size {m} exceeds enumeration cap {cap}")
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
        return p**self.popcount * (1.0 - p) ** (self.m - self.popcount)


@dataclass
class DriftSample:
    """Drift of the potential at one state, overall and per mutation class.

    Conditional entries are None when the conditioning event has zero
    probability; standard_error is None for exact enumeration.
    """

    state: np.ndarray
    potential: float
    drift: float
    drift_given_accepted: Optional[float]
    drift_given_multi_flip: Optional[float]
    drift_given_single_flip: Optional[float]
    one_bits: np.ndarray
    acceptance_probability: Optional[float] = None
    standard_error: Optional[float] = None


@dataclass
class EventClassification:
    """A mutation's class relative to the chosen part's sub-string."""

    label: str  # "none" | "single_flip" | "multi_flip"
    flipped_sorted_index: Optional[int] = None  # 0-based, sorted-weight order
    flipped_position: Optional[int] = None  # domain position of the one-bit
    zero_flips_strictly_lighter: Optional[bool] = None


def classify_event(
    x: BitString, event: MutationEvent, instance: CompositeObjective, part: int = 1
) -> EventClassification:
    """Classify a mutation by how many of the part's one-bits it flips.

    For single_flip, also reports the flipped bit's index in the part's
    sorted-weight order and whether every flipped zero-bit of the part
    carries a strictly smaller weight.
    """
    x = as_bits(x)
    emb = instance.embeddings[part]
    lf = instance.functions[part]
    in_part = np.zeros(instance.domain_size, dtype=bool)
    in_part[emb.positions] = True
    ones_flipped = [int(i) for i in event.flipped_one_bits if in_part[i]]
    if len(ones_flipped) >= 2:
        return EventClassification("multi_flip")
    if len(ones_flipped) == 0:
        return EventClassification("none")
    pos = ones_flipped[0]
    arg_index = emb.rank(pos) - 1
    star_weight = float(lf.weights[arg_index])
    sorted_index = int(lf.rank_in_sorted[arg_index])
    lighter = all(
        float(lf.weights[emb.rank(int(z)) - 1]) < star_weight
        for z in event.flipped_zero_bits
        if in_part[z]
    )
    return EventClassification("single_flip", sorted_index, pos, lighter)


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
    potential: PotentialLike,
    x: BitString,
    p: Optional[float] = None,
    space: Optional[StateSpace] = None,
) -> DriftSample:
    """Exact one-step expected potential decrease at state x.

    `potential` is a CombinedPotential or a raw per-position coefficient
    vector.  A prebuilt StateSpace (with matching potential) can be passed to
    amortize enumeration across states.
    """
    x = as_bits(x)
    coeffs = position_coefficients(potential)
    if p is None:
        p = instance.mutation_probability
    if space is None:
        space = StateSpace(instance, coeffs)
    if space.phi is None:
        raise ValueError("state space was built without potential values")
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
        one_bits=np.flatnonzero(x),
        acceptance_probability=float(probs[accepted & moved].sum()),
    )


def monte_carlo_drift(
    instance: CompositeObjective,
    potential: PotentialLike,
    x: BitString,
    p: Optional[float] = None,
    trials: int = 10_000,
    rng: Optional[RandomSource] = None,
) -> DriftSample:
    """Unbiased estimate of the one-step potential decrease, with standard error."""
    if trials < 1_000:
        raise ValueError("need at least 1000 trials for a meaningful estimate")
    if rng is None:
        raise ValueError("monte_carlo_drift needs a RandomSource")
    x = as_bits(x)
    coeffs = position_coefficients(potential)
    if p is None:
        p = instance.mutation_probability
    m = instance.domain_size
    f_x = instance.value(x)
    phi_x = float(linear_sums(x, coeffs))

    gen = rng.generator
    total = 0.0
    total_sq = 0.0
    moves = 0
    done = 0
    chunk = max(1, min(trials, 1_000_000 // max(1, m)))
    while done < trials:
        take = min(chunk, trials - done)
        masks = gen.random((take, m)) < p
        ys = x ^ masks
        f_y = instance.combine(*instance.linear_values(ys))
        accepted = f_y <= f_x
        dphi = (phi_x - linear_sums(ys, coeffs)) * accepted
        total += float(dphi.sum())
        total_sq += float(dphi @ dphi)
        moves += int(np.count_nonzero(accepted & masks.any(axis=1)))
        done += take
    mean = total / trials
    variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return DriftSample(
        state=x,
        potential=phi_x,
        drift=mean,
        drift_given_accepted=None,
        drift_given_multi_flip=None,
        drift_given_single_flip=None,
        one_bits=np.flatnonzero(x),
        acceptance_probability=moves / trials,
        standard_error=math.sqrt(variance / trials),
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
    """Per-state drift/potential ratios against the reference rate."""

    instance_label: str
    epsilon: float
    delta_reference: float
    rows: list
    min_ratio: Optional[float]  # None when no non-optimal state was checked
    passed: bool  # False when no state was checked: nothing is certified

    def summary_dict(self) -> dict:
        return {
            "min_ratio": self.min_ratio,
            "delta_ref": self.delta_reference,
            "epsilon": self.epsilon,
            "pass": self.passed,
        }


def exhaustive_drift_check(
    instance: CompositeObjective,
    p: Optional[float] = None,
    states: Optional[Sequence[BitString]] = None,
) -> DriftReport:
    """Certify drift >= delta * potential over all (or the given) non-optimal states.

    All-states mode requires m <= 12; sampled mode accepts explicit states up
    to the single-state cap of 20 bits.  A sweep that meets no non-optimal
    state certifies nothing: its min_ratio is None and it does not pass.
    """
    if p is None:
        p = instance.mutation_probability
    combined = build_combined_potential(instance)
    coeffs = combined.position_coefficients
    cap = SINGLE_STATE_CAP if states is not None else ALL_STATES_CAP
    space = StateSpace(instance, coeffs, cap=cap)
    probs = space.mask_probabilities(p)

    if states is None:
        codes = np.flatnonzero(~space.optimal)
    else:
        codes = np.array(sorted({space.encode(s) for s in states}), dtype=np.int64)
        codes = codes[~space.optimal[codes]]

    rows = []
    min_ratio = None
    for u in codes:
        drift = _drift_at(space, u, probs)[2]
        phi_u = float(space.phi[u])
        ratio = drift / phi_u
        min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
        rows.append(DriftRow(int(u), int(space.popcount[u]), phi_u, drift, ratio))

    delta = drift_rate_reference(instance)
    return DriftReport(
        instance_label=getattr(instance, "label", "") or "instance",
        epsilon=instance.slack,
        delta_reference=delta,
        rows=rows,
        min_ratio=min_ratio,
        passed=min_ratio is not None and min_ratio >= delta,
    )


@dataclass
class TailPoint:
    r: float
    threshold: float
    probability_bound: float


@dataclass
class DriftTimeBound:
    """Expected-time and tail thresholds from a multiplicative drift rate.

    For a process on {0} u [floor, ceiling] that loses at least `rate` times
    its value per step in expectation, the hitting time T of 0 satisfies
    E[T] <= (ln(start/floor) + 1) / rate and
    Pr(T > (ln(start/floor) + r) / rate) <= e^-r.  (The ceiling of the state
    space plays no role in either bound and is not stored.)
    """

    start: float
    floor: float
    rate: float
    expected_time_bound: float
    tail: list


def drift_time_bounds(
    start: float, floor: float, rate: float, r_values: Sequence[float]
) -> DriftTimeBound:
    if not floor > 0.0:
        raise ValueError("floor must be positive")
    if start < floor:
        raise ValueError("start must be at least the floor")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    log_term = math.log(start / floor)
    tail = []
    for r in r_values:
        if r < 0:
            raise ValueError("tail parameters r must be non-negative")
        tail.append(TailPoint(float(r), (log_term + r) / rate, math.exp(-r)))
    return DriftTimeBound(
        start=float(start),
        floor=float(floor),
        rate=float(rate),
        expected_time_bound=(log_term + 1.0) / rate,
        tail=tail,
    )
