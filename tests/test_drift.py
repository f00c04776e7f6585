import math
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from oracle_drift import exact_drift as oracle_exact_drift
from oracle_drift import objective_value as oracle_objective_value


def bits(*values):
    return np.array(values, dtype=np.uint8)


def random_instance(key, n_choices=(8, 10), s_max=3):
    rng = dl.RandomSource(1000 + key)
    gen = rng.generator
    n = int(gen.choice(n_choices))
    s = int(gen.integers(0, s_max + 1))
    kinds = ["identity", "square", "square_root", "scaled_square_root"]
    transforms = (str(gen.choice(kinds)), str(gen.choice(kinds)))
    return dl.generate_instance(
        n, s, Fraction(1, 2),
        weight_scheme="uniform-int", weight_range=(1, 20),
        transforms=transforms,
        embedding_scheme="random" if gen.random() < 0.5 else "canonical",
        rng=rng.spawn(0),
    )


def float_weight_instance(transforms, n=20, s=4, seed=16):
    """m = n - s bits, alpha = 1/2, weights drawn from {0.1, 0.2, 0.3, 0.6, 0.7}.

    Sums of these weights round differently in different orders, and with
    identity transforms many distinct states tie in exact arithmetic.
    """
    data = dl.generate_instance(n, s, "1/2", rng=dl.RandomSource(seed)).to_dict()
    gen = dl.RandomSource(seed + 1).generator
    data["weights1"] = gen.choice([0.1, 0.2, 0.3, 0.6, 0.7], n // 2).tolist()
    data["weights2"] = gen.choice([0.1, 0.2, 0.3, 0.6, 0.7], n // 2).tolist()
    data["transform1"], data["transform2"] = ({"kind": t} for t in transforms)
    return dl.CompositeObjective.from_dict(data)


def all_states(m):
    """Every m-bit state as a row, row u holding the bits of code u."""
    return ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)


class TestExactDrift:
    def test_optimal_state_has_zero_drift(self):
        inst = dl.onemax(8)
        pot = dl.build_combined_potential(inst)
        sample = dl.exact_drift(inst, pot, np.zeros(8, dtype=np.uint8))
        assert sample.drift == 0.0
        assert sample.acceptance_probability == 0.0

    def test_single_bit_with_raw_coefficient_vector(self):
        # one positive-weight bit, p = 1/2: only the flip mask changes the
        # potential; with a unit coefficient the drift is 1/2, with the
        # combined potential (both parts overlap) it doubles
        inst = dl.build_chance(dl.ChanceInstance([1.0], [1.0], 0.5))
        single = dl.exact_drift(inst, np.array([1.0]), bits(1), p=0.5)
        assert single.drift == pytest.approx(0.5, abs=1e-15)
        combined = dl.exact_drift(inst, dl.build_combined_potential(inst), bits(1), p=0.5)
        assert combined.drift == pytest.approx(1.0, abs=1e-15)

    def test_onemax_all_ones_against_oracle(self):
        inst = dl.onemax(8)
        pot = dl.build_combined_potential(inst)
        x = np.ones(8, dtype=np.uint8)
        mine = dl.exact_drift(inst, pot, x)
        reference = oracle_exact_drift(inst.to_dict(), x.tolist(), 1 / 8)
        assert mine.drift == pytest.approx(reference, rel=1e-12)

    def test_oracle_equivalence_random_pairs(self):
        gen = dl.RandomSource(404).generator
        for k in range(100):
            inst = random_instance(k)
            data = inst.to_dict()
            pot = dl.build_combined_potential(inst)
            space = dl.StateSpace(inst, pot.position_coefficients)
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            mine = dl.exact_drift(inst, pot, x, space=space)
            reference = oracle_exact_drift(data, x.tolist(), inst.mutation_probability)
            assert mine.drift == pytest.approx(reference, rel=1e-12, abs=1e-15)

    def test_drift_equals_conditional_times_probability(self):
        inst = random_instance(11)
        gen = dl.RandomSource(12).generator
        pot = dl.build_combined_potential(inst)
        for _ in range(10):
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            sample = dl.exact_drift(inst, pot, x)
            if sample.drift_given_accepted is None:
                assert sample.acceptance_probability == 0.0
            else:
                assert sample.drift == pytest.approx(
                    sample.drift_given_accepted * sample.acceptance_probability, abs=1e-14
                )

    def test_cap_enforced(self):
        inst = dl.onemax(44)
        pot = dl.build_combined_potential(inst)
        with pytest.raises(ValueError):
            dl.exact_drift(inst, pot, np.zeros(44, dtype=np.uint8))

    def test_single_one_bit_clear_is_always_accepted(self):
        # clearing any one-bit alone cannot increase the objective
        gen = dl.RandomSource(31).generator
        for k in range(30):
            inst = random_instance(k)
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            fx = inst.value(x)
            for i in np.flatnonzero(x):
                y = x.copy()
                y[i] = 0
                assert inst.value(y) <= fx


class TestMonteCarloDrift:
    def test_optimal_state(self):
        inst = dl.onemax(8)
        pot = dl.build_combined_potential(inst)
        sample = dl.monte_carlo_drift(
            inst, pot, np.zeros(8, dtype=np.uint8), trials=2000, rng=dl.RandomSource(1)
        )
        assert sample.drift == 0.0
        assert sample.standard_error == 0.0

    def test_matches_exact_within_four_sigma(self):
        gen = dl.RandomSource(52).generator
        for k in range(10):
            inst = random_instance(k, n_choices=(10, 12), s_max=2)
            pot = dl.build_combined_potential(inst)
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            exact = dl.exact_drift(inst, pot, x)
            estimate = dl.monte_carlo_drift(inst, pot, x, trials=20_000, rng=dl.RandomSource(60 + k))
            if exact.drift == 0.0:
                assert estimate.drift == 0.0
            else:
                assert abs(estimate.drift - exact.drift) <= 4 * max(estimate.standard_error, 1e-12)

    def test_error_shrinks_with_sqrt_trials(self):
        inst = random_instance(3, n_choices=(12,))
        pot = dl.build_combined_potential(inst)
        x = np.ones(inst.domain_size, dtype=np.uint8)
        small = dl.monte_carlo_drift(inst, pot, x, trials=20_000, rng=dl.RandomSource(70))
        big = dl.monte_carlo_drift(inst, pot, x, trials=40_000, rng=dl.RandomSource(71))
        ratio = big.standard_error / small.standard_error
        assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)

    def test_trials_floor(self):
        inst = dl.onemax(4)
        pot = dl.build_combined_potential(inst)
        with pytest.raises(ValueError):
            dl.monte_carlo_drift(inst, pot, np.zeros(4, dtype=np.uint8), trials=10, rng=dl.RandomSource(1))


class TestExhaustiveDriftCheck:
    def test_onemax_certifies_reference_rate(self):
        inst = dl.onemax(8)
        report = dl.exhaustive_drift_check(inst)
        assert len(report.rows) == 255  # non-optimal states
        assert report.delta_reference == pytest.approx(
            math.exp(-3) * (2 - math.exp(0.5)) / 16, rel=1e-12
        )
        assert report.delta_reference == pytest.approx(0.001093, abs=2e-6)
        assert report.passed and report.min_ratio >= report.delta_reference

    def test_square_root_instance_passes(self):
        rng = dl.RandomSource(88)
        inst = dl.generate_instance(
            8, 0, Fraction(1, 2), weight_scheme="uniform-int", weight_range=(1, 100),
            transforms=("square", "square_root"), rng=rng,
        )
        report = dl.exhaustive_drift_check(inst)
        assert report.passed

    def test_planted_single_one_bit_state(self):
        inst = dl.onemax(10)
        x = np.zeros(10, dtype=np.uint8)
        x[3] = 1
        report = dl.exhaustive_drift_check(inst, states=[x])
        assert len(report.rows) == 1
        assert report.rows[0].ones == 1
        assert report.rows[0].ratio >= report.delta_reference

    def test_all_states_cap(self):
        inst = dl.onemax(26)
        with pytest.raises(ValueError):
            dl.exhaustive_drift_check(inst)

    def test_summary_schema(self):
        report = dl.exhaustive_drift_check(dl.onemax(6))
        assert set(report.summary_dict()) == {"min_ratio", "delta_ref", "epsilon", "pass"}


class TestOneEvaluationPath:
    """value, is_optimal, StateSpace, exact and Monte-Carlo drift share one sum."""

    def test_value_statespace_and_oracle_agree_on_every_state(self):
        inst = float_weight_instance(("square", "square_root"))
        assert inst.linear_form is None
        data = inst.to_dict()
        states = all_states(16)
        values = np.array([inst.value(x) for x in states])
        oracle = np.array([oracle_objective_value(data, x.tolist()) for x in states])
        assert np.array_equal(values, oracle)
        assert np.array_equal(dl.StateSpace(inst).f, values)

    def test_exact_drift_accepts_exactly_when_value_does(self):
        inst = float_weight_instance(("identity", "identity"))
        pot = dl.build_combined_potential(inst)
        space = dl.StateSpace(inst, pot.position_coefficients)
        states = all_states(16)
        values = np.array([inst.value(x) for x in states])
        probs = space.mask_probabilities(inst.mutation_probability)
        moved = space.codes != 0
        for u in (12345, 28086, 54321, 61680):
            sample = dl.exact_drift(inst, pot, states[u], space=space)
            accepted = values[space.codes ^ u] <= values[u]
            assert sample.acceptance_probability == float(probs[accepted & moved].sum())

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_multimodal_statespace_matches_per_state_value(self, n):
        inst = dl.MultimodalInstance(n)
        space = dl.StateSpace(inst)
        states = all_states(n)
        assert np.array_equal(space.f, [inst.value(x) for x in states])
        assert np.array_equal(space.optimal, [inst.is_optimal(x) for x in states])
        assert np.flatnonzero(space.optimal).tolist() == [1]

    def test_monte_carlo_batch_values_match_value(self):
        # Replays the estimator's one batch of masks with per-state value():
        # any row valued differently changes an acceptance and the estimate.
        inst = float_weight_instance(("identity", "identity"), n=40)
        pot = dl.build_combined_potential(inst)
        x = dl.RandomSource(3).generator.integers(0, 2, 36, dtype=np.uint8)
        p, trials = 0.25, 4000
        sample = dl.monte_carlo_drift(inst, pot, x, p=p, trials=trials, rng=dl.RandomSource(8))
        masks = dl.RandomSource(8).generator.random((trials, 36)) < p
        ys = x ^ masks
        accepted = np.array([inst.value(y) for y in ys]) <= inst.value(x)
        dphi = (pot.value(x) - np.array([pot.value(y) for y in ys])) * accepted
        assert 0 < sample.acceptance_probability < 1
        assert sample.acceptance_probability == np.count_nonzero(accepted & masks.any(axis=1)) / trials
        assert sample.drift == float(dphi.sum()) / trials


class TestDriftTimeBounds:
    def test_equal_start_and_floor(self):
        bound = dl.drift_time_bounds(2.0, 2.0, 0.25, [1.0])
        assert bound.expected_time_bound == pytest.approx(4.0)

    def test_hand_example(self):
        bound = dl.drift_time_bounds(math.e * 3.0, 3.0, 0.5, [])
        assert bound.expected_time_bound == pytest.approx(4.0)

    def test_tail_point(self):
        bound = dl.drift_time_bounds(10.0, 1.0, 0.1, [3.0])
        point = bound.tail[0]
        assert point.probability_bound == pytest.approx(math.exp(-3))
        assert point.threshold == pytest.approx((math.log(10.0) + 3.0) / 0.1)

    def test_monotone_in_rate_and_start(self):
        slow = dl.drift_time_bounds(10.0, 1.0, 0.1, [1.0])
        fast = dl.drift_time_bounds(10.0, 1.0, 0.2, [1.0])
        bigger = dl.drift_time_bounds(20.0, 1.0, 0.1, [1.0])
        assert fast.expected_time_bound < slow.expected_time_bound
        assert fast.tail[0].threshold < slow.tail[0].threshold
        assert bigger.expected_time_bound > slow.expected_time_bound

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dl.drift_time_bounds(1.0, 0.0, 0.5, [])
        with pytest.raises(ValueError):
            dl.drift_time_bounds(0.5, 1.0, 0.5, [])
        with pytest.raises(ValueError):
            dl.drift_time_bounds(2.0, 1.0, 0.0, [])
        with pytest.raises(ValueError):
            dl.drift_time_bounds(2.0, 1.0, 1.5, [])
        with pytest.raises(ValueError):
            dl.drift_time_bounds(2.0, 1.0, 0.5, [-1.0])
