import math
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from driftlab.potential import zero_weight_positions
from oracle_drift import potential_coefficients as oracle_potential_coefficients
from oracle_drift import potential_value as oracle_potential_value


class TestBuildPotential:
    """One part's coefficients, `part_coefficients`."""

    def test_equal_weights_give_unit_coefficients(self):
        assert dl.part_coefficients([5, 5, 5, 5], 8).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_tied_profile(self):
        assert dl.part_coefficients([3, 5, 5, 7], 8).tolist() == [1.0, 1.125, 1.125, 1.423828125]

    def test_distinct_weights_form_geometric_ladder(self):
        n = 16
        coeffs = dl.part_coefficients(np.arange(1, n + 1, dtype=float), n)
        expected = (1 + 1 / n) ** np.arange(n)
        assert coeffs == pytest.approx(expected, rel=1e-15)
        assert coeffs[-1] <= math.e

    def test_unsorted_profile_gets_its_sorted_coefficients_permuted(self):
        assert dl.part_coefficients([7, 3, 5, 0, 5], 8).tolist() == [
            1.601806640625, 1.125, 1.265625, 1.0, 1.265625
        ]
        gen = dl.RandomSource(56).generator
        for _ in range(200):
            w = gen.integers(0, 5, size=int(gen.integers(1, 16))).astype(float)
            order = np.argsort(w, kind="stable")
            assert np.array_equal(
                dl.part_coefficients(w, 9)[order], dl.part_coefficients(w[order], 9)
            )

    def test_reconstruction_on_random_profiles(self):
        # coefficients must equal (1 + 1/n)^(first tied index) exactly
        gen = dl.RandomSource(55).generator
        for _ in range(1000):
            k = int(gen.integers(1, 20))
            n = int(gen.integers(max(2, k), 4 * k + 2))
            w = np.sort(gen.integers(0, 8, size=k).astype(float))
            coeffs = dl.part_coefficients(w, n)
            for i in range(k):
                first = min(j for j in range(i + 1) if w[j] == w[i])
                expected = (1 + 1 / n) ** first
                assert coeffs[i] == pytest.approx(expected, rel=1e-12)
            assert np.all(np.diff(coeffs) >= 0)
            assert np.all(coeffs >= 1.0)
            assert np.all(coeffs <= (1 + 1 / n) ** (k - 1) + 1e-15)


def test_zero_weight_positions_are_read_from_either_part():
    # part 1 on positions 0-1 with weights (0, 1), part 2 on 2-3 with (2, 0)
    assert zero_weight_positions(dl.build_separable([0, 1], [2, 0])) == [0, 3]
    assert zero_weight_positions(dl.onemax(8)) == []
    # a shared position counts if either part gives it weight zero
    shared = dl.CompositeObjective(
        4, 1, "1/2",
        (dl.LinearFunction([1, 0]), dl.LinearFunction([3, 1])),
        (dl.DomainEmbedding([0, 1], 3), dl.DomainEmbedding([1, 2], 3)),
        (dl.identity(), dl.identity()),
    )
    assert zero_weight_positions(shared) == [1]


class TestSingleFlipDrift:
    def test_first_index_trivial(self):
        assert dl.single_flip_drift_value([2, 4, 8], 8, 0) == 1.0

    def test_hand_value_third_distinct_index(self):
        # tie anchor 3rd (1-based), n = 8: 1.265625 - (1 + 1.125)/8 = 1
        assert dl.part_coefficients([1, 2, 3], 8)[2] == 1.265625
        assert dl.single_flip_drift_value([1, 2, 3], 8, 2) == pytest.approx(1.0, abs=1e-12)

    def test_equal_weights(self):
        for i in range(3):
            assert dl.single_flip_drift_value([4, 4, 4], 8, i) == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_random_profiles(self):
        gen = dl.RandomSource(77).generator
        for _ in range(300):
            k = int(gen.integers(1, 24))
            n = int(gen.integers(2, 64))
            w = gen.integers(0, 6, size=k).astype(float)
            for i in range(k):
                assert dl.single_flip_drift_value(w, n, i) == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            dl.single_flip_drift_value([1, 2], 4, 2)


class TestZeroGainSeries:
    def test_single_term(self):
        for n in (1, 2, 8, 100):
            assert dl.zero_gain_series(1, n) == pytest.approx(1 / n, rel=1e-15)

    def test_hand_value(self):
        assert dl.zero_gain_series(8, 8) == pytest.approx(1.125**8 - 1, rel=1e-12)

    def test_closed_form_on_grid(self):
        for n in [1, 2, 3, 5, 8, 16, 64, 128, 512, 1000]:
            for k in range(1, n + 1):
                closed = (1 + 1 / n) ** k - 1
                assert dl.zero_gain_series(k, n) == pytest.approx(closed, rel=1e-12)

    def test_balanced_chain_bound(self):
        # k = n/2: series <= e^(1/2) - 1 <= 1 - slack
        slack = 2 - math.exp(0.5)
        for n in (4, 8, 32, 100, 1024):
            v = dl.zero_gain_series(n // 2, n)
            assert v <= math.exp(0.5) - 1 + 1e-12
            assert math.exp(0.5) - 1 <= 1 - slack + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            dl.zero_gain_series(0, 4)
        with pytest.raises(ValueError):
            dl.zero_gain_series(1, 0)


class TestCombinedPotential:
    def test_zero_state(self):
        inst = dl.onemax(8)
        pot = dl.build_combined_potential(inst)
        assert pot.value(np.zeros(8, dtype=np.uint8)) == 0.0

    def test_all_ones_bounded_by_2e_per_bit(self):
        rng = dl.RandomSource(66)
        inst = dl.generate_instance(12, 4, Fraction(1, 2), rng=rng)
        pot = dl.build_combined_potential(inst)
        m = inst.domain_size
        total = pot.value(np.ones(m, dtype=np.uint8))
        parts = [dl.part_coefficients(lf.weights, inst.n) for lf in inst.functions]
        assert total == pytest.approx(sum(c.sum() for c in parts), rel=1e-12)
        assert total <= 2 * math.e * m

    def test_overlap_bit_counts_twice(self):
        inst = dl.build_chance(dl.ChanceInstance([3.0], [1.0], 0.9))
        pot = dl.build_combined_potential(inst)
        assert pot.value(np.array([1], dtype=np.uint8)) == pytest.approx(2.0)

    def test_positive_iff_some_one_bit(self):
        rng = dl.RandomSource(13)
        inst = dl.generate_instance(10, 2, Fraction(1, 2), embedding_scheme="random", rng=rng)
        pot = dl.build_combined_potential(inst)
        gen = dl.RandomSource(14).generator
        for _ in range(50):
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            assert (pot.value(x) == 0.0) == (x.sum() == 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_rows(self, seed):
        gen = dl.RandomSource(seed).generator
        n = 2 * int(gen.integers(2, 10))
        inst = dl.generate_instance(
            n, int(gen.integers(0, n // 2 + 1)), Fraction(1, 2), weight_range=(0, 9),
            embedding_scheme="random", rng=dl.RandomSource(seed, (1,)),
        )
        pot = dl.build_combined_potential(inst)
        states = gen.integers(0, 2, (300, inst.domain_size), dtype=np.uint8)
        batch = pot.value(states)
        assert batch.shape == (300,)
        rows = [pot.value(x) for x in states]
        assert all(type(v) is float for v in rows)
        assert np.array_equal(batch.view(np.int64), np.array(rows).view(np.int64))

    def test_wrong_width_rejected(self):
        pot = dl.build_combined_potential(dl.onemax(8))
        for x in (np.zeros(7, dtype=np.uint8), np.zeros((3, 9), dtype=np.uint8)):
            with pytest.raises(ValueError, match="expected 8 bits"):
                pot.value(x)

    def test_matches_independent_derivation(self):
        # route scrambled weights + embeddings through the oracle's own
        # sorted-order computation
        rng = dl.RandomSource(21)
        gen = dl.RandomSource(22).generator
        for k in range(20):
            inst = dl.generate_instance(
                10, int(gen.integers(0, 4)), Fraction(1, 2),
                embedding_scheme="random", rng=rng.spawn(k),
            )
            pot = dl.build_combined_potential(inst)
            data = inst.to_dict()
            for _ in range(10):
                x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
                assert pot.value(x) == pytest.approx(
                    oracle_potential_value(data, x.tolist()), rel=1e-12
                )

    def test_coefficients_match_oracle_on_tie_heavy_instances(self):
        # weights 0..3 give long tie runs and zero weights; random embeddings
        # scatter each part's coefficients over the domain
        gen = dl.RandomSource(23).generator
        for k in range(200):
            n = 2 * int(gen.integers(2, 20))
            inst = dl.generate_instance(
                n, int(gen.integers(0, n // 2 + 1)), Fraction(1, 2), weight_range=(0, 3),
                embedding_scheme="random", rng=dl.RandomSource(k),
            )
            assert dl.build_combined_potential(inst).position_coefficients == pytest.approx(
                oracle_potential_coefficients(inst.to_dict()), rel=1e-12
            )
