import math
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from oracle_normal import normal_cdf, normal_quantile as quantile_oracle


def bits(*values):
    return np.array(values, dtype=np.uint8)


class TestLinearFunction:
    def test_zero_vector(self):
        assert dl.LinearFunction([1, 2, 4]).value(bits(0, 0, 0)) == 0.0

    def test_full_sum(self):
        assert dl.LinearFunction([1, 2, 4]).value(bits(1, 1, 1)) == 7.0

    def test_partial_sum(self):
        assert dl.LinearFunction([3, 5, 7]).value(bits(1, 0, 1)) == 10.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dl.LinearFunction([1, 2]).value(bits(1, 0, 1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            dl.LinearFunction([1, -2])

    def test_sorted_view_round_trips(self):
        gen = dl.RandomSource(8).generator
        for _ in range(100):
            w = gen.integers(0, 10, size=12).astype(float)
            lf = dl.LinearFunction(w)
            assert np.all(np.diff(lf.sorted_weights) >= 0)
            assert np.array_equal(lf.sorted_weights[lf.rank_in_sorted], lf.weights)


class TestLinearSums:
    def test_one_state_equals_its_batch_row_and_a_left_to_right_loop(self):
        gen = dl.RandomSource(21).generator
        w = gen.choice([0.1, 0.2, 0.3, 0.6, 0.7], 40)
        states = gen.integers(0, 2, (2000, 40), dtype=np.uint8)
        batch = dl.linear_sums(states, w)
        for x, row_sum in zip(states, batch):
            total = 0.0
            for wj, xj in zip(w.tolist(), x.tolist()):
                total += wj * xj
            assert dl.linear_sums(x, w) == row_sum == total

    def test_pair_of_one_state_equals_the_batch_pair(self):
        gen = dl.RandomSource(22).generator
        inst = dl.build_separable(gen.uniform(0, 3, 20), gen.uniform(0, 3, 20))
        states = gen.integers(0, 2, (500, 40), dtype=np.uint8)
        l1, l2 = inst.linear_values(states)
        assert [inst.linear_values(x) for x in states] == list(zip(l1, l2))
        assert np.array_equal(inst.combine(l1, l2), [inst.value(x) for x in states])


class TestDomainEmbedding:
    def test_validation(self):
        with pytest.raises(ValueError):
            dl.DomainEmbedding([2, 1], 4)
        with pytest.raises(ValueError):
            dl.DomainEmbedding([0, 5], 4)


class TestCompositeObjective:
    def test_all_zeros_hits_transform_origins(self):
        inst = dl.build_separable([1, 2], [3, 4])
        assert inst.value(bits(0, 0, 0, 0)) == 0.0
        shifted = dl.generate_instance(
            4, 0, Fraction(1, 2), weight_scheme="all-ones",
            transforms=(dl.affine(1.0, 5.0), dl.identity()),
        )
        assert shifted.value(bits(0, 0, 0, 0)) == 5.0

    def test_separable_hand_value(self):
        inst = dl.build_separable([1, 2], [3, 4])
        assert inst.value(bits(1, 1, 0, 1)) == pytest.approx((1 + 2) ** 2 + math.sqrt(4))

    def test_full_overlap_hand_value(self):
        chance = dl.ChanceInstance([1, 1], [1, 1], 0.9772498680518208)
        inst = dl.build_chance(chance)
        # fractile at that level is 2, so h2 = scale(2) o sqrt on a 2-one string
        assert inst.value(bits(1, 1)) == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-9)

    def test_separable_examples(self):
        assert dl.build_separable([1], [1]).value(bits(1, 1)) == pytest.approx(2.0)
        inst = dl.build_separable([2, 3], [5, 5])
        assert inst.value(bits(1, 1, 1, 1)) == pytest.approx(25 + math.sqrt(10))
        with pytest.raises(ValueError):
            dl.build_separable([], [])
        with pytest.raises(ValueError):
            dl.build_separable([1, -1], [1, 1])

    def test_length_mismatch(self):
        inst = dl.build_separable([1, 2], [3, 4])
        with pytest.raises(ValueError):
            inst.value(bits(1, 0))

    def test_separable_matches_literal_expression_everywhere(self):
        # square of the first half plus root of the second, on every point
        gen = dl.RandomSource(71).generator
        for half in (3, 5, 6):
            w1 = gen.integers(1, 30, size=half).astype(float)
            w2 = gen.integers(1, 30, size=half).astype(float)
            inst = dl.build_separable(w1, w2)
            n = 2 * half
            for code in range(1 << n):
                x = [(code >> j) & 1 for j in range(n)]
                first = sum(w * b for w, b in zip(w1, x[:half]))
                second = sum(w * b for w, b in zip(w2, x[half:]))
                literal = first**2 + math.sqrt(second)
                assert inst.value(bits(*x)) == pytest.approx(literal, rel=1e-12, abs=1e-12)

    def test_invariants_on_random_instances(self):
        rng = dl.RandomSource(202)
        for k in range(30):
            n = int(rng.generator.choice([8, 10, 12]))
            s = int(rng.generator.integers(0, n // 2 + 1))
            inst = dl.generate_instance(
                n, s, Fraction(1, 2), weight_scheme="uniform-int",
                embedding_scheme="random", rng=rng.spawn(k),
            )
            b1 = set(inst.embeddings[0].positions.tolist())
            b2 = set(inst.embeddings[1].positions.tolist())
            assert len(b1) == n // 2 and len(b2) == n // 2
            assert len(b1 & b2) == s
            assert b1 | b2 == set(range(n - s))
            assert inst.slack > 0


class TestGenerateInstance:
    def test_onemax_reduction(self):
        inst = dl.generate_instance(
            8, 0, Fraction(1, 2), weight_scheme="all-ones", transforms=("identity", "identity")
        )
        gen = dl.RandomSource(3).generator
        for _ in range(50):
            x = gen.integers(0, 2, 8, dtype=np.uint8)
            assert inst.value(x) == float(x.sum())

    def test_canonical_embedding_blocks(self):
        inst = dl.generate_instance(8, 2, Fraction(1, 2), weight_scheme="all-ones")
        assert inst.embeddings[0].positions.tolist() == [0, 1, 2, 3]
        assert inst.embeddings[1].positions.tolist() == [2, 3, 4, 5]

    def test_overlap_limit(self):
        with pytest.raises(ValueError):
            dl.generate_instance(8, 5, Fraction(1, 2), weight_scheme="all-ones")

    def test_alpha_n_must_be_integer(self):
        with pytest.raises(ValueError):
            dl.generate_instance(7, 0, Fraction(1, 2), weight_scheme="all-ones")

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            dl.generate_instance(8, 0, Fraction(1, 4), weight_scheme="all-ones")
        with pytest.raises(ValueError):
            dl.generate_instance(8, 0, Fraction(3, 4), weight_scheme="all-ones")

    def test_unbalanced_alpha_allowed(self):
        inst = dl.generate_instance(16, 2, Fraction(5, 8), weight_scheme="all-ones")
        assert inst.embeddings[0].arity == 10
        assert inst.embeddings[1].arity == 6

    def test_doubling_weights(self):
        inst = dl.generate_instance(
            8, 0, Fraction(1, 2), weight_scheme="doubling", transforms=("identity", "identity")
        )
        assert inst.functions[0].weights.tolist() == [1, 2, 4, 8]


class TestIsOptimal:
    def test_all_zeros(self):
        inst = dl.onemax(8)
        assert inst.is_optimal(np.zeros(8, dtype=np.uint8))

    def test_any_one_bit_not_optimal(self):
        inst = dl.onemax(8)
        for i in range(8):
            x = np.zeros(8, dtype=np.uint8)
            x[i] = 1
            assert not inst.is_optimal(x)

    def test_zero_weight_positions_are_free(self):
        # position 2 carries weight 0 in both parts
        inst = dl.CompositeObjective(
            4,
            0,
            Fraction(1, 2),
            (dl.LinearFunction([1, 0]), dl.LinearFunction([2, 3])),
            (dl.DomainEmbedding([0, 2], 4), dl.DomainEmbedding([1, 3], 4)),
            (dl.identity(), dl.identity()),
        )
        free = bits(0, 0, 1, 0)
        assert inst.is_optimal(free)
        # cross-check against exhaustive evaluation
        best = min(
            inst.value(bits(*((u >> j) & 1 for j in range(4)))) for u in range(16)
        )
        assert inst.value(free) == best


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert dl.normal_quantile(0.5) == 0.0

    def test_known_points(self):
        assert dl.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert dl.normal_quantile(0.8413447) == pytest.approx(1.0, abs=1e-4)

    def test_odd_symmetry(self):
        for level in (0.6, 0.9, 0.975, 0.999):
            assert dl.normal_quantile(1 - level) == pytest.approx(-dl.normal_quantile(level), abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                dl.normal_quantile(bad)

    def test_monotone_and_zero_only_at_half(self):
        levels = np.linspace(0.01, 0.99, 99)
        values = [dl.normal_quantile(a) for a in levels]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all((v == 0) == (a == 0.5) for v, a in zip(values, levels))

    def test_against_integration_oracle_spot(self):
        for level in (0.12, 0.5, 0.8413447, 0.975, 0.999):
            k = dl.normal_quantile(level)
            assert abs(float(normal_cdf(k)) - level) <= 1e-9
        assert dl.normal_quantile(0.975) == pytest.approx(float(quantile_oracle(0.975)), abs=1e-9)


class TestChance:
    def test_median_level_reduces_to_linear(self):
        c = dl.ChanceInstance([1, 2, 3], [1, 1, 1], 0.5)
        inst = dl.build_chance(c)
        gen = dl.RandomSource(1).generator
        for _ in range(20):
            x = gen.integers(0, 2, 3, dtype=np.uint8)
            assert inst.value(x) == pytest.approx(float(np.asarray([1, 2, 3]) @ x))

    def test_single_item_value(self):
        inst = dl.build_chance(dl.ChanceInstance([1.0], [1.0], 0.975))
        assert inst.value(bits(1)) == pytest.approx(2.959964, abs=2e-5)
        assert inst.value(bits(0)) == 0.0

    def test_construction_matches_overlap_setup(self):
        c = dl.ChanceInstance([1, 2, 3, 4], [1, 1, 2, 2], 0.9)
        inst = dl.build_chance(c)
        assert inst.n == 8 and inst.s == 4 and inst.domain_size == 4
        assert inst.embeddings[0].positions.tolist() == inst.embeddings[1].positions.tolist()

    def test_composite_equals_direct_fitness(self):
        c = dl.ChanceInstance([2, 5, 1, 7], [0.5, 1, 2, 1.5], 0.93)
        inst = dl.build_chance(c)
        gen = dl.RandomSource(4).generator
        for _ in range(50):
            x = gen.integers(0, 2, 4, dtype=np.uint8)
            assert inst.value(x) == pytest.approx(c.fitness_value(x), rel=1e-12)

    def test_algebraic_identity(self):
        gen = dl.RandomSource(9).generator
        for _ in range(50):
            m = int(gen.integers(2, 10))
            c = dl.ChanceInstance(
                gen.uniform(0.5, 10, m), gen.uniform(0.5, 3, m), float(gen.uniform(0.55, 0.99))
            )
            x = gen.integers(0, 2, m, dtype=np.uint8)
            if x.sum() == 0:
                x[0] = 1
            g = dl.build_chance(c).value(x)
            ratio = (g - c.mean_value(x)) / c.std_value(x)
            assert ratio == pytest.approx(c.fractile, rel=1e-12)

    def test_float_fitness_is_the_composite_value_bit_for_bit(self):
        gen = dl.RandomSource(30).generator
        c = dl.ChanceInstance(gen.uniform(0.1, 10, 16), gen.uniform(0.1, 3, 16), 0.9)
        inst = dl.build_chance(c)
        states = gen.integers(0, 2, (3000, 16), dtype=np.uint8)
        assert all(c.fitness_value(x) == inst.value(x) for x in states)

    def test_validation(self):
        with pytest.raises(ValueError):
            dl.ChanceInstance([1], [1], 0.0)
        with pytest.raises(ValueError):
            dl.ChanceInstance([1], [1], 1.0)
        with pytest.raises(ValueError):
            dl.ChanceInstance([-1], [1], 0.9)
        with pytest.raises(ValueError):
            dl.ChanceInstance([1], [-1], 0.9)

    def test_level_check_median(self):
        c = dl.ChanceInstance([1, 2, 3], [1, 1, 1], 0.5)
        samples = 10**5
        level = dl.chance_level_check(c, bits(1, 0, 1), samples, dl.RandomSource(6))
        assert abs(level - 0.5) <= 3 * math.sqrt(0.25 / samples)

    def test_level_check_single_item(self):
        c = dl.ChanceInstance([1.0], [1.0], 0.975)
        level = dl.chance_level_check(c, bits(1), 10**6, dl.RandomSource(7))
        assert abs(level - 0.975) <= 0.001

    def test_level_check_three_items(self):
        c = dl.ChanceInstance([1, 2, 3, 4, 5], [1, 0.5, 2, 1, 1], 0.9)
        level = dl.chance_level_check(c, bits(1, 0, 1, 0, 1), 10**6, dl.RandomSource(8))
        assert abs(level - 0.9) <= 0.001

    def test_level_check_rejects_zero_variance(self):
        c = dl.ChanceInstance([1, 2], [1, 1], 0.9)
        with pytest.raises(ValueError):
            dl.chance_level_check(c, bits(0, 0), 10**4, dl.RandomSource(0))


class TestMultimodal:
    def test_hand_values(self):
        inst = dl.MultimodalInstance(4, exponent=16)
        assert inst.value(bits(1, 0, 0, 0)) == pytest.approx(0.5 + (3 / 3.5) ** 16)
        assert inst.value(bits(1, 1, 1, 1)) == pytest.approx(3.5)
        assert inst.value(bits(0, 0, 0, 0)) == pytest.approx((4 / 3.5) ** 16)

    def test_values_follow_the_closed_form_exactly(self):
        for n in (4, 9, 16, 64):
            inst = dl.MultimodalInstance(n)
            zeros = np.zeros(n, dtype=np.uint8)
            assert inst.value(zeros) == (n / (n - 0.5)) ** (n * n)
            assert inst.value(inst.global_optimum()) == 0.5 + ((n - 1) / (n - 0.5)) ** (n * n)
            assert inst.value(inst.local_optimum(1)) == 1.0 + ((n - 1) / (n - 0.5)) ** (n * n)

    def test_all_zeros_is_worst_near_origin(self):
        for n in (4, 8, 12, 16):
            inst = dl.MultimodalInstance(n)
            zeros = np.zeros(n, dtype=np.uint8)
            worst = inst.value(zeros)
            for i in range(n):
                x = np.zeros(n, dtype=np.uint8)
                x[i] = 1
                assert worst > inst.value(x)

    def test_global_optimum_flagged(self):
        inst = dl.MultimodalInstance(6)
        assert inst.is_optimal(inst.global_optimum())
        assert not inst.is_optimal(inst.local_optimum(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dl.MultimodalInstance(4).value(bits(1, 0))

    @pytest.mark.parametrize("n, exponent", [(16, 100_000), (1500, 0), (4, 10**400)])
    def test_overflowing_zeros_term_is_a_value_error(self, n, exponent):
        # (n/(n-0.5))^E exceeds float64; at the default E = n^2 from n ~ 1418 on
        with pytest.raises(ValueError, match=rf"n={n}, exponent={exponent or n * n}"):
            dl.MultimodalInstance(n, exponent)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        rng = dl.RandomSource(44)
        inst = dl.generate_instance(
            10, 2, Fraction(1, 2), weight_scheme="uniform-int",
            transforms=("square", "scaled_square_root"), embedding_scheme="random", rng=rng,
        )
        path = tmp_path / "inst.json"
        dl.save_instance(inst, path)
        again = dl.load_instance(path)
        assert again.to_dict() == inst.to_dict()
        gen = dl.RandomSource(5).generator
        for _ in range(20):
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            assert again.value(x) == inst.value(x)

    def test_schema_keys(self, tmp_path):
        inst = dl.onemax(4)
        path = tmp_path / "inst.json"
        dl.save_instance(inst, path)
        import json

        doc = json.loads(path.read_text())
        assert set(doc) == {
            "n", "s", "alpha_num", "alpha_den", "weights1", "weights2",
            "B1", "B2", "transform1", "transform2",
        }
        assert doc["B1"] == [1, 2]  # 1-based positions on disk

    def test_chance_round_trip(self, tmp_path):
        c = dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9)
        path = tmp_path / "chance.json"
        dl.save_chance_instance(c, path)
        again = dl.load_chance_instance(path)
        assert again.to_dict() == c.to_dict()
