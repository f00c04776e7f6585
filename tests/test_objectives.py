import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from driftlab.objectives import EMBEDDING_SCHEMES, WEIGHT_SCHEMES, _check_shape
from oracle_normal import normal_cdf, normal_quantile as quantile_oracle
from test_drift import float_weight_instance


def bits(*values):
    return np.array(values, dtype=np.uint8)


class TestAsBits:
    @pytest.mark.parametrize("x", [
        [0, 1, 1], [0.0, 1.0, 1.0], [False, True, True], np.array([0, 1, 1], dtype=np.int64)])
    def test_exact_bits_of_any_numeric_type(self, x):
        out = dl.as_bits(x)
        assert out.dtype == np.uint8 and out.tolist() == [0, 1, 1]

    def test_uint8_array_is_returned_as_it_is(self):
        x = bits(1, 0, 1)
        assert dl.as_bits(x) is x

    @pytest.mark.parametrize("bad", [
        [0.5, 1], [-1, 0], [256, 1], [2, 0], [np.nan, 0], [1j, 0], ["0", "1"], [0, None], [[0, 1]],
        np.array([0, 2], dtype=np.uint8)])
    def test_anything_but_exact_0_and_1_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="0/1"):
            dl.as_bits(bad)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN slips past a bare `w < 0`; an infinity makes every sum infinite
        with pytest.raises(ValueError, match="finite and non-negative"):
            dl.LinearFunction([bad, 1.0])


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
        # Float weights, separable and overlapping (m = 36 of n = 40).  The
        # inputs share one test id: a parametrized test would rename it.
        gen = dl.RandomSource(22).generator
        separable = dl.build_separable(gen.uniform(0, 3, 20), gen.uniform(0, 3, 20))
        overlapping = float_weight_instance(("identity", "identity"), n=40)
        for inst in (separable, overlapping):
            states = gen.integers(0, 2, (500, inst.domain_size), dtype=np.uint8)
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

    def test_shape_check_matches_fraction_formulas(self):
        # the check runs in integers on alpha's numerator and denominator; the
        # grid holds alpha = 1/2, s = (1-alpha)*n, alpha*n not an integer, and
        # 9/13 (below ln 2) and 7/10 (above it)
        def reference(n, s, alpha):
            if (alpha * n).denominator != 1:
                return f"alpha*n = {alpha}*{n} is not an integer"
            if not (Fraction(1, 2) <= alpha and float(alpha) < math.log(2)):
                return f"alpha = {alpha} outside [1/2, ln 2)"
            if s > (1 - alpha) * n:
                return f"overlap s = {s} exceeds (1-alpha)*n = {(1 - alpha) * n}"
            return None

        alphas = {Fraction(a, b) for b in range(1, 13) for a in range(b + 1)} | {Fraction(9, 13)}
        outcomes = set()
        for n in range(1, 41):
            for s in range(n + 1):
                for alpha in alphas:
                    try:
                        _check_shape(n, s, alpha)
                        message = None
                    except ValueError as err:
                        message = str(err)
                    assert message == reference(n, s, alpha), (n, s, alpha)
                    outcomes.add(message.split(" ")[0] if message else None)
        assert outcomes == {None, "alpha*n", "alpha", "overlap"}

    def test_coverage_check_matches_set_formulas(self):
        # every pair of position sets of the right sizes on m = n - s bits:
        # the overlap must be s and the union the whole domain
        def reference(b1, b2, s, m):
            if len(b1 & b2) != s:
                return f"|B1 & B2| = {len(b1 & b2)} but s = {s}"
            if b1 | b2 != set(range(m)):
                return "B1 | B2 must cover the whole domain"
            return None

        outcomes = set()
        for n in (2, 4, 5, 6):
            k1 = n // 2 + n % 2  # alpha = k1/n in [1/2, ln 2)
            k2 = n - k1
            for s in range(k2 + 1):
                m = n - s
                for b1 in itertools.combinations(range(m), k1):
                    for b2 in itertools.combinations(range(m), k2):
                        try:
                            dl.CompositeObjective(
                                n, s, Fraction(k1, n), (dl.LinearFunction([1] * k1), dl.LinearFunction([1] * k2)),
                                (dl.DomainEmbedding(b1, m), dl.DomainEmbedding(b2, m)),
                                (dl.identity(), dl.identity()))
                            message = None
                        except ValueError as err:
                            message = str(err)
                        assert message == reference(set(b1), set(b2), s, m), (n, s, b1, b2)
                        outcomes.add(message)
        # with |B1| + |B2| = n, an overlap of s leaves m = n - s positions
        # covered, so only the overlap message can be reached here
        assert None in outcomes
        assert any(message and message.startswith("|B1 & B2|") for message in outcomes)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_rows(self, seed):
        # zero weights (weight_range from 0) leave some non-zero rows optimal
        rng = dl.RandomSource(seed)
        n = 2 * int(rng.generator.integers(2, 10))
        inst = dl.generate_instance(
            n, int(rng.generator.integers(0, n // 2 + 1)), Fraction(1, 2), weight_range=(0, 2),
            embedding_scheme="random", rng=rng.spawn(0),
        )
        states = rng.generator.integers(0, 2, (300, inst.domain_size), dtype=np.uint8)
        states[:5] = 0
        batch = inst.is_optimal(states)
        assert batch.dtype == bool and batch.shape == (300,)
        assert batch.tolist() == [inst.is_optimal(x) for x in states]
        assert batch[:5].all() and not batch.all()

    def test_multimodal_batch_equals_rows(self):
        inst = dl.MultimodalInstance(6)
        states = np.array([[(u >> j) & 1 for j in range(6)] for u in range(64)], dtype=np.uint8)
        batch = inst.is_optimal(states)
        assert batch.tolist() == [inst.is_optimal(x) for x in states]
        assert np.flatnonzero(batch).tolist() == [1]  # only (1, 0, ..., 0)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="expected 8 bits"):
            dl.onemax(8).is_optimal(np.zeros((3, 7), dtype=np.uint8))


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

    def test_matches_scipy_ndtri_bit_for_bit(self):
        # the port of Cephes ndtri against the routine it ports, over 10^5
        # levels: the centre, both tails down to the smallest subnormal, and
        # each side of the branch points exp(-2) and x = 8 (level exp(-32))
        from scipy.special import ndtri  # a test dependency only

        gen = np.random.default_rng(2024)
        lower_tail = np.exp(-gen.uniform(0.0, 744.0, 35_000))
        upper_tail = 1.0 - np.exp(-gen.uniform(0.0, 36.0, 10_000))  # 1 - 2^-53 is exp(-36.7)
        edges = [  # 500 neighbouring levels on each side of each cut
            cut + np.arange(-500, 500) * np.spacing(cut)
            for cut in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0))
        ]
        levels = np.concatenate(
            [gen.random(55_000), lower_tail, upper_tail, *edges,
             [5e-324, 1e-300, 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]]
        )
        levels = levels[(levels > 0.0) & (levels < 1.0)]
        assert levels.size >= 100_000
        ported = np.array([dl.normal_quantile(level) for level in levels.tolist()])
        assert np.array_equal(ported.view(np.int64), ndtri(levels).view(np.int64))
        # every branch was taken, each on both sides of its branch points
        lower = levels < 0.5
        assert np.count_nonzero((levels > math.exp(-2.0)) & (levels < 1.0 - math.exp(-2.0))) > 1_000
        for cut in (math.exp(-2.0), math.exp(-32.0)):
            assert np.count_nonzero(lower & (levels < cut)) > 400 and np.count_nonzero(lower & (levels > cut)) > 400
            upper = 1.0 - levels
            assert np.count_nonzero(~lower & (upper < cut)) > 400 and np.count_nonzero(~lower & (upper > cut)) > 400


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("part", ["mu", "sigma"])
    def test_non_finite_mu_or_sigma_rejected(self, part, bad):
        values = {"mu": [1.0, 2.0], "sigma": [1.0, 1.0]}
        values[part][0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            dl.ChanceInstance(values["mu"], values["sigma"], 0.9)

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

    @pytest.mark.parametrize("n, exponent", [(16, 100_000), (1500, None), (4, 10**400)])
    def test_overflowing_zeros_term_is_a_value_error(self, n, exponent):
        # (n/(n-0.5))^E exceeds float64; at the default E = n^2 from n ~ 1418 on
        with pytest.raises(ValueError, match=rf"n={n}, exponent={exponent or n * n}"):
            dl.MultimodalInstance(n, exponent)

    def test_exponent_zero_is_rejected_not_defaulted(self):
        with pytest.raises(ValueError, match="exponent must be positive"):
            dl.MultimodalInstance(8, 0)


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

    @pytest.mark.parametrize("key", ["n", "alpha_den", "weights1", "B2", "transform2"])
    def test_missing_key_is_named(self, key):
        doc = dl.onemax(4).to_dict()
        del doc[key]
        with pytest.raises(ValueError, match=rf"lacks key\(s\) \['{key}'\]"):
            dl.CompositeObjective.from_dict(doc)

    @pytest.mark.parametrize("key", ["mu", "sigma", "alpha_c"])
    def test_chance_missing_key_is_named(self, key):
        doc = dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9).to_dict()
        del doc[key]
        with pytest.raises(ValueError, match=rf"lacks key\(s\) \['{key}'\]"):
            dl.ChanceInstance.from_dict(doc)

    @pytest.mark.parametrize("extra", ["extra_key", "B3", "m"])
    def test_unknown_key_is_named(self, extra):
        doc = dl.onemax(4).to_dict()
        doc[extra] = 1
        with pytest.raises(ValueError, match=rf"unknown key\(s\) \['{extra}'\]"):
            dl.CompositeObjective.from_dict(doc)

    @pytest.mark.parametrize("extra", ["extra_key", "n", "confidence"])
    def test_chance_unknown_key_is_named(self, extra):
        doc = dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9).to_dict()
        doc[extra] = 2
        with pytest.raises(ValueError, match=rf"unknown key\(s\) \['{extra}'\]"):
            dl.ChanceInstance.from_dict(doc)

    @pytest.mark.parametrize("key", ["n", "s", "alpha_num", "alpha_den"])
    @pytest.mark.parametrize("value", [8.0, 8.5, "8", True, None])
    def test_counts_must_be_integers(self, key, value):
        doc = dl.onemax(8).to_dict()
        doc[key] = value
        with pytest.raises(ValueError, match=rf"must be integers, got \{{'{key}'"):
            dl.CompositeObjective.from_dict(doc)

    @pytest.mark.parametrize("value", [2.0, 2.5, "2", True, None])
    def test_chance_m_must_be_an_integer(self, value):
        # int(2.5) == 2 used to accept this file as a two-item instance
        doc = dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9).to_dict()
        doc["m"] = value
        with pytest.raises(ValueError, match="must be integers, got {'m'"):
            dl.ChanceInstance.from_dict(doc)

    def test_chance_m_is_optional_and_checked(self):
        doc = dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9).to_dict()
        doc["m"] = 3
        with pytest.raises(ValueError, match="item count m does not match"):
            dl.ChanceInstance.from_dict(doc)
        del doc["m"]
        assert dl.ChanceInstance.from_dict(doc).item_count == 2

    def test_every_saved_instance_loads(self, tmp_path):
        # the strict reader takes back everything the writers produce
        rng = dl.RandomSource(9)
        instances = [
            dl.onemax(8), dl.build_separable([1, 2], [3, 4]), dl.build_chance(dl.ChanceInstance([1, 2], [1, 3], 0.9))
        ]
        instances += [
            dl.generate_instance(12, s, "1/2", weight_scheme=w, transforms=t, embedding_scheme=e, rng=rng)
            for s in (0, 3)
            for w in WEIGHT_SCHEMES
            for t in (("square", "square_root"), ("identity", "scaled_square_root"))
            for e in EMBEDDING_SCHEMES
        ]
        path = tmp_path / "inst.json"
        for inst in instances:
            dl.save_instance(inst, path)
            assert dl.load_instance(path).to_dict() == inst.to_dict()
        for c in (dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9), dl.ChanceInstance(np.arange(1, 9.0), np.zeros(8), 0.1)):
            dl.save_chance_instance(c, path)
            assert dl.load_chance_instance(path).to_dict() == c.to_dict()

    def test_chance_round_trip(self, tmp_path):
        c = dl.ChanceInstance([1, 2.5], [0.5, 1], 0.9)
        path = tmp_path / "chance.json"
        dl.save_chance_instance(c, path)
        again = dl.load_chance_instance(path)
        assert again.to_dict() == c.to_dict()


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_multimodal_float_kernel_is_float_combine_on_every_pair(n):
    inst = dl.MultimodalInstance(n)
    again = pickle.loads(pickle.dumps(inst))
    for l1 in (0.0, 1.0):
        for l2 in map(float, range(n)):
            expected = float(inst.combine(l1, l2))
            for kernel in (inst.float_kernel, again.float_kernel):
                got = kernel(l1, l2)
                assert type(got) is float and got.hex() == expected.hex()
