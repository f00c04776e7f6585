import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom, chi2

import driftlab as dl
from driftlab.ea import _FIRST_BLOCK, _MAX_BLOCK, _Mutations


def bits(*values):
    return np.array(values, dtype=np.uint8)


def single_bit_instance():
    """Full-overlap objective on one bit: f(x) = 2x, optimum at 0."""
    return dl.CompositeObjective(
        2,
        1,
        "1/2",
        (dl.LinearFunction([1.0]), dl.LinearFunction([1.0])),
        (dl.DomainEmbedding([0], 1), dl.DomainEmbedding([0], 1)),
        (dl.identity(), dl.identity()),
    )


class TestRandomSource:
    def test_replay_is_identical(self):
        a = dl.RandomSource(123).generator.random(100)
        b = dl.RandomSource(123).generator.random(100)
        assert np.array_equal(a, b)

    def test_spawned_streams_differ(self):
        parent = dl.RandomSource(123)
        child0 = parent.spawn(0).generator.random(100)
        child1 = parent.spawn(1).generator.random(100)
        assert not np.array_equal(child0, child1)

    def test_spawn_key_replay(self):
        a = dl.RandomSource(5).spawn(7).generator.random(10)
        b = dl.RandomSource(5, spawn_key=(7,)).generator.random(10)
        assert np.array_equal(a, b)

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            dl.RandomSource(-1)


class TestStandardBitMutation:
    def test_no_flips_returns_parent(self):
        x = bits(1, 0, 1, 1, 0, 0)
        y, event = dl.standard_bit_mutation(x, 1e-12, dl.RandomSource(0))
        assert np.array_equal(y, x)
        assert event.flip_count == 0
        assert event.flipped_one_bits.size == 0 and event.flipped_zero_bits.size == 0

    def test_p_one_complements(self):
        x = bits(1, 0, 1, 0)
        y, event = dl.standard_bit_mutation(x, 1.0, dl.RandomSource(0))
        assert np.array_equal(y, 1 - x)
        assert event.flip_count == 4

    def test_event_partitions_mask(self):
        rng = dl.RandomSource(42)
        for _ in range(200):
            x = rng.generator.integers(0, 2, 12, dtype=np.uint8)
            y, event = dl.standard_bit_mutation(x, 0.3, rng)
            flipped = set(np.flatnonzero(event.mask).tolist())
            ones = set(event.flipped_one_bits.tolist())
            zeros = set(event.flipped_zero_bits.tolist())
            assert ones | zeros == flipped
            assert not ones & zeros
            assert np.array_equal(y, x ^ event.mask)

    @staticmethod
    def masks_of_consecutive_calls(seed, m, p, trials):
        """The masks of `trials` consecutive standard_bit_mutation calls from `seed`.

        Each call draws its m uniforms right after the previous call's, so the
        calls' masks are the rows of one random((trials, m)) < p draw from the
        same seed; that identity is asserted on a 1000-call prefix.
        """
        rng = dl.RandomSource(seed)
        x = np.zeros(m, dtype=np.uint8)
        prefix = [dl.standard_bit_mutation(x, p, rng)[1].mask for _ in range(1000)]
        masks = dl.RandomSource(seed).generator.random((trials, m)) < p
        assert np.array_equal(np.array(prefix), masks[:1000])
        return masks

    def test_single_bit_flip_frequency(self):
        # Pr(exactly bit 0 flips) = (1/4)(3/4)^3 = 27/256 on 4 bits
        p_true = 27 / 256
        trials = 10**6
        masks = self.masks_of_consecutive_calls(2024, 4, 0.25, trials)
        hits = int(np.count_nonzero(masks[:, 0] & (np.count_nonzero(masks, axis=1) == 1)))
        se = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(hits / trials - p_true) <= 3 * se

    def test_flip_count_matches_binomial(self):
        # chi-square goodness of fit at significance 0.001, N = 1e6
        m, p, trials = 16, 1 / 8, 10**6
        masks = self.masks_of_consecutive_calls(7, m, p, trials)
        counts = np.bincount(np.count_nonzero(masks, axis=1), minlength=m + 1)
        expected = binom.pmf(np.arange(m + 1), m, p) * trials
        # pool the sparse upper tail so every expected count is >= 5
        cut = int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
        cut = m + 1 - cut
        obs = np.append(counts[: cut - 1], counts[cut - 1 :].sum())
        exp = np.append(expected[: cut - 1], expected[cut - 1 :].sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        p_value = float(chi2.sf(stat, df=len(obs) - 1))
        assert p_value > 0.001


class TestMutationsLaw:
    """The exact law of standard bit mutation as `run_ea` draws it.

    `_Mutations.block` gives the flip count K ~ Binomial(m, p) of every
    iteration of a block, and `positions(k)` the flipped set, which must be a
    uniform k-subset.  All checks are at significance 0.001.
    """

    def test_block_flip_counts_match_binomial(self):
        m, p, trials = 16, 1 / 8, 10**6
        mutations = _Mutations(dl.RandomSource(7).generator, m, p)
        counts = np.zeros(m + 1, dtype=np.int64)
        sizes = []
        done = 0
        while done < trials:
            offsets, flips, size = mutations.block()
            assert offsets == sorted(set(offsets)) and all(0 <= a < size for a in offsets)
            assert all(k >= 1 for k in flips)
            counts += np.bincount(flips, minlength=m + 1)
            counts[0] += size - len(flips)
            sizes.append(size)
            done += size
        doubling = [_FIRST_BLOCK << i for i in range((_MAX_BLOCK // _FIRST_BLOCK).bit_length())]
        assert sizes[: len(doubling)] == doubling and doubling[-1] == _MAX_BLOCK
        assert set(sizes[len(doubling) :]) == {_MAX_BLOCK}
        expected = binom.pmf(np.arange(m + 1), m, p) * done
        # pool the sparse upper tail so every expected count is >= 5
        cut = m + 1 - int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
        obs = np.append(counts[: cut - 1], counts[cut - 1 :].sum())
        exp = np.append(expected[: cut - 1], expected[cut - 1 :].sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        assert chi2.sf(stat, df=len(obs) - 1) > 0.001

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 8])
    def test_positions_are_uniform_per_position(self, k):
        # k = 1, 2, 4 take the rejection path on 16 bits (k*k <= m), 5 and 8 `choice`
        m, draws = 16, 20_000
        mutations = _Mutations(dl.RandomSource(2024).generator, m, 1 / m)
        hits = np.zeros(m, dtype=np.int64)
        for _ in range(draws):
            np.add.at(hits, mutations.positions(k), 1)
        # Each draw holds exactly k distinct positions, so the counts have
        # covariance draws*q*(1-q)*m/(m-1) * (I - J/m) with q = k/m; Pearson's
        # statistic times (m-1)/(m-k) is then chi-square with m-1 df.
        expected = draws * k / m
        stat = float(((hits - expected) ** 2).sum() / expected) * (m - 1) / (m - k)
        assert chi2.sf(stat, df=m - 1) > 0.001

    @pytest.mark.parametrize("m, k", [(9, 3), (6, 3), (5, 5)])
    def test_positions_are_uniform_subsets(self, m, k):
        # (9, 3) takes the rejection path, (6, 3) `choice`, and K = m the full set
        draws = 50_000
        mutations = _Mutations(dl.RandomSource(42).generator, m, 1 / m)
        subsets = {s: 0 for s in itertools.combinations(range(m), k)}
        for _ in range(draws):
            flips = mutations.positions(k)
            assert len(flips) == k and all(0 <= j < m for j in flips)
            subsets[tuple(sorted(flips))] += 1  # a repeated position raises KeyError
        if len(subsets) == 1:
            return
        obs = np.array(list(subsets.values()))
        expected = draws / len(subsets)
        stat = float(((obs - expected) ** 2).sum() / expected)
        assert chi2.sf(stat, df=len(subsets) - 1) > 0.001


class TestElitistStep:
    """The elitist selection of one `run_ea` iteration: keep y iff f(y) <= f(x).

    Each check runs on both offspring evaluators: the O(K) update of an
    instance with a LinearForm, and the full sum of one without.
    """

    @staticmethod
    def evaluators(inst):
        full = SimpleNamespace(
            domain_size=inst.domain_size, mutation_probability=inst.mutation_probability,
            value=inst.value, linear_values=inst.linear_values, combine=inst.combine,
            optimum=inst.optimum,
        )
        return inst, full

    def test_strict_improvement_accepted(self):
        # p = 1 flips both bits: (1,1) -> (0,0), f drops
        cfg = dl.EAConfig(max_iterations=1, mutation_probability=1.0)
        for inst in self.evaluators(dl.onemax(2)):
            trace = dl.run_ea(inst, cfg, dl.RandomSource(0), initial=bits(1, 1))
            assert trace.hitting_time == 1 and trace.accepted_steps == 1
            assert np.array_equal(trace.final_state, bits(0, 0))

    def test_optimum_rejects_worse(self):
        # p = 1 always offers the complement (1,1,1,0), which is worse than (0,0,0,1)
        cfg = dl.EAConfig(max_iterations=50, mutation_probability=1.0)
        for inst in self.evaluators(dl.onemax(4)):
            trace = dl.run_ea(inst, cfg, dl.RandomSource(0), initial=bits(0, 0, 0, 1))
            assert trace.budget_exhausted and trace.accepted_steps == 0
            assert np.array_equal(trace.final_state, bits(0, 0, 0, 1))

    def test_constant_objective_accepts_ties(self):
        constant = SimpleNamespace(
            domain_size=4, mutation_probability=0.5, value=lambda _: 0.0,
            linear_values=lambda _: (0.0, 0.0), combine=lambda l1, l2: 0.0, optimum=None,
        )
        zero_form = SimpleNamespace(weights=([0.0] * 4, [0.0] * 4))
        cfg = dl.EAConfig(max_iterations=50, trace_stride=1)
        for form in (zero_form, None):
            constant.linear_form = form
            # phi is the state read as a binary number, so it changes with every accepted flip
            trace = dl.run_ea(
                constant, cfg, dl.RandomSource(5), initial=bits(0, 1, 0, 1),
                potential=lambda x: float(np.dot(x, [8, 4, 2, 1])),
            )
            phis = [phi for _, _, phi, _ in trace.samples]
            changes = sum(a != b for a, b in zip(phis, phis[1:]))
            assert trace.budget_exhausted and trace.accepted_steps > 0
            assert changes == trace.accepted_steps


class TestRunEA:
    def test_initial_optimum_gives_time_zero(self):
        inst = dl.onemax(6)
        trace = dl.run_ea(
            inst, dl.EAConfig(max_iterations=10), dl.RandomSource(1), initial=np.zeros(6, dtype=np.uint8)
        )
        assert trace.hitting_time == 0
        assert not trace.budget_exhausted

    def test_single_bit_hitting_time_is_geometric(self):
        # from x = 1 with p = 1/2, T ~ Geometric(1/2), mean 2
        inst = single_bit_instance()
        cfg = dl.EAConfig(max_iterations=10_000, mutation_probability=0.5)
        root = dl.RandomSource(11)
        runs = 10**5
        total = 0
        for rep in range(runs):
            trace = dl.run_ea(inst, cfg, root.spawn(rep), initial=bits(1))
            total += trace.hitting_time
        se = math.sqrt(2.0 / runs)  # Var of Geometric(1/2) is 2
        assert abs(total / runs - 2.0) <= 3 * se

    def test_onemax_mean_time_near_e_n_log_n(self):
        n = 64
        inst = dl.onemax(n)
        cfg = dl.EAConfig(max_iterations=dl.default_budget(n))
        root = dl.RandomSource(99)
        times = [dl.run_ea(inst, cfg, root.spawn(r)).hitting_time for r in range(1000)]
        assert all(t is not None for t in times)
        mean = sum(times) / len(times)
        reference = math.e * n * math.log(n)
        assert 0.5 * reference <= mean <= 1.5 * reference

    def test_default_mutation_probability_is_one_over_nominal_n(self):
        chance = dl.build_chance(dl.ChanceInstance([1, 2, 3, 4], [1, 1, 1, 1], 0.9))
        assert chance.n == 8 and chance.domain_size == 4
        assert chance.mutation_probability == pytest.approx(1 / 8)

    def test_trace_fitness_is_monotone(self):
        inst = dl.build_separable([3, 1, 4, 1], [5, 9, 2, 6])
        cfg = dl.EAConfig(max_iterations=5000, trace_stride=1)
        trace = dl.run_ea(inst, cfg, dl.RandomSource(3))
        values = [f for (_, f, _, _) in trace.samples]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deterministic_replay_byte_identical(self):
        inst = dl.build_separable([2, 7, 1, 8], [2, 8, 1, 8])
        cfg = dl.EAConfig(max_iterations=2000, trace_stride=10)
        pot = dl.build_combined_potential(inst).value
        a = dl.run_ea(inst, cfg, dl.RandomSource(21), potential=pot)
        b = dl.run_ea(inst, cfg, dl.RandomSource(21), potential=pot)
        assert a.to_json() == b.to_json()

    def test_objective_failure_propagates(self):
        inst = dl.onemax(4)

        def broken(l1, l2):
            raise RuntimeError("boom")

        # valuing the start point works; valuing the first offspring raises
        failing = SimpleNamespace(
            domain_size=4, mutation_probability=0.25, value=inst.value,
            linear_values=inst.linear_values, combine=broken, optimum=inst.optimum,
        )
        cfg = dl.EAConfig(max_iterations=10, mutation_probability=1.0)
        with pytest.raises(RuntimeError, match="boom"):
            dl.run_ea(failing, cfg, dl.RandomSource(0), initial=bits(1, 1, 1, 1))

    def test_budget_exhaustion_reported(self):
        inst = dl.onemax(32)
        trace = dl.run_ea(
            inst, dl.EAConfig(max_iterations=3), dl.RandomSource(0), initial=np.ones(32, dtype=np.uint8)
        )
        assert trace.hitting_time is None
        assert trace.budget_exhausted

    def test_trace_json_schema(self):
        inst = dl.onemax(8)
        pot = dl.build_combined_potential(inst).value
        trace = dl.run_ea(inst, dl.EAConfig(max_iterations=2000), dl.RandomSource(4), potential=pot)
        doc = trace.to_json_dict()
        assert set(doc) == {
            "seed",
            "spawn_key",
            "hitting_time",
            "budget_exhausted",
            "accepted_steps",
            "samples",
        }
        assert doc["seed"] == 4
        assert doc["budget_exhausted"] is False
        iteration, f, phi, ones = doc["samples"][-1]
        assert iteration == doc["hitting_time"]
        assert f == 0.0 and phi == 0.0 and ones == 0

    def test_budget_exhausted_encodes_null_time(self):
        inst = dl.onemax(32)
        trace = dl.run_ea(
            inst, dl.EAConfig(max_iterations=2), dl.RandomSource(0), initial=np.ones(32, dtype=np.uint8)
        )
        doc = trace.to_json_dict()
        assert doc["hitting_time"] is None
        assert doc["budget_exhausted"] is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=0)
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=10, mutation_probability=0.0)
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=10, mutation_probability=1.5)
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=10, trace_stride=-1)


def exact_mean_hitting_time(instance, p):
    """E[T] from a uniform start, solved on the absorbing chain of the EA."""
    space = dl.StateSpace(instance)
    probs = space.mask_probabilities(p)
    size = space.codes.size
    step = np.zeros((size, size))
    for u in range(size):
        offspring = space.codes ^ np.uint32(u)
        accepted = space.f[offspring] <= space.f[u]
        np.add.at(step[u], offspring[accepted], probs[accepted])
        step[u, u] += probs[~accepted].sum()
    transient = np.flatnonzero(~space.optimal)
    q = step[np.ix_(transient, transient)]
    times = np.linalg.solve(np.eye(transient.size) - q, np.ones(transient.size))
    return float(times.sum()) / size


class TestSparseEngine:
    @pytest.mark.parametrize("case", ["onemax", "onemax-p-half", "generated"])
    def test_mean_hitting_time_matches_markov_chain(self, case):
        if case == "generated":
            inst = dl.generate_instance(6, 1, "1/2", weight_range=(1, 5), rng=dl.RandomSource(8))
            p = None
        else:
            inst = dl.onemax(4)
            p = 0.5 if case == "onemax-p-half" else None
        exact = exact_mean_hitting_time(inst, p or inst.mutation_probability)
        cfg = dl.EAConfig(max_iterations=1000, mutation_probability=p)
        root = dl.RandomSource(31)
        times = [dl.run_ea(inst, cfg, root.spawn(r)).hitting_time for r in range(10_000)]
        assert None not in times  # E[T] is below 20 here
        times = np.array(times)
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - exact) <= 4 * se

    @pytest.mark.parametrize("kind", ["integer", "float", "doubling"])
    def test_value_after_every_step_is_bit_identical(self, kind):
        gen = dl.RandomSource(12).generator
        if kind == "integer":
            inst = dl.generate_instance(64, 8, "1/2", rng=dl.RandomSource(3))
        elif kind == "float":
            inst = dl.build_separable(gen.uniform(0, 3, 8), gen.uniform(0, 3, 8))
        else:
            inst = dl.generate_instance(128, 0, "1/2", weight_scheme="doubling")
        assert (inst.linear_form is not None) == (kind == "integer")
        # The phi column evaluates each recorded parent from scratch.
        cfg = dl.EAConfig(max_iterations=dl.default_budget(inst.n), trace_stride=1)
        start = np.ones(inst.domain_size, dtype=np.uint8)
        trace = dl.run_ea(inst, cfg, dl.RandomSource(7), initial=start, potential=inst.value)
        assert trace.hitting_time is not None and trace.accepted_steps >= 8
        assert [it for it, _, _, _ in trace.samples] == list(range(trace.hitting_time + 1))
        assert all(f == phi for _, f, phi, _ in trace.samples)

    def test_multimodal_value_is_bit_identical(self):
        inst = dl.MultimodalInstance(8)
        cfg = dl.EAConfig(max_iterations=5000, trace_stride=1)
        trace = dl.run_ea(inst, cfg, dl.RandomSource(2), potential=inst.value)
        assert trace.hitting_time is not None
        assert all(f == phi for _, f, phi, _ in trace.samples)
        assert inst.is_optimal(trace.final_state)

    def test_p_one_flips_every_bit(self):
        inst = dl.onemax(2)
        cfg = dl.EAConfig(max_iterations=5, mutation_probability=1.0)
        hit = dl.run_ea(inst, cfg, dl.RandomSource(0), initial=bits(1, 1))
        assert hit.hitting_time == 1
        # (1,0) and (0,1) tie, so every complement is accepted and none is optimal
        tied = dl.run_ea(inst, cfg, dl.RandomSource(0), initial=bits(1, 0))
        assert tied.budget_exhausted and tied.accepted_steps == 5
        assert np.array_equal(tied.final_state, bits(0, 1))

    def test_one_bit_domain_with_certain_flip(self):
        cfg = dl.EAConfig(max_iterations=3, mutation_probability=1.0)
        trace = dl.run_ea(single_bit_instance(), cfg, dl.RandomSource(4), initial=bits(1))
        assert trace.hitting_time == 1 and trace.accepted_steps == 1

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("stride", [0, 1, 2])
    def test_small_budgets(self, budget, stride):
        inst = dl.onemax(32)
        cfg = dl.EAConfig(max_iterations=budget, trace_stride=stride)
        trace = dl.run_ea(inst, cfg, dl.RandomSource(budget), initial=np.ones(32, dtype=np.uint8))
        assert trace.budget_exhausted and trace.accepted_steps <= budget
        iterations = [it for it, _, _, _ in trace.samples]
        expected = sorted({0, budget, *range(stride, budget + 1, stride or budget + 1)})
        assert iterations == expected
        assert all(f == ones for _, f, _, ones in trace.samples)

    def test_stride_records_across_skipped_gaps(self):
        # p = 1/640 on 64 bits leaves about nine iterations in ten empty
        inst = dl.onemax(64)
        cfg = dl.EAConfig(max_iterations=4000, mutation_probability=1 / 640, trace_stride=7)
        trace = dl.run_ea(inst, cfg, dl.RandomSource(9), potential=inst.value)
        final = trace.samples[-1][0]
        assert [it for it, _, _, _ in trace.samples[:-1]] == list(range(0, final, 7))
        assert all(f == phi == ones for _, f, phi, ones in trace.samples)
        values = [f for _, f, _, _ in trace.samples]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_budget_prefix_is_shared(self):
        # A larger budget continues the same run: draws do not depend on it.
        inst = dl.onemax(16)
        initial = np.ones(16, dtype=np.uint8)
        short = dl.run_ea(inst, dl.EAConfig(max_iterations=40, trace_stride=1), dl.RandomSource(6), initial)
        long = dl.run_ea(inst, dl.EAConfig(max_iterations=400, trace_stride=1), dl.RandomSource(6), initial)
        assert long.samples[:41] == short.samples
