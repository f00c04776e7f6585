import copy
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom, chi2

import driftlab as dl
from driftlab.ea import _FIRST_BLOCK, _MAX_BLOCK, _Mutations
from driftlab.rng import philox_generator


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

    def test_generator_is_built_on_first_draw(self, monkeypatch):
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda seq: built.append(seq) or philox(seq))
        source = dl.RandomSource(9, spawn_key=(4,))
        child = source.spawn(2)
        repr(child)
        assert built == []  # construction, spawn and repr build no stream
        gen = child.generator
        assert child.generator is gen and len(built) == 1
        expected = np.random.Generator(philox(np.random.SeedSequence(9, spawn_key=(4, 2))))
        assert np.array_equal(gen.random(20), expected.random(20))

    def test_instances_that_draw_nothing_build_no_stream(self, monkeypatch):
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda seq: built.append(seq) or philox(seq))
        dl.generate_instance(8, 0, "1/2", weight_scheme="all-ones", rng=dl.RandomSource(1))
        assert built == []
        dl.generate_instance(8, 0, "1/2", weight_scheme="uniform-int", rng=dl.RandomSource(1))
        assert len(built) == 1

    def test_fresh_and_used_sources_survive_pickling(self):
        import pickle

        fresh = dl.RandomSource(3, spawn_key=(1, 2))
        copy = pickle.loads(pickle.dumps(fresh))
        assert (copy.seed, copy.spawn_key) == (fresh.seed, fresh.spawn_key)
        assert np.array_equal(copy.generator.random(10), dl.RandomSource(3, (1, 2)).generator.random(10))
        used = dl.RandomSource(3, spawn_key=(1, 2))
        used.generator.random(7)
        copy = pickle.loads(pickle.dumps(used))
        # the copy continues where the original stands, not from the start
        assert np.array_equal(copy.generator.random(10), used.generator.random(10))

    @pytest.mark.parametrize("key", [(), (4,), (1, 2**40)])
    def test_lent_generator_draws_the_stream_from_its_start(self, key):
        lent = philox_generator()
        sources = dl.RandomSource(7, key).children(0, 4) + [dl.RandomSource(7, key)]
        for prior, source in enumerate(sources):
            # leave the lent generator mid-buffer, with and without a buffered uint32
            lent.random(prior)
            lent.integers(0, 2**32, size=prior, dtype=np.uint32)
            assert source.lend(lent) and source.generator is lent
            own = dl.RandomSource(source.seed, source.spawn_key).generator
            for draw in (lambda g: g.integers(0, 2**32, dtype=np.uint32), lambda g: g.random(5),
                         lambda g: g.binomial(10, 0.1, 40), lambda g: g.permutation(9)):
                assert np.array_equal(draw(lent), draw(own))
            source.spend()
            with pytest.raises(RuntimeError, match="is spent"):
                source.generator
            assert not source.lend(lent)  # a spent source takes no second loan

    def test_a_source_with_its_own_generator_takes_no_loan(self):
        lent = philox_generator()
        source = dl.RandomSource(7, (1,))
        first = source.generator.random()
        assert not source.lend(lent)
        expected = dl.RandomSource(7, (1,)).generator.random(2)
        assert [first, source.generator.random()] == expected.tolist()

    @pytest.mark.parametrize(
        "seed, spawn_key, error",
        [
            (1.5, (), TypeError),
            (np.float64(2.0), (), TypeError),
            (True, (), TypeError),
            ("5", (), TypeError),
            (2**64, (), ValueError),
            (1, (2.7,), TypeError),
            (1, (False,), TypeError),
            (1, (np.bool_(True),), TypeError),
            (1, (0, -1), ValueError),
        ],
    )
    def test_invalid_seed_or_spawn_key_is_refused(self, seed, spawn_key, error):
        with pytest.raises(error):
            dl.RandomSource(seed, spawn_key)

    @pytest.mark.parametrize("index, error", [(2.7, TypeError), (True, TypeError), (-1, ValueError)])
    def test_invalid_spawn_index_is_refused(self, index, error):
        with pytest.raises(error):
            dl.RandomSource(1, (3,)).spawn(index)

    def test_numpy_integers_become_python_ints(self):
        source = dl.RandomSource(np.uint64(2**64 - 1), (np.int64(3), np.uint32(7))).spawn(np.int16(2))
        assert (source.seed, source.spawn_key) == (2**64 - 1, (3, 7, 2))
        assert all(type(k) is int for k in (source.seed, *source.spawn_key))

    @pytest.mark.parametrize(
        "first, count, error",
        [(-1, 3, ValueError), (0, -1, ValueError), (1.0, 3, TypeError), (0, True, TypeError),
         (2**32 - 2, 3, ValueError), (2**32, 1, ValueError)],
    )
    def test_invalid_children_range_is_refused(self, first, count, error):
        with pytest.raises(error):
            dl.RandomSource(1).children(first, count)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("parent_key", [(), (0,), (2**32,), (5, 2**32 - 1), (1, 2**40, 2**64 + 3)])
    def test_child_keys_equal_seed_sequence_keys(self, seed, parent_key):
        parent = dl.RandomSource(seed, parent_key)
        # batches of one and two are spawns; three and more are derived in one pass
        for first, count in [(0, 1), (0, 2), (0, 3), (7, 20), (2**32 - 4, 4)]:
            children = parent.children(first, count)
            assert [c.spawn_key for c in children] == [parent_key + (first + j,) for j in range(count)]
            for j, child in enumerate(children):
                key = np.random.SeedSequence(seed, spawn_key=parent_key + (first + j,)).generate_state(2, np.uint64)
                assert np.array_equal(child.generator.bit_generator.state["state"]["key"], key)

    def test_children_are_built_through_init(self, monkeypatch):
        # a tracer counts streams by wrapping RandomSource.__init__
        calls = []
        init = dl.RandomSource.__init__
        monkeypatch.setattr(dl.RandomSource, "__init__", lambda self, *a, **k: calls.append(a) or init(self, *a, **k))
        parent = dl.RandomSource(4)
        assert len(parent.children(0, 2)) == 2 and len(parent.children(2, 30)) == 30
        assert len(calls) == 1 + 2 + 30

    def test_batched_child_survives_pickling_and_replays(self):
        import pickle

        child = dl.RandomSource(3, (1,)).children(5, 10)[4]
        expected = dl.RandomSource(3, (1, 9)).generator.random(17)
        fresh = pickle.loads(pickle.dumps(child))
        assert (fresh.seed, fresh.spawn_key) == (3, (1, 9))
        assert np.array_equal(fresh.generator.random(17), expected)
        child.generator.random(7)
        used = pickle.loads(pickle.dumps(child))
        # the copy continues where the original stands
        assert np.array_equal(used.generator.random(10), expected[7:])
        assert np.array_equal(child.generator.random(10), expected[7:])

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy.random loads with the first stream built, not at start-up
        import subprocess
        import sys

        probe = "import sys, driftlab.cli; sys.exit('numpy.random' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


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
        # k = 1, 2, 4 take the rejection path on 16 bits (k*k <= m), 5 and 8 a
        # permutation prefix
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

    @pytest.mark.parametrize("m, k", [(9, 3), (6, 3), (10, 4), (5, 5)])
    def test_positions_are_uniform_subsets(self, m, k):
        # (9, 3) takes the rejection path; (6, 3) and (10, 4), tail's k*k > m
        # case, a permutation prefix; and K = m the full set
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

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 64])
    def test_subset_draws_leave_the_pool_alone(self, m):
        # run_ea's linear loop keeps the pool and its cursor in locals and calls
        # positions(k) only for k*k > m (k = m included), without storing them back
        mutations = _Mutations(dl.RandomSource(m).generator, m, 1 / m)
        pool = mutations.refill(1)
        mutations.at = 1
        contents = list(pool)
        for k in sorted({*range(math.isqrt(m) + 1, m + 1), m}):
            for _ in range(20):
                flips = mutations.positions(k)
                assert len(set(flips)) == k and all(0 <= j < m for j in flips)
                assert mutations.pool is pool and pool == contents and mutations.at == 1


class TestElitistStep:
    """The elitist selection of one `run_ea` iteration: keep y iff f(y) <= f(x)."""

    def test_strict_improvement_accepted(self):
        # p = 1 flips both bits: (1,1) -> (0,0), f drops
        cfg = dl.EAConfig(max_iterations=1, mutation_probability=1.0)
        trace = dl.run_ea(dl.onemax(2), cfg, dl.RandomSource(0), initial=bits(1, 1))
        assert trace.hitting_time == 1 and trace.accepted_steps == 1
        assert np.array_equal(trace.final_state, bits(0, 0))

    def test_optimum_rejects_worse(self):
        # p = 1 always offers the complement (1,1,1,0), which is worse than (0,0,0,1)
        cfg = dl.EAConfig(max_iterations=50, mutation_probability=1.0)
        trace = dl.run_ea(dl.onemax(4), cfg, dl.RandomSource(0), initial=bits(0, 0, 0, 1))
        assert trace.budget_exhausted and trace.accepted_steps == 0
        assert np.array_equal(trace.final_state, bits(0, 0, 0, 1))

    def test_constant_objective_accepts_ties(self):
        constant = SimpleNamespace(
            domain_size=4, mutation_probability=0.5, value=lambda rows: [0.0] * len(rows), float_kernel=lambda l1, l2: 0.0,
            optimum=None, linear_form=SimpleNamespace(weights=np.zeros((2, 4)), negated=np.zeros((2, 4))),
        )
        cfg = dl.EAConfig(max_iterations=50, trace_stride=1)
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
        for source in root.children(0, runs):  # the streams of spawn(0), ..., spawn(runs - 1)
            trace = dl.run_ea(inst, cfg, source, initial=bits(1))
            total += trace.hitting_time
        se = math.sqrt(2.0 / runs)  # Var of Geometric(1/2) is 2
        assert abs(total / runs - 2.0) <= 3 * se

    def test_onemax_mean_time_near_e_n_log_n(self):
        n = 64
        inst = dl.onemax(n)
        cfg = dl.EAConfig(max_iterations=dl.default_budget(n))
        root = dl.RandomSource(99)
        times = [dl.run_ea(inst, cfg, source).hitting_time for source in root.children(0, 1000)]
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
            linear_form=inst.linear_form, float_kernel=broken, optimum=inst.optimum,
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

    # a float64 form (integer weights) and one of ints (fractional weights); the
    # ids are those of the time when fractional weights took a full re-sum
    @pytest.mark.parametrize("float_form", [True, False], ids=["linear_form", "full_sum"])
    @pytest.mark.parametrize(
        "initial",
        [np.array([0, 2, 1, 0], dtype=np.uint8), [0, 0.5, 1, 0], [0, 1, -1, 0], [0, 1, float("nan"), 0],
         np.zeros((2, 2), dtype=np.uint8), ["0", "1", "0", "1"]],
        ids=["uint8_2", "half", "minus_1", "nan", "2d", "str"],
    )
    def test_rejects_a_start_that_is_not_bits(self, initial, float_form):
        inst = dl.onemax(4) if float_form else dl.build_separable([0.5, 1.5], [2.5, 1.0])
        assert (inst.linear_form.scales == (None, None)) == float_form
        with pytest.raises(ValueError, match="0/1 values"):
            dl.run_ea(inst, dl.EAConfig(max_iterations=10), dl.RandomSource(1), initial=initial)

    @pytest.mark.parametrize("float_form", [True, False], ids=["linear_form", "full_sum"])
    def test_start_is_copied_and_any_0_1_dtype_accepted(self, float_form):
        inst = dl.onemax(4) if float_form else dl.build_separable([0.5, 1.5], [2.5, 1.0])
        cfg = dl.EAConfig(max_iterations=50, trace_stride=5)
        start = np.array([1, 0, 1, 1], dtype=np.uint8)
        reference = dl.run_ea(inst, cfg, dl.RandomSource(4), initial=start)
        assert start.tolist() == [1, 0, 1, 1]  # the run never writes to the caller's array
        assert reference.samples[0][3] == 3 and reference.samples[0][1] == inst.value(start)
        for same in ([1, 0, 1, 1], [True, False, True, True], [1.0, 0.0, 1.0, 1.0], start.astype(np.int64)):
            trace = dl.run_ea(inst, cfg, dl.RandomSource(4), initial=same)
            assert trace.samples == reference.samples
            assert trace.final_state.dtype == np.uint8
        with pytest.raises(ValueError, match="expected 4 bits"):
            dl.run_ea(inst, cfg, dl.RandomSource(4), initial=[1, 0, 1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=0)
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=10, mutation_probability=0.0)
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=10, mutation_probability=1.5)
        with pytest.raises(ValueError):
            dl.EAConfig(max_iterations=10, trace_stride=-1)
        # integers only, as in config files: the budget is cut per block with
        # bisect, and a stride of 1.5 would sample iterations 1.5, 3.0, ...
        for bad in (2.5, 2.0, True, "10", None):
            with pytest.raises(ValueError, match="must be integers"):
                dl.EAConfig(max_iterations=bad)
            with pytest.raises(ValueError, match="must be integers"):
                dl.EAConfig(max_iterations=10, trace_stride=bad)

    def test_mutation_probability_must_be_a_real_number(self):
        # as a config file's true is no number: True would otherwise run at p = 1
        for bad in (True, np.bool_(True), "0.5", 1j, [0.5]):
            with pytest.raises(ValueError, match="must be a real number"):
                dl.EAConfig(max_iterations=10, mutation_probability=bad)
        for good in (1, 0.25, np.float64(0.5), np.float32(0.5), Fraction(1, 3)):
            assert dl.EAConfig(max_iterations=10, mutation_probability=good).mutation_probability == good


def transient_chain(instance, p):
    """The EA's one-step transition matrix among the non-optimal states, and the number of states."""
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
    return step[np.ix_(transient, transient)], size


def exact_mean_hitting_time(instance, p):
    """E[T] from a uniform start, solved on the absorbing chain of the EA."""
    q, size = transient_chain(instance, p)
    times = np.linalg.solve(np.eye(len(q)) - q, np.ones(len(q)))
    return float(times.sum()) / size


def exact_survival(instance, p, budget):
    """P(T > budget) from a uniform start: the mass still transient after `budget` steps."""
    q, size = transient_chain(instance, p)
    mass = np.full(len(q), 1.0 / size)
    for _ in range(budget):
        mass = mass @ q
    return float(mass.sum())


class TestSparseEngine:
    @pytest.mark.parametrize("case", ["onemax", "onemax-p-half", "generated", "float",
                                      "onemax-p-half-one-stream", "generated-one-stream", "float-one-stream"])
    def test_mean_hitting_time_matches_markov_chain(self, case):
        case, one_stream, _ = case.partition("-one-stream")
        if case == "generated":
            inst = dl.generate_instance(6, 1, "1/2", weight_range=(1, 5), rng=dl.RandomSource(8))
            p = None
        elif case == "float":  # a form of ints scaled by a power of two
            weights = dl.RandomSource(13).generator.uniform(0, 3, 6)
            inst = dl.build_separable(weights[:3], weights[3:])
            p = None
        else:
            inst = dl.onemax(4)
            p = 0.5 if case == "onemax-p-half" else None
        exact = exact_mean_hitting_time(inst, p or inst.mutation_probability)
        cfg = dl.EAConfig(max_iterations=1000, mutation_probability=p)
        root = dl.RandomSource(31)
        # each run on its own stream, or all back to back on one
        sources = [root] * 10_000 if one_stream else root.children(0, 10_000)
        times = [dl.run_ea(inst, cfg, source).hitting_time for source in sources]
        assert None not in times  # E[T] is below 20 here
        times = np.array(times)
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - exact) <= 4 * se

    @pytest.mark.parametrize("budget", [17, 33])
    def test_censored_fraction_on_one_stream_matches_markov_chain(self, budget):
        # runs back to back on one stream end inside blocks at every offset: a
        # run that went on with draws its predecessor had looked at would bias
        # how often the budget runs out
        inst = dl.onemax(10)
        exact = exact_survival(inst, inst.mutation_probability, budget)
        source, runs = dl.RandomSource(17), 20_000
        censored = sum(dl.run_ea(inst, dl.EAConfig(budget), source).budget_exhausted for _ in range(runs))
        assert abs(censored / runs - exact) <= 4 * math.sqrt(exact * (1 - exact) / runs)

    @pytest.mark.parametrize("kind", ["integer", "float", "doubling"])
    def test_value_after_every_step_is_bit_identical(self, kind):
        gen = dl.RandomSource(12).generator
        if kind == "integer":
            inst = dl.generate_instance(64, 8, "1/2", rng=dl.RandomSource(3))
        elif kind == "float":
            inst = dl.build_separable(gen.uniform(0, 3, 8), gen.uniform(0, 3, 8))
        else:
            inst = dl.generate_instance(128, 0, "1/2", weight_scheme="doubling")
        assert (inst.linear_form.scales == (None, None)) == (kind == "integer")
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


def reference_run(instance, config, rng, runs, potential=None):
    """run_ea written plainly, for `runs`, a list of (budget, start or None)
    played back to back on one stream: one pass per iteration of one sequence
    of flip counts, which each run takes up where the last one stopped, every
    non-empty iteration drawn by `_Mutations.positions(k)` and valued bit by
    bit with `if x[j]` on the linear form's weights.  Its RunTraces must be
    run_ea's on one source, run by run."""
    m = instance.domain_size
    p = config.mutation_probability or instance.mutation_probability
    gen = rng.generator
    form = instance.linear_form
    mutations = _Mutations(gen, m, p)

    def flip_counts():  # every iteration's K, block after block, each drawn when first needed
        while True:
            offsets, counts, size = mutations.block()
            ks = dict(zip(offsets, counts))
            for offset in range(size):
                yield ks.get(offset, 0)

    iterations = flip_counts()
    traces = []
    for budget, initial in runs:
        x = gen.integers(0, 2, m, dtype=np.uint8) if initial is None else np.array(initial, dtype=np.uint8)
        f_x = instance.value(x)
        l1, l2 = form.pair(x)

        def sample(t):
            phi = None if potential is None else float(potential(x.copy()))
            return (t, float(f_x), phi, int(np.count_nonzero(x)))

        samples = [sample(0)]
        hitting_time, accepted, t = None, 0, 0
        stride = config.trace_stride
        if (l1, l2) == instance.optimum:
            hitting_time = 0
        while hitting_time is None and t < budget:
            t += 1
            k = next(iterations)
            if k:
                flips = mutations.positions(k)
                y = x.copy()
                y[flips] ^= 1
                y1, y2 = l1, l2
                for j in flips:
                    if x[j]:
                        y1, y2 = y1 - form.weights[0][j], y2 - form.weights[1][j]
                    else:
                        y1, y2 = y1 + form.weights[0][j], y2 + form.weights[1][j]
                f_y = instance.float_kernel(y1, y2)
                if f_y <= f_x:
                    x, l1, l2, f_x = y, y1, y2, f_y
                    accepted += 1
                    if (l1, l2) == instance.optimum:
                        hitting_time = t
                        break
            if t == budget:
                break
            if stride and t % stride == 0:
                samples.append(sample(t))
        if hitting_time != 0:
            samples.append(sample(budget if hitting_time is None else hitting_time))
        traces.append(dl.RunTrace(rng.seed, rng.spawn_key, hitting_time, hitting_time is None, accepted, samples, x))
    return traces


def assert_same_runs(traces, expected):
    assert [t.to_json() for t in traces] == [e.to_json() for e in expected]
    assert all(np.array_equal(t.final_state, e.final_state) for t, e in zip(traces, expected))


def composite(m, weight_scheme, s=1):
    """A generated instance on m positions: n = m + s nominal bits, alpha = 1/2."""
    return dl.generate_instance(m + s, s, "1/2", weight_scheme=weight_scheme, rng=dl.RandomSource(m))


def reference_cases():
    """name -> (instance, EAConfig, initial or None, potential or None)."""
    cases = {"m1": (single_bit_instance(), dl.EAConfig(50, mutation_probability=0.5), bits(1), None)}
    # m at each inline boundary: K = 3 by subset draw (8) and inline at 3*3 = m
    # (9), K = 4 inline at 4*4 = m (16) and past it (17), K = 5 and 6 inline (36)
    for m in (2, 3, 4, 5, 8, 9, 10, 16, 17, 36, 64):
        for scheme in ("all-ones", "uniform-int"):
            inst = composite(m, scheme, s=m % 2)  # n = m + s even, so alpha*n is an integer
            # p = 1/n makes K = 1 and 2 most of the flips; p = 2/m makes K*K > m
            # common, and p = 4/m K from 3 to 6
            rates = (("", None), ("-p2", min(1.0, 2.0 / m)))
            if m in (8, 9, 16, 17, 36):
                rates += (("-p4", min(1.0, 4.0 / m)),)
            for label, p in rates:
                cases[f"m{m}-{scheme}{label}"] = (inst, dl.EAConfig(3000, mutation_probability=p), None, None)
    doubling = dl.generate_instance(128, 0, "1/2", weight_scheme="doubling")
    assert doubling.linear_form.scales == (1, 1)  # exact ints past 2**53
    cases["doubling128"] = (doubling, dl.EAConfig(dl.default_budget(128)), None, None)
    multimodal = dl.MultimodalInstance(8)
    cases["multimodal8"] = (multimodal, dl.EAConfig(3000), multimodal.local_optimum(3), None)
    onemax16 = dl.onemax(16)
    cases["stride3"] = (onemax16, dl.EAConfig(400, trace_stride=3), None, onemax16.value)
    # a record at every iteration, so before and after every acceptance
    cases["stride1"] = (onemax16, dl.EAConfig(400, trace_stride=1), None, onemax16.value)
    # budgets that end inside the first block (32) and the second (32 + 64)
    for budget in (31, 33, 50, 95):
        cases[f"budget{budget}"] = (dl.onemax(64), dl.EAConfig(budget, trace_stride=4), None, None)
    # even marks, over a quarter of them on accepting iterations, and a budget
    # that ends inside the second block before the optimum
    onemax32 = dl.onemax(32)
    cases["stride2-budget45"] = (onemax32, dl.EAConfig(45, trace_stride=2), None, onemax32.value)
    uniform = composite(24, "uniform-int", s=0)
    cases["int24"] = (uniform, dl.EAConfig(600, trace_stride=5), None, uniform.value)
    floats = dl.RandomSource(12).generator.uniform(0, 3, 32)
    separable = dl.build_separable(floats[:16], floats[16:])
    assert None not in separable.linear_form.scales  # ints scaled by a power of two
    cases["float32-stride7"] = (
        separable, dl.EAConfig(400, trace_stride=7), None, dl.build_combined_potential(separable).value)
    return cases


@pytest.mark.parametrize("name", sorted(reference_cases()))
def test_run_ea_matches_reference_loop(name):
    instance, config, initial, potential = reference_cases()[name]
    for seed in range(6):
        trace = dl.run_ea(instance, config, dl.RandomSource(seed), initial=initial, potential=potential)
        expected = reference_run(
            instance, config, dl.RandomSource(seed), [(config.max_iterations, initial)], potential=potential)
        assert_same_runs([trace], expected)


def back_to_back_cases():
    """name -> (instance, EAConfig without its budget, [(budget, start or None)], potential or None)."""
    onemax64, onemax8 = dl.onemax(64), dl.onemax(8)
    # no hit within these budgets: runs that end at a block's end (32, then
    # 64, then 128 iterations) and inside one, the rest of which the next
    # run takes up, with stride marks on both sides of every carried start
    ends = [(32, None), (64, None), (128, None), (10, None), (1, None), (200, None), (3, None), (700, None)]
    cases = {"block-ends": (onemax64, dl.EAConfig(1, trace_stride=4), ends, None)}
    # hits inside blocks; a start that is optimal, one given and a prepared one among drawn starts
    given = bits(1, 1, 0, 1, 0, 0, 1, 1)
    prepared = dl.prepare_starts(onemax8, bits(1, 0, 0, 0, 0, 0, 0, 1)[None])[0]
    hits = [(500, None)] * 30 + [(500, np.zeros(8, dtype=np.uint8)), (500, given), (500, prepared), (4, None)]
    cases["hits"] = (onemax8, dl.EAConfig(1, trace_stride=3), hits * 3, onemax8.value)
    # K*K > m is common at p = 2/m: permutation prefixes between pool draws
    cases["subsets-p2"] = (onemax8, dl.EAConfig(1, mutation_probability=0.25), hits * 3, None)
    # p = 4/m on 36 bits: K = 4, 5 and 6 from the pool, K = 7 and more by permutation
    uniform = composite(36, "uniform-int", s=0)
    cases["int36-p4"] = (
        uniform, dl.EAConfig(1, mutation_probability=4 / 36, trace_stride=5),
        [(budget, None) for budget in (300, 17, 33, 2000, 9, 64, 2000)], uniform.value)
    return cases


@pytest.mark.parametrize("name", sorted(back_to_back_cases()))
def test_runs_back_to_back_on_one_source_match_the_reference(name):
    instance, config, runs, potential = back_to_back_cases()[name]
    for seed in range(4):
        source = dl.RandomSource(seed, (1,))
        traces = [
            dl.run_ea(instance, dl.EAConfig(budget, config.mutation_probability, config.trace_stride), source,
                      initial=start, potential=potential)
            for budget, start in runs]
        starts = [(budget, start.bits if isinstance(start, dl.PreparedStart) else start) for budget, start in runs]
        assert_same_runs(traces, reference_run(instance, config, dl.RandomSource(seed, (1,)), starts, potential))


def golden_cases():
    """name -> (instance, EAConfig, seed, initial or None, potential or None)."""
    onemax16 = dl.onemax(16)
    floats = dl.RandomSource(12).generator.uniform(0, 3, 32)
    multimodal = dl.MultimodalInstance(16)
    return {
        "onemax10": (dl.onemax(10), dl.EAConfig(dl.default_budget(10)), 1, None, None),
        "separable64": (
            dl.generate_instance(64, 0, "1/2", transforms=("square", "square_root"), rng=dl.RandomSource(5)),
            dl.EAConfig(dl.default_budget(64)), 2, None, None),
        "chance64": (
            dl.build_chance(dl.ChanceInstance(np.arange(1.0, 33.0), np.ones(32), 0.9)),
            dl.EAConfig(dl.default_budget(64)), 3, None, None),
        "multimodal16": (multimodal, dl.EAConfig(20_000), 4, multimodal.local_optimum(5), None),
        "float32": (
            dl.build_separable(floats[:16], floats[16:]), dl.EAConfig(dl.default_budget(32)), 5, None, None),
        "doubling128": (
            dl.generate_instance(128, 0, "1/2", weight_scheme="doubling"),
            dl.EAConfig(dl.default_budget(128)), 6, None, None),
        "p_one": (dl.onemax(6), dl.EAConfig(9, mutation_probability=1.0), 7, bits(1, 1, 1, 0, 0, 0), None),
        "p_half": (onemax16, dl.EAConfig(300, mutation_probability=0.5), 8, None, None),
        "stride7": (onemax16, dl.EAConfig(2000, trace_stride=7), 9, None,
                    dl.build_combined_potential(onemax16).value),
    }


# (hitting_time, accepted_steps, samples, final_state as a bit string) of each
# golden case, recorded before run_ea became one fused loop (multimodal16 and
# p_half again when k*k > m subsets became permutation prefixes; float32 and
# doubling128 again when their parts became exact sums, which moved only the
# start value's last bit).
GOLDEN = {
    "onemax10": (56, 7, [(0, 5.0, None, 5), (56, 0.0, None, 0)], "0" * 10),
    "separable64": (722, 42, [(0, 958466.179356624, None, 38), (722, 0.0, None, 0)], "0" * 64),
    "chance64": (191, 16, [(0, 219.79512688175166, None, 14), (191, 0.0, None, 0)], "0" * 32),
    "multimodal16": (
        458, 11, [(0, 1.0002261765559461, None, 1), (458, 0.5002261765559461, None, 1)], "1" + "0" * 15),
    "float32": (258, 23, [(0, 278.47724840824435, None, 16), (258, 0.0, None, 0)], "0" * 32),
    "doubling128": (1773, 151, [(0, 5.630913779987741e+35, None, 61), (1773, 0.0, None, 0)], "0" * 128),
    "p_one": (None, 9, [(0, 3.0, None, 3), (9, 3.0, None, 3)], "000111"),
    "p_half": (None, 4, [(0, 6.0, None, 6), (300, 2.0, None, 2)], "0001000000000001"),
    "stride7": (
        69, 10,
        [(0, 8.0, 8.0, 8), (7, 8.0, 8.0, 8), (14, 5.0, 5.0, 5), (21, 3.0, 3.0, 3), (28, 3.0, 3.0, 3),
         (35, 2.0, 2.0, 2), (42, 2.0, 2.0, 2), (49, 2.0, 2.0, 2), (56, 1.0, 1.0, 1), (63, 1.0, 1.0, 1),
         (69, 0.0, 0.0, 0)],
        "0" * 16),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run(name):
    """Fixed seeds pin every branch of run_ea: a drawn start and a given one,
    a float64 form (integer weights, the compose transform, the multimodal
    instance) and one of ints (float weights, doubling), K = m at p = 1,
    the permutation-prefix subset draw at p = 1/2 on 16 bits, and stride
    records with a potential.

    A change that means to alter the random stream or the selection must
    regenerate GOLDEN and say so in CHANGES.md; any other change must leave
    these runs as they are.
    """
    instance, config, seed, initial, potential = golden_cases()[name]
    trace = dl.run_ea(instance, config, dl.RandomSource(seed), initial=initial, potential=potential)
    hitting_time, accepted_steps, samples, final_state = GOLDEN[name]
    assert trace.hitting_time == hitting_time
    assert trace.accepted_steps == accepted_steps
    assert trace.samples == samples
    assert "".join(map(str, trace.final_state.tolist())) == final_state


class TestPreparedStarts:
    """prepare_starts: every row's parent state in one batch, and run_ea on it."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_prepared_and_raw_starts_run_alike(self, name):
        instance, config, seed, initial, potential = golden_cases()[name]
        if initial is None:  # a start of the golden case's size, drawn elsewhere
            initial = dl.RandomSource(seed, (99,)).generator.integers(0, 2, instance.domain_size, dtype=np.uint8)
        prepared = dl.prepare_starts(instance, initial[None])[0]
        raw = dl.run_ea(instance, config, dl.RandomSource(seed), initial=initial, potential=potential)
        from_prepared = dl.run_ea(instance, config, dl.RandomSource(seed), initial=prepared, potential=potential)
        assert from_prepared.to_json() == raw.to_json()
        assert np.array_equal(from_prepared.final_state, raw.final_state)

    @pytest.mark.parametrize("kind", ["integer", "doubling"])
    def test_one_prepared_start_seeds_many_runs_unchanged(self, kind):
        if kind == "integer":
            inst = dl.generate_instance(16, 2, "1/2", rng=dl.RandomSource(3))
        else:
            inst = dl.generate_instance(128, 0, "1/2", weight_scheme="doubling")
        start = dl.prepare_starts(inst, np.ones((1, inst.domain_size), dtype=np.uint8))[0]
        before = copy.deepcopy(start)
        cfg = dl.EAConfig(dl.default_budget(inst.n))
        traces = [dl.run_ea(inst, cfg, source, initial=start) for source in dl.RandomSource(5).children(0, 3)]
        assert all(t.accepted_steps > 0 for t in traces)  # every run moved its parent
        assert start == before
        again = dl.run_ea(inst, cfg, dl.RandomSource(5, (2,)), initial=start)
        assert again.to_json() == traces[2].to_json()

    def test_a_batch_is_its_rows_prepared_one_by_one(self):
        inst = dl.build_separable([0.5, 1.5, 2.25], [2.5, 1.0, 3.0])
        rows = dl.RandomSource(2).generator.integers(0, 2, (30, 6), dtype=np.uint8)
        batch = dl.prepare_starts(inst, rows)
        assert batch == [dl.prepare_starts(inst, row[None])[0] for row in rows]
        for start, row in zip(batch, rows):
            assert start.bits == row.tolist() and start.f == inst.value(row)
            assert [start.l1, start.l2] == inst.linear_form.pair(row)
        assert dl.prepare_starts(inst, rows[:0]) == []

    def test_any_0_1_dtype_gives_the_uint8_start(self):
        inst = dl.onemax(4)
        reference = dl.prepare_starts(inst, np.array([[1, 0, 1, 1]], dtype=np.uint8))
        for same in ([[1, 0, 1, 1]], [[True, False, True, True]], [[1.0, 0.0, 1.0, 1.0]]):
            assert dl.prepare_starts(inst, same) == reference

    @pytest.mark.parametrize(
        "rows", [[[0, 2, 1, 0]], [[0, 0.5, 1, 0]], [[0, 1, -1, 0]], [[0, 1, float("nan"), 0]],
                 [[0, 256, 1, 0]], np.array([[0, 1, 1, 0], [0, 255, 1, 0]], dtype=np.uint8),
                 np.zeros(4, dtype=np.uint8), np.zeros((1, 1, 4), dtype=np.uint8), [["0", "1", "0", "1"]]],
        ids=["2", "half", "minus_1", "nan", "256", "uint8_255", "1d", "3d", "str"])
    def test_rejects_rows_that_are_not_bits(self, rows):
        with pytest.raises(ValueError, match="0/1 values"):
            dl.prepare_starts(dl.onemax(4), rows)
        # every other entry point that takes rows; a 1-d array is one state to them
        if np.ndim(rows) == 1:
            return
        for inst in (dl.onemax(4), dl.MultimodalInstance(4)):
            calls = [inst.value, inst.is_optimal, inst.linear_values]
            if isinstance(inst, dl.CompositeObjective):
                calls.append(dl.build_combined_potential(inst).value)
            for call in calls:
                with pytest.raises(ValueError, match="expected 4 bits of 0/1 values"):
                    call(rows)

    def test_a_start_prepared_for_another_width_is_refused(self):
        # it ran silently, never reached the optimum and returned a 6-bit final state
        start = dl.prepare_starts(dl.onemax(6), np.zeros((1, 6), dtype=np.uint8))[0]
        with pytest.raises(ValueError, match="expected a start of 4 bits, got one prepared for 6"):
            dl.run_ea(dl.onemax(4), dl.EAConfig(200), dl.RandomSource(1), initial=start)

    def test_rejects_rows_of_another_width(self):
        with pytest.raises(ValueError, match="expected 4 bits"):
            dl.prepare_starts(dl.onemax(4), np.zeros((3, 5), dtype=np.uint8))
