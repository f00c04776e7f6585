import concurrent.futures
import functools
import json
import math
import os
import stat
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import driftlab as dl
from driftlab import experiments
from driftlab.experiments import ExperimentConfig, build_objective


def make_cfg(**overrides):
    base = dict(kind="scale", n_values=(16, 32), preset="onemax", replicates=5, seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = make_cfg(alpha="1/2", r_values=(1, 2, 3), transforms=("square", "square_root"))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cfg(kind="nope")
        with pytest.raises(ValueError):
            make_cfg(n_values=())
        with pytest.raises(ValueError):
            make_cfg(replicates=0)
        with pytest.raises(ValueError):
            make_cfg(preset="bogus")
        with pytest.raises(ValueError):
            make_cfg(confidence=1.5)


class TestPresets:
    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("preset", sorted(experiments.PRESET_SETTINGS))
    def test_preset_is_generate_instance_with_its_settings(self, preset, n):
        settings = experiments.PRESET_SETTINGS[preset]
        cfg = ExperimentConfig(kind="scale", n_values=(n,), preset=preset, weight_low=3, weight_high=40)
        built_rng, generated_rng = dl.RandomSource(5, (0,)), dl.RandomSource(5, (0,))
        built = build_objective(cfg, n, built_rng)
        generated = dl.generate_instance(
            n, settings["s"], settings["alpha"], weight_scheme=settings["weight_scheme"],
            weight_range=(3, 40), transforms=settings["transforms"],
            embedding_scheme=settings["embedding"], rng=generated_rng,
        )
        assert built.to_dict() == generated.to_dict()
        # both consumed the same draws
        assert built_rng.generator.integers(2**62) == generated_rng.generator.integers(2**62)

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_presets_build_their_named_instances(self, n):
        def preset_instance(preset, rng):
            return build_objective(ExperimentConfig(kind="scale", n_values=(n,), preset=preset), n, rng)

        assert preset_instance("onemax", dl.RandomSource(5)).to_dict() == dl.onemax(n).to_dict()
        gen = dl.RandomSource(5).generator
        w1, w2 = (gen.integers(1, 101, size=n // 2).astype(float) for _ in range(2))
        separable = dl.build_separable(w1, w2)
        assert preset_instance("separable", dl.RandomSource(5)).to_dict() == separable.to_dict()


class TestDispatch:
    @pytest.mark.parametrize("kind", sorted(experiments.STUDIES))
    def test_run_experiment_calls_the_study_bound_on_the_module(self, monkeypatch, kind):
        cfg = ExperimentConfig(kind=kind, n_values=(8,))
        calls = []
        monkeypatch.setattr(experiments, experiments.STUDIES[kind].function, calls.append)
        experiments.run_experiment(cfg)
        assert calls == [cfg]

    def test_pool_starts_no_more_workers_than_jobs(self, monkeypatch):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        # _run_replicates imports the pool class when it needs one, so patch it at its source
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(kind="escape", n_values=(6, 8), replicates=2, seed=2)
        serial = experiments.run_experiment(cfg)
        assert pools == []
        pooled = experiments.run_experiment(replace(cfg, workers=8))
        assert pools == [2, 2]
        assert pooled.rows == serial.rows
        experiments.run_experiment(replace(cfg, replicates=1, workers=8))
        assert pools == [2, 2]  # one job per size runs in this process


class TestFitting:
    def test_exact_nlogn_recovery(self):
        rows = [SimpleNamespace(n=n, mean_T=5.0 * n * math.log(n)) for n in (50, 100, 200, 400)]
        fit = dl.fit_nlogn(rows)
        assert fit.nlogn_coefficient == pytest.approx(5.0, rel=1e-12)
        assert fit.nlogn_rms_residual == pytest.approx(0.0, abs=1e-9)

    def test_exact_power_recovery(self):
        rows = [SimpleNamespace(n=n, mean_T=float(n) ** 2) for n in (10, 20, 40, 80)]
        fit = dl.fit_nlogn(rows)
        assert fit.power_exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.power_coefficient == pytest.approx(1.0, rel=1e-6)

    def test_refit_is_deterministic(self):
        rows = [SimpleNamespace(n=n, mean_T=3.3 * n * math.log(n) + (n % 7)) for n in (50, 100, 200, 400)]
        a = dl.fit_nlogn(rows)
        b = dl.fit_nlogn(rows)
        assert a == b

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            dl.fit_nlogn([SimpleNamespace(n=10, mean_T=100.0), SimpleNamespace(n=20, mean_T=250.0)])


class TestScalingStudy:
    def test_onemax_smoke(self):
        bundle = dl.scaling_study(make_cfg())
        assert [r.n for r in bundle.rows] == [16, 32]
        assert all(r.censored == 0 for r in bundle.rows)
        assert all(r.mean_T > 0 for r in bundle.rows)
        for row in bundle.rows:
            assert row.ratio_nlogn == pytest.approx(row.mean_T / (row.n * math.log(row.n)))
        assert bundle.checks["censoring_at_most_1pct"]

    def test_config_echo_reparses(self):
        cfg = make_cfg()
        bundle = dl.scaling_study(cfg)
        assert ExperimentConfig.from_dict(bundle.to_json_dict()["config"]) == cfg

    def test_byte_identical_outputs(self, tmp_path):
        cfg = make_cfg()
        for tag in ("a", "b"):
            bundle = dl.scaling_study(cfg)
            bundle.write_csv(tmp_path / f"{tag}.csv")
            bundle.write_json(tmp_path / f"{tag}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        # the pool pickles each instance, so a worker compiles its own float kernel
        inputs = [
            make_cfg(replicates=4),
            make_cfg(preset="chance", replicates=4),
            make_cfg(preset=None, n_values=(12,), s=2, weight_high=9, replicates=4, fresh_instances=True),
            ExperimentConfig(kind="escape", n_values=(6, 8), replicates=4, seed=2),
        ]
        for cfg in inputs:
            serial = experiments.run_experiment(cfg)
            parallel = experiments.run_experiment(replace(cfg, workers=2))
            a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
            serial.write_json(a)
            parallel.write_json(b)
            doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
            doc_a["config"].pop("workers")
            doc_b["config"].pop("workers")
            assert doc_a == doc_b, cfg.kind

    def test_doubling_identity_runtime_keeps_the_exact_pair(self):
        # Parts of weights 2^0..2^127 pass 2^53: summed in floats, f missed
        # flips of the low bits, which then random-walked (ratio 3.57 here)
        cfg = make_cfg(preset=None, n_values=(256,), replicates=30, seed=9, weight_scheme="doubling",
                       transforms=("identity", "identity"))
        assert dl.scaling_study(cfg).rows[0].ratio_nlogn < 3.0

    def test_budget_censoring_is_reported_not_mixed(self):
        bundle = dl.scaling_study(make_cfg(n_values=(32,), replicates=6, budget=3))
        row = bundle.rows[0]
        assert row.censored == 6
        assert math.isnan(row.mean_T)
        assert not bundle.checks["censoring_at_most_1pct"]

    def test_generated_instances_path(self):
        cfg = make_cfg(preset=None, n_values=(12,), s=2, replicates=3, weight_high=9)
        bundle = dl.scaling_study(cfg)
        assert bundle.rows[0].s == 2

    def test_fresh_instances_per_replicate(self):
        cfg = make_cfg(preset="separable", n_values=(12,), replicates=4, fresh_instances=True)
        bundle = dl.scaling_study(cfg)
        assert bundle.rows[0].censored == 0

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            dl.scaling_study(make_cfg(kind="escape"))

    def test_csv_schema(self, tmp_path):
        bundle = dl.scaling_study(make_cfg())
        path = tmp_path / "rows.csv"
        bundle.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "n,s,alpha,reps,censored,mean_T,sd_T,median_T,ratio_nlogn"


@pytest.fixture(scope="module")
def file_writers():
    """Each way driftlab writes a file, as a function of the path alone."""
    bundle = dl.scaling_study(make_cfg(n_values=(16,), replicates=2))
    chance = dl.ChanceInstance([2.0, 4.0, 1.0], [1.0, 0.5, 1.5], 0.8)
    return {
        "write_csv": bundle.write_csv,
        "write_json": bundle.write_json,
        "save_instance": functools.partial(dl.save_instance, dl.onemax(8)),
        "save_chance_instance": functools.partial(dl.save_chance_instance, chance),
    }


@pytest.mark.parametrize("writer", ["write_csv", "write_json", "save_instance", "save_chance_instance"])
class TestFileWriting:
    """Files are rewritten in place, with the bytes and effects of a fresh write."""

    def test_overwrite_of_a_longer_file_leaves_the_fresh_bytes(self, tmp_path, file_writers, writer):
        write = file_writers[writer]
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        write(fresh)
        over.write_bytes(b"x" * 10_000)
        write(over)
        assert 0 < fresh.stat().st_size < 10_000
        assert over.read_bytes() == fresh.read_bytes()

    def test_symlink_is_written_through(self, tmp_path, file_writers, writer):
        write = file_writers[writer]
        target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target)
        write(link)
        write(fresh)
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    def test_new_file_mode_follows_umask(self, tmp_path, file_writers, writer):
        path = tmp_path / "new"
        umask = os.umask(0o002)
        try:
            file_writers[writer](path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o002


class TestEscapeStudy:
    def test_planted_point_is_strict_local_optimum(self):
        inst = dl.MultimodalInstance(4)
        start = inst.local_optimum(1)
        f0 = inst.value(start)
        for i in range(4):
            neighbor = start.copy()
            neighbor[i] ^= 1
            assert inst.value(neighbor) > f0

    def test_smoke(self):
        cfg = ExperimentConfig(kind="escape", n_values=(6, 8), replicates=5, seed=2)
        bundle = dl.escape_study(cfg)
        assert all(r.censored == 0 for r in bundle.rows)
        assert all(r.mean_T > 0 for r in bundle.rows)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(kind="escape", n_values=(6,), replicates=2, seed=2)
        bundle = dl.escape_study(cfg)
        path = tmp_path / "rows.csv"
        bundle.write_csv(path)
        assert path.read_text().splitlines()[0] == "n,reps,mean_T,sd_T"


class TestTailStudy:
    def test_r_zero_bound_is_one_and_never_violated(self):
        cfg = ExperimentConfig(
            kind="tail", n_values=(8,), preset="onemax", replicates=100, seed=3, r_values=(0.0, 1.0)
        )
        bundle = dl.tail_study(cfg)
        r0 = bundle.rows[0]
        assert r0.bound == 1.0 and r0.exceed_freq <= 1.0 and not r0.violation
        assert bundle.checks["no_tail_violation"]

    def test_halved_delta_doubles_thresholds(self):
        base = ExperimentConfig(
            kind="tail", n_values=(8,), preset="onemax", replicates=50, seed=3, r_values=(1.0, 2.0)
        )
        certified = dl.tail_study(base)
        delta = certified.extras["delta"]
        halved = dl.tail_study(
            ExperimentConfig(
                kind="tail", n_values=(8,), preset="onemax", replicates=50, seed=3,
                r_values=(1.0, 2.0), delta=delta / 2,
            )
        )
        for a, b in zip(certified.rows, halved.rows):
            assert b.threshold == pytest.approx(2 * a.threshold, rel=1e-12)
            assert b.exceed_freq <= a.exceed_freq

    def test_repeated_r_is_counted_once(self):
        base = dict(kind="tail", n_values=(8,), preset="onemax", replicates=50, seed=3, delta=0.05)
        once = dl.tail_study(ExperimentConfig(**base, r_values=(0.5,)))
        twice = dl.tail_study(ExperimentConfig(**base, r_values=(0.5, 0.5)))
        assert once.rows[0].exceed_freq > 0
        assert twice.rows == [once.rows[0]] * 2

    def test_more_replicates_keep_the_earlier_starts_and_runs(self, monkeypatch):
        # every start is a row of one draw on stream (0, 1), and the runs go back
        # to back on stream (1,), so R = 12 begins with R = 5's runs
        runs = []

        def recording_run_ea(instance, config, rng, initial, potential):
            trace = dl.run_ea(instance, config, rng, initial, potential)
            runs.append((initial.bits, rng.spawn_key, trace.hitting_time))  # a prepared start's row
            return trace

        monkeypatch.setattr(experiments, "run_ea", recording_run_ea)
        base = dict(kind="tail", n_values=(10,), preset="onemax", seed=4, delta=0.035)
        dl.tail_study(ExperimentConfig(**base, replicates=5))
        few = runs[:]
        runs.clear()
        dl.tail_study(ExperimentConfig(**base, replicates=12))
        assert len(few) == 5 and runs[:5] == few and len(runs) == 12
        assert [key for _, key, _ in runs] == [(1,)] * 12

    def test_start_slices_change_no_report(self, monkeypatch):
        # starts are prepared a slice of rows at a time; 25 bits is two rows of 10
        cfg = ExperimentConfig(kind="tail", n_values=(10,), preset="onemax", replicates=45, seed=6)
        whole = dl.tail_study(cfg).json_text()
        monkeypatch.setattr(experiments, "_START_SLICE_BITS", 25)
        assert dl.tail_study(cfg).json_text() == whole

    def test_refuses_uncertifiable_instance(self):
        cfg = ExperimentConfig(kind="tail", n_values=(64,), preset="onemax", replicates=10, seed=1)
        with pytest.raises(ValueError):
            dl.tail_study(cfg)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(
            kind="tail", n_values=(6,), preset="onemax", replicates=20, seed=5, r_values=(1.0,)
        )
        bundle = dl.tail_study(cfg)
        path = tmp_path / "rows.csv"
        bundle.write_csv(path)
        assert path.read_text().splitlines()[0] == "r,threshold,exceed_freq,bound"


def _float_weight_instance(path):
    """n = 10, s = 2: non-integer weights, so the LinearForm holds both parts as scaled ints."""
    inst = dl.CompositeObjective(
        10, 2, Fraction(1, 2),
        (dl.LinearFunction([0.5, 1.25, 2.75, 0.3, 4.1]), dl.LinearFunction([1.1, 0.7, 3.3, 2.2, 0.9])),
        (dl.DomainEmbedding(range(5), 8), dl.DomainEmbedding(range(3, 8), 8)),
        (dl.square(), dl.square_root()),
    )
    assert None not in inst.linear_form.scales
    dl.save_instance(inst, path)
    return str(path)


# Rows (r, threshold, exceed_freq, bound, violation) and extras of three tail
# studies, pinned bit for bit: start draws, start potentials, skipped optimal
# starts (onemax n = 2, and one of onemax10's), both offspring evaluators and
# the runs back to back on one stream (exceed_freq regenerated when they
# began to take up the draws the run before left unused).
GOLDEN_TAIL = {
    "onemax10": (
        dict(n_values=(10,), preset="onemax", replicates=250, seed=7, delta=0.035, r_values=(0.0, 1.0, 3.0)),
        [(0.0, 44.83867416505593, 0.504, 1.0, False),
         (1.0, 73.41010273648457, 0.184, 0.36787944117144233, False),
         (3.0, 130.55295987934142, 0.016, 0.049787068367863944, False)],
        {"delta": 0.035, "replicates_counted": 249},
    ),
    "onemax2_skips_optimal_starts": (
        dict(n_values=(2,), preset="onemax", replicates=40, seed=3, delta=0.2),
        [(1.0, 6.565171052877297, 0.2, 0.36787944117144233, False),
         (2.0, 11.565171052877298, 0.075, 0.1353352832366127, False),
         (3.0, 16.565171052877297, 0.025, 0.049787068367863944, False)],
        {"delta": 0.2, "replicates_counted": 31},
    ),
    "float_weight_file": (
        dict(n_values=(10,), replicates=120, seed=11, delta=0.03, r_values=(0.5, 1.0, 2.0)),
        [(0.5, 73.37228408611689, 0.075, 0.6065306597126334, False),
         (1.0, 90.03895075278355, 0.058333333333333334, 0.36787944117144233, False),
         (2.0, 123.37228408611693, 0.008333333333333333, 0.1353352832366127, False)],
        {"delta": 0.03, "replicates_counted": 120},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TAIL))
def test_golden_tail(tmp_path, name):
    """A change that keeps every stream must reproduce these reports exactly."""
    options, rows, extras = GOLDEN_TAIL[name]
    if name == "float_weight_file":
        options = {**options, "instance_file": _float_weight_instance(tmp_path / "float10.json")}
    bundle = dl.tail_study(ExperimentConfig(kind="tail", **options))
    assert [tuple(vars(row).values()) for row in bundle.rows] == rows
    assert bundle.extras == extras


class TestChanceDemo:
    def test_smoke_and_levels(self):
        cfg = ExperimentConfig(
            kind="chance", n_values=(6,), replicates=3, seed=4,
            confidence=0.9, level_samples=50_000, probes=2,
        )
        bundle = dl.chance_demo(cfg)
        se = math.sqrt(0.9 * 0.1 / 50_000)
        assert bundle.rows, "expected at least the all-ones probe"
        for row in bundle.rows:
            assert abs(row.empirical_level - 0.9) <= 4 * se
        assert bundle.checks["levels_within_4se"]

    def test_median_level_minimizes_to_zero_and_skips_probe(self):
        cfg = ExperimentConfig(
            kind="chance", n_values=(4,), replicates=2, seed=4,
            confidence=0.5, level_samples=20_000, probes=1,
        )
        bundle = dl.chance_demo(cfg)
        assert bundle.extras["best_fitness"] == 0.0
        assert any("zero variance" in note for note in bundle.notes)

    def test_ramp_instance_levels_at_full_samples(self):
        # mu_i = i, sigma_i = 1, level 0.9: every probe within 0.003 at 1e6 draws
        cfg = ExperimentConfig(
            kind="chance", n_values=(8,), replicates=2, seed=12,
            confidence=0.9, level_samples=10**6, probes=2,
        )
        bundle = dl.chance_demo(cfg)
        assert bundle.rows
        for row in bundle.rows:
            assert abs(row.empirical_level - 0.9) <= 0.003

    def test_float_instance_g_value_of_best_is_best_fitness(self, tmp_path):
        gen = dl.RandomSource(31).generator
        c = dl.ChanceInstance(gen.uniform(0.1, 10, 16), gen.uniform(0.1, 3, 16), 0.9)
        path = tmp_path / "c.json"
        dl.save_chance_instance(c, path)
        cfg = ExperimentConfig(
            kind="chance", n_values=(16,), replicates=3, seed=5, budget=10,
            level_samples=20_000, probes=1, instance_file=str(path),
        )
        bundle = dl.chance_demo(cfg)
        assert not bundle.notes  # the short runs end away from the all-zeros optimum
        assert bundle.rows[0].g_value == bundle.extras["best_fitness"]

    def test_chance_instance_file(self, tmp_path):
        c = dl.ChanceInstance([2.0, 4.0, 1.0], [1.0, 0.5, 1.5], 0.8)
        path = tmp_path / "c.json"
        dl.save_chance_instance(c, path)
        cfg = ExperimentConfig(
            kind="chance", n_values=(3,), replicates=2, seed=13,
            level_samples=20_000, probes=1, instance_file=str(path),
        )
        bundle = dl.chance_demo(cfg)
        assert all(row.alpha_c == 0.8 for row in bundle.rows)

    def test_all_ones_probe_value(self):
        m = 5
        cfg = ExperimentConfig(
            kind="chance", n_values=(m,), replicates=2, seed=6,
            confidence=0.9, level_samples=20_000, probes=0,
        )
        bundle = dl.chance_demo(cfg)
        row = next(r for r in bundle.rows if r.probe == "1" * m)
        mu_sum = sum(range(1, m + 1))
        expected = mu_sum + dl.normal_quantile(0.9) * math.sqrt(m)
        assert row.g_value == pytest.approx(expected, rel=1e-12)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(
            kind="chance", n_values=(4,), replicates=2, seed=4,
            confidence=0.8, level_samples=10_000, probes=0,
        )
        bundle = dl.chance_demo(cfg)
        path = tmp_path / "rows.csv"
        bundle.write_csv(path)
        assert path.read_text().splitlines()[0] == "probe,g_value,empirical_level,alpha_c"


class TestRunStudy:
    def test_traces_and_rows(self):
        cfg = ExperimentConfig(kind="run", n_values=(16,), preset="onemax", replicates=3, seed=9)
        bundle = dl.run_study(cfg)
        traces = bundle.json_document
        assert len(traces) == 3 and len(bundle.rows) == 3
        for row, trace in zip(bundle.rows, traces):
            assert row.hitting_time == trace.hitting_time
        assert bundle.checks["all_runs_reached_optimum"]

    def test_instance_file_round_trip(self, tmp_path):
        inst = dl.onemax(8)
        path = tmp_path / "inst.json"
        dl.save_instance(inst, path)
        cfg = ExperimentConfig(
            kind="run", n_values=(8,), instance_file=str(path), replicates=2, seed=9
        )
        traces = dl.run_study(cfg).json_document
        assert all(t.hitting_time is not None for t in traces)


def _replay_scale(cfg):
    # size i = 1, replicate j = 2: stream (i, j+1) on the size's one instance
    return dl.run_ea(dl.onemax(12), dl.EAConfig(dl.default_budget(12)), dl.RandomSource(cfg.seed, (1, 3)))


def _replay_scale_fresh(cfg):
    # instance from (i, j+1, 0), run from (i, j+1, 1)
    instance = build_objective(cfg, 12, dl.RandomSource(cfg.seed, (1, 3, 0)))
    return dl.run_ea(instance, dl.EAConfig(dl.default_budget(12)), dl.RandomSource(cfg.seed, (1, 3, 1)))


def _replay_scale_doubling(cfg):
    # stream (0, j+1) on the size's one instance, whose parts are held as Python ints
    instance = dl.generate_instance(128, 0, "1/2", weight_scheme="doubling")
    return dl.run_ea(instance, dl.EAConfig(dl.default_budget(128)), dl.RandomSource(cfg.seed, (0, 3)))


def _replay_escape(cfg):
    # stream (i, j+1), from the local optimum at position 1
    instance = dl.MultimodalInstance(8)
    budget = math.ceil(20.0 * math.e * 8 * 8)
    return dl.run_ea(
        instance, dl.EAConfig(budget), dl.RandomSource(cfg.seed, (1, 3)), initial=instance.local_optimum(1)
    )


def _replay_tail(cfg):
    # replicate j starts from row j of the (R, m) draw on stream (0, 1), and the
    # runs go back to back on stream (1,), each with the largest threshold of
    # its start as its budget: the last replays by rerunning the prefix
    instance = dl.onemax(8)
    rows = dl.RandomSource(cfg.seed, (0, 1)).generator.integers(0, 2, (3, 8), dtype=np.uint8)
    source = dl.RandomSource(cfg.seed, (1,))
    for x0 in rows:
        start = dl.build_combined_potential(instance).value(x0)
        budget = math.ceil((math.log(start) + max(cfg.r_values)) / cfg.delta)
        trace = dl.run_ea(instance, dl.EAConfig(budget), source, initial=x0)
    return trace


def _replay_chance(cfg):
    # stream (j+1,)
    composite = dl.build_chance(dl.ChanceInstance(np.arange(1.0, 7.0), np.ones(6), 0.9))
    return dl.run_ea(composite, dl.EAConfig(dl.default_budget(composite.n)), dl.RandomSource(cfg.seed, (3,)))


def _replay_run(cfg):
    # stream (j+1,)
    return dl.run_ea(dl.onemax(16), dl.EAConfig(dl.default_budget(16)), dl.RandomSource(cfg.seed, (3,)))


REPLAYS = {
    "scale": (dict(kind="scale", n_values=(8, 12), preset="onemax"), _replay_scale),
    "scale-fresh": (
        dict(kind="scale", n_values=(10, 12), s=1, weight_high=9, fresh_instances=True), _replay_scale_fresh
    ),
    "scale-doubling": (dict(kind="scale", n_values=(128,), weight_scheme="doubling"), _replay_scale_doubling),
    "escape": (dict(kind="escape", n_values=(6, 8)), _replay_escape),
    "tail": (dict(kind="tail", n_values=(8,), preset="onemax", delta=0.05, r_values=(1.0, 2.0)), _replay_tail),
    "chance": (dict(kind="chance", n_values=(6,), level_samples=1000, probes=0), _replay_chance),
    "run": (dict(kind="run", n_values=(16,), preset="onemax"), _replay_run),
}


@pytest.mark.parametrize("study", sorted(REPLAYS))
def test_one_replicate_replays_in_isolation(monkeypatch, study):
    """The last replicate of a study, rerun alone on its documented stream, hits at the same time."""
    options, replay = REPLAYS[study]
    cfg = ExperimentConfig(**options, replicates=3, seed=23)
    traces = []

    def recording_run_ea(*args, **kwargs):
        traces.append(dl.run_ea(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(experiments, "run_ea", recording_run_ea)
    experiments.run_experiment(cfg)
    assert len(traces) == 3 * len(cfg.n_values)  # no replicate skipped
    hitting_times = [t.hitting_time for t in traces[-3:]]
    assert len(set(hitting_times)) > 1, "replicates of one size should differ"
    assert replay(cfg).hitting_time == hitting_times[-1]


def _fresh_streams(jobs):
    """The jobs again, each source replaced by a new RandomSource of its stream
    (one for all the jobs that share it)."""
    fresh = {}
    for _, _, r, _, _ in jobs:
        fresh.setdefault(id(r), dl.RandomSource(r.seed, r.spawn_key))
    return [(inst, config, fresh[id(r)], x0, phi) for inst, config, r, x0, phi in jobs]


@pytest.mark.parametrize("study", sorted(REPLAYS))
def test_engine_runs_each_job_on_its_own_stream(monkeypatch, study):
    """The engine lends one generator to every job's source in turn; serially
    and on two workers its traces equal run_ea on a fresh source per stream
    (tail's jobs share one, and run back to back on it)."""
    options, _ = REPLAYS[study]
    engine = experiments._run_replicates
    batches = []

    def recording_engine(jobs, workers=1):
        batches.append(jobs)
        return engine(jobs, workers)

    monkeypatch.setattr(experiments, "_run_replicates", recording_engine)
    experiments.run_experiment(ExperimentConfig(**options, replicates=3, seed=23))
    assert batches
    for jobs in batches:
        expected = [dl.run_ea(inst, config, r, initial=x0, potential=phi)
                    for inst, config, r, x0, phi in _fresh_streams(jobs)]
        for workers in (1, 2):
            traces = engine(_fresh_streams(jobs), workers)
            assert [t.to_json() for t in traces] == [t.to_json() for t in expected]
            assert all(np.array_equal(t.final_state, e.final_state) for t, e in zip(traces, expected))


def test_engine_keeps_a_source_that_drew_on_its_own_stream():
    inst, config = dl.onemax(10), dl.EAConfig(200)
    first, second = dl.RandomSource(4, (1,)), dl.RandomSource(4, (3,))
    drawn, reference = dl.RandomSource(4, (2,)), dl.RandomSource(4, (2,))
    drawn.generator.random(3)
    reference.generator.random(3)
    traces = experiments._run_replicates([(inst, config, r, None, None) for r in (first, drawn, second)])
    expected = [dl.run_ea(inst, config, r) for r in (dl.RandomSource(4, (1,)), reference, dl.RandomSource(4, (3,)))]
    assert [t.to_json() for t in traces] == [t.to_json() for t in expected]
    # the source that drew is not spent: its stream goes on where the run left it
    assert drawn.generator.random() == reference.generator.random()
    for spent in (first, second):
        with pytest.raises(RuntimeError, match="is spent"):
            spent.generator


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_refuses_a_source_in_two_jobs(workers):
    # a source's jobs must be consecutive: it cannot come back after another's
    source, other = dl.RandomSource(4, (1,)), dl.RandomSource(4, (2,))
    job, between = [(dl.onemax(4), dl.EAConfig(10), r, None, None) for r in (source, other)]
    with pytest.raises(ValueError, match="appears in two jobs"):
        experiments._run_replicates([job, between, job], workers)
    source.generator  # nothing ran: the source is not spent


def test_engine_keeps_consecutive_jobs_of_a_source_together():
    # three runs on each of two sources: on two workers each source's runs stay
    # in one process and in order, as serially and as run_ea on the stream
    inst, config = dl.onemax(10), dl.EAConfig(40)
    expected = [dl.run_ea(inst, config, r) for r in [dl.RandomSource(4, (1,))] * 3 + [dl.RandomSource(4, (2,))] * 3]
    assert len({t.to_json() for t in expected}) == 6
    for workers in (1, 2):
        a, b = dl.RandomSource(4, (1,)), dl.RandomSource(4, (2,))
        traces = experiments._run_replicates([(inst, config, r, None, None) for r in (a, a, a, b, b, b)], workers)
        assert [t.to_json() for t in traces] == [t.to_json() for t in expected]
        assert a.carry is None and b.carry is None  # dropped when spent (a pool runs copies)
