import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import driftlab as dl
from driftlab import experiments
from driftlab.drift import DriftRow
from oracle_drift import exact_drift as oracle_exact_drift
from oracle_drift import objective_value as oracle_objective_value
from oracle_exact import exact_ratios


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


def eager_rows(report):
    """The rows as the check built them before they were built on first read:
    one DriftRow per checked state, in state order, of Python ints and floats."""
    return list(map(DriftRow, *(column.tolist() for column in report.columns)))


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
        single = dl.exact_drift(inst, dl.CombinedPotential(np.array([1.0])), bits(1), p=0.5)
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
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            mine = dl.exact_drift(inst, pot, x)
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


def test_malformed_states_are_refused_before_the_table_is_built(monkeypatch):
    # at m = 20 the 2^m table took 0.47 s to build before the state was refused
    inst = dl.onemax(20)
    pot = dl.build_combined_potential(inst)

    def no_table(*args, **kwargs):
        raise AssertionError("StateSpace built for a malformed state")

    monkeypatch.setattr(dl.StateSpace, "__init__", no_table)
    for state in ([2] + [0] * 19, [0] * 19, [0.5] * 20):
        for check in (lambda: dl.exact_drift(inst, pot, state),
                      lambda: dl.exhaustive_drift_check(inst, states=[np.zeros(20), state])):
            with pytest.raises(ValueError, match="expected 20 bits of 0/1 values"):
                check()


@pytest.mark.parametrize("p, said", [
    (1.5, "lie in"), (0.0, "lie in"), (-0.25, "lie in"), (float("nan"), "lie in"),
    (True, "be a real number"), (np.bool_(True), "be a real number"), ("0.5", "be a real number")])
def test_drift_entry_points_take_only_a_mutation_probability(p, said):
    # p = 1.5 gave min_ratio -2.72 and a drift of 9.0 at all-ones from negative
    # mask probabilities, True ran as 1, and NaN died converting to a ratio
    inst = dl.onemax(6)
    ones = np.ones(6, dtype=np.uint8)
    for check in (lambda: dl.exhaustive_drift_check(inst, p=p),
                  lambda: dl.exhaustive_drift_check(inst, p=p, states=[ones]),
                  lambda: dl.exact_drift(inst, dl.build_combined_potential(inst), ones, p=p),
                  lambda: dl.EAConfig(10, mutation_probability=p)):
        with pytest.raises(ValueError, match=f"mutation probability must {said}"):
            check()


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
        m17 = dl.generate_instance(18, 1, "1/2", weight_scheme="all-ones")
        with pytest.raises(ValueError, match="exceeds enumeration cap 16"):
            dl.exhaustive_drift_check(m17)

    def test_summary_schema(self):
        report = dl.exhaustive_drift_check(dl.onemax(6))
        assert set(report.summary_dict()) == {"min_ratio", "rounding_bound", "delta_ref", "epsilon", "pass"}

    @pytest.mark.parametrize("sampled", [False, True], ids=["all_states", "sampled"])
    def test_rows_are_built_on_first_read(self, sampled):
        inst = random_instance(3)
        pot = dl.build_combined_potential(inst)
        states = all_states(inst.domain_size)
        checked = np.flatnonzero(~inst.is_optimal(states))
        if sampled:
            checked = checked[::37]
        report = dl.exhaustive_drift_check(inst, states=list(states[checked[::-1]]) if sampled else None)
        assert "rows" not in vars(report)  # the check built none
        rows = report.rows
        assert report.rows is rows and len(rows) == checked.size
        assert [vars(row) for row in rows] == [vars(row) for row in eager_rows(report)]
        assert all(type(row.state_index) is type(row.ones) is int for row in rows)
        assert all(type(row.phi) is type(row.drift) is type(row.ratio) is float for row in rows)
        assert [row.state_index for row in rows] == checked.tolist()
        assert [row.ones for row in rows] == [bin(code).count("1") for code in checked.tolist()]
        assert [row.phi for row in rows] == pot.value(states[checked]).tolist()
        assert all(row.ratio == row.drift / row.phi for row in rows)
        assert report.min_ratio == min(row.ratio for row in rows)
        if sampled:
            assert [row.drift for row in rows] == [dl.exact_drift(inst, pot, states[u]).drift for u in checked]

    def test_a_check_of_optimal_states_only_has_no_rows(self):
        report = dl.exhaustive_drift_check(dl.onemax(4), states=[np.zeros(4, dtype=np.uint8)])
        assert report.rows == [] and report.min_ratio is None and not report.passed

    @pytest.mark.parametrize("states", [None, 5], ids=["all_states", "sampled"])
    def test_report_bytes_are_those_of_the_eager_rows(self, monkeypatch, states):
        reports = []
        check = experiments.exhaustive_drift_check

        def recording_check(*args, **kwargs):
            reports.append(check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(experiments, "exhaustive_drift_check", recording_check)
        bundle = dl.drift_study(dl.ExperimentConfig(kind="drift", n_values=(10,), seed=3, states=states))
        (report,) = reports
        eager = replace(bundle, rows=eager_rows(report))
        assert bundle.csv_text() == eager.csv_text()
        assert bundle.json_text() == eager.json_text()


def largest_tie_level(inst):
    _, counts = np.unique(dl.StateSpace(inst).f, return_counts=True)
    return int(counts.max())


_SWEEP_CASES = {
    "onemax": (lambda: dl.onemax(10), None),
    "onemax-m12": (lambda: dl.onemax(12), None),
    "all-ones-s3": (lambda: dl.generate_instance(14, 3, "1/2", weight_scheme="all-ones"), None),
    "doubling": (lambda: dl.generate_instance(11, 1, "6/11", weight_scheme="doubling",
                                              transforms=("square", "identity")), None),
    "uniform-random": (lambda: random_instance(5), None),
    "float-weights": (lambda: float_weight_instance(("identity", "identity"), n=12, s=2), None),
    "p-half": (lambda: dl.onemax(8), 0.5),
    "p-one": (lambda: dl.generate_instance(9, 1, "5/9", weight_scheme="uniform-int",
                                           weight_range=(1, 9), rng=dl.RandomSource(7)), 1.0),
    "p-0.8": (lambda: dl.generate_instance(10, 2, "1/2", weight_scheme="uniform-int",
                                           weight_range=(1, 30), rng=dl.RandomSource(8)), 0.8),
}


class TestConvolutionSweep:
    """The all-states sweep (XOR convolution over blocks) against the direct per-state path."""

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_matches_direct_path_within_rounding_bound(self, case):
        make, p = _SWEEP_CASES[case]
        inst = make()
        m = inst.domain_size
        assert m <= 12
        swept = dl.exhaustive_drift_check(inst, p=p)
        direct = dl.exhaustive_drift_check(inst, p=p, states=list(all_states(m)))
        assert [r.state_index for r in swept.rows] == [r.state_index for r in direct.rows]
        assert [r.phi for r in swept.rows] == [r.phi for r in direct.rows]
        phi = np.array([r.phi for r in swept.rows])
        gap = np.abs(np.array([r.drift for r in swept.rows]) - [r.drift for r in direct.rows]) / phi
        assert gap.max() <= swept.rounding_bound + direct.rounding_bound
        assert gap.max() <= 1e-13
        assert 0.0 < swept.rounding_bound < 1e-9

    def test_whole_tie_level_larger_than_block(self):
        # Weights 1 and 2 with identity transforms: m = 10 gives tie levels of
        # up to 196 states, above the block size isqrt(10 * 2^10) = 101, and the
        # potential varies inside a level, so a split level or a tie counted as
        # rejected changes the drift.
        inst = dl.generate_instance(10, 0, "1/2", weight_scheme="uniform-int", weight_range=(1, 2),
                                    transforms=("identity", "identity"), rng=dl.RandomSource(1))
        assert largest_tie_level(inst) > math.isqrt(10 << 10)
        swept = dl.exhaustive_drift_check(inst)
        direct = dl.exhaustive_drift_check(inst, states=list(all_states(10)))
        for a, b in zip(swept.rows, direct.rows, strict=True):
            assert abs(a.drift - b.drift) <= 1e-13 * a.phi
        assert swept.min_ratio == pytest.approx(direct.min_ratio, rel=1e-13)

    def test_spot_states_against_independent_oracle(self):
        inst = dl.generate_instance(10, 2, "1/2", weight_scheme="uniform-int", weight_range=(1, 12),
                                    transforms=("square", "square_root"), rng=dl.RandomSource(21))
        data = inst.to_dict()
        rows = dl.exhaustive_drift_check(inst).rows
        for row in rows[:: len(rows) // 5]:
            x = ((row.state_index >> np.arange(inst.domain_size)) & 1).tolist()
            reference = oracle_exact_drift(data, x, inst.mutation_probability)
            assert row.drift == pytest.approx(reference, rel=1e-12, abs=1e-15)

    def test_certifies_m16(self):
        inst = dl.generate_instance(16, 0, "1/2", weight_scheme="uniform-int", weight_range=(1, 20),
                                    rng=dl.RandomSource(3))
        report = dl.exhaustive_drift_check(inst)
        assert len(report.rows) == (1 << 16) - 1
        assert report.passed
        assert report.min_ratio - report.rounding_bound >= report.delta_reference


class TestExactArithmetic:
    """The certificate's float drift/phi against exact arithmetic (oracle_exact)."""

    @pytest.mark.parametrize("case", [case for case, (make, _) in sorted(_SWEEP_CASES.items())
                                      if make().domain_size <= 10])
    def test_both_paths_within_rounding_bound_of_exact(self, case):
        make, p = _SWEEP_CASES[case]
        inst = make()
        exact = exact_ratios(inst.to_dict(), inst.mutation_probability if p is None else p)
        swept = dl.exhaustive_drift_check(inst, p=p)
        direct = dl.exhaustive_drift_check(inst, p=p, states=list(all_states(inst.domain_size)))
        for report in (swept, direct):
            codes, _, _, _, ratio = (column.tolist() for column in report.columns)
            assert max(abs(Fraction(r) - exact[u]) for u, r in zip(codes, ratio)) <= report.rounding_bound
            assert abs(Fraction(report.min_ratio) - min(exact[u] for u in codes)) <= report.rounding_bound

    def test_paper_rate_moves_exact_ratios_far_less_than_the_bound(self):
        # the certificate is exact arithmetic at the float p; the paper's p is 1/n
        inst = random_instance(5)
        data, n = inst.to_dict(), inst.n
        at_float = exact_ratios(data, inst.mutation_probability)
        at_paper = exact_ratios(data, Fraction(1, n))
        move = max(abs(at_paper[u] - at_float[u]) for u in at_float)
        assert 0 < move < 1e-3 * dl.exhaustive_drift_check(inst).rounding_bound


class TestDeltaUpper:
    """passed compares with delta+ >= the exact e^-3 (2 - e^alpha) / (2n)."""

    @pytest.mark.parametrize("alpha, n", [("1/2", 10), ("3/5", 10), ("9/13", 13), ("13/19", 19)])
    def test_encloses_the_exact_rate(self, alpha, n):
        mpmath = pytest.importorskip("mpmath")
        inst = dl.generate_instance(n, 0, alpha, weight_scheme="all-ones")
        a = Fraction(alpha)
        with mpmath.workdps(50):
            exact = mpmath.exp(-3) * (2 - mpmath.exp(mpmath.mpf(a.numerator) / a.denominator)) / (2 * n)
            upper = mpmath.mpf(dl.drift_rate_upper(inst))
            assert exact <= upper <= exact * (1 + mpmath.mpf("1e-12"))
        # the float delta sits next to the exact rate, on either side of it
        assert dl.drift_rate_reference(inst) == pytest.approx(float(exact), rel=1e-12)

    def test_onemax_passes_above_delta_upper(self):
        inst = dl.onemax(10)
        report = dl.exhaustive_drift_check(inst)
        assert dl.drift_rate_upper(inst) >= report.delta_reference
        margin = Fraction(report.min_ratio) - Fraction(report.rounding_bound)
        assert report.passed and margin >= Fraction(dl.drift_rate_upper(inst))
        assert report.min_ratio / report.delta_reference == pytest.approx(44.3, abs=0.05)

    def test_passed_compares_the_exact_margin_with_delta_upper(self, monkeypatch):
        inst = dl.generate_instance(13, 0, "9/13", weight_scheme="all-ones")
        report = dl.exhaustive_drift_check(inst)
        margin = Fraction(report.min_ratio) - Fraction(report.rounding_bound)
        below = above = float(margin)  # the floats next to the exact margin, on each side
        if Fraction(above) <= margin:
            above = math.nextafter(above, math.inf)
        else:
            below = math.nextafter(below, -math.inf)
        for upper, passed in ((below, True), (above, False)):
            monkeypatch.setattr(dl.drift, "drift_rate_upper", lambda instance: upper)
            assert dl.exhaustive_drift_check(inst).passed is passed


class TestOneEvaluationPath:
    """value, is_optimal, StateSpace, exact drift and the oracle share one
    pair rule: each part's exact sum, correctly rounded."""

    def test_value_statespace_and_oracle_agree_on_every_state(self):
        inst = float_weight_instance(("square", "square_root"))
        assert None not in inst.linear_form.scales  # both parts held as ints
        data = inst.to_dict()
        states = all_states(16)
        values = np.array([inst.value(x) for x in states])
        oracle = np.array([oracle_objective_value(data, x.tolist()) for x in states])
        assert np.array_equal(values, oracle)
        assert np.array_equal(dl.StateSpace(inst).f, values)

    def test_exact_drift_accepts_exactly_when_value_does(self):
        inst = float_weight_instance(("identity", "identity"))
        pot = dl.build_combined_potential(inst)
        space = dl.StateSpace(inst)
        states = all_states(16)
        values = np.array([inst.value(x) for x in states])
        probs = space.mask_probabilities(inst.mutation_probability)
        moved = space.codes != 0
        for u in (12345, 28086, 54321, 61680):
            sample = dl.exact_drift(inst, pot, states[u])
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

