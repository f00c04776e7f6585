"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
every expected value is either exact arithmetic, an independently coded
oracle, or a statistical band around a fixed-seed Monte-Carlo estimate.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtri

import driftlab as dl
from driftlab.experiments import ExperimentConfig
from oracle_drift import exact_drift as oracle_exact_drift
from oracle_normal import normal_cdf


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_potential_identities():
    gen = dl.RandomSource(101).generator
    worst_flip = 0.0
    for _ in range(1000):
        k = int(gen.integers(1, 30))
        n = int(gen.integers(2, 128))
        weights = np.sort(gen.integers(0, 9, size=k).astype(float))
        for i in range(k):
            worst_flip = max(worst_flip, abs(dl.single_flip_drift_value(weights, n, i) - 1.0))
    flip_ok = worst_flip <= 1e-12

    worst_series = 0.0
    chain_ok = True
    slack = 2.0 - math.exp(0.5)
    n = 4
    while n <= 1024:
        for k in range(1, n + 1):
            series = dl.zero_gain_series(k, n)
            closed = (1.0 + 1.0 / n) ** k - 1.0
            worst_series = max(worst_series, abs(series - closed) / closed)
        balanced = dl.zero_gain_series(n // 2, n)
        chain_ok &= balanced <= math.exp(0.5) - 1.0 + 1e-12
        chain_ok &= math.exp(0.5) - 1.0 <= 1.0 - slack + 1e-12
        n *= 2
    series_ok = worst_series <= 1e-12

    report(
        1,
        "single-flip identity and zero-gain closed form",
        flip_ok and series_ok and chain_ok,
        f"max flip dev {worst_flip:.2e}, max series rel dev {worst_series:.2e}",
    )


def _certification_instances():
    """21 small instances covering overlap modes, transforms and weights."""
    scaled = dl.compose(dl.scale(2.0), dl.square_root())
    pairs = [
        (dl.identity(), dl.identity()),
        (dl.square(), dl.square_root()),
        (dl.square_root(), dl.square()),
        (dl.identity(), scaled),
        (dl.square(), scaled),
        (scaled, dl.square_root()),
        (dl.square_root(), dl.identity()),
    ]
    schemes = ["uniform-int", "doubling", "all-ones"]
    # (n, s) choices per overlap mode: s = 0, s = 1, s = m/2
    mode_sizes = {
        "zero": [(8, 0), (10, 0), (12, 0)],
        "one": [(10, 1), (12, 1)],
        "half": [(12, 4), (18, 6)],
    }
    instances = []
    counter = 0
    for mode, sizes in mode_sizes.items():
        for pair in pairs:
            n, s = sizes[counter % len(sizes)]
            scheme = schemes[counter % len(schemes)]
            instances.append(
                dl.generate_instance(
                    n, s, Fraction(1, 2),
                    weight_scheme=scheme, weight_range=(1, 10),
                    transforms=pair,
                    embedding_scheme="random" if counter % 2 else "canonical",
                    rng=dl.RandomSource(300 + counter),
                )
            )
            counter += 1
    return instances


def test_criterion_2_drift_certification():
    instances = _certification_instances()
    assert len(instances) >= 20
    worst_margin = math.inf
    all_pass = True
    for inst in instances:
        assert inst.domain_size <= 12
        rep = dl.exhaustive_drift_check(inst)
        expected_delta = math.exp(-3.0) * (2.0 - math.exp(0.5)) / (2.0 * inst.n)
        assert rep.delta_reference == expected_delta
        all_pass &= rep.passed
        worst_margin = min(worst_margin, rep.min_ratio / rep.delta_reference)
    report(
        2,
        f"exact drift >= delta*potential on {len(instances)} exhaustive instances",
        all_pass,
        f"worst min_ratio/delta {worst_margin:.2f}",
    )


def test_criterion_3_oracle_equivalence():
    gen = dl.RandomSource(500).generator
    kinds = ["identity", "square", "square_root", "scaled_square_root"]
    worst = 0.0
    pairs = 0
    for k in range(100):
        n = int(gen.choice([8, 10]))
        s = int(gen.integers(0, 4))
        inst = dl.generate_instance(
            n, s, Fraction(1, 2),
            weight_scheme="uniform-int", weight_range=(1, 20),
            transforms=(str(gen.choice(kinds)), str(gen.choice(kinds))),
            embedding_scheme="random" if k % 2 else "canonical",
            rng=dl.RandomSource(700 + k),
        )
        data = inst.to_dict()
        pot = dl.build_combined_potential(inst)
        p = inst.mutation_probability
        for _ in range(10):
            x = gen.integers(0, 2, inst.domain_size, dtype=np.uint8)
            mine = dl.exact_drift(inst, pot, x).drift
            reference = oracle_exact_drift(data, x.tolist(), p)
            scale = max(abs(reference), 1e-30)
            if reference == 0.0:
                worst = max(worst, abs(mine))
            else:
                worst = max(worst, abs(mine - reference) / scale)
            pairs += 1
    report(3, f"exact drift matches brute-force oracle on {pairs} pairs", worst <= 1e-12,
           f"worst rel dev {worst:.2e}")


def test_criterion_4_runtime_scaling():
    sizes = (64, 128, 256, 512)
    results = {}
    for preset in ("onemax", "separable", "chance"):
        cfg = ExperimentConfig(kind="scale", n_values=sizes, preset=preset,
                               replicates=200, seed=2024)
        bundle = dl.scaling_study(cfg)
        assert all(r.censored == 0 for r in bundle.rows)
        ratios = [r.ratio_nlogn for r in bundle.rows]
        fit = dl.fit_nlogn(bundle.rows)
        results[preset] = (max(ratios) / min(ratios), fit)
    ok = True
    details = []
    for preset, (spread, fit) in results.items():
        ok &= spread <= 1.4
        ok &= 0.9 <= fit.power_exponent <= 1.25
        details.append(f"{preset}: spread {spread:.3f}, q {fit.power_exponent:.3f}")
    onemax_c = results["onemax"][1].nlogn_coefficient
    ok &= 2.0 <= onemax_c <= 3.5
    details.append(f"onemax c {onemax_c:.3f}")
    report(4, "hitting times scale as n*log(n) on all three families", ok, "; ".join(details))


def test_criterion_5_tail_bounds():
    cfg = ExperimentConfig(
        kind="tail", n_values=(10,), preset="onemax",
        replicates=10_000, seed=77, r_values=(1.0, 2.0, 3.0),
    )
    bundle = dl.tail_study(cfg)
    ok = True
    details = []
    for row in bundle.rows:
        se = math.sqrt(row.exceed_freq * (1 - row.exceed_freq) / cfg.replicates)
        ok &= row.exceed_freq <= row.bound + 3 * se
        details.append(f"r={row.r:g}: {row.exceed_freq:.4f} <= {row.bound:.4f}")
    report(5, "tail exceedance within e^-r over 10^4 runs", ok, "; ".join(details))


def test_criterion_6_multimodal_structure():
    structure_ok = True
    for n in range(4, 17):
        inst = dl.MultimodalInstance(n)
        # strict local optimality of each single-one-bit point at positions 2..n
        for j in range(1, n):
            x = inst.local_optimum(j)
            fx = inst.value(x)
            for i in range(n):
                y = x.copy()
                y[i] ^= 1
                structure_ok &= inst.value(y) > fx
        # unique global minimum over the whole cube
        best_code, best_val = None, math.inf
        for code in range(1 << n):
            x = ((code >> np.arange(n)) & 1).astype(np.uint8)
            v = inst.value(x)
            if v < best_val:
                best_code, best_val = code, v
        structure_ok &= best_code == 1  # LSB set = one-bit at position 0
        structure_ok &= inst.is_optimal(((best_code >> np.arange(n)) & 1).astype(np.uint8))

    cfg = ExperimentConfig(kind="escape", n_values=(16, 32, 64), replicates=200, seed=55)
    bundle = dl.escape_study(cfg)
    assert all(r.censored == 0 for r in bundle.rows)
    fit = dl.fit_nlogn(bundle.rows)
    q = fit.power_exponent
    means = {r.n: r.mean_T for r in bundle.rows}
    doubling = means[32] / means[16]
    ok = structure_ok and 1.7 <= q <= 2.3 and 3.0 <= doubling <= 5.3
    report(
        6,
        "single-one-bit points are strict local optima; escape time ~ n^2",
        ok,
        f"escape exponent {q:.3f}, doubling ratio {doubling:.2f}",
    )


def test_criterion_7_chance_consistency():
    gen = dl.RandomSource(900).generator
    level_ok = True
    identity_ok = True
    details = []
    for k in range(10):
        m = int(gen.integers(3, 11))
        c = dl.ChanceInstance(
            gen.uniform(0.5, 10, m), gen.uniform(0.5, 2, m), float(gen.uniform(0.55, 0.99))
        )
        probe = gen.integers(0, 2, m, dtype=np.uint8)
        if probe.sum() == 0:
            probe[0] = 1
        g = dl.build_chance(c).value(probe)
        identity_ok &= abs((g - c.mean_value(probe)) / c.std_value(probe) - c.fractile) <= 1e-12 * abs(c.fractile)
        level = dl.chance_level_check(c, probe, 10**6, dl.RandomSource(910 + k))
        level_ok &= abs(level - c.confidence) <= 0.003
    details.append("10 probe levels within 0.003")

    grid = np.linspace(1e-8, 1 - 1e-8, 1000)
    worst = 0.0
    for level in grid:
        k = float(ndtri(level))
        assert k == dl.normal_quantile(level)
        worst = max(worst, abs(float(normal_cdf(k)) - level))
    quantile_ok = worst <= 1e-9
    details.append(f"max |cdf(quantile)-level| {worst:.1e}")

    report(7, "chance levels, algebraic identity, quantile accuracy",
           level_ok and identity_ok and quantile_ok, "; ".join(details))
