"""Benchmark workloads: which CLI invocations run, and how their output is checked.

A workload is a plan of ``driftlab`` command lines for one round, made from
the workload seed and the round number alone, plus the checks applied to the
reports each invocation writes.  Invocations pass only flags the subcommand
honours (see README.md for the flags driftlab accepts but ignores).

An *operation* is one EA replicate (scale, escape, tail) or one certified
state (certify).  A replicate fails if it is censored, a state fails if its
drift ratio is below delta, and every operation of an invocation fails if the
invocation exits non-zero or its reports fail a check.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from driftlab import (
    RandomSource,
    exhaustive_drift_check,
    generate_instance,
    load_instance,
    onemax,
    save_instance,
)


@dataclass
class Invocation:
    """One `driftlab` command line and the facts its reports are checked against."""

    argv: list[str]
    csv_path: Path
    json_path: Path
    ops: int
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one invocation did, as far as its reports and exit code show."""

    ops: int
    failed: int = 0
    work: float = 0.0  # EA iterations, replicates or (state, mask) pairs; see README.md
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[..., list[Invocation]]
    check: Callable[[Invocation, dict, list[dict], Outcome], None]
    pooled: Callable[[list[Outcome]], dict[str, Optional[bool]]]


def derive_seed(*keys) -> int:
    """A 32-bit program seed fixed by the workload seed and the given keys."""
    digest = hashlib.sha256(":".join(str(k) for k in keys).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _outputs(workdir: Path, stem: str) -> tuple[Path, Path, list[str]]:
    csv_path = workdir / f"{stem}.csv"
    json_path = workdir / f"{stem}.json"
    return csv_path, json_path, ["--check", "--out", str(csv_path), "--json", str(json_path)]


def read_outcome(inv: Invocation, code: Optional[int], check) -> Outcome:
    """Parse both reports of a finished invocation and apply the workload's checks."""
    outcome = Outcome(ops=inv.ops)
    if code != 0:
        outcome.problems.append(f"{' '.join(inv.argv[:3])}: exit code {code}")
    else:
        try:
            with open(inv.json_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(inv.csv_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            check(inv, summary, rows, outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.problems.append(f"{inv.json_path.name}: unreadable report ({exc!r})")
    if outcome.problems:
        outcome.failed = outcome.ops
    return outcome


def paper_delta(n: int, alpha: float) -> float:
    """The paper's multiplicative drift rate e^-3 (2 - e^alpha) / (2n), computed here."""
    return math.exp(-3.0) * (2.0 - math.exp(alpha)) / (2.0 * n)


def _require(outcome: Outcome, ok: bool, message: str) -> None:
    if not ok:
        outcome.problems.append(message)


def _check_study(kind: str, inv: Invocation, summary: dict, rows: list[dict], outcome: Outcome):
    """Checks shared by the simulating studies; returns the JSON rows keyed by n."""
    _require(outcome, summary["kind"] == kind, f"report kind {summary['kind']!r}")
    _require(outcome, all(summary["checks"].values()), f"built-in checks {summary['checks']}")
    _require(outcome, len(rows) == len(summary["rows"]), "CSV and JSON row counts differ")
    by_n = {int(r["n"]): r for r in summary["rows"]}
    _require(outcome, sorted(by_n) == sorted(inv.info["sizes"]), f"rows for n={sorted(by_n)}")
    for n, row in by_n.items():
        _require(outcome, row["reps"] == inv.info["reps"], f"n={n}: reps {row['reps']}")
        _require(outcome, row["censored"] < row["reps"] and row["mean_T"] > 0, f"n={n}: no completed run")
        outcome.failed += row["censored"]
        outcome.work += row["mean_T"] * (row["reps"] - row["censored"])
    return by_n


# -- scale --------------------------------------------------------------------

SCALE_PRESETS = ("onemax", "separable", "chance")
ONEMAX_BAND = (2.0, 3.5)  # the acceptance band of the n*ln(n) coefficient
ONEMAX_MIN_REPS = 20  # pooled completed runs per size before the band is applied


def scale_plan(seed: int, rnd: int, workdir: Path, smoke: bool = False, serial: bool = False):
    # One size per invocation: the study's cross-size stability gate is sized
    # for 200 replicates and fails by chance at the few a round can afford.
    # One replicate per invocation keeps each timing sample short (see
    # run.round_time).
    sizes, reps = ((16, 32), 1) if smoke else ((64, 256, 512), 1)
    plan = []
    for preset in SCALE_PRESETS:
        for n in sizes:
            csv_path, json_path, tail = _outputs(workdir, f"scale-{preset}-{n}")
            argv = ["scale", "--preset", preset, "--n", str(n), "--reps", str(reps),
                    "--seed", str(derive_seed(seed, "scale", rnd, preset, n)), *tail]
            plan.append(Invocation(argv, csv_path, json_path, reps,
                                   {"preset": preset, "sizes": [n], "reps": reps}))
    return plan


def scale_check(inv, summary, rows, outcome):
    by_n = _check_study("scale", inv, summary, rows, outcome)
    for n, row in by_n.items():
        expected = row["mean_T"] / (n * math.log(n))
        _require(outcome, math.isclose(row["ratio_nlogn"], expected, rel_tol=1e-12),
                 f"n={n}: ratio_nlogn {row['ratio_nlogn']} != mean_T/(n ln n) {expected}")
        outcome.facts[(inv.info["preset"], n)] = (row["reps"] - row["censored"], row["mean_T"])


def _pooled_means(outcomes: list[Outcome], key_filter) -> dict:
    totals: dict = {}
    for outcome in outcomes:
        for key, (count, mean) in outcome.facts.items():
            if key_filter(key):
                done, weighted = totals.get(key[-1], (0, 0.0))
                totals[key[-1]] = (done + count, weighted + count * mean)
    return {n: (done, weighted / done) for n, (done, weighted) in totals.items() if done}


def scale_pooled(outcomes):
    means = _pooled_means(outcomes, lambda key: key[0] == "onemax")
    name = f"onemax n*ln(n) coefficient in {list(ONEMAX_BAND)}"
    if not means or min(done for done, _ in means.values()) < ONEMAX_MIN_REPS:
        return {name: None}
    g = {n: n * math.log(n) for n in means}
    coefficient = sum(mean * g[n] for n, (_, mean) in means.items()) / sum(v * v for v in g.values())
    return {name: ONEMAX_BAND[0] <= coefficient <= ONEMAX_BAND[1]}


# -- certify ------------------------------------------------------------------

# (m, s, alpha, weight scheme, transform pair, sampled states or None for all).
# Nominal n = m + s; s runs over 0, 1 and about m/2.
CERTIFY_CASES = (
    (12, 0, "1/2", "uniform-int", "square,square_root", None),
    (12, 1, "7/13", "all-ones", "identity,square", None),
    (12, 6, "1/2", "doubling", "square_root,scaled_square_root", None),
    (10, 0, "3/5", "doubling", "square,identity", None),
    (10, 1, "6/11", "uniform-int", "scaled_square_root,square_root", None),
    (10, 5, "8/15", "all-ones", "square,square_root", None),
    (16, 2, "1/2", "uniform-int", "square,square_root", 8),
    (20, 0, "1/2", "uniform-int", "square_root,square", 8),
)
CERTIFY_SMOKE_CASES = (
    (8, 0, "1/2", "uniform-int", "square,square_root", None),
    (8, 3, "6/11", "doubling", "identity,scaled_square_root", None),
    (12, 0, "1/2", "all-ones", "square_root,square", 4),
)


def certify_plan(seed: int, rnd: int, workdir: Path, smoke: bool = False, serial: bool = False):
    plan = []
    cases = CERTIFY_SMOKE_CASES if smoke else CERTIFY_CASES
    for k, (m, s, alpha, weights, transforms, states) in enumerate(cases):
        instance = generate_instance(
            m + s, s, Fraction(alpha), weight_scheme=weights,
            transforms=tuple(transforms.split(",")),
            rng=RandomSource(derive_seed(seed, "certify", rnd, k)),
        )
        instance_path = workdir / f"certify-{k}-instance.json"
        save_instance(instance, instance_path)
        csv_path, json_path, tail = _outputs(workdir, f"certify-{k}")
        argv = ["drift", "--instance", str(instance_path), *tail]
        positive = int(((instance.extended_weights(0) > 0) | (instance.extended_weights(1) > 0)).sum())
        if states is None:
            ops = (1 << m) - (1 << (m - positive))
        else:
            ops = states
            argv += ["--states", str(states), "--seed", str(derive_seed(seed, "states", rnd, k))]
        # Round 0 cross-checks every full sweep against the library; later
        # rounds take turns, one case each, so the run does not double in length.
        cross_check = states is None and (rnd == 0 or k == rnd % len(cases))
        plan.append(Invocation(argv, csv_path, json_path, ops,
                               {"m": m, "instance": instance_path, "all_states": states is None,
                                "cross_check": cross_check}))
    return plan


def certify_check(inv, summary, rows, outcome):
    with open(inv.info["instance"], encoding="utf-8") as fh:
        spec = json.load(fh)
    delta = paper_delta(int(spec["n"]), int(spec["alpha_num"]) / int(spec["alpha_den"]))
    _require(outcome, math.isclose(summary["delta_ref"], delta, rel_tol=1e-12),
             f"delta_ref {summary['delta_ref']} is not the paper's delta {delta}")
    _require(outcome, summary["pass"] is True, "summary pass is not true")
    _require(outcome, summary["min_ratio"] / delta >= 1.0, f"min_ratio/delta {summary['min_ratio'] / delta}")
    ratios = [float(r["ratio"]) for r in rows]
    _require(outcome, bool(ratios) and min(ratios) == summary["min_ratio"], "CSV minimum ratio differs from summary")
    if inv.info["all_states"]:
        _require(outcome, len(rows) == inv.ops, f"{len(rows)} states swept, expected 2^m - optimal = {inv.ops}")
    else:
        _require(outcome, 1 <= len(rows) <= inv.ops, f"{len(rows)} sampled states, asked for {inv.ops}")
        outcome.ops = len(rows)
    outcome.failed += sum(1 for ratio in ratios if ratio < delta)
    outcome.work = len(rows) * float(1 << inv.info["m"])
    if inv.info["cross_check"]:
        reference = exhaustive_drift_check(load_instance(inv.info["instance"])).min_ratio
        _require(outcome, abs(summary["min_ratio"] - reference) <= 1e-12,
                 f"min_ratio {summary['min_ratio']} != library {reference}")


def no_pooled_checks(outcomes):
    return {}


# -- escape -------------------------------------------------------------------

ESCAPE_BAND = (3.0, 5.3)  # mean escape time at n=32 over n=16 (~n^2 growth)
ESCAPE_MIN_REPS = 200


def escape_plan(seed: int, rnd: int, workdir: Path, smoke: bool = False, serial: bool = False):
    sizes, reps = ((8, 16), 4) if smoke else ((16, 32, 64), 20)
    csv_path, json_path, tail = _outputs(workdir, "escape")
    argv = ["escape", "--n", ",".join(map(str, sizes)), "--reps", str(reps),
            "--workers", "1" if serial else "2",
            "--seed", str(derive_seed(seed, "escape", rnd)), *tail]
    return [Invocation(argv, csv_path, json_path, reps * len(sizes), {"sizes": list(sizes), "reps": reps})]


def escape_check(inv, summary, rows, outcome):
    for n, row in _check_study("escape", inv, summary, rows, outcome).items():
        outcome.facts[("escape", n)] = (row["reps"] - row["censored"], row["mean_T"])


def escape_pooled(outcomes):
    means = _pooled_means(outcomes, lambda key: True)
    name = f"escape mean n=32 / n=16 in {list(ESCAPE_BAND)}"
    if 16 not in means or 32 not in means or min(means[16][0], means[32][0]) < ESCAPE_MIN_REPS:
        return {name: None}
    return {name: ESCAPE_BAND[0] <= means[32][1] / means[16][1] <= ESCAPE_BAND[1]}


# -- tail ---------------------------------------------------------------------

TAIL_N = 10
TAIL_ALPHA = 0.5  # alpha of driftlab's onemax preset


def tail_plan(seed: int, rnd: int, workdir: Path, smoke: bool = False, serial: bool = False):
    # A thousand replicates a round, split over four invocations so each
    # timing sample stays short; each invocation certifies its own delta.
    reps = 50 if smoke else 250
    plan = []
    for k in range(4):
        csv_path, json_path, tail = _outputs(workdir, f"tail-{k}")
        argv = ["tail", "--preset", "onemax", "--n", str(TAIL_N), "--reps", str(reps),
                "--seed", str(derive_seed(seed, "tail", rnd, k)), *tail]
        plan.append(Invocation(argv, csv_path, json_path, reps, {"reps": reps}))
    return plan


@functools.cache
def _onemax_min_ratio(n: int) -> float:
    return exhaustive_drift_check(onemax(n)).min_ratio


def tail_check(inv, summary, rows, outcome):
    # Tail runs stop at the r=3 threshold by design: a run cut there is an
    # exceedance the study counts, not a failed replicate.
    reps = inv.info["reps"]
    delta = paper_delta(TAIL_N, TAIL_ALPHA)
    _require(outcome, summary["kind"] == "tail", f"report kind {summary['kind']!r}")
    _require(outcome, all(summary["checks"].values()), f"built-in checks {summary['checks']}")
    _require(outcome, _onemax_min_ratio(TAIL_N) / delta >= 1.0, "onemax drift margin below 1")
    _require(outcome, math.isclose(summary["extras"]["delta"], delta, rel_tol=1e-12),
             f"delta {summary['extras']['delta']} is not the paper's delta {delta}")
    _require(outcome, 0 < summary["extras"]["replicates_counted"] <= reps, "replicates_counted out of range")
    _require(outcome, [float(r["r"]) for r in rows] == [1.0, 2.0, 3.0], "tail rows are not r = 1, 2, 3")
    for row in summary["rows"]:
        freq, bound = row["exceed_freq"], row["bound"]
        _require(outcome, bound == math.exp(-row["r"]), f"r={row['r']}: bound {bound} is not e^-r")
        _require(outcome, freq - bound <= 3.0 * math.sqrt(freq * (1.0 - freq) / reps),
                 f"r={row['r']}: exceedance {freq} above e^-r {bound}")
    outcome.work = reps


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale", scale_plan, scale_check, scale_pooled),
        Workload("certify", certify_plan, certify_check, no_pooled_checks),
        Workload("escape", escape_plan, escape_check, escape_pooled),
        Workload("tail", tail_plan, tail_check, no_pooled_checks),
    )
}
