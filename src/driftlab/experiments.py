"""Experiment drivers: runtime scaling, drift sweeps, tail checks, demos.

Every study consumes an :class:`ExperimentConfig` and returns a
:class:`ReportBundle` whose config echo is complete enough to re-run the
experiment.  The EA studies (scale, escape, tail, chance, run) build one job
per replicate, each with its own child stream of the master seed, and run them
all through :func:`_run_replicates`.  Outputs are deterministic byte-for-byte
for a fixed config: aggregation happens in replicate-index order and reports
carry no timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .version import __version__
from .drift import ALL_STATES_CAP, drift_time_bounds, exhaustive_drift_check
from .ea import EAConfig, RunTrace, default_budget, run_ea
from .objectives import (
    ChanceInstance,
    MultimodalInstance,
    build_chance,
    build_separable,
    chance_level_check,
    generate_instance,
    load_chance_instance,
    load_instance,
    onemax,
)
from .potential import build_combined_potential
from .rng import RandomSource

KINDS = ("scale", "drift", "escape", "tail", "chance", "run")
MULTI_SIZE_KINDS = ("scale", "escape")  # every other study runs one size
PRESETS = ("onemax", "separable", "chance")


def _items(value) -> tuple:
    """A comma-separated string or a single value as a tuple of items."""
    if isinstance(value, str):
        return tuple(v for v in value.split(",") if v != "")
    try:
        return tuple(value)
    except TypeError:
        return (value,)


@dataclass
class ExperimentConfig:
    """Complete description of one experiment; round-trips through to_dict."""

    kind: str
    n_values: tuple = ()
    s: int = 0
    alpha: Fraction = Fraction(1, 2)
    preset: Optional[str] = None
    weight_scheme: str = "uniform-int"
    weight_low: int = 1
    weight_high: int = 100
    transforms: tuple = ("square", "square_root")
    embedding: str = "canonical"
    replicates: int = 200
    seed: int = 1
    budget_multiplier: float = 20.0
    budget: Optional[int] = None
    workers: int = 1
    fresh_instances: bool = False
    r_values: tuple = (1.0, 2.0, 3.0)
    delta: Optional[float] = None
    states: Optional[int] = None  # drift: sampled states; None sweeps every state
    mutation_probability: Optional[float] = None  # drift: overrides the instance's 1/n
    confidence: float = 0.9
    level_samples: int = 1_000_000
    probes: int = 3
    exponent: Optional[int] = None
    trace_stride: int = 0
    instance_file: Optional[str] = None
    out_csv: Optional[str] = None
    out_json: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        self.n_values = tuple(int(n) for n in _items(self.n_values))
        if not self.n_values:
            raise ValueError("at least one problem size n is required")
        if any(n < 1 for n in self.n_values):
            raise ValueError("problem sizes must be positive")
        if len(self.n_values) > 1 and self.kind not in MULTI_SIZE_KINDS:
            raise ValueError(f"{self.kind} runs one size, got {list(self.n_values)}")
        if len(self.n_values) > 1 and self.instance_file:
            raise ValueError(f"an instance file fixes one size, got {list(self.n_values)}")
        self.alpha = Fraction(self.alpha)
        self.transforms = _items(self.transforms)
        self.r_values = tuple(float(r) for r in _items(self.r_values))
        if not all(math.isfinite(r) and r >= 0.0 for r in self.r_values):
            raise ValueError(
                f"tail parameters r must be finite and non-negative, got {list(self.r_values)}"
            )
        if self.replicates < 1:
            raise ValueError("replicate count must be at least 1")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.states is not None and self.states < 1:
            raise ValueError("sampled state count must be at least 1")
        if self.mutation_probability is not None and not 0.0 < self.mutation_probability <= 1.0:
            raise ValueError("mutation probability must lie in (0, 1]")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["alpha"] = f"{self.alpha.numerator}/{self.alpha.denominator}"
        d["n_values"] = list(self.n_values)
        d["transforms"] = list(self.transforms)
        d["r_values"] = list(self.r_values)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        kwargs = dict(d)
        if "alpha" in kwargs:
            kwargs["alpha"] = Fraction(kwargs["alpha"])
        return ExperimentConfig(**kwargs)


@dataclass
class ScalingRow:
    n: int
    s: int
    alpha: str
    reps: int
    censored: int
    mean_T: float
    sd_T: float
    median_T: float
    ratio_nlogn: float


@dataclass
class EscapeRow:
    n: int
    reps: int
    censored: int
    mean_T: float
    sd_T: float


@dataclass
class TailRow:
    r: float
    threshold: float
    exceed_freq: float
    bound: float
    violation: bool


@dataclass
class ChanceRow:
    probe: str
    g_value: float
    empirical_level: float
    alpha_c: float


@dataclass
class RunRow:
    replicate: int
    hitting_time: Optional[int]
    accepted_steps: int
    budget_exhausted: bool


@dataclass
class FitResult:
    """Least-squares fits of mean runtimes against c*n*ln(n) and c*n^q."""

    nlogn_coefficient: float
    nlogn_rms_residual: float
    power_coefficient: float
    power_exponent: float
    power_rms_log_residual: float


@dataclass
class ReportBundle:
    """Everything one study produced, sufficient to reproduce it."""

    kind: str
    config: dict
    rows: list
    fits: Optional[dict]
    environment: dict
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    # What write_json writes instead of the bundle, for the kinds whose JSON
    # report has a format of its own: drift's summary and run's traces
    # (objects with a to_json_dict method are converted on writing).
    json_document: object = None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "rows": [asdict(r) for r in self.rows],
            "fits": self.fits,
            "environment": self.environment,
            "checks": self.checks,
            "notes": self.notes,
            "extras": self.extras,
        }

    def write_json(self, path) -> None:
        document = self.to_json_dict() if self.json_document is None else self.json_document
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True, default=lambda obj: obj.to_json_dict())
            fh.write("\n")

    def write_csv(self, path) -> None:
        columns = CSV_COLUMNS[self.kind]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in self.rows:
                writer.writerow([getattr(row, c) for c in columns])


CSV_COLUMNS = {
    "scale": ["n", "s", "alpha", "reps", "censored", "mean_T", "sd_T", "median_T", "ratio_nlogn"],
    "drift": ["state_index", "ones", "phi", "drift", "ratio"],
    "escape": ["n", "reps", "mean_T", "sd_T"],
    "tail": ["r", "threshold", "exceed_freq", "bound"],
    "chance": ["probe", "g_value", "empirical_level", "alpha_c"],
    "run": ["replicate", "hitting_time", "accepted_steps", "budget_exhausted"],
}


def _environment(cfg: ExperimentConfig) -> dict:
    return {"artifact": "driftlab", "version": __version__, "seed": cfg.seed}


def _chance_preset(m: int, confidence: float) -> ChanceInstance:
    """The chance preset on m items: expected weights 1..m, unit variances."""
    return ChanceInstance(np.arange(1, m + 1, dtype=float), np.ones(m), confidence)


def build_objective(cfg: ExperimentConfig, n: int, rng: RandomSource):
    """Instance factory shared by all studies; the instance's n is always n."""
    if cfg.instance_file:
        instance = load_instance(cfg.instance_file)
        if instance.n != n:
            raise ValueError(f"instance file {cfg.instance_file} has n={instance.n}, not n={n}")
        return instance
    if cfg.preset == "onemax":
        return onemax(n)
    if cfg.preset == "separable":
        if n < 2 or n % 2:
            raise ValueError("separable preset needs an even n >= 2")
        gen = rng.generator
        half = n // 2
        lo, hi = cfg.weight_low, cfg.weight_high
        return build_separable(
            gen.integers(lo, hi + 1, size=half).astype(float),
            gen.integers(lo, hi + 1, size=half).astype(float),
        )
    if cfg.preset == "chance":
        if n < 2 or n % 2:
            raise ValueError("chance preset needs an even nominal n >= 2 (n = 2m)")
        return build_chance(_chance_preset(n // 2, cfg.confidence))
    return generate_instance(
        n,
        cfg.s,
        cfg.alpha,
        weight_scheme=cfg.weight_scheme,
        weight_range=(cfg.weight_low, cfg.weight_high),
        transforms=cfg.transforms,
        embedding_scheme=cfg.embedding,
        rng=rng,
    )


def _replicate(job) -> RunTrace:
    instance, config, rng, initial, potential = job
    return run_ea(instance, config, rng, initial=initial, potential=potential)


def _run_replicates(jobs: list, workers: int = 1) -> list[RunTrace]:
    """The replicate engine: run (instance, EAConfig, RandomSource, initial or
    None, potential or None) jobs, serially or on `workers` processes.

    Traces come back in job order.  Each job carries its own stream, so the
    results do not depend on `workers`.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [_replicate(job) for job in jobs]
    chunk = max(1, len(jobs) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replicate, jobs, chunksize=chunk))


def _time_stats(traces: list) -> tuple[int, float, float, float]:
    """(censored count, mean, sd, median) of the hitting times of the completed runs only."""
    completed = [t.hitting_time for t in traces if t.hitting_time is not None]
    censored = len(traces) - len(completed)
    if not completed:
        return censored, math.nan, math.nan, math.nan
    mean = statistics.fmean(completed)
    sd = statistics.stdev(completed) if len(completed) > 1 else 0.0
    return censored, mean, sd, float(statistics.median(completed))


def fit_nlogn(rows: Sequence) -> FitResult:
    """Fit mean runtimes to c*n*ln(n), and to c*n^q in log space."""
    points = []
    for row in rows:
        if hasattr(row, "n"):
            points.append((float(row.n), float(row.mean_T)))
        else:
            n, t = row
            points.append((float(n), float(t)))
    if len({n for n, _ in points}) < 3:
        raise ValueError("need at least 3 distinct sizes to fit")
    if any(not t > 0 or math.isnan(t) for _, t in points):
        raise ValueError("all mean runtimes must be positive to fit")
    ns = np.array([n for n, _ in points])
    ts = np.array([t for _, t in points])
    g = ns * np.log(ns)
    c = float((ts @ g) / (g @ g))
    rms = float(np.sqrt(np.mean((ts - c * g) ** 2)))
    slope, intercept = np.polyfit(np.log(ns), np.log(ts), 1)
    log_resid = np.log(ts) - (slope * np.log(ns) + intercept)
    return FitResult(
        nlogn_coefficient=c,
        nlogn_rms_residual=rms,
        power_coefficient=float(math.exp(intercept)),
        power_exponent=float(slope),
        power_rms_log_residual=float(np.sqrt(np.mean(log_resid**2))),
    )


def _fit_dict(rows) -> Optional[dict]:
    try:
        return asdict(fit_nlogn(rows))
    except ValueError:
        return None


def scaling_study(cfg: ExperimentConfig) -> ReportBundle:
    """Mean hitting times across a size grid, normalized by n*ln(n)."""
    if cfg.kind != "scale":
        raise ValueError(f"expected kind 'scale', got {cfg.kind!r}")
    root = RandomSource(cfg.seed)
    rows = []
    for idx, n in enumerate(cfg.n_values):
        source = root.spawn(idx)
        config = EAConfig(max_iterations=cfg.budget or default_budget(n, cfg.budget_multiplier))
        if cfg.fresh_instances:
            # replicate j: its instance from (i, j+1, 0), its run from (i, j+1, 1)
            reps = [source.spawn(rep + 1) for rep in range(cfg.replicates)]
            jobs = [(build_objective(cfg, n, r.spawn(0)), config, r.spawn(1), None, None) for r in reps]
        else:
            instance = build_objective(cfg, n, source.spawn(0))
            jobs = [(instance, config, source.spawn(rep + 1), None, None) for rep in range(cfg.replicates)]
        censored, mean, sd, median = _time_stats(_run_replicates(jobs, cfg.workers))
        ratio = mean / (n * math.log(n)) if n > 1 else math.nan
        # every instance of one size has the s and alpha of the first
        first = jobs[0][0]
        rows.append(
            ScalingRow(
                n=n,
                s=first.s,
                alpha=f"{first.alpha.numerator}/{first.alpha.denominator}",
                reps=cfg.replicates,
                censored=censored,
                mean_T=mean,
                sd_T=sd,
                median_T=median,
                ratio_nlogn=ratio,
            )
        )
    checks = {"censoring_at_most_1pct": all(r.censored <= 0.01 * r.reps for r in rows)}
    ratios = [r.ratio_nlogn for r in rows if not math.isnan(r.ratio_nlogn)]
    if len(ratios) >= 2:
        checks["ratio_stability_1.4"] = max(ratios) / min(ratios) <= 1.4
    return ReportBundle(
        kind="scale",
        config=cfg.to_dict(),
        rows=rows,
        fits=_fit_dict(rows),
        environment=_environment(cfg),
        checks=checks,
    )


def escape_study(cfg: ExperimentConfig) -> ReportBundle:
    """Time to reach the global optimum from a planted local optimum."""
    if cfg.kind != "escape":
        raise ValueError(f"expected kind 'escape', got {cfg.kind!r}")
    root = RandomSource(cfg.seed)
    rows = []
    for idx, n in enumerate(cfg.n_values):
        instance = MultimodalInstance(n, cfg.exponent or 0)
        budget = cfg.budget or max(100, math.ceil(cfg.budget_multiplier * math.e * n * n))
        config = EAConfig(max_iterations=budget)
        source = root.spawn(idx)
        start = instance.local_optimum(1)
        jobs = [(instance, config, source.spawn(rep + 1), start, None) for rep in range(cfg.replicates)]
        censored, mean, sd, _ = _time_stats(_run_replicates(jobs, cfg.workers))
        rows.append(EscapeRow(n=n, reps=cfg.replicates, censored=censored, mean_T=mean, sd_T=sd))
    checks = {"censoring_at_most_1pct": all(r.censored <= 0.01 * r.reps for r in rows)}
    return ReportBundle(
        kind="escape",
        config=cfg.to_dict(),
        rows=rows,
        fits=_fit_dict(rows),
        environment=_environment(cfg),
        checks=checks,
    )


def tail_study(cfg: ExperimentConfig) -> ReportBundle:
    """Empirical exceedance of the drift-theorem tail thresholds.

    The drift rate is either supplied (cfg.delta) or certified by exhaustive
    enumeration on the instance (needs domain size <= ALL_STATES_CAP).  Each replicate
    uses its own start potential; thresholds are per-run and the reported
    threshold column is the across-run mean for each r.
    """
    if cfg.kind != "tail":
        raise ValueError(f"expected kind 'tail', got {cfg.kind!r}")
    n = cfg.n_values[0]
    root = RandomSource(cfg.seed)
    instance = build_objective(cfg, n, root.spawn(0))
    notes = []
    if cfg.delta is not None:
        delta = float(cfg.delta)
        notes.append(f"using supplied drift rate delta={delta}")
    else:
        if instance.domain_size > ALL_STATES_CAP:
            raise ValueError(
                f"no certified drift rate: domain size > {ALL_STATES_CAP} and no --delta supplied"
            )
        report = exhaustive_drift_check(instance)
        if not report.passed:
            raise ValueError("exhaustive drift check failed; no certified drift rate")
        delta = report.delta_reference
        notes.append(
            f"certified delta={delta} (min observed ratio {report.min_ratio})"
        )
    if not 0.0 < delta < 1.0:
        raise ValueError("drift rate must lie in (0, 1)")

    potential = build_combined_potential(instance)
    floor = 1.0  # every nonzero state carries a coefficient >= 1
    jobs, time_bounds = [], []
    for rep in range(cfg.replicates):
        # replicate j draws its start from (j+1,), then runs on the same stream
        source = root.spawn(rep + 1)
        x0 = source.generator.integers(0, 2, instance.domain_size, dtype=np.uint8)
        start = potential.value(x0)
        if instance.is_optimal(x0):
            # T = 0 never exceeds a positive threshold; no threshold is defined
            # for a zero start potential.
            continue
        time_bound = drift_time_bounds(start, floor, delta, cfg.r_values)
        budget = max(1, math.ceil(max(point.threshold for point in time_bound.tail)))
        jobs.append((instance, EAConfig(max_iterations=budget), source, x0, None))
        time_bounds.append(time_bound)
    traces = _run_replicates(jobs)
    counted = len(jobs)
    exceed = [0] * len(cfg.r_values)
    threshold_sums = [0.0] * len(cfg.r_values)
    for trace, time_bound in zip(traces, time_bounds):
        for i, point in enumerate(time_bound.tail):
            threshold_sums[i] += point.threshold
            if trace.hitting_time is None or trace.hitting_time > point.threshold:
                exceed[i] += 1
    rows = []
    for i, r in enumerate(cfg.r_values):
        freq = exceed[i] / cfg.replicates
        bound = math.exp(-r)
        se = math.sqrt(freq * (1.0 - freq) / cfg.replicates)
        rows.append(
            TailRow(
                r=r,
                threshold=threshold_sums[i] / counted if counted else math.nan,
                exceed_freq=freq,
                bound=bound,
                violation=freq - bound > 3.0 * se,
            )
        )
    return ReportBundle(
        kind="tail",
        config=cfg.to_dict(),
        rows=rows,
        fits=None,
        environment=_environment(cfg),
        checks={"no_tail_violation": not any(r.violation for r in rows)},
        notes=notes,
        extras={"delta": delta, "replicates_counted": counted},
    )


def chance_demo(cfg: ExperimentConfig) -> ReportBundle:
    """Optimize the chance fitness, then verify guarantee levels at probes."""
    if cfg.kind != "chance":
        raise ValueError(f"expected kind 'chance', got {cfg.kind!r}")
    m = cfg.n_values[0]
    if cfg.instance_file:
        chance = load_chance_instance(cfg.instance_file)
        if chance.item_count != m:
            raise ValueError(f"instance file {cfg.instance_file} has m={chance.item_count}, not m={m}")
    else:
        chance = _chance_preset(m, cfg.confidence)
    composite = build_chance(chance)
    root = RandomSource(cfg.seed)
    config = EAConfig(max_iterations=cfg.budget or default_budget(composite.n, cfg.budget_multiplier))
    jobs = [(composite, config, root.spawn(rep + 1), None, None) for rep in range(cfg.replicates)]
    best_state = None
    best_value = math.inf
    for trace in _run_replicates(jobs):
        value = trace.samples[-1][1]  # the final state's f, as value() gives it
        if value < best_value:
            best_value = value
            best_state = trace.final_state
    notes = []
    probes = [("best_found", best_state), ("all_ones", np.ones(m, dtype=np.uint8))]
    probe_gen = root.spawn(0)
    for k in range(cfg.probes):
        candidate = probe_gen.generator.integers(0, 2, m, dtype=np.uint8)
        if candidate.sum() == 0:
            candidate[int(probe_gen.generator.integers(0, m))] = 1
        probes.append((f"random_{k}", candidate))
    rows = []
    level_source = root.spawn(10**6)
    for name, probe in probes:
        if chance.std_value(probe) == 0.0:
            notes.append(f"probe {name} skipped: zero variance (all-zeros selection)")
            continue
        level = chance_level_check(chance, probe, cfg.level_samples, level_source.spawn(len(rows)))
        rows.append(
            ChanceRow(
                probe="".join(str(int(b)) for b in probe),
                g_value=chance.fitness_value(probe),
                empirical_level=level,
                alpha_c=chance.confidence,
            )
        )
    se = math.sqrt(chance.confidence * (1.0 - chance.confidence) / cfg.level_samples)
    checks = {
        "levels_within_4se": all(abs(r.empirical_level - r.alpha_c) <= 4.0 * se for r in rows)
    }
    return ReportBundle(
        kind="chance",
        config=cfg.to_dict(),
        rows=rows,
        fits=None,
        environment=_environment(cfg),
        checks=checks,
        notes=notes,
        extras={"best_fitness": best_value, "fractile": chance.fractile},
    )


def run_study(cfg: ExperimentConfig) -> tuple[ReportBundle, list[RunTrace]]:
    """Plain EA runs on one instance; returns the bundle and the raw traces."""
    if cfg.kind != "run":
        raise ValueError(f"expected kind 'run', got {cfg.kind!r}")
    n = cfg.n_values[0]
    root = RandomSource(cfg.seed)
    instance = build_objective(cfg, n, root.spawn(0))
    budget = cfg.budget or default_budget(n, cfg.budget_multiplier)
    config = EAConfig(max_iterations=budget, trace_stride=cfg.trace_stride)
    potential = build_combined_potential(instance).value
    jobs = [(instance, config, root.spawn(rep + 1), None, potential) for rep in range(cfg.replicates)]
    traces = _run_replicates(jobs)
    rows = [
        RunRow(
            replicate=rep,
            hitting_time=trace.hitting_time,
            accepted_steps=trace.accepted_steps,
            budget_exhausted=trace.budget_exhausted,
        )
        for rep, trace in enumerate(traces)
    ]
    bundle = ReportBundle(
        kind="run",
        config=cfg.to_dict(),
        rows=rows,
        fits=None,
        environment=_environment(cfg),
        checks={"all_runs_reached_optimum": all(not r.budget_exhausted for r in rows)},
        json_document=traces[0] if len(traces) == 1 else traces,
    )
    return bundle, traces


def drift_study(cfg: ExperimentConfig) -> ReportBundle:
    """Exact drift over every non-optimal state, or over cfg.states sampled ones.

    The instance draws from stream spawn(0) of the master seed and the sampled
    states from spawn(1).  The JSON report is the certification summary.
    """
    if cfg.kind != "drift":
        raise ValueError(f"expected kind 'drift', got {cfg.kind!r}")
    root = RandomSource(cfg.seed)
    instance = build_objective(cfg, cfg.n_values[0], root.spawn(0))
    states = None
    if cfg.states is not None:
        gen = root.spawn(1).generator
        states = [gen.integers(0, 2, instance.domain_size, dtype=np.uint8) for _ in range(cfg.states)]
    report = exhaustive_drift_check(instance, p=cfg.mutation_probability, states=states)
    if report.min_ratio is None:
        note = "no non-optimal state to check: uncertified"
    else:
        verdict = "pass" if report.passed else "FAIL"
        note = f"min ratio {report.min_ratio:.6g} vs delta {report.delta_reference:.6g}: {verdict}"
    return ReportBundle(
        kind="drift",
        config=cfg.to_dict(),
        rows=report.rows,
        fits=None,
        environment=_environment(cfg),
        checks={"min_ratio_at_least_delta": report.passed},
        notes=[note],
        json_document=report.summary_dict(),
    )


# The ExperimentConfig fields each study reads.  The CLI builds every
# subcommand's flags from this table, and resolve_config rejects any other
# option, so no flag or config key is accepted that its study ignores.
_GENERATOR_FIELDS = (
    "s", "alpha", "weight_scheme", "weight_low", "weight_high", "transforms", "embedding",
)
_RUN_FIELDS = ("replicates", "budget", "budget_multiplier")
_COMMON_FIELDS = ("seed", "out_csv", "out_json")
STUDY_FIELDS = {
    "scale": ("n_values", "preset", *_GENERATOR_FIELDS, "instance_file", "fresh_instances",
              *_RUN_FIELDS, "workers", *_COMMON_FIELDS),
    "drift": ("n_values", *_GENERATOR_FIELDS, "instance_file", "states", "mutation_probability",
              *_COMMON_FIELDS),
    "escape": ("n_values", "exponent", *_RUN_FIELDS, "workers", *_COMMON_FIELDS),
    "tail": ("n_values", "preset", *_GENERATOR_FIELDS, "instance_file", "replicates", "r_values",
             "delta", *_COMMON_FIELDS),
    "chance": ("n_values", "confidence", "instance_file", "level_samples", "probes", *_RUN_FIELDS,
               *_COMMON_FIELDS),
    "run": ("n_values", "preset", *_GENERATOR_FIELDS, "instance_file", *_RUN_FIELDS, "trace_stride",
            *_COMMON_FIELDS),
}


def _unread(cfg: ExperimentConfig) -> dict:
    """Fields of STUDY_FIELDS[cfg.kind] that cfg's other settings leave unread, with why."""
    if cfg.instance_file:
        unread = dict.fromkeys(
            ("preset", "confidence", "fresh_instances", *_GENERATOR_FIELDS), "the instance file fixes it"
        )
    elif cfg.preset is not None:
        unread = dict.fromkeys(_GENERATOR_FIELDS, f"preset {cfg.preset} fixes it")
        if cfg.preset == "separable":
            del unread["weight_low"], unread["weight_high"]
        else:
            unread["fresh_instances"] = f"preset {cfg.preset} draws no instance"
    elif cfg.weight_scheme != "uniform-int":
        why = f"weight scheme {cfg.weight_scheme} draws none"
        unread = dict.fromkeys(("weight_low", "weight_high"), why)
        if cfg.embedding == "canonical":
            unread["fresh_instances"] = f"{why}, and the canonical embedding draws nothing"
    else:
        unread = {}
    if cfg.budget:
        unread["budget_multiplier"] = "an absolute budget is set"
    return unread


def resolve_config(kind: str, options: dict) -> ExperimentConfig:
    """The config of one study from explicitly given options.

    Raises ValueError for an option the study would not read: one outside
    STUDY_FIELDS[kind], or one that the other options make moot (a generation
    option next to a preset or an instance file, say).  With an instance file,
    the size comes from the file.
    """
    if kind not in STUDY_FIELDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    unknown = sorted(set(options) - set(STUDY_FIELDS[kind]))
    if unknown:
        raise ValueError(f"{kind} does not read option(s) {unknown}")
    options = dict(options)
    if options.get("instance_file") and "n_values" not in options:
        path = options["instance_file"]
        size = load_chance_instance(path).item_count if kind == "chance" else load_instance(path).n
        options["n_values"] = (size,)
    # single runs and probe demos default to far fewer replicates than studies
    options.setdefault("replicates", {"run": 1, "chance": 10}.get(kind, 200))
    try:
        cfg = ExperimentConfig(kind=kind, **options)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    moot = [f"{name} ({why})" for name, why in _unread(cfg).items() if name in options]
    if moot:
        raise ValueError(f"{kind} would not read option(s): {'; '.join(moot)}")
    return cfg


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    """Run the study of cfg.kind and return its report bundle."""
    studies = {
        "scale": scaling_study,
        "drift": drift_study,
        "escape": escape_study,
        "tail": tail_study,
        "chance": chance_demo,
        "run": lambda c: run_study(c)[0],
    }
    return studies[cfg.kind](cfg)
