"""Experiment drivers: runtime scaling, drift sweeps, tail checks, demos.

Every study consumes an :class:`ExperimentConfig` and returns a
:class:`ReportBundle` whose config echo is complete enough to re-run the
experiment.  The EA studies (scale, escape, tail, chance, run) run their
replicates through :func:`_run_replicates` as jobs, a job being one stream and
the runs on it: one run on its own child stream of the master seed per
replicate, except tail's, whose runs are one job back to back on one stream.
Outputs are deterministic byte-for-byte for a fixed config: aggregation
happens in replicate-index order and reports carry no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import weakref
from collections import deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .version import __version__
from .drift import ALL_STATES_CAP, exhaustive_drift_check
from .ea import EAConfig, RunTrace, check_mutation_probability, default_budget, prepare_starts, run_ea
from .objectives import (
    ChanceInstance,
    MultimodalInstance,
    build_chance,
    chance_level_check,
    generate_instance,
    load_chance_instance,
    load_instance,
    write_in_place,
)
from .potential import build_combined_potential, zero_weight_positions
from .rng import RandomSource

# The generation settings that the onemax and separable presets fix; the
# chance preset builds its instance with _chance_preset instead.
PRESET_SETTINGS = {
    "onemax": {"s": 0, "alpha": Fraction(1, 2), "weight_scheme": "all-ones",
               "transforms": ("identity", "identity"), "embedding": "canonical"},
    "separable": {"s": 0, "alpha": Fraction(1, 2), "weight_scheme": "uniform-int",
                  "transforms": ("square", "square_root"), "embedding": "canonical"},
}
PRESETS = (*PRESET_SETTINGS, "chance")
# tail prepares its starts for run_ea in slices of about this many bits, so
# the prepared lists it holds do not grow with the replicate count
_START_SLICE_BITS = 1 << 14


@dataclass(frozen=True)
class Study:
    """Everything the pipeline knows about one study kind."""

    help: str  # the subcommand's help line
    function: str  # the study's name in this module, looked up on every run
    # The ExperimentConfig fields the study reads.  The CLI builds the
    # subcommand's flags from them, and resolve_config rejects any other
    # option, so no flag or config key is accepted that the study ignores.
    fields: tuple
    columns: tuple  # the CSV columns, attributes of the study's rows
    replicates: int = 200  # the default replicate count
    size_list: bool = False  # whether the study runs a list of sizes


_GENERATOR_FIELDS = ("s", "alpha", "weight_scheme", "weight_low", "weight_high", "transforms", "embedding")
_RUN_FIELDS = ("replicates", "budget", "budget_multiplier")
_COMMON_FIELDS = ("seed", "out_csv", "out_json")
STUDIES = {
    "scale": Study(
        "runtime scaling study over a size grid", "scaling_study",
        ("n_values", "preset", *_GENERATOR_FIELDS, "instance_file", "fresh_instances", *_RUN_FIELDS,
         "workers", *_COMMON_FIELDS),
        ("n", "s", "alpha", "reps", "censored", "mean_T", "sd_T", "median_T", "ratio_nlogn"), size_list=True),
    "drift": Study(
        "exact drift certification on a small instance", "drift_study",
        ("n_values", *_GENERATOR_FIELDS, "instance_file", "states", "mutation_probability", *_COMMON_FIELDS),
        ("state_index", "ones", "phi", "drift", "ratio")),
    "escape": Study(
        "escape time from a planted local optimum", "escape_study",
        ("n_values", "exponent", *_RUN_FIELDS, "workers", *_COMMON_FIELDS),
        ("n", "reps", "mean_T", "sd_T"), size_list=True),
    "tail": Study(
        "tail-bound exceedance frequencies", "tail_study",
        ("n_values", "preset", *_GENERATOR_FIELDS, "instance_file", "replicates", "r_values", "delta",
         *_COMMON_FIELDS),
        ("r", "threshold", "exceed_freq", "bound")),
    # probe demos and single runs default to far fewer replicates than studies
    "chance": Study(
        "chance-constrained fitness demonstration", "chance_demo",
        ("n_values", "confidence", "instance_file", "level_samples", "probes", *_RUN_FIELDS,
         *_COMMON_FIELDS),
        ("probe", "g_value", "empirical_level", "alpha_c"), replicates=10),
    "run": Study(
        "plain EA runs with trace output", "run_study",
        ("n_values", "preset", *_GENERATOR_FIELDS, "instance_file", *_RUN_FIELDS, "trace_stride",
         *_COMMON_FIELDS),
        ("replicate", "hitting_time", "accepted_steps", "budget_exhausted"), replicates=1),
}


def _items(value) -> tuple:
    """A comma-separated string, a list or a tuple as a tuple of items, and any
    other value as a tuple of one: a dict's keys are not its items."""
    if isinstance(value, str):
        return tuple(v for v in value.split(",") if v != "")
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _fields_dict(obj) -> dict:
    """A dataclass's fields as a new dict of the same values.  Unlike asdict
    it copies no value: the configs and rows here hold only immutable ones."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass
class ExperimentConfig:
    """Complete description of one experiment; round-trips through to_dict."""

    kind: str
    n_values: tuple[int, ...] = ()
    s: int = 0
    alpha: Fraction = Fraction(1, 2)
    preset: Optional[str] = None
    weight_scheme: str = "uniform-int"
    weight_low: int = 1
    weight_high: int = 100
    transforms: tuple[str, ...] = ("square", "square_root")
    embedding: str = "canonical"
    replicates: int = 200
    seed: int = 1
    budget_multiplier: float = 20.0
    budget: Optional[int] = None
    workers: int = 1
    fresh_instances: bool = False
    r_values: tuple[float, ...] = (1.0, 2.0, 3.0)
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
        if self.kind not in STUDIES:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {tuple(STUDIES)}")
        self.n_values = _items(self.n_values)
        self.transforms = _items(self.transforms)
        self.r_values = _items(self.r_values)
        bad: dict = {}  # the fields of each type whose value is not one; none is converted
        for name, (label, accepts) in _FIELD_TYPES.items():
            if not accepts(value := getattr(self, name)):
                bad.setdefault(label, {})[name] = list(value) if type(value) is tuple else value
        if bad:
            raise ValueError("; ".join(f"option(s) must be {label}, got {values}" for label, values in bad.items()))
        if not self.n_values:
            raise ValueError("at least one problem size n is required")
        if any(n < 1 for n in self.n_values):
            raise ValueError("problem sizes must be positive")
        if len(self.n_values) > 1 and not STUDIES[self.kind].size_list:
            raise ValueError(f"{self.kind} runs one size, got {list(self.n_values)}")
        if len(self.n_values) > 1 and self.instance_file:
            raise ValueError(f"an instance file fixes one size, got {list(self.n_values)}")
        # a float (a JSON number) means its shortest decimal, as the flag's
        # string does: 0.6 is 3/5, not the binary double nearest it
        self.alpha = Fraction(repr(self.alpha) if type(self.alpha) is float else self.alpha)
        if len(self.transforms) != 2:
            raise ValueError(f"transforms must be two names, got {list(self.transforms)}")
        if not self.r_values:
            raise ValueError("tail parameters r need at least one value")
        self.r_values = tuple(float(r) for r in self.r_values)
        if not all(math.isfinite(r) and r >= 0.0 for r in self.r_values):
            raise ValueError(
                f"tail parameters r must be finite and non-negative, got {list(self.r_values)}"
            )
        if self.replicates < 1:
            raise ValueError("replicate count must be at least 1")
        if not (math.isfinite(self.budget_multiplier) and self.budget_multiplier > 0.0):
            raise ValueError(f"budget multiplier must be finite and positive, got {self.budget_multiplier}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"absolute budget must be at least 1, got {self.budget}")
        if self.probes < 0:
            raise ValueError(f"probe count must be non-negative, got {self.probes}")
        if self.level_samples < 1:
            raise ValueError(f"level samples (--samples) must be at least 1, got {self.level_samples}")
        if self.exponent is not None and self.exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {self.exponent}")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.states is not None and self.states < 1:
            raise ValueError("sampled state count must be at least 1")
        if self.mutation_probability is not None:
            check_mutation_probability(self.mutation_probability)

    def to_dict(self) -> dict:
        d = _fields_dict(self)
        d["alpha"] = f"{self.alpha.numerator}/{self.alpha.denominator}"
        d["n_values"] = list(self.n_values)
        d["transforms"] = list(self.transforms)
        d["r_values"] = list(self.r_values)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(**d)


# What a value of each annotated type is.  An int is only an int, as in
# instance files: not a bool, 2.0 or "2", so no int() truncates 2.5.  A real
# number is an int or a float but not a bool.  A flag is a bool and a name a
# string, not whatever truthiness or float() would accept.
_TYPES = {
    int: ("integers", lambda v: type(v) is int),
    float: ("numbers", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("strings", lambda v: type(v) is str),
    Fraction: ("fractions", lambda v: isinstance(v, (Fraction, int, float, str)) and not isinstance(v, bool)),
}


def _type_rule(hint) -> tuple:
    """The label and test of one annotation: tuple[X, ...] holds X items, and
    Optional[X] takes X or None."""
    args = get_args(hint)
    label, accepts = _TYPES[args[0] if args else hint]
    if get_origin(hint) is tuple:
        return label, lambda v: all(map(accepts, v))
    if type(None) in args:
        return label, lambda v: v is None or accepts(v)
    return label, accepts


# The type rule of each field but kind, read once from the annotations.
_FIELD_TYPES = {name: _type_rule(hint) for name, hint in get_type_hints(ExperimentConfig).items()
                if name != "kind"}


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


def _json_value(obj):
    """obj as plain JSON data: an object with a to_json_dict method as that
    dict, and a NaN or infinite float (a mean over no runs, say) as None,
    which JSON writes as null; NaN and Infinity are not JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    if hasattr(obj, "to_json_dict"):
        return _json_value(obj.to_json_dict())
    return obj


@dataclass
class ReportBundle:
    """Everything one study produced, sufficient to reproduce it."""

    cfg: ExperimentConfig
    rows: list
    fits: Optional[dict] = None
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    # What write_json writes instead of the bundle, for the kinds whose JSON
    # report has a format of its own: drift's summary and run's traces
    # (objects with a to_json_dict method are converted on writing).
    json_document: object = None

    @property
    def kind(self) -> str:
        return self.cfg.kind

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.cfg.to_dict(),
            "rows": [_fields_dict(r) for r in self.rows],
            "fits": self.fits,
            "environment": {"artifact": "driftlab", "version": __version__, "seed": self.cfg.seed},
            "checks": self.checks,
            "notes": self.notes,
            "extras": self.extras,
        }

    def json_text(self) -> str:
        """The JSON report: the bundle, or json_document when the kind has one."""
        document = self.to_json_dict() if self.json_document is None else self.json_document
        return json.dumps(_json_value(document), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def csv_text(self) -> str:
        """The CSV report: the study's columns, one line per row."""
        columns = STUDIES[self.kind].columns
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in self.rows:
            writer.writerow([getattr(row, c) for c in columns])
        return buffer.getvalue()

    def write_json(self, path) -> None:
        write_in_place(path, self.json_text())

    def write_csv(self, path) -> None:
        write_in_place(path, self.csv_text())


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
    if cfg.preset == "chance":
        if n < 2 or n % 2:
            raise ValueError("chance preset needs an even nominal n >= 2 (n = 2m)")
        return build_chance(_chance_preset(n // 2, cfg.confidence))
    settings = _generation(cfg)
    return generate_instance(
        n,
        settings["s"],
        settings["alpha"],
        weight_scheme=settings["weight_scheme"],
        weight_range=(cfg.weight_low, cfg.weight_high),
        transforms=settings["transforms"],
        embedding_scheme=settings["embedding"],
        rng=rng,
    )


def _zero_weight_caveat(instance) -> Optional[str]:
    """Why the potential cannot certify an instance with zero weights, or None."""
    zero = zero_weight_positions(instance)
    if not zero:
        return None
    positions = ", ".join(str(j + 1) for j in zero)
    return f"zero weights at positions {positions} (1-based); the potential certifies positive weights only"


def _generation(cfg: ExperimentConfig) -> dict:
    """The settings cfg generates its instances with: those its preset fixes, else its own."""
    own = {name: getattr(cfg, name) for name in ("s", "alpha", "weight_scheme", "transforms", "embedding")}
    return {**own, **PRESET_SETTINGS.get(cfg.preset, {})}


def _run_job(job):
    """Run one job's runs back to back on its source, yielding each trace as
    its run ends, and drop the source's carry after the last run."""
    instance, rng, runs, potential = job
    for config, initial in runs:
        yield run_ea(instance, config, rng, initial, potential)
    rng.carry = None


def _job_traces(job) -> list[RunTrace]:
    """A job's traces as a list: a pool worker cannot send back a generator."""
    return list(_run_job(job))


def _one_job_per_source(jobs):
    """The jobs, each refused with ValueError when its source is that of an
    earlier job still alive (a source freed after its job cannot come back)."""
    seen = weakref.WeakSet()
    for job in jobs:
        if job[1] in seen:
            raise ValueError("a RandomSource appears in two jobs; the runs on one stream must be one job")
        seen.add(job[1])
        yield job


def _run_replicates(jobs, workers: int = 1):
    """The replicate engine: run (instance, RandomSource, runs, potential or
    None) jobs, given as a list or an iterator, serially or on `workers`
    processes.

    A job is one stream: its runs, (EAConfig, initial or None) pairs, go back
    to back on its source, each run going on with the draws the last one left
    (see `ea.run_ea`), so replaying a run means rerunning the runs before it
    in its job.  A source in two jobs is refused with ValueError: in a list,
    or on a pool, before anything runs, and in an iterator when its second
    job comes.  Traces come in job order, and in run order within a job.
    Serially they are yielded as their runs end, and each source keeps its
    generator but drops its carry after its job's last run; the engine keeps
    no job it has run, so the studies, which pass iterators, hold no source
    after its job.  A pool maps whole jobs, whose runs must then be lists, and
    returns a list; it runs pickled copies, and the caller's sources stay as
    they were.  A job never spans two processes, so the results do not
    depend on `workers`.
    """
    checked = _one_job_per_source(jobs)
    if isinstance(jobs, list) or workers > 1:  # checked whole first; a pool takes its jobs whole
        checked = list(checked)
        workers = min(workers, len(checked))  # a pool starts all its workers at once
    if workers <= 1:
        return (trace for job in checked for trace in _run_job(job))
    from concurrent.futures import ProcessPoolExecutor  # here, so serial runs never import it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        runs = pool.map(_job_traces, checked, chunksize=max(1, len(checked) // (workers * 8)))
        return [trace for traces in runs for trace in traces]


def _time_stats(traces) -> tuple[int, float, float, float]:
    """(censored count, mean, sd, median) of the hitting times of the completed runs only."""
    times = [t.hitting_time for t in traces]
    completed = [t for t in times if t is not None]
    censored = len(times) - len(completed)
    if not completed:
        return censored, math.nan, math.nan, math.nan
    mean = statistics.fmean(completed)
    sd = statistics.stdev(completed) if len(completed) > 1 else 0.0
    return censored, mean, sd, float(statistics.median(completed))


def fit_nlogn(rows: Sequence) -> FitResult:
    """Fit the mean runtimes of rows with `n` and `mean_T` to c*n*ln(n), and to c*n^q in log space."""
    points = [(float(row.n), float(row.mean_T)) for row in rows]
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
        return _fields_dict(fit_nlogn(rows))
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
        budget = default_budget(n, cfg.budget_multiplier) if cfg.budget is None else cfg.budget
        runs = [(EAConfig(max_iterations=budget), None)]
        reps = map(source.spawn, range(1, cfg.replicates + 1))
        if cfg.fresh_instances:
            # replicate j: its instance from (i, j+1, 0), its run from (i, j+1, 1)
            jobs = ((build_objective(cfg, n, r.spawn(0)), r.spawn(1), runs, None) for r in reps)
        else:
            instance = build_objective(cfg, n, source.spawn(0))
            jobs = ((instance, r, runs, None) for r in reps)
        first = next(jobs)
        censored, mean, sd, median = _time_stats(_run_replicates(chain([first], jobs), cfg.workers))
        ratio = mean / (n * math.log(n)) if n > 1 else math.nan
        instance = first[0]  # every instance of one size has the s and alpha of the first
        rows.append(
            ScalingRow(
                n=n,
                s=instance.s,
                alpha=f"{instance.alpha.numerator}/{instance.alpha.denominator}",
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
        cfg,
        rows,
        fits=_fit_dict(rows),
        checks=checks,
    )


def escape_study(cfg: ExperimentConfig) -> ReportBundle:
    """Time to reach the global optimum from a planted local optimum."""
    if cfg.kind != "escape":
        raise ValueError(f"expected kind 'escape', got {cfg.kind!r}")
    root = RandomSource(cfg.seed)
    rows = []
    for idx, n in enumerate(cfg.n_values):
        instance = MultimodalInstance(n, cfg.exponent)
        budget = cfg.budget
        if budget is None:
            budget = max(100, math.ceil(cfg.budget_multiplier * math.e * n * n))
        source = root.spawn(idx)
        start = prepare_starts(instance, instance.local_optimum(1)[None])[0]  # one start for every run
        runs = [(EAConfig(max_iterations=budget), start)]
        jobs = ((instance, source.spawn(j), runs, None) for j in range(1, cfg.replicates + 1))
        censored, mean, sd, _ = _time_stats(_run_replicates(jobs, cfg.workers))
        rows.append(EscapeRow(n=n, reps=cfg.replicates, censored=censored, mean_T=mean, sd_T=sd))
    checks = {"censoring_at_most_1pct": all(r.censored <= 0.01 * r.reps for r in rows)}
    return ReportBundle(
        cfg,
        rows,
        fits=_fit_dict(rows),
        checks=checks,
    )


def tail_study(cfg: ExperimentConfig) -> ReportBundle:
    """Empirical exceedance of the drift-theorem tail thresholds.

    The drift rate is either supplied (cfg.delta) or certified by exhaustive
    enumeration on the instance (needs domain size <= ALL_STATES_CAP = 16).  Each replicate
    uses its own start potential; thresholds are per-run and the reported
    threshold column is the across-run mean for each r.

    The R starts are one (R, m) uint8 draw, the only array that grows with R.
    They are valued, checked for optimality and prepared a slice of
    `_START_SLICE_BITS` bits at a time, as the engine takes the runs, and each
    trace is folded in as its run ends, so memory stays flat in R otherwise.
    Each start's ln(phi/floor) is taken once, for its thresholds and its
    budget, the largest threshold rounded up; the runs of one budget in a
    slice share one EAConfig.
    """
    if cfg.kind != "tail":
        raise ValueError(f"expected kind 'tail', got {cfg.kind!r}")
    n = cfg.n_values[0]
    root = RandomSource(cfg.seed)
    instance_source = root.spawn(0)
    instance = build_objective(cfg, n, instance_source)
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
            caveat = _zero_weight_caveat(instance)
            raise ValueError(
                "exhaustive drift check failed; no certified drift rate" + (f": {caveat}" if caveat else "")
            )
        delta = report.delta_reference
        notes.append(
            f"certified delta={delta} (min observed ratio {report.min_ratio})"
        )
    if not 0.0 < delta < 1.0:
        raise ValueError("drift rate must lie in (0, 1)")

    potential = build_combined_potential(instance)
    floor = 1.0  # every nonzero state carries a coefficient >= 1
    # every start is row j of one draw on stream (0, 1), which nothing else
    # draws from (a larger R keeps the earlier rows).  The runs are one job on
    # stream (1,), in replicate order, each on the draws the last one left
    # unused.  The starts are valued, checked for optimality and prepared for
    # run_ea a slice of rows at a time, as the engine asks for the runs
    m = instance.domain_size
    starts = instance_source.spawn(1).generator.integers(0, 2, (cfg.replicates, m), dtype=np.uint8)
    step = max(1, _START_SLICE_BITS // m)
    pending = deque()  # each run's thresholds, from when the engine takes the run until its trace comes

    def runs():
        for lo in range(0, cfg.replicates, step):
            rows = starts[lo : lo + step]
            configs = {}  # one EAConfig per budget in the slice, which its runs share
            phis, optimal = potential.value(rows).tolist(), instance.is_optimal(rows).tolist()
            for phi, done, prepared in zip(phis, optimal, prepare_starts(instance, rows)):
                # T = 0 never exceeds a positive threshold, and no threshold is
                # defined for a zero start potential: the optimal starts are not run
                if done:
                    continue
                # The multiplicative drift theorem: phi is 0 or at least floor and
                # loses at least delta * phi per step in expectation, so the hitting
                # time T has Pr(T > (ln(start/floor) + r)/delta) <= e^-r, and r = 1
                # gives E[T] <= (ln(start/floor) + 1)/delta.  The budget is the
                # largest threshold, rounded up
                log_term = math.log(phi / floor)
                thresholds = [(log_term + r) / delta for r in cfg.r_values]
                budget = max(1, math.ceil(max(thresholds)))
                if budget not in configs:
                    configs[budget] = EAConfig(budget)
                pending.append(thresholds)
                yield configs[budget], prepared

    counted = 0
    exceed = [0] * len(cfg.r_values)
    threshold_sums = [0.0] * len(cfg.r_values)
    for trace in _run_replicates([(instance, root.spawn(1), runs(), None)]):
        counted += 1
        hitting_time = trace.hitting_time
        for i, threshold in enumerate(pending.popleft()):
            threshold_sums[i] += threshold
            if hitting_time is None or hitting_time > threshold:
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
        cfg,
        rows,
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
    budget = default_budget(composite.n, cfg.budget_multiplier) if cfg.budget is None else cfg.budget
    runs = [(EAConfig(max_iterations=budget), None)]
    jobs = ((composite, root.spawn(j), runs, None) for j in range(1, cfg.replicates + 1))
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
            why = "every selected item has sigma = 0" if probe.any() else "all-zeros selection"
            notes.append(f"probe {name} skipped: zero variance ({why})")
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
        cfg,
        rows,
        checks=checks,
        notes=notes,
        extras={"best_fitness": best_value, "fractile": chance.fractile},
    )


def run_study(cfg: ExperimentConfig) -> ReportBundle:
    """Plain EA runs on one instance; the JSON report is the raw traces."""
    if cfg.kind != "run":
        raise ValueError(f"expected kind 'run', got {cfg.kind!r}")
    n = cfg.n_values[0]
    root = RandomSource(cfg.seed)
    instance = build_objective(cfg, n, root.spawn(0))
    budget = default_budget(n, cfg.budget_multiplier) if cfg.budget is None else cfg.budget
    runs = [(EAConfig(max_iterations=budget, trace_stride=cfg.trace_stride), None)]
    potential = build_combined_potential(instance).value
    jobs = ((instance, root.spawn(j), runs, potential) for j in range(1, cfg.replicates + 1))
    traces = list(_run_replicates(jobs))
    rows = [
        RunRow(
            replicate=rep,
            hitting_time=trace.hitting_time,
            accepted_steps=trace.accepted_steps,
            budget_exhausted=trace.budget_exhausted,
        )
        for rep, trace in enumerate(traces)
    ]
    return ReportBundle(
        cfg,
        rows,
        checks={"all_runs_reached_optimum": all(not r.budget_exhausted for r in rows)},
        json_document=traces[0] if len(traces) == 1 else traces,
    )


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
        note = (
            f"min ratio {report.min_ratio:.6g} (rounding bound {report.rounding_bound:.2g})"
            f" vs delta {report.delta_reference:.6g}: {verdict}"
        )
    caveat = _zero_weight_caveat(instance)
    return ReportBundle(
        cfg,
        report.rows,
        checks={"min_ratio_at_least_delta": report.passed},
        notes=[note] if caveat is None else [note, caveat],
        json_document=report.summary_dict(),
    )


def _unread(cfg: ExperimentConfig) -> dict:
    """Fields of the study's table entry that cfg's other settings leave unread, with why."""
    if cfg.instance_file:
        unread = dict.fromkeys(
            ("preset", "confidence", "fresh_instances", *_GENERATOR_FIELDS), "the instance file fixes it"
        )
    elif cfg.preset == "chance":
        unread = dict.fromkeys((*_GENERATOR_FIELDS, "fresh_instances"), "preset chance fixes the instance")
    else:
        unread = dict.fromkeys(PRESET_SETTINGS.get(cfg.preset, ()), f"preset {cfg.preset} fixes it")
        settings = _generation(cfg)
        if settings["weight_scheme"] != "uniform-int":
            why = f"weight scheme {settings['weight_scheme']} draws none"
            unread.update(dict.fromkeys(("weight_low", "weight_high"), why))
            if settings["embedding"] == "canonical":
                unread["fresh_instances"] = f"{why}, and the canonical embedding draws nothing"
    if cfg.budget is not None:
        unread["budget_multiplier"] = "an absolute budget is set"
    return unread


def resolve_config(kind: str, options: dict) -> ExperimentConfig:
    """The config of one study from explicitly given options.

    Raises ValueError for an option the study would not read: one outside
    STUDIES[kind].fields, or one that the other options make moot (a generation
    option next to a preset or an instance file, say).  With an instance file,
    the size comes from the file.
    """
    if kind not in STUDIES:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {tuple(STUDIES)}")
    unknown = sorted(set(options) - set(STUDIES[kind].fields))
    if unknown:
        raise ValueError(f"{kind} does not read option(s) {unknown}")
    options = dict(options)
    if options.get("instance_file") and "n_values" not in options:
        path = options["instance_file"]
        size = load_chance_instance(path).item_count if kind == "chance" else load_instance(path).n
        options["n_values"] = (size,)
    options.setdefault("replicates", STUDIES[kind].replicates)
    try:
        cfg = ExperimentConfig(kind=kind, **options)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    moot = [f"{name!r} ({why})" for name, why in _unread(cfg).items() if name in options]
    if moot:
        raise ValueError(f"{kind} would not read option(s): {'; '.join(moot)}")
    return cfg


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    """Run the study of cfg.kind and return its report bundle.

    The study function is looked up by name at each call, so a study
    rebound on this module (to wrap or trace it) is the one that runs.
    """
    return globals()[STUDIES[cfg.kind].function](cfg)
