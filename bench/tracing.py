"""Per-layer tracing of driftlab from outside the package.

A :class:`Tracer` replaces public functions and methods of each driftlab
module with thin wrappers while it is installed, and puts the originals back
when it is removed.  Study, replicate and certification boundaries become
spans (kept in memory, written out at the end of a run); the per-call hot
paths (mutation, evaluation, transforms, stream construction) are folded
into counters and summed busy time, because one run makes millions of them.
Nothing inside ``src/driftlab`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import Counter, defaultdict

# (owner, attribute, counter key) for per-call counters.  A key may cover
# several functions; nested calls under one key are timed once, at the
# outermost call, so composed transforms and builders that construct
# objectives are not counted twice.
_COUNTED = [
    ("rng", "RandomSource.__init__", "rng.stream"),
    ("transforms", "MonotoneTransform.apply", "transforms.apply"),
    ("objectives", "CompositeObjective.value", "objectives.eval"),
    ("objectives", "MultimodalInstance.value", "objectives.eval"),
    ("objectives", "CompositeObjective.is_optimal", "objectives.optimal_check"),
    ("objectives", "MultimodalInstance.is_optimal", "objectives.optimal_check"),
    ("objectives", "CompositeObjective.__init__", "objectives.build"),
    ("objectives", "generate_instance", "objectives.build"),
    ("objectives", "onemax", "objectives.build"),
    ("objectives", "build_separable", "objectives.build"),
    ("objectives", "build_chance", "objectives.build"),
    ("objectives", "load_instance", "objectives.build"),
    ("potential", "build_combined_potential", "potential.build"),
    ("potential", "CombinedPotential.value", "potential.value"),
    ("ea", "standard_bit_mutation", "ea.mutation"),
    ("drift", "StateSpace.__init__", "drift.statespace"),
]

# (owner, attribute, span name) for functions recorded as spans.
_SPANNED = [
    ("cli", "cli_main", "cli"),
    ("experiments", "scaling_study", "study"),
    ("experiments", "escape_study", "study"),
    ("experiments", "tail_study", "study"),
    ("experiments", "chance_demo", "study"),
    ("experiments", "run_study", "study"),
    ("drift", "exhaustive_drift_check", "drift_check"),
    ("ea", "run_ea", "replicate"),
]


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Counters and spans for one traced round; see :meth:`installed`."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)  # seconds, outermost calls only
        self.spans: list[list] = []  # [id, parent id, name, start, end, detail]
        self.nonempty_mutations = 0
        self.accepted_steps = 0
        self.iterations = 0
        self.censored = 0
        self.states = 0
        self.masks = 0
        self.min_margin = math.inf
        self.statespace_bytes = 0
        self._depth: Counter = Counter()
        self._open: list[int] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import driftlab.cli  # noqa: F401  (loads every layer module)

        package = sys.modules["driftlab"]
        for mod_name, dotted, key in _COUNTED:
            owner, attr = _resolve(getattr(package, mod_name), dotted)
            self._replace(owner, attr, self._counted(key, vars(owner)[attr]))
        for mod_name, dotted, name in _SPANNED:
            owner, attr = _resolve(getattr(package, mod_name), dotted)
            self._replace(owner, attr, self._spanned(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the block, originals restored after it."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patches(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every replaced binding."""
        return list(self._patches)

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function is also bound, by `from .x import f`, in the
        # modules that call it; rebind every driftlab namespace holding it.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "driftlab" or name.startswith("driftlab.")):
                continue
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, bound_name, original))
                    setattr(module, bound_name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _counted(self, key: str, fn):
        tracer = self
        after = {
            "ea.mutation": self._after_mutation,
            "drift.statespace": self._after_statespace,
        }.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = tracer._depth
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.busy[key] += time.perf_counter() - start
                tracer.calls[key] += 1
                depth[key] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _spanned(self, name: str, fn):
        tracer = self
        after = {
            "replicate": self._after_replicate,
            "drift_check": self._after_drift_check,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), tracer._open[-1] if tracer._open else None,
                    name, time.perf_counter(), None, fn.__name__]
            tracer.spans.append(span)
            tracer._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._open.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_mutation(self, args, result) -> None:
        if result[1].flip_count:
            self.nonempty_mutations += 1

    def _after_statespace(self, args, result) -> None:
        space = args[0]
        arrays = (space.codes, space.popcount, space.f, space.optimal, space.phi)
        size = sum(a.nbytes for a in arrays if a is not None)
        self.statespace_bytes = max(self.statespace_bytes, size)

    def _after_replicate(self, args, trace) -> None:
        config = args[1]
        if trace.hitting_time is None:
            self.censored += 1
            self.iterations += config.max_iterations
        else:
            self.iterations += trace.hitting_time
        self.accepted_steps += trace.accepted_steps

    def _after_drift_check(self, args, report) -> None:
        self.states += len(report.rows)
        self.masks += len(report.rows) << args[0].domain_size
        if report.rows:
            self.min_margin = min(self.min_margin, report.min_ratio / report.delta_reference)

    # -- metrics ----------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        """Summed duration of spans called `name` minus their child spans."""
        total = 0.0
        for span in self.spans:
            if span[2] == name:
                total += span[4] - span[3]
        for span in self.spans:
            parent = span[1]
            if parent is not None and self.spans[parent][2] == name:
                total -= span[4] - span[3]
        return total

    def span_seconds(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def round_metrics(self, report_bytes: int) -> dict[str, float]:
        """Per-layer figures of one traced round (values only, units in LAYER_UNITS)."""
        calls, busy = self.calls, self.busy
        runs = self.span_seconds("replicate")
        mutations = calls["ea.mutation"]
        check_s = sum(self.span_seconds("drift_check"))

        def mean_us(key: str) -> float:
            return 1e6 * busy[key] / calls[key] if calls[key] else 0.0

        return {
            "rng.streams": calls["rng.stream"],
            "rng.stream_us": mean_us("rng.stream"),
            "transforms.apply_calls": calls["transforms.apply"],
            "transforms.apply_s": busy["transforms.apply"],
            "objectives.evals": calls["objectives.eval"],
            "objectives.eval_us": mean_us("objectives.eval"),
            "objectives.optimal_checks": calls["objectives.optimal_check"],
            "objectives.build_s": busy["objectives.build"],
            "potential.build_s": busy["potential.build"],
            "potential.value_calls": calls["potential.value"],
            "ea.runs": len(runs),
            "ea.iterations": self.iterations,
            "ea.mutations": mutations,
            "ea.mutation_us": mean_us("ea.mutation"),
            "ea.iter_us": 1e6 * sum(runs) / self.iterations if self.iterations else 0.0,
            "ea.nonempty_frac": self.nonempty_mutations / mutations if mutations else 0.0,
            "ea.accepted_frac": (
                self.accepted_steps / self.nonempty_mutations if self.nonempty_mutations else 0.0
            ),
            "drift.statespace_s": busy["drift.statespace"],
            "drift.statespace_bytes": self.statespace_bytes,
            "drift.states": self.states,
            "drift.masks": self.masks,
            "drift.check_s": check_s,
            "drift.masks_per_s": self.masks / check_s if check_s else 0.0,
            "drift.min_margin": self.min_margin if self.states else 0.0,
            "experiments.replicates": sum(
                1 for s in self.spans if s[2] == "replicate" and s[1] is not None
                and self.spans[s[1]][2] == "study"
            ),
            "experiments.censored": self.censored,
            "experiments.self_s": self.self_seconds("study"),
            "cli.self_s": self.self_seconds("cli"),
            "cli.report_bytes": report_bytes,
        }


# Units of the per-layer metrics; counts repeat exactly for a fixed seed.
LAYER_UNITS = {
    "rng.streams": "count",
    "rng.stream_us": "us",
    "transforms.apply_calls": "count",
    "transforms.apply_s": "s",
    "objectives.evals": "count",
    "objectives.eval_us": "us",
    "objectives.optimal_checks": "count",
    "objectives.build_s": "s",
    "potential.build_s": "s",
    "potential.value_calls": "count",
    "ea.runs": "count",
    "ea.iterations": "count",
    "ea.mutations": "count",
    "ea.mutation_us": "us",
    "ea.iter_us": "us",
    "ea.nonempty_frac": "ratio",
    "ea.accepted_frac": "ratio",
    "ea.run_ms.p50": "ms",
    "ea.run_ms.ptail": "ms",
    "ea.run_ms.ptail_pct": "%",
    "ea.run_ms.samples": "count",
    "drift.statespace_s": "s",
    "drift.statespace_bytes": "bytes",
    "drift.states": "count",
    "drift.masks": "count",
    "drift.check_s": "s",
    "drift.masks_per_s": "1/s",
    "drift.min_margin": "ratio",
    "experiments.replicates": "count",
    "experiments.censored": "count",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Figures that must repeat exactly between traced rounds of the same inputs.
EXACT_COUNTS = (
    "rng.streams",
    "transforms.apply_calls",
    "objectives.evals",
    "objectives.optimal_checks",
    "potential.value_calls",
    "ea.runs",
    "ea.iterations",
    "ea.mutations",
    "drift.states",
    "drift.masks",
    "experiments.replicates",
    "experiments.censored",
)


def tail_percentile(samples_ms: list[float]) -> tuple[float, float, float]:
    """(p50, highest ladder percentile with >= 10 samples beyond it, that percentile).

    With fewer than 20 samples no percentile above the median has ten beyond
    it, so the tail figure is the median itself.
    """
    if not samples_ms:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples_ms)
    count = len(ordered)

    def rank(permille: int) -> int:  # index of the permille-th percentile value
        return max(0, -(-permille * count // 1000) - 1)

    chosen = 500
    for permille in (900, 990, 999):
        if count - 1 - rank(permille) >= 10:
            chosen = permille
    return ordered[rank(500)], ordered[rank(chosen)], chosen / 10.0
