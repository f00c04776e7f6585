"""driftlab benchmark: drive the `driftlab` CLI in-process and measure it.

Run from the root of a driftlab checkout:

    python3 bench/run.py --workload scale --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Rounds of the
workload's invocations (see workloads.py) repeat until ``--seconds`` of round
time have been measured; each round's reports are checked before the next.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a serial traced run (see tracing.py).  Full results, including the
environment stamp and, when traced, every span, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
# Nominal time of reference_setup(), about its time on the 2-core Xeon the
# benchmark was sized on; a fixed scale for setup_s.
SETUP_REFERENCE_S = 0.4
# Nominal time of reference_pass(); a fixed scale for wall_s and cpu_s that, on
# the same machine, puts them within 25 % of the fastest-pace seconds.
REFERENCE_S = 0.004
# A run goes on past --seconds until its pooled checks have enough replicates
# to apply, but no further than this many seconds of round time.
POOLED_LIMIT_S = 120.0

# End-to-end metrics and their units; every one is reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def load_program() -> None:
    """Put the checkout's own driftlab first on the import path, or exit."""
    if not (SOURCE / "driftlab" / "__init__.py").is_file():
        sys.exit(f"error: no driftlab sources under {SOURCE}; run from a driftlab checkout")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import driftlab

    if Path(driftlab.__file__).resolve().parent != SOURCE / "driftlab":
        sys.exit(f"error: imported driftlab from {driftlab.__file__}, not from {SOURCE}")


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def invoke(argv: list[str]):
    """Run one CLI invocation in-process; returns (exit code or None, captured output)."""
    from driftlab import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.cli_main(argv)
        except Exception:  # a crash fails the invocation; the run carries on
            traceback.print_exc(file=sink)
            code = None
    return code, sink.getvalue()


def reference_pass() -> float:
    """Time one pass of a fixed loop takes, over its nominal time: the machine's speed now.

    The loop is the benchmark's own code and does the EA's kind of work (a
    256-bit mutation mask and XOR, 1000 times), so no change to driftlab moves it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = np.zeros(256, dtype=np.uint8)
    flips = 0
    start = time.perf_counter()
    for _ in range(1000):
        flips += int(np.count_nonzero(x ^ (rng.random(256) < 1 / 256)))
    return (time.perf_counter() - start) / REFERENCE_S


def reference_setup() -> float:
    """Time a fresh interpreter takes to import numpy and scipy.special, over its nominal time.

    These are the libraries driftlab builds on; no change to driftlab moves it.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.special"], check=True, timeout=120)
    return (time.perf_counter() - start) / SETUP_REFERENCE_S


def run_round(plan) -> list[tuple[float, float, Optional[int], str]]:
    """Run one round; per invocation (wall s, cpu s, exit code or None, output)."""
    timed = []
    for inv in plan:
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        code, output = invoke(inv.argv)
        timed.append((time.perf_counter() - start, _cpu_seconds() - cpu0, code, output))
    return timed


class Run:
    """Outcomes of every round of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.outcomes = []
        self.problems: list[str] = []

    def check(self, plan, timed) -> list:
        from workloads import read_outcome

        outcomes = []
        for inv, (_, _, code, output) in zip(plan, timed):
            outcome = read_outcome(inv, code, self.workload.check)
            if outcome.problems and output.strip():
                outcome.problems.append(output.strip().splitlines()[-1])
            self.problems.extend(outcome.problems)
            outcomes.append(outcome)
        self.outcomes.extend(outcomes)
        return outcomes

    @property
    def attempted(self) -> int:
        return sum(o.ops for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


def paced(timed: Callable, reference: Callable):
    """Call `timed` between two reference passes; returns (its result, their mean)."""
    before = reference()
    result = timed()
    return result, (before + reference()) / 2


def round_time(samples: dict, index: int) -> float:
    """Seconds one round takes at the reference speed.

    `samples` maps a plan position to its (wall s, cpu s, work, reference)
    per round; `index` picks wall (0) or cpu (1); the reference is the mean of
    the two reference passes timed just before and after the invocation, as a
    multiple of their nominal time.  Each position contributes the
    median over rounds of its time per unit of work over its reference, times
    its mean work over the run.  Other tenants of a shared machine slow an
    invocation and its neighbouring reference passes alike, so their ratio
    holds steady while the machine's speed swings (see README.md).
    """
    total = 0.0
    for rows in samples.values():
        done = [row for row in rows if row[2] > 0]
        if done:
            pace = statistics.median(row[index] / (row[2] * row[3]) for row in done)
            total += pace * statistics.fmean(row[2] for row in done)
    return total


def pooled_pending(workload, run: "Run") -> bool:
    """Whether a pooled check still lacks the replicates it needs to apply."""
    return any(ok is None for ok in workload.pooled(run.outcomes).values())


def measure(workload, seed: int, seconds: float, smoke: bool, workdir: Path, probe):
    """Untraced rounds of fresh inputs; `probe` times one fresh-interpreter setup.

    Every invocation is timed between two reference passes (see round_time),
    and every setup probe between two reference interpreter starts.  The
    setup probes are spread over the run, one per seventh of `seconds`.  Past
    `seconds`, rounds go on until every pooled check applies (not in a
    smoke run), up to POOLED_LIMIT_S.
    """
    run = Run(workload)
    samples: dict = {}
    ops: dict = {}
    setup: list[tuple[float, float]] = []
    probes = 1 if smoke else SETUP_PROBES
    measured, rnd = 0.0, 0
    while (rnd == 0 or measured < seconds
           or (not smoke and measured < POOLED_LIMIT_S and pooled_pending(workload, run))):
        if len(setup) < probes and measured >= len(setup) * seconds / probes:
            setup.append(paced(probe, reference_setup))
        plan = workload.plan(seed, rnd, workdir, smoke)
        timed, reference = [], []
        for inv in plan:
            done, ref = paced(lambda: run_round([inv])[0], reference_pass)
            timed.append(done)
            reference.append(ref)
        for slot, ((wall, cpu, _, _), ref, outcome) in enumerate(zip(timed, reference, run.check(plan, timed))):
            work = 0.0 if outcome.problems else outcome.work
            samples.setdefault(slot, []).append((wall, cpu, work, ref))
            ops.setdefault(slot, []).append(outcome.ops)
            measured += wall
        rnd += 1
    while len(setup) < probes:
        setup.append(paced(probe, reference_setup))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall_s = round_time(samples, 0)
    metrics = {
        "setup_s": statistics.median(t / ref for t, ref in setup),
        "wall_s": wall_s,
        "ops_per_s": sum(statistics.fmean(v) for v in ops.values()) / wall_s if wall_s else 0.0,
        "cpu_s": round_time(samples, 1),
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
    }
    checks = workload.pooled(run.outcomes)
    if not smoke:
        for name, ok in checks.items():
            if ok is None:
                run.problems.append(f"pooled check {name!r} did not get enough replicates "
                                    f"in {measured:.0f} s")
    detail = {"rounds": rnd, "measured_s": measured, "samples": samples, "setup_s": setup}
    return run, metrics, checks, detail


def measure_traced(workload, seed: int, seconds: float, smoke: bool, workdir: Path):
    """Alternate untraced and traced rounds of round 0's inputs, serially."""
    from tracing import EXACT_COUNTS, LAYER_UNITS, Tracer, tail_percentile

    run = Run(workload)
    plan = workload.plan(seed, 0, workdir, smoke, serial=True)
    tracer = Tracer()
    per_round, overheads, run_ms, spans = [], [], [], []
    measured = 0.0
    while True:
        timed = run_round(plan)
        run.check(plan, timed)
        base_wall = sum(t[0] for t in timed)
        tracer.reset()
        with tracer.installed():
            timed = run_round(plan)
        run.check(plan, timed)
        traced_wall = sum(t[0] for t in timed)
        report_bytes = sum(p.stat().st_size for inv in plan for p in (inv.csv_path, inv.json_path) if p.exists())
        per_round.append(tracer.round_metrics(report_bytes))
        overheads.append(traced_wall - base_wall)
        run_ms.extend(1e3 * s for s in tracer.span_seconds("replicate"))
        spans.extend([len(per_round) - 1, *span] for span in tracer.spans)
        measured += base_wall + traced_wall
        if measured >= seconds:
            break
    for key in EXACT_COUNTS:
        values = {m[key] for m in per_round}
        if len(values) > 1:
            run.problems.append(f"{key} differs between traced rounds of the same inputs: {sorted(values)}")
    metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    metrics.update({key: per_round[0][key] for key in EXACT_COUNTS})
    p50, ptail, pct = tail_percentile(run_ms)
    metrics.update({
        "ea.run_ms.p50": p50,
        "ea.run_ms.ptail": ptail,
        "ea.run_ms.ptail_pct": pct,
        "ea.run_ms.samples": len(run_ms),
        "trace.overhead_s": statistics.median(overheads),
    })
    metrics = {key: metrics[key] for key in LAYER_UNITS}
    # Round 0's inputs repeat in every round, so the rounds are no independent
    # samples for the pooled statistical checks: those belong to the untraced run.
    return run, metrics, {}, {"rounds": len(per_round), "spans": spans}


def setup_probe(workload, seed: int, smoke: bool, workdir: Path) -> int:
    """Import the CLI, build round 0's inputs and report the monotonic clock."""
    import driftlab.cli  # noqa: F401

    workload.plan(seed, 0, workdir, smoke)
    print(time.monotonic_ns())
    return 0


def time_setup(args, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first possible timed call."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(workdir)]
    if args.smoke:
        command.append("--smoke")
    start = time.monotonic_ns()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return (int(done.stdout.split()[-1]) - start) / 1e9


def environment(args) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "driftlab").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Benchmark the driftlab CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="round time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: serial traced run printing per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> dict:
    """Run the benchmark and print its result; returns the result record."""
    load_program()
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    from tracing import LAYER_UNITS
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        sys.exit(setup_probe(workload, args.seed, args.smoke, Path(args.setup_probe)))

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / label
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args)
    if args.trace:
        run, values, checks, detail = measure_traced(workload, args.seed, args.seconds, args.smoke, workdir)
        units = LAYER_UNITS
    else:
        probe_dir = workdir / "probe"
        probe_dir.mkdir()
        run, values, checks, detail = measure(workload, args.seed, args.seconds, args.smoke, workdir,
                                              lambda: time_setup(args, probe_dir))
        units = END_TO_END
    correct = not run.problems and all(ok is not False for ok in checks.values())
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"environment": env, "checks": checks, "problems": run.problems, **detail, **result}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    shown = {name: ("pass" if ok else "FAIL" if ok is False else "skipped: too few replicates")
             for name, ok in checks.items()}
    mode = "traced serially (escape at --workers 1), " if args.trace else ""
    print(f"{label}: {detail['rounds']} rounds, {mode}failed_frac {run.failed / max(1, run.attempted):.3g}, "
          f"pooled checks {shown}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return record


if __name__ == "__main__":
    main()
