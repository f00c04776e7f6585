"""Tests of the benchmark itself: smoke runs, exact traced counts, clean unpatching.

Run from the checkout root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str) -> dict:
    return run.main(["--seed", "3", "--seconds", "0", "--smoke", *args])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name):
    record = _bench("--workload", name)
    assert record["correct"], record["problems"]
    assert record["attempted"] > 0 and record["failed"] == 0
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["environment"]["seed"] == 3 and record["environment"]["traced"] is False


def test_traced_counts_repeat_exactly_for_a_fixed_seed():
    first = _bench("--workload", "tail", "--trace", "1")
    second = _bench("--workload", "tail", "--trace", "1")
    assert first["correct"] and second["correct"], first["problems"] + second["problems"]
    assert set(first["metrics"]) == set(tracing.LAYER_UNITS)
    for key in ("ea.iterations", "objectives.evals", "rng.streams", "drift.masks", "drift.states"):
        assert first["metrics"][key]["value"] > 0
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["drift.min_margin"]["value"] >= 1.0


def test_uninstall_restores_every_original():
    from driftlab import cli, ea, experiments

    tracer = tracing.Tracer()
    with tracer.installed():
        patched = tracer.patches
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
        assert experiments.run_ea is ea.run_ea  # rebound everywhere it is imported
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"

    workdir = run.OUT / "test-unpatched"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.tail_plan(3, 0, workdir, smoke=True)
    tracer.reset()
    code, _ = run.invoke(plan[0].argv)
    assert code == 0
    assert not tracer.calls and not tracer.spans
    assert cli.cli_main.__module__ == "driftlab.cli" and not hasattr(cli.cli_main, "__wrapped__")


def test_benchmark_json_names_the_metrics_this_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tail", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracing.tail_percentile([float(i) for i in range(1, 101)]) == (50.0, 90.0, 90.0)
    assert tracing.tail_percentile([float(i) for i in range(1, 1001)]) == (500.0, 990.0, 99.0)
    assert tracing.tail_percentile([1.0, 2.0, 3.0]) == (2.0, 2.0, 50.0)


def test_certify_check_uses_the_paper_delta_not_the_programs():
    workdir = run.OUT / "test-delta"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inv = workloads.certify_plan(3, 0, workdir, smoke=True)[0]
    code, _ = run.invoke(inv.argv)
    assert code == 0
    assert not workloads.read_outcome(inv, code, workloads.certify_check).problems
    # A program whose delta shrank would still pass its own min_ratio/delta_ref test.
    summary = json.loads(inv.json_path.read_text())
    summary["delta_ref"] /= 2
    inv.json_path.write_text(json.dumps(summary))
    outcome = workloads.read_outcome(inv, code, workloads.certify_check)
    assert outcome.failed == outcome.ops
    assert any("paper's delta" in p for p in outcome.problems)


def test_paper_delta():
    assert workloads.paper_delta(10, 0.5) == pytest.approx(8.7446e-4, rel=1e-4)  # e^-3 (2 - e^0.5) / 20


def test_round_time_is_median_pace_over_reference_times_mean_work():
    ref = 1.0
    constant = {0: [(2.0, 1.9, 5.0, ref), (1.5, 1.4, 5.0, 2 * ref), (3.0, 2.9, 5.0, ref)]}
    assert run.round_time(constant, 0) == pytest.approx(2.0)
    assert run.round_time(constant, 1) == pytest.approx(1.9)
    # Work 0 marks a failed sample, which is left out.
    varying = {0: [(2.0, 2.0, 4.0, ref), (1.0, 1.0, 1.0, ref), (3.0, 3.0, 3.0, ref), (9.0, 9.0, 0.0, ref)]}
    assert run.round_time(varying, 0) == pytest.approx(1.0 * (4.0 + 1.0 + 3.0) / 3)
    two = {0: constant[0], 1: varying[0]}
    assert run.round_time(two, 0) == pytest.approx(2.0 + 8.0 / 3)


def test_pooled_check_without_replicates_fails_only_a_full_run(monkeypatch):
    monkeypatch.setattr(run, "POOLED_LIMIT_S", 0.0)
    monkeypatch.setattr(run, "reference_setup", lambda: 0.1)
    workdir = run.OUT / "test-pending"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Smoke-sized inputs whatever the run's mode, and a pooled check that never applies.
    workload = workloads.Workload(
        "tail",
        lambda seed, rnd, d, smoke, serial=False: workloads.tail_plan(seed, rnd, d, smoke=True),
        workloads.tail_check,
        lambda outcomes: {"never enough": None},
    )
    for smoke in (True, False):
        result = run.measure(workload, 3, 0.0, smoke, workdir, lambda: 0.1)[0]
        assert any("never enough" in p for p in result.problems) is not smoke
