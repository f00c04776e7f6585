import json
import subprocess
import sys

import pytest

import driftlab
from driftlab import experiments
from driftlab.cli import cli_main


def read_csv_lines(path):
    return path.read_text().splitlines()


class TestScaleCommand:
    def test_smoke_two_sizes(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(
            ["scale", "--preset", "onemax", "--n", "64,128", "--reps", "10", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        lines = read_csv_lines(out)
        assert len(lines) == 3  # header + one row per size
        assert lines[0].startswith("n,s,alpha,")
        assert "scale:" in capsys.readouterr().out

    def test_non_integer_alpha_n_is_config_error(self, capsys):
        code = cli_main(["scale", "--n", "7", "--alpha", "1/2", "--reps", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_rejected_with_usage(self, capsys):
        code = cli_main(["scale", "--bogus", "1"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "r.csv"
        code = cli_main(
            ["scale", "--preset", "onemax", "--n", "16", "--reps", "2", "--out", str(missing_dir)]
        )
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "onemax", "n": [16], "reps": 2, "seed": 5}))
        out_json = tmp_path / "bundle.json"
        code = cli_main(["scale", "--config", str(cfg_path), "--reps", "3", "--json", str(out_json)])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["config"]["replicates"] == 3
        assert doc["config"]["seed"] == 5
        assert doc["rows"][0]["reps"] == 3

    def test_check_flag_fails_on_heavy_censoring(self, tmp_path):
        code = cli_main(
            ["scale", "--preset", "onemax", "--n", "32", "--reps", "4", "--budget", "3", "--check"]
        )
        assert code == 3


class TestDriftCommand:
    def test_exhaustive_passes(self, tmp_path, capsys):
        out_csv = tmp_path / "drift.csv"
        out_json = tmp_path / "drift.json"
        code = cli_main(
            ["drift", "--n", "8", "--s", "2", "--alpha", "1/2", "--exhaustive",
             "--out", str(out_csv), "--json", str(out_json), "--check"]
        )
        assert code == 0
        assert "pass" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert set(doc) == {"min_ratio", "delta_ref", "epsilon", "pass"}
        assert doc["pass"] is True
        assert read_csv_lines(out_csv)[0] == "state_index,ones,phi,drift,ratio"

    def test_sampled_states(self, tmp_path):
        out_csv = tmp_path / "drift.csv"
        code = cli_main(
            ["drift", "--n", "16", "--s", "0", "--states", "20", "--seed", "2", "--out", str(out_csv)]
        )
        assert code == 0
        assert 2 <= len(read_csv_lines(out_csv)) <= 21 + 1

    def test_missing_size_is_config_error(self):
        assert cli_main(["drift"]) == 1

    def test_instance_file(self, tmp_path):
        import driftlab as dl

        path = tmp_path / "inst.json"
        dl.save_instance(dl.onemax(8), path)
        assert cli_main(["drift", "--instance", str(path), "--exhaustive", "--check"]) == 0


class TestEscapeCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "escape.csv"
        code = cli_main(["escape", "--n", "6,8", "--reps", "3", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = read_csv_lines(out)
        assert lines[0] == "n,reps,mean_T,sd_T"
        assert len(lines) == 3

    def test_overflowing_exponent_exits_1(self, capsys):
        code = cli_main(["escape", "--n", "16", "--exponent", "100000", "--reps", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: zeros term")


class TestTailCommand:
    def test_certified_smoke(self, tmp_path):
        out = tmp_path / "tail.csv"
        code = cli_main(
            ["tail", "--n", "8", "--preset", "onemax", "--r", "1,2,3", "--reps", "100",
             "--seed", "4", "--out", str(out), "--check"]
        )
        assert code == 0
        lines = read_csv_lines(out)
        assert lines[0] == "r,threshold,exceed_freq,bound"
        assert len(lines) == 4

    @pytest.mark.parametrize("r", ["inf", "nan", "-1"])
    def test_bad_r_exits_1_before_certification(self, monkeypatch, capsys, r):
        def certify(*args, **kwargs):
            raise AssertionError("drift certification ran")

        monkeypatch.setattr(experiments, "exhaustive_drift_check", certify)
        code = cli_main(["tail", "--n", "8", "--preset", "onemax", f"--r={r}", "--reps", "20"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: tail parameters r must be finite and non-negative"
        )

    def test_absurd_delta_fails_check(self):
        code = cli_main(
            ["tail", "--n", "8", "--preset", "onemax", "--r", "1", "--reps", "50",
             "--delta", "0.9", "--check"]
        )
        assert code == 3


class TestChanceCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "chance.csv"
        code = cli_main(
            ["chance", "--m", "4", "--alpha-c", "0.9", "--samples", "20000", "--reps", "2",
             "--probes", "1", "--seed", "3", "--out", str(out), "--check"]
        )
        assert code == 0
        lines = read_csv_lines(out)
        assert lines[0] == "probe,g_value,empirical_level,alpha_c"
        assert len(lines) >= 2

    def test_missing_m_is_config_error(self):
        assert cli_main(["chance"]) == 1

    def test_instance_file_supplies_item_count(self, tmp_path):
        import driftlab as dl

        path = tmp_path / "c.json"
        dl.save_chance_instance(dl.ChanceInstance([1.0, 3.0], [1.0, 1.0], 0.85), path)
        out = tmp_path / "rows.csv"
        code = cli_main(
            ["chance", "--instance", str(path), "--samples", "20000", "--reps", "2",
             "--probes", "0", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        assert "0.85" in read_csv_lines(out)[1]


class TestRunCommand:
    def test_trace_json(self, tmp_path):
        out = tmp_path / "trace.json"
        code = cli_main(
            ["run", "--preset", "onemax", "--n", "16", "--seed", "3", "--json", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "seed", "spawn_key", "hitting_time", "budget_exhausted", "accepted_steps", "samples",
        }
        assert doc["hitting_time"] is not None

    def test_multiple_replicates_trace_list(self, tmp_path):
        out = tmp_path / "traces.json"
        code = cli_main(
            ["run", "--preset", "onemax", "--n", "16", "--reps", "3", "--seed", "3",
             "--json", str(out)]
        )
        assert code == 0
        assert len(json.loads(out.read_text())) == 3


class TestTopLevel:
    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_version_exits_zero(self):
        assert cli_main(["--version"]) == 0

    def test_no_command_is_error(self):
        assert cli_main([]) == 1

    def test_every_export_resolves(self):
        assert len(set(driftlab.__all__)) == len(driftlab.__all__)
        for name in driftlab.__all__:
            assert hasattr(driftlab, name), name

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "driftlab.cli", "scale", "--preset", "onemax", "--n", "16",
             "--reps", "2", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "scale:" in result.stdout


@pytest.mark.parametrize("argv", [
    ["scale", "--preset", "onemax", "--n", "16", "--reps", "2", "--seed", "8"],
    ["escape", "--n", "6", "--reps", "2", "--seed", "8"],
    ["drift", "--n", "8", "--s", "2", "--exhaustive", "--seed", "8"],
    ["drift", "--n", "12", "--states", "5", "--seed", "8"],
    ["tail", "--preset", "onemax", "--n", "8", "--reps", "50", "--seed", "8"],
])
def test_repeat_invocations_reproduce_output(tmp_path, argv):
    # same config + seed => byte-identical reports (paths live in separate dirs
    # so the config echo matches byte for byte as well)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        code = cli_main(argv + ["--json", str(d / "r.json"), "--out", str(d / "r.csv")])
        assert code == 0
    assert (dirs[0] / "r.csv").read_bytes() == (dirs[1] / "r.csv").read_bytes()
    docs = [json.loads((d / "r.json").read_text()) for d in dirs]
    for doc in docs:
        if "config" in doc:  # drift's JSON report is its summary, without a config echo
            doc["config"].pop("out_json")
            doc["config"].pop("out_csv")
    assert docs[0] == docs[1]


# -- one pipeline, honest flags -------------------------------------------------

import math  # noqa: E402

import numpy as np  # noqa: E402

import driftlab as dl  # noqa: E402
from driftlab.cli import _FLAGS, _build_parser  # noqa: E402
from driftlab.experiments import STUDY_FIELDS, ExperimentConfig  # noqa: E402


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def saved_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    dl.save_instance(instance, path)
    return str(path)


class TestDriftPipeline:
    def test_config_file_supplies_size(self, tmp_path):
        cfg = write_config(tmp_path / "f.json", {"n": 8})
        out = tmp_path / "d.json"
        assert cli_main(["drift", "--config", cfg, "--json", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    @pytest.mark.parametrize("flag", [["--reps", "5"], ["--workers", "3"], ["--budget", "7"]])
    def test_unread_run_flags_rejected(self, flag):
        assert cli_main(["drift", "--n", "8", *flag]) == 1

    def test_exhaustive_excludes_states(self):
        assert cli_main(["drift", "--n", "8", "--exhaustive", "--states", "3"]) == 1

    def test_exhaustive_flag_overrides_config_states(self, tmp_path):
        cfg = write_config(tmp_path / "f.json", {"n": 8, "states": 3})
        out = tmp_path / "d.csv"
        assert cli_main(["drift", "--config", cfg, "--exhaustive", "--out", str(out)]) == 0
        # uniform weights >= 1: only the all-zeros state is optimal
        assert len(read_csv_lines(out)) == 1 + 255

    def test_sampled_states_come_from_spawn_one(self, tmp_path):
        out = tmp_path / "d.csv"
        assert cli_main(["drift", "--n", "10", "--states", "6", "--seed", "3", "--out", str(out)]) == 0
        gen = dl.RandomSource(3).spawn(1).generator
        draws = [gen.integers(0, 2, 10, dtype=np.uint8) for _ in range(6)]
        codes = sorted({int(x @ (1 << np.arange(10))) for x in draws if x.any()})
        assert [int(line.split(",")[0]) for line in read_csv_lines(out)[1:]] == codes


class TestSizesAndLabels:
    def test_tail_rejects_budget(self):
        assert cli_main(["tail", "--preset", "onemax", "--n", "8", "--reps", "20", "--budget", "1",
                         "--check"]) == 1

    @pytest.mark.parametrize("kind,doc", [
        ("drift", {"n": [8, 10]}),
        ("tail", {"preset": "onemax", "n": [8, 16], "reps": 5}),
        ("chance", {"m": [4, 6], "reps": 1, "samples": 1000, "probes": 0}),
        ("run", {"preset": "onemax", "n": [8, 16]}),
    ])
    def test_single_size_kinds_reject_size_lists(self, tmp_path, capsys, kind, doc):
        assert cli_main([kind, "--config", write_config(tmp_path / "f.json", doc)]) == 1
        assert "one size" in capsys.readouterr().err

    def test_scale_instance_supplies_n(self, tmp_path):
        path = saved_instance(tmp_path, dl.onemax(8))
        out = tmp_path / "r.json"
        assert cli_main(["scale", "--instance", path, "--reps", "3", "--json", str(out)]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["n"] == 8
        assert row["ratio_nlogn"] == pytest.approx(row["mean_T"] / (8 * math.log(8)), rel=1e-12)

    @pytest.mark.parametrize("sizes", ["64,128", "64"])
    def test_scale_instance_rejects_other_sizes(self, tmp_path, sizes):
        path = saved_instance(tmp_path, dl.onemax(8))
        assert cli_main(["scale", "--instance", path, "--n", sizes, "--reps", "2"]) == 1

    @pytest.mark.parametrize("kind", ["drift", "tail", "run"])
    def test_instance_rejects_conflicting_n(self, tmp_path, kind):
        path = saved_instance(tmp_path, dl.onemax(8))
        assert cli_main([kind, "--instance", path, "--n", "10"]) == 1

    def test_chance_instance_rejects_conflicting_m_and_level(self, tmp_path):
        path = tmp_path / "c.json"
        dl.save_chance_instance(dl.ChanceInstance([1.0, 3.0], [1.0, 1.0], 0.85), path)
        base = ["chance", "--instance", str(path), "--samples", "1000", "--reps", "1", "--probes", "0"]
        assert cli_main(base) == 0
        assert cli_main(base + ["--m", "5"]) == 1
        assert cli_main(base + ["--alpha-c", "0.9"]) == 1

    def test_row_alpha_comes_from_instance(self, tmp_path):
        inst = dl.generate_instance(13, 1, "7/13", weight_scheme="all-ones")
        path = saved_instance(tmp_path, inst)
        out = tmp_path / "r.csv"
        assert cli_main(["scale", "--instance", path, "--n", "13", "--reps", "2", "--out", str(out)]) == 0
        assert read_csv_lines(out)[1].split(",")[:3] == ["13", "1", "7/13"]

    @pytest.mark.parametrize("kind", ["scale", "tail", "run"])
    def test_preset_with_instance_rejected(self, tmp_path, kind):
        path = saved_instance(tmp_path, dl.onemax(8))
        assert cli_main([kind, "--instance", path, "--n", "8", "--preset", "onemax", "--reps", "2"]) == 1

    @pytest.mark.parametrize("flag", [
        ["--s", "1"], ["--alpha", "1/2"], ["--weights", "all-ones"],
        ["--transforms", "identity,square"], ["--embedding", "random"],
    ])
    @pytest.mark.parametrize("source", ["preset", "instance"])
    def test_generation_flags_need_a_generated_instance(self, tmp_path, flag, source):
        if source == "preset":
            base = ["--preset", "onemax", "--n", "8"]
        else:
            base = ["--instance", saved_instance(tmp_path, dl.onemax(8))]
        assert cli_main(["scale", *base, "--reps", "2"]) == 0
        assert cli_main(["scale", *base, "--reps", "2", *flag]) == 1

    def test_weight_range_needs_drawn_weights(self):
        base = ["scale", "--n", "8", "--reps", "2"]
        assert cli_main(base + ["--preset", "separable", "--wlo", "5"]) == 0
        assert cli_main(base + ["--weights", "doubling", "--wlo", "5"]) == 1
        assert cli_main(base + ["--preset", "onemax", "--whi", "5"]) == 1

    def test_budget_multiplier_needs_relative_budget(self):
        base = ["escape", "--n", "6", "--reps", "2"]
        assert cli_main(base + ["--budget", "500"]) == 0
        assert cli_main(base + ["--budget", "500", "--budget-mult", "5"]) == 1


# A valid value for every ExperimentConfig field: (flag argument, config-file value).
_FIELD_VALUES = {
    "n_values": ("8", [8]), "s": ("1", 1), "alpha": ("1/2", "1/2"), "preset": ("onemax", "onemax"),
    "weight_scheme": ("all-ones", "all-ones"), "weight_low": ("2", 2), "weight_high": ("50", 50),
    "transforms": ("identity,square", ["identity", "square"]), "embedding": ("random", "random"),
    "replicates": ("2", 2), "seed": ("3", 3), "budget_multiplier": ("5", 5.0), "budget": ("50", 50),
    "workers": ("1", 1), "fresh_instances": (None, True), "r_values": ("1,2", [1, 2]),
    "delta": ("0.01", 0.01), "states": ("2", 2), "mutation_probability": ("0.1", 0.1),
    "confidence": ("0.8", 0.8), "level_samples": ("1000", 1000), "probes": ("1", 1),
    "exponent": ("4", 4), "trace_stride": ("1", 1), "instance_file": ("inst.json", "inst.json"),
    "out_csv": ("r.csv", "r.csv"), "out_json": ("r.json", "r.json"),
}
_BASE_ARGV = {
    "scale": ["--preset", "onemax", "--n", "8", "--reps", "2"],
    "drift": ["--n", "8"],
    "escape": ["--n", "6", "--reps", "2"],
    "tail": ["--preset", "onemax", "--n", "6", "--reps", "5"],
    "chance": ["--m", "3", "--samples", "1000", "--reps", "1", "--probes", "0"],
    "run": ["--preset", "onemax", "--n", "8"],
}
_UNREAD = [
    (kind, name)
    for kind, fields in STUDY_FIELDS.items()
    for name in ExperimentConfig.__dataclass_fields__
    if name != "kind" and name not in fields
]


def test_field_values_cover_every_config_field():
    assert set(_FIELD_VALUES) == set(ExperimentConfig.__dataclass_fields__) - {"kind"}


@pytest.mark.parametrize("kind", sorted(STUDY_FIELDS))
def test_base_argv_runs(kind):
    assert cli_main([kind, *_BASE_ARGV[kind]]) == 0


@pytest.mark.parametrize("kind", sorted(STUDY_FIELDS))
def test_subcommand_flags_are_the_table(kind):
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[kind]
    dests = {a.dest for a in sub._actions} - {"help", "config", "check", "exhaustive"}
    assert dests == set(STUDY_FIELDS[kind])


@pytest.mark.parametrize("kind,name", _UNREAD, ids=[f"{k}-{n}" for k, n in _UNREAD])
def test_unread_option_exits_1(tmp_path, kind, name):
    flag_value, file_value = _FIELD_VALUES[name]
    cfg = write_config(tmp_path / "f.json", {name: file_value})
    assert cli_main([kind, *_BASE_ARGV[kind], "--config", cfg]) == 1
    if name in _FLAGS:
        flag = [_FLAGS[name][0]] + ([] if flag_value is None else [flag_value])
        assert cli_main([kind, *_BASE_ARGV[kind], *flag]) == 1


class TestUncertifiedAndMootOptions:
    def test_empty_drift_sweep_is_uncertified(self, tmp_path, capsys):
        # seed 3 samples only the all-zeros state of the 2-bit instance
        out = tmp_path / "d.json"
        code = cli_main(["drift", "--n", "2", "--states", "1", "--seed", "3", "--check", "--json", str(out)])
        assert code == 3
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
        assert doc["min_ratio"] is None and doc["pass"] is False
        assert "uncertified" in capsys.readouterr().out

    @pytest.mark.parametrize("preset", ["onemax", "chance"])
    def test_fresh_instances_moot_with_fixed_preset(self, tmp_path, preset):
        base = ["scale", "--preset", preset, "--n", "8", "--reps", "2"]
        assert cli_main(base) == 0
        assert cli_main(base + ["--fresh-instances"]) == 1
        cfg = write_config(tmp_path / "f.json", {"fresh_instances": True})
        assert cli_main(base + ["--config", cfg]) == 1

    def test_fresh_instances_moot_with_instance_file(self, tmp_path):
        base = ["scale", "--instance", saved_instance(tmp_path, dl.onemax(8)), "--reps", "2"]
        assert cli_main(base) == 0
        assert cli_main(base + ["--fresh-instances"]) == 1
        cfg = write_config(tmp_path / "f.json", {"fresh_instances": True})
        assert cli_main(base + ["--config", cfg]) == 1

    def test_fresh_instances_moot_without_random_generation(self):
        base = ["scale", "--n", "8", "--reps", "2", "--weights", "doubling", "--fresh-instances"]
        assert cli_main(base) == 1
        assert cli_main(base + ["--embedding", "random"]) == 0

    @pytest.mark.parametrize("source", [["--preset", "separable"], ["--s", "1"]])
    def test_fresh_instances_read_when_instances_are_drawn(self, source):
        assert cli_main(["scale", *source, "--n", "8", "--reps", "2", "--fresh-instances"]) == 0
