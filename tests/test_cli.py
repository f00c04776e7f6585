import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import driftlab
import driftlab.cli
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

    def test_io_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # a report that cannot be placed fails before the study runs; cli_main
        # calls the name bound in driftlab.cli
        def no_study(cfg):
            raise AssertionError("the study ran")

        monkeypatch.setattr(experiments, "run_experiment", no_study)
        monkeypatch.setattr(driftlab.cli, "run_experiment", no_study)
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        bad_paths = [tmp_path / "no" / "such" / "dir" / "r", a_file / "r", tmp_path]
        for flag in ("--out", "--json"):
            for path in bad_paths:
                code = cli_main(
                    ["scale", "--preset", "onemax", "--n", "16", "--reps", "2", flag, str(path)]
                )
                assert code == 2, (flag, path)
                assert capsys.readouterr().err.startswith("I/O error: ")

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
        assert set(doc) == {"min_ratio", "rounding_bound", "delta_ref", "epsilon", "pass"}
        assert doc["pass"] is True
        assert read_csv_lines(out_csv)[0] == "state_index,ones,phi,drift,ratio"

    def test_exhaustive_m14_runs(self, capsys):
        assert cli_main(["drift", "--n", "14", "--exhaustive", "--check"]) == 0
        out = capsys.readouterr().out
        assert "drift: 16383 rows" in out and "rounding bound" in out

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


class TestInstanceFileErrors:
    """A bad instance file is a configuration error: exit 1 with `error:`, no traceback."""

    @pytest.fixture(params=[["run", "--reps", "2"], ["drift", "--exhaustive", "--check"]], ids=["run", "drift"])
    def argv(self, request):
        return request.param

    @staticmethod
    def _exit_and_error(argv, path, capsys):
        code = cli_main([*argv, "--instance", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "transform, said",
        [
            ({"kind": "scale", "R": float("nan")}, "finite real number R"),
            ({"kind": "scale", "R": float("inf")}, "finite real number R"),
            ({"kind": "power", "k": float("nan")}, "finite real number k"),
            ({"kind": "affine", "a": float("nan"), "b": 0.0}, "finite real number a"),
            ({"kind": "affine", "a": 1.0, "b": float("inf")}, "finite real number b"),
            ({"kind": "power"}, "real number k > 0, got None"),
            ({"kind": "compose", "outer": {"kind": "square"}}, "a transform inner, got None"),
            ({"kind": "square", "k": 3}, "square transform takes no parameter k"),
        ],
    )
    def test_bad_transform_exits_1(self, tmp_path, capsys, argv, transform, said):
        doc = driftlab.onemax(8).to_dict()
        doc["transform1"] = transform
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, err = self._exit_and_error(argv, path, capsys)
        assert code == 1
        assert err.startswith("error:") and said in err

    def test_missing_instance_key_exits_1(self, tmp_path, capsys, argv):
        doc = driftlab.onemax(8).to_dict()
        del doc["transform2"]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, err = self._exit_and_error(argv, path, capsys)
        assert code == 1
        assert err.startswith("error:") and "'transform2'" in err

    def test_missing_chance_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"m": 2, "mu": [1.0, 3.0], "sigma": [1.0, 1.0]}))
        code, err = self._exit_and_error(["chance", "--samples", "100", "--reps", "1"], path, capsys)
        assert code == 1
        assert err.startswith("error:") and "'alpha_c'" in err

    @pytest.mark.parametrize("text", ['{"n": 8,', "[1, 2]", '"onemax"', "8", "null"],
                             ids=["truncated", "array", "string", "number", "null"])
    @pytest.mark.parametrize("command, what", [
        (["run", "--reps", "2"], "instance"), (["drift", "--exhaustive"], "instance"),
        (["chance", "--samples", "100", "--reps", "1"], "chance instance")], ids=["run", "drift", "chance"])
    def test_file_without_a_json_object_exits_1(self, tmp_path, capsys, command, what, text):
        # a truncated file printed only the decoder's "Expecting property name
        # ...", and an array "instance object lacks key(s) [...]"
        path = tmp_path / "inst.json"
        path.write_text(text)
        code, err = self._exit_and_error(command, path, capsys)
        assert code == 1
        assert err.startswith(f"error: {what} file {path} must hold a JSON object")

    @pytest.mark.parametrize(
        "change, said",
        [
            ({"weights1": [float("nan"), 1.0, 1.0, 1.0]}, "weights must be finite"),
            ({"weights2": [1.0, 1.0, 1.0, float("inf")]}, "weights must be finite"),
            ({"extra_key": 1, "B3": [1]}, "unknown key(s) ['B3', 'extra_key']"),
            ({"n": 8.5}, "must be integers, got {'n': 8.5}"),
            ({"B1": [1.5, 2, 3, 4]}, "must be lists of integers, got {'B1': [1.5, 2, 3, 4]}"),
            ({"B2": 5}, "must be lists of integers, got {'B2': 5}"),
            ({"alpha_den": 0}, "alpha_den must not be 0"),
        ],
    )
    def test_bad_instance_value_exits_1(self, tmp_path, capsys, argv, change, said):
        # each of these used to run to "min ratio nan ... FAIL", to "checks ok"
        # (B1 entries were truncated to integers) or to a ZeroDivisionError traceback
        doc = {**driftlab.onemax(8).to_dict(), **change}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, err = self._exit_and_error(argv, path, capsys)
        assert code == 1
        assert err.startswith("error:") and said in err

    @pytest.mark.parametrize(
        "change, said",
        [
            ({"mu": [float("nan"), 1.0]}, "mu and sigma must be finite"),
            ({"sigma": [1.0, float("inf")]}, "mu and sigma must be finite"),
            ({"extra_key": 1}, "unknown key(s) ['extra_key']"),
            ({"m": 2.5}, "must be integers, got {'m': 2.5}"),
            ({"alpha_c": "0.9"}, "confidence must be a real number in (0, 1), got '0.9'"),
        ],
    )
    def test_bad_chance_value_exits_1(self, tmp_path, capsys, change, said):
        # NaN mu and a string alpha_c used to end in a TypeError traceback; m = 2.5 was truncated to 2
        doc = {"m": 2, "mu": [1.0, 3.0], "sigma": [1.0, 1.0], "alpha_c": 0.9, **change}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, err = self._exit_and_error(["chance", "--samples", "100", "--reps", "2"], path, capsys)
        assert code == 1
        assert err.startswith("error:") and said in err


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

    def test_certifies_m14_without_delta(self, capsys):
        code = cli_main(["tail", "--n", "14", "--reps", "20", "--seed", "5", "--check"])
        assert code == 0
        assert "certified delta=" in capsys.readouterr().out

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

    def test_confidence_below_half_names_its_fractile(self, capsys):
        # used to say "scale transform needs a finite real number R >= 0, got -0.52..."
        assert cli_main(["chance", "--m", "4", "--alpha-c", "0.3", "--reps", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: confidence 0.3 has a negative fractile -0.524")
        # the median's fractile is 0: allowed
        assert cli_main(["chance", "--m", "4", "--alpha-c", "0.5", "--reps", "2", "--samples", "1000"]) == 0

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

    @pytest.mark.parametrize("n", [1100, 2200])
    def test_doubling_past_float64_is_a_config_error(self, n, capsys):
        # n = 1100: h1 = square of 2^550 - 1 overflows; n = 2200: the weights
        # themselves would, and no numpy overflow warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["run", "--n", str(n), "--weights", "doubling", "--reps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float64" in err and f"n = {n}" in err
        assert "part 1" in err and "Warning" not in err


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

    def test_reports_to_a_pipe_and_to_dev_null(self):
        # a pipe cannot be truncated: writing a report to one must not try
        tail = [sys.executable, "-m", "driftlab.cli", "tail", "--preset", "onemax", "--n", "8",
                "--reps", "5"]
        piped = subprocess.run(tail + ["--out", "/dev/stdout", "--json", "/dev/stdout"],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout.startswith("r,threshold,exceed_freq,bound\n")
        assert '\n  "kind": "tail",\n' in piped.stdout
        assert "tail: 3 rows, checks ok" in piped.stdout
        nulled = subprocess.run(tail + ["--out", "/dev/null", "--json", "/dev/null"],
                                capture_output=True, text=True)
        assert nulled.returncode == 0, nulled.stderr

    def test_reports_to_stdout_redirected_to_a_file(self, tmp_path):
        # both reports and the summary follow one another in the file, as in a pipe
        tail = [sys.executable, "-m", "driftlab.cli", "tail", "--preset", "onemax", "--n", "8",
                "--reps", "5", "--out", "/dev/stdout", "--json", "/dev/stdout"]
        piped = subprocess.run(tail, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert piped.returncode == 0, piped.stderr
        path = tmp_path / "out.txt"
        with open(path, "wb") as fh:
            filed = subprocess.run(tail, stdout=fh, stderr=subprocess.PIPE)
        assert filed.returncode == 0, filed.stderr
        assert path.read_bytes() == piped.stdout


_SCIPY_PROBE = """
import sys
from driftlab.cli import cli_main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
for argv in [
    ["tail", "--preset", "onemax", "--n", "8", "--reps", "20"],
    ["scale", "--preset", "separable", "--n", "16", "--reps", "2"],
    ["drift", "--n", "8", "--exhaustive"],
    ["escape", "--n", "6", "--reps", "2"],
    ["run", "--preset", "onemax", "--n", "16"],
    ["scale", "--preset", "chance", "--n", "16", "--reps", "2"],
    ["chance", "--m", "6", "--reps", "2", "--samples", "1000"],
]:
    assert cli_main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_no_subcommand_imports_scipy():
    # normal_quantile is a port of Cephes ndtri, so scipy is a test dependency only
    result = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
from driftlab.experiments import STUDIES, ExperimentConfig  # noqa: E402
from driftlab.potential import zero_weight_positions  # noqa: E402


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

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_bad_budget_multiplier_exits_1(self, capsys, value):
        code = cli_main(["scale", "--preset", "onemax", "--n", "16", "--reps", "2", f"--budget-mult={value}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: budget multiplier must be finite and positive")

    @pytest.mark.parametrize("kind", ["scale", "escape", "run"])
    def test_zero_budget_exits_1(self, capsys, kind):
        base = ["--n", "8"] if kind == "escape" else ["--preset", "onemax", "--n", "16"]
        assert cli_main([kind, *base, "--reps", "2", "--budget", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: absolute budget must be at least 1")

    def test_negative_probes_exit_1(self, capsys):
        assert cli_main(["chance", "--m", "6", "--probes", "-2", "--reps", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: probe count must be non-negative")

    def test_zero_samples_exit_1_before_any_replicate(self, capsys, monkeypatch):
        def no_replicates(*args, **kwargs):
            raise AssertionError("replicates ran before --samples was checked")

        monkeypatch.setattr(experiments, "_run_replicates", no_replicates)
        assert cli_main(["chance", "--m", "6", "--reps", "2", "--samples", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: level samples (--samples) must be at least 1")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_exponent_below_1_exits_1(self, capsys, value):
        assert cli_main(["escape", "--n", "8", "--exponent", value, "--reps", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: exponent must be at least 1")

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
    for kind, study in STUDIES.items()
    for name in ExperimentConfig.__dataclass_fields__
    if name != "kind" and name not in study.fields
]


def test_field_values_cover_every_config_field():
    assert set(_FIELD_VALUES) == set(ExperimentConfig.__dataclass_fields__) - {"kind"}


@pytest.mark.parametrize("kind", sorted(STUDIES))
def test_base_argv_runs(kind):
    assert cli_main([kind, *_BASE_ARGV[kind]]) == 0


@pytest.mark.parametrize("kind", sorted(STUDIES))
def test_subcommand_flags_are_the_table(kind):
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[kind]
    dests = {a.dest for a in sub._actions} - {"help", "config", "check", "exhaustive"}
    assert dests == set(STUDIES[kind].fields)


@pytest.mark.parametrize("kind,name", _UNREAD, ids=[f"{k}-{n}" for k, n in _UNREAD])
def test_unread_option_exits_1(tmp_path, kind, name):
    flag_value, file_value = _FIELD_VALUES[name]
    cfg = write_config(tmp_path / "f.json", {name: file_value})
    assert cli_main([kind, *_BASE_ARGV[kind], "--config", cfg]) == 1
    if name in _FLAGS:
        flag = [_FLAGS[name][0]] + ([] if flag_value is None else [flag_value])
        assert cli_main([kind, *_BASE_ARGV[kind], *flag]) == 1


@pytest.mark.parametrize("doc", [
    {"reps": 3, "replicates": 7},
    {"n_values": [8], "n": 10},
    {"budget_mult": 5, "budget_multiplier": 6},
])
def test_config_file_setting_a_field_twice_exits_1(tmp_path, capsys, doc):
    cfg = write_config(tmp_path / "f.json", {"preset": "onemax", **doc})
    assert cli_main(["scale", "--config", cfg, "--n", "8", "--reps", "2"]) == 1
    assert "twice" in capsys.readouterr().err


# A config file each subcommand runs, without the integer option set next to it.
_INTEGER_BASE = {
    "scale": {"n": 8, "reps": 2},
    "drift": {"n": 8},
    "escape": {"n": 6, "reps": 2},
    "chance": {"m": 3, "samples": 1000, "reps": 1, "probes": 0},
    "run": {"preset": "onemax", "n": 8},
}
_INTEGER_OPTIONS = [
    ("scale", "n"), ("chance", "m"), ("scale", "s"), ("scale", "wlo"), ("scale", "whi"), ("scale", "reps"),
    ("scale", "budget"), ("scale", "seed"), ("scale", "workers"), ("drift", "states"), ("chance", "samples"),
    ("chance", "probes"), ("escape", "exponent"), ("run", "stride"),
]
# null stands for no value only where the option is optional
_NOT_INTEGERS = [
    (kind, key, value)
    for kind, key in _INTEGER_OPTIONS
    for value in (2.5, 2.0, True, "2", [8, 2.0], None)
    if not (value is None and key in ("budget", "states", "exponent"))
    and not (isinstance(value, list) and key not in ("n", "m"))
]


@pytest.mark.parametrize("kind,key,value", _NOT_INTEGERS,
                         ids=[f"{kind}-{key}-{json.dumps(value)}" for kind, key, value in _NOT_INTEGERS])
def test_config_file_integer_options_must_be_integers(tmp_path, capsys, kind, key, value):
    # int() would truncate 2.5 (a stride of 1.5 sampled iterations 1.5, 3.0, ...)
    # and read true and "2"; a replicate count of 2.0 crashed with a traceback
    doc = {**_INTEGER_BASE[kind], key: value}
    assert cli_main([kind, "--config", write_config(tmp_path / "f.json", doc)]) == 1
    assert "must be integers" in capsys.readouterr().err
    doc[key] = {"n": 8, "m": 3, "s": 1, "workers": 1}.get(key, 2)  # the same file with an int runs
    assert cli_main([kind, "--config", write_config(tmp_path / "f.json", doc)]) == 0


# (kind, key, a value of the wrong type or shape, a value that runs, the error's words)
_MISTYPED = [
    ("scale", "fresh_instances", "no", False, "must be true or false"),
    ("scale", "fresh_instances", "false", False, "must be true or false"),
    ("scale", "fresh_instances", 1, True, "must be true or false"),
    ("drift", "p", True, 0.5, "must be numbers"),
    ("scale", "budget_mult", True, 5, "must be numbers"),
    ("tail", "delta", "0.1", 0.1, "must be numbers"),
    ("tail", "r", [1, True], [1, 2], "must be numbers"),
    ("tail", "r", "1,2", [1, 2], "must be numbers"),
    ("chance", "alpha_c", "0.8", 0.8, "must be numbers"),
    ("scale", "alpha", True, "1/2", "must be fractions"),
    ("scale", "instance", 0, None, "must be strings"),
    ("scale", "out", 1, None, "must be strings"),
    ("scale", "json", True, None, "must be strings"),
    ("scale", "preset", 1, "onemax", "must be strings"),
    ("scale", "weights", 1, "all-ones", "must be strings"),
    ("scale", "transforms", [{"kind": "square"}, "square_root"], ["square", "square_root"], "must be strings"),
    ("scale", "transforms", {"square": 1, "square_root": 2}, ["square", "square_root"], "must be strings"),
    ("scale", "transforms", ["square"], ["identity", "square"], "transforms must be two names"),
    ("scale", "transforms", "square", "square,square_root", "transforms must be two names"),
    ("tail", "r", [], [1], "tail parameters r need at least one value"),
]


@pytest.mark.parametrize("kind,key,value,valid,words", _MISTYPED,
                         ids=[f"{kind}-{key}-{json.dumps(value)}" for kind, key, value, _, _ in _MISTYPED])
def test_config_file_options_must_have_their_type(tmp_path, capsys, kind, key, value, valid, words):
    # "no" and "false" are truthy and turned fresh instances on; p = true ran
    # at p = 1; an instance of 0 was ignored; out = 1 crashed with a TypeError;
    # one transform or no r failed inside the study with an unrelated message
    base = {**_INTEGER_BASE, "tail": {"preset": "onemax", "n": 6, "reps": 5}}[kind]
    doc = {**base, key: value}
    assert cli_main([kind, "--config", write_config(tmp_path / "f.json", doc)]) == 1
    assert words in capsys.readouterr().err
    doc[key] = valid  # the same file with a value of the right type runs
    assert cli_main([kind, "--config", write_config(tmp_path / "f.json", doc)]) == 0


def test_config_file_writing_a_key_twice_exits_1(tmp_path, capsys):
    # json.load alone keeps the last value and would run 7 replicates
    path = tmp_path / "f.json"
    path.write_text('{"preset": "onemax", "n": 8, "reps": 3, "reps": 7}', encoding="utf-8")
    assert cli_main(["scale", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: config file writes key 'reps' twice")


@pytest.mark.parametrize("text, said", [
    ('{"n": 8,', ": Expecting property name enclosed in double quotes"), ("[1, 2]", ", not an array"),
    ('"scale"', ", not a string"), ("true", ", not a boolean"), ("8", ", not a number"), ("null", ", not null")],
    ids=["truncated", "array", "string", "boolean", "number", "null"])
def test_config_file_without_a_json_object_exits_1(tmp_path, capsys, text, said):
    path = tmp_path / "f.json"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["scale", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path} must hold a JSON object{said}")


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"n": "\xff"}')
    assert cli_main(["scale", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path} must hold a JSON object: 'utf-8' codec")


@pytest.mark.parametrize("doc, said", [
    ({"reps": 2.5}, "got {'reps': 2.5}"),
    ({"out": 1}, "got {'out': 1}"),
    ({"budget_mult": "x"}, "got {'budget_mult': 'x'}"),
    ({"n": [8, 2.5]}, "got {'n': [8, 2.5]}"),
    ({"replicates": 2.5}, "got {'replicates': 2.5}"),
    ({"budget_mult": 5, "budget": 10}, "'budget_mult' (an absolute budget is set)"),
], ids=["reps", "out", "budget_mult", "n", "replicates", "moot"])
def test_config_file_error_names_the_key_written(tmp_path, capsys, doc, said):
    # the error named the field a key maps to: {'replicates': 2.5} for "reps"
    cfg = write_config(tmp_path / "f.json", {"preset": "onemax", "n": 8, **doc})
    assert cli_main(["scale", "--config", cfg]) == 1
    assert capsys.readouterr().err.endswith(f"{said}\n")


def test_config_file_alpha_number_means_its_decimal(tmp_path):
    # a JSON 0.6 was read at its binary value, 5404319552844595/9007199254740992,
    # so alpha*n was no integer; it now means 3/5, as the flag's "0.6" does
    echoes = []
    for argv in (["--config", write_config(tmp_path / "f.json", {"alpha": 0.6, "n": 10, "reps": 2})],
                 ["--alpha", "0.6", "--n", "10", "--reps", "2"]):
        out = tmp_path / "r.json"
        assert cli_main(["scale", *argv, "--json", str(out)]) == 0
        echoes.append(json.loads(out.read_text())["config"])
    assert echoes[0]["alpha"] == "3/5"
    assert echoes[0] == echoes[1]
    # a dyadic float keeps its value
    assert experiments.ExperimentConfig("scale", (10,), alpha=0.5).alpha == Fraction(1, 2)


class TestUncertifiedAndMootOptions:
    def test_empty_drift_sweep_is_uncertified(self, tmp_path, capsys):
        # seed 3 samples only the all-zeros state of the 2-bit instance
        out = tmp_path / "d.json"
        code = cli_main(["drift", "--n", "2", "--states", "1", "--seed", "3", "--check", "--json", str(out)])
        assert code == 3
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
        assert doc["min_ratio"] is None and doc["pass"] is False
        assert "uncertified" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, row_nulls", [
        # every run censored: no mean, spread, median or ratio
        (["scale", "--preset", "onemax", "--n", "64", "--reps", "2", "--budget", "1"],
         {"mean_T", "sd_T", "median_T", "ratio_nlogn"}),
        # seed 17 starts its one replicate at the optimum, so no start is counted
        (["tail", "--preset", "onemax", "--n", "2", "--reps", "1", "--delta", "0.2", "--seed", "17"],
         {"threshold"}),
    ])
    def test_undefined_statistics_are_json_null(self, tmp_path, argv, row_nulls):
        out = tmp_path / "r.json"
        assert cli_main(argv + ["--json", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
        for row in doc["rows"]:
            assert {key for key, value in row.items() if value is None} == row_nulls

    def test_finite_json_report_keeps_its_bytes(self, tmp_path):
        bundle = experiments.run_experiment(experiments.resolve_config(
            "scale", {"preset": "onemax", "n_values": 16, "replicates": 3, "seed": 2}))
        out = tmp_path / "r.json"
        bundle.write_json(out)
        plain = json.dumps(bundle.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert out.read_text(encoding="utf-8") == plain

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


# -- one parser per process ------------------------------------------------------

# Sequences of (argv, whether the call writes reports) run in one process.
PARSER_REUSE = {
    "states-then-exhaustive": [
        (["drift", "--n", "8", "--states", "5", "--seed", "8"], True),
        (["drift", "--n", "8", "--seed", "8"], True),
    ],
    "usage-error-then-run": [
        (["scale", "--bogus", "1"], False),
        (["scale", "--preset", "onemax", "--n", "16", "--reps", "2", "--seed", "8"], True),
    ],
    "help-then-run": [
        (["--help"], False),
        (["tail", "--preset", "onemax", "--n", "8", "--reps", "20", "--seed", "8"], True),
    ],
}


@pytest.mark.parametrize("name", sorted(PARSER_REUSE))
def test_reused_parser_gives_every_call_its_first_call_outcome(tmp_path, capsys, name):
    def outcome(argv, writes, d):
        d.mkdir()
        outputs = ["--out", str(d / "r.csv"), "--json", str(d / "r.json")] if writes else []
        code = cli_main(argv + outputs)
        printed = capsys.readouterr()
        reports = None
        if writes:
            doc = json.loads((d / "r.json").read_text())
            doc.get("config", {}).pop("out_json", None)
            doc.get("config", {}).pop("out_csv", None)
            reports = ((d / "r.csv").read_bytes(), doc)
        return code, printed.out.replace(str(d), "<dir>"), printed.err, reports

    calls = PARSER_REUSE[name]
    _build_parser.cache_clear()
    shared = [outcome(argv, writes, tmp_path / f"shared{i}") for i, (argv, writes) in enumerate(calls)]
    assert _build_parser.cache_info().misses == 1  # every call parsed with the one parser
    for i, (argv, writes) in enumerate(calls):
        _build_parser.cache_clear()
        assert shared[i] == outcome(argv, writes, tmp_path / f"first{i}"), argv


def test_zero_weights_are_named_outside_the_certificate(capsys):
    argv = ["--n", "12", "--s", "2", "--embedding", "random", "--wlo", "0", "--whi", "2"]
    instance = experiments.build_objective(
        experiments.resolve_config("drift", {"n_values": 12, "s": 2, "embedding": "random",
                                             "weight_low": 0, "weight_high": 2}),
        12, dl.RandomSource(1).spawn(0))
    zero = zero_weight_positions(instance)
    assert zero
    named = "zero weights at positions " + ", ".join(str(j + 1) for j in zero)
    assert cli_main(["drift", *argv]) == 0
    out = capsys.readouterr().out
    assert "FAIL" in out and named in out and "positive weights only" in out
    assert cli_main(["tail", *argv]) == 1
    err = capsys.readouterr().err
    assert "exhaustive drift check failed" in err and named in err and "positive weights only" in err
    # positive weights carry no such note
    assert cli_main(["drift", *argv[:6]]) == 0
    assert "zero weights" not in capsys.readouterr().out
