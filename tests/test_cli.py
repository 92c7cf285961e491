import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgwave import cli, experiment
from lgwave.cli import RunConfig, build_parser, load_config, main
from lgwave.harness import N_HERALD, N_TOTAL, ExperimentPlan, run_context
from lgwave.optics import OpticalParams, SourceParams

DATA = Path(__file__).parent / "data"

# gamma lowered so a tiny sample count still yields coincidences
TINY = ["--samples", "4096", "--reps", "2", "--seed", "7", "--gamma", "1.2"]


def run_cli(args):
    return main(args)


class TestContexts:
    def test_lists_nine_rows(self, capsys):
        assert run_cli(["contexts"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10  # header + nine contexts
        assert "1  0  0  1" in out[7]


class TestOracle:
    def test_ideal_predictions(self, capsys):
        assert run_cli(["oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["K"] == pytest.approx(1.5, abs=1e-12)
        assert doc["pmf_t1t2t3"]["+--"] == pytest.approx(0.09375, abs=1e-12)
        assert doc["params"] == {
            "t1": 0.5, "t2": 0.75, "t3": 0.75, "theta1": 0.0, "theta2": 0.0,
        }
        for v in doc["type_weight_sums"].values():
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_invalid_transmittance(self, capsys):
        assert run_cli(["oracle", "--t1", "1.5"]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_out_from_config_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["oracle"]) == 0
        assert list(tmp_path.iterdir()) == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "from_config"}))
        assert run_cli(["oracle", "--config", str(cfg)]) == 0
        assert run_cli(["oracle", "--out", "from_flag"]) == 0
        written = (tmp_path / "from_config" / "oracle.json").read_bytes()
        assert written == (tmp_path / "from_flag" / "oracle.json").read_bytes()


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        assert run_cli(["run", *TINY, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["config"]["samples"] == 4096
        assert len(doc["per_rep"]) == 2
        assert "K" in doc["summary"] and "eta_t1t2t3" in doc["summary"]
        csv = (tmp_path / "counts.csv").read_text()
        lines = csv.strip().splitlines()
        assert lines[0] == "rep,context_bits,n_total,n_herald,n_plus,n_minus,n_double"
        assert len(lines) == 1 + 2 * 9

    def test_zero_samples_rejected(self, capsys):
        assert run_cli(["run", "--samples", "0"]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_no_coincidences_reported(self, tmp_path, capsys):
        rc = run_cli(["run", "--samples", "64", "--reps", "1", "--seed", "7",
                      "--out", str(tmp_path)])
        assert rc == 1
        assert "no-statistics" in capsys.readouterr().err

    def test_zero_efficiency_reported(self, tmp_path, capsys):
        # the per-context streams give PMFs, but the shared pass leaves a
        # Lambda set empty, so the W decomposition has no efficiency to divide by
        rc = run_cli(["run", "--samples", "800", "--reps", "1", "--seed", "3",
                      "--out", str(tmp_path)])
        assert rc == 1
        assert "no-statistics" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_invariant_violation_exits_4(self, command, tmp_path, monkeypatch, capsys):
        # per-context counts with more heralds than realizations
        def corrupt_run_context(plans, ctx, rep):
            counts = run_context(plans, ctx, rep)
            counts[:, N_HERALD] = counts[:, N_TOTAL] + 1
            return counts

        monkeypatch.setattr(experiment, "run_context", corrupt_run_context)
        argv = [command, *TINY, "--out", str(tmp_path)]
        if command == "sweep":
            argv += ["--sweep-r", "0.3", "--sweep-gamma", "1.2"]
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert "lgwave: error [invariant-violation]" in err
        assert "count ordering violated in context 1111: n_total=4096, n_herald=4097" in err
        if command == "sweep":
            assert "r=0.3, gamma=1.2: count ordering violated" in err
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", *TINY, "--out", str(out1)]) == 0
        assert run_cli(["run", *TINY, "--out", str(out2)]) == 0
        assert (out1 / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()
        j1 = json.loads((out1 / "summary.json").read_text())
        j2 = json.loads((out2 / "summary.json").read_text())
        j1["config"]["out"] = j2["config"]["out"] = ""
        assert j1 == j2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 4096, "reps": 1, "seed": 7, "gamma": 1.2}))
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(cfg), "--reps", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["reps"] == 2
        assert doc["config"]["samples"] == 4096

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_out_fails_before_sampling(self, command, tmp_path, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("sampled before the output directory was made")

        monkeypatch.setattr(cli, "run_experiment", sample)
        monkeypatch.setattr(cli, "run_kw_only", sample)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        argv = [command, "--samples", "8192", "--reps", "2", "--gamma", "1.2"]
        assert run_cli([*argv, "--out", str(not_a_dir / "x")]) == 3
        assert "lgwave: error [io-error]" in capsys.readouterr().err

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        assert run_cli(["run", *TINY, "--out", str(tmp_path / "out")]) == 130
        assert capsys.readouterr().err.splitlines() == ["lgwave: interrupted"]

    def test_interrupt_inside_a_pool_task_exits_130(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C in the first task drops the queued ones (the one worker may
        # have started the next one), and main reports it as an interrupt
        calls = []

        def interrupted(*args):
            calls.append(args)
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "run_context", interrupted)
        monkeypatch.setenv("LGWAVE_WORKERS", "1")
        argv = ["run", "--samples", "1024", "--reps", "3", "--out", str(tmp_path / "out")]
        try:
            status = run_cli(argv)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        assert status == 130
        assert capsys.readouterr().err.splitlines() == ["lgwave: interrupted"]
        assert len(calls) <= 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample": 4096}))
        assert run_cli(["run", "--config", str(cfg)]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_golden_counts(self, tmp_path, monkeypatch):
        # frozen tiny runs and sweeps, one per draw mode, and the oracle at
        # two optics: (argv, output, golden file)
        run = ["run", "--samples", "1024", "--reps", "2", "--seed", "7", "--gamma", "1.2"]
        # 4161 = 2 * 2048 + 65: the last row block is partial
        partial = ["run", "--samples", "4161", "--reps", "2", "--seed", "7", "--gamma", "1.2"]
        sweep = ["sweep", "--samples", "4096", "--reps", "2", "--seed", "7",
                 "--sweep-r", "0.5,1.0", "--sweep-gamma", "1.2,1.5"]
        shared = ["--mode", "shared-draws"]
        oracle = ["oracle"]
        tilted = ["--t1", "0.3", "--t2", "0.6", "--t3", "0.9", "--theta1", "0.7", "--theta2", "-1.1"]
        cases = [
            (run, "counts.csv", "golden_counts.csv"),
            (run + shared, "counts.csv", "golden_counts_shared.csv"),
            (partial, "counts.csv", "golden_counts_partial.csv"),
            (sweep, "sweep.csv", "golden_sweep_independent.csv"),
            (sweep + shared, "sweep.csv", "golden_sweep_shared.csv"),
            (run, "summary.json", "golden_summary.json"),
            (run + shared, "summary.json", "golden_summary_shared.json"),
            (oracle, "oracle.json", "golden_oracle.json"),
            (oracle + tilted, "oracle.json", "golden_oracle_tilted.json"),
        ]
        # a relative --out named after the golden file, which summary.json
        # records as config.out
        monkeypatch.chdir(tmp_path)
        for argv, output, golden in cases:
            out = Path(golden).stem
            assert run_cli([*argv, "--out", out]) == 0
            assert (tmp_path / out / output).read_bytes() == (DATA / golden).read_bytes(), golden


def numpy_blas():
    """The name of the BLAS numpy was built with, or "" if numpy does not say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode
        return ""


@pytest.mark.skipif("openblas" not in numpy_blas(), reason="numpy's BLAS is not OpenBLAS")
def test_golden_counts_under_another_gemm_kernel(tmp_path):
    # a dynamic-arch OpenBLAS picks its GEMM kernel from OPENBLAS_CORETYPE,
    # and Prescott's rounds products otherwise than the host's; two threads
    # split the products too.  Counts are decided exactly, so the golden
    # files still hold.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cases = [
        (["run", "--samples", "1024", "--reps", "2", "--seed", "7", "--gamma", "1.2",
          "--mode", "shared-draws"], "counts.csv", "golden_counts_shared.csv"),
        (["sweep", "--samples", "4096", "--reps", "2", "--seed", "7",
          "--sweep-r", "0.5,1.0", "--sweep-gamma", "1.2,1.5"], "sweep.csv",
         "golden_sweep_independent.csv"),
    ]
    for argv, output, golden in cases:
        out = tmp_path / Path(golden).stem
        subprocess.run([sys.executable, "-m", "lgwave.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        assert (out / output).read_bytes() == (DATA / golden).read_bytes(), golden


class TestSweep:
    def test_grid_cardinality(self, tmp_path):
        assert run_cli([
            "sweep", "--samples", "4096", "--reps", "1", "--seed", "7",
            "--sweep-r", "0.5,1.0", "--sweep-gamma", "1.0,1.5",
            "--out", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "r,gamma,K_mean,K_std,W_mean,W_std,lgi_bound,qm_bound"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            assert line.endswith(",1.0,1.5")

    def test_shared_draws_mode(self, tmp_path):
        assert run_cli([
            "sweep", "--samples", "4096", "--reps", "2", "--seed", "7",
            "--mode", "shared-draws", "--sweep-r", "0.3", "--sweep-gamma", "1.2",
            "--out", str(tmp_path),
        ]) == 0
        assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 2

    def test_r_and_gamma_checked_but_left_out_of_the_grid(self, tmp_path, capsys):
        # the grid sets every point's r and gamma: --r and --gamma, as flags
        # or config keys, are validated and leave sweep.csv as it is
        grid = ["sweep", "--samples", "4096", "--reps", "2", "--seed", "7",
                "--sweep-r", "0.5,1.0", "--sweep-gamma", "1.2,1.5"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.9, "gamma": 3.0}))
        for i, extra in enumerate([["--r", "5", "--gamma", "9"], ["--config", str(cfg)]]):
            out = tmp_path / str(i)
            assert run_cli([*grid, *extra, "--out", str(out)]) == 0
            golden = (DATA / "golden_sweep_independent.csv").read_bytes()
            assert (out / "sweep.csv").read_bytes() == golden, extra
        for bad in (["--r", "400"], ["--gamma", "-1"]):
            assert run_cli([*grid, *bad, "--out", str(tmp_path / "bad")]) == 2
            assert "invalid-config" in capsys.readouterr().err

    def test_integral_config_grid_writes_the_flag_bytes(self, tmp_path):
        # [0.5, 1] from a config file writes r = 1.0, as --sweep-r 0.5,1.0 does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep_r": [0.5, 1], "sweep_gamma": [1.2, 1.5],
                                   "samples": 4096, "reps": 2, "seed": 7}))
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        golden = (DATA / "golden_sweep_independent.csv").read_bytes()
        assert (tmp_path / "sweep.csv").read_bytes() == golden

    def test_empty_grid_rejected(self, capsys):
        assert run_cli(["sweep", "--sweep-r", ""]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_failing_point_named(self, tmp_path, capsys):
        # gamma = 50 leaves its point without a single coincidence
        for mode in ("independent-draws", "shared-draws"):
            assert run_cli([
                "sweep", "--samples", "4096", "--reps", "2", "--seed", "7", "--mode", mode,
                "--sweep-r", "0.5", "--sweep-gamma", "1.2,50", "--out", str(tmp_path),
            ]) == 1
            err = capsys.readouterr().err
            assert "[no-statistics] r=0.5, gamma=50.0: all four coincidence" in err, mode


# A valid value other than the default for every RunConfig field.
SETTING_VALUES = {
    "r": 0.7, "gamma": 1.25, "t1": 0.25, "t2": 0.5, "t3": 0.625, "theta1": 0.4,
    "theta2": -0.9, "samples": 4096, "reps": 3, "seed": 11, "mode": "shared-draws",
    "sweep_r": [0.2, 0.4], "sweep_gamma": [1.1], "out": "elsewhere",
}
# The settings whose parameter dataclass gives them no default.
UNMIRRORED = {"r", "sweep_r", "sweep_gamma", "out"}
SETTINGS = [pytest.param(f, id=f.name) for f in fields(RunConfig)]
FLOAT_SETTINGS = [pytest.param(f, id=f.name) for f in fields(RunConfig) if "float" in f.type]
COMMANDS = ("run", "sweep", "oracle", "contexts")


def flag(f):
    return "--" + f.name.replace("_", "-")


# The settings `oracle` takes: it draws no samples.
ORACLE_SETTINGS = {"t1", "t2", "t3", "theta1", "theta2", "out"}


def commands_of(f):
    """The subcommands that take setting f as a flag."""
    if f.name.startswith("sweep_"):
        return ("sweep",)
    return ("run", "sweep", "oracle") if f.name in ORACLE_SETTINGS else ("run", "sweep")


def flags_of(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions for s in a.option_strings} - {"-h", "--help"}


class TestSettingsTable:
    """Each RunConfig field is one setting: a flag on its subcommands and a
    config key that give the same value, and a default that mirrors the
    parameter dataclass the field is passed to."""

    @pytest.mark.parametrize("f", SETTINGS)
    def test_flag_and_config_key_agree(self, f, tmp_path):
        value = SETTING_VALUES[f.name]
        text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
        command = commands_of(f)[0]
        from_flag = load_config(build_parser().parse_args([command, flag(f), text]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({f.name: value}))
        from_key = load_config(build_parser().parse_args([command, "--config", str(path)]))
        assert from_flag == from_key
        assert getattr(from_key, f.name) == value != getattr(RunConfig(), f.name)

    @pytest.mark.parametrize("f", FLOAT_SETTINGS)
    def test_integral_float_stored_as_float(self, f, tmp_path):
        # a config file's 1 is stored as the flag's 1.0, so both write 1.0
        value = [1] if f.type == "list[float]" else 1
        command = commands_of(f)[0]
        from_flag = load_config(build_parser().parse_args([command, flag(f), "1"]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({f.name: value}))
        from_key = load_config(build_parser().parse_args([command, "--config", str(path)]))
        assert repr(getattr(from_key, f.name)) == repr(getattr(from_flag, f.name))
        assert getattr(from_key, f.name) == value

    @pytest.mark.parametrize("f", SETTINGS)
    def test_flag_on_its_commands_only(self, f):
        for command in COMMANDS:
            assert (flag(f) in flags_of(command)) == (command in commands_of(f)), command

    @pytest.mark.parametrize("f", SETTINGS)
    def test_config_key_on_the_commands_of_its_flag(self, f, tmp_path):
        # a config key is accepted on exactly the commands that take its flag
        value = SETTING_VALUES[f.name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({f.name: value}))
        for command in ("run", "sweep", "oracle"):
            args = build_parser().parse_args([command, "--config", str(path)])
            if flag(f) in flags_of(command):
                assert getattr(load_config(args), f.name) == value, command
            else:
                with pytest.raises(cli.InvalidConfig, match="unknown config keys"):
                    load_config(args)

    @pytest.mark.parametrize("f", SETTINGS)
    def test_default_mirrors_the_parameters(self, f):
        defaults = {
            g.name: g.default
            for cls in (SourceParams, OpticalParams, ExperimentPlan)
            for g in fields(cls)
            if g.default is not MISSING
        }
        if f.name in UNMIRRORED:
            assert f.name not in defaults
        else:
            assert getattr(RunConfig(), f.name) == defaults[f.name]

    def test_commands_parse_only_config_and_setting_flags(self):
        for command in COMMANDS:
            settings = {flag(f) for f in fields(RunConfig) if command in commands_of(f)}
            expected = {"--config"} | settings if settings else set()
            assert flags_of(command) == expected, command


# Small sizes keep a row fast should validation ever let it through to a run.
SMALL = ["--samples", "64", "--reps", "1"]


@pytest.mark.parametrize(
    "argv, config, workers",
    [
        pytest.param(["run", "--seed", "-1", *SMALL], None, None, id="negative-seed"),
        pytest.param(["run", "--r", "nan", *SMALL], None, None, id="r-nan"),
        pytest.param(["run", "--r", "356", *SMALL], None, None, id="r-356"),
        pytest.param(["run", "--r", "1000", *SMALL], None, None, id="r-1000"),
        pytest.param(["sweep", "--sweep-r", "0.5,1000", *SMALL], None, None,
                     id="sweep-r-1000"),
        pytest.param(["run", "--gamma", "nan", *SMALL], None, None, id="gamma-nan"),
        pytest.param(["run", "--theta1", "nan", *SMALL], None, None, id="theta1-nan"),
        pytest.param(["sweep", "--sweep-r", "nan", *SMALL], None, None, id="sweep-r-nan"),
        pytest.param(["oracle", "--theta1", "nan"], None, None, id="oracle-theta1-nan"),
        pytest.param(["sweep", "--sweep-r=-1", *SMALL], None, None, id="sweep-r-negative"),
        pytest.param(["sweep", "--sweep-gamma=-1", *SMALL], None, None,
                     id="sweep-gamma-negative"),
        pytest.param(["run", "--reps", "1"], "[]", None, id="config-not-object"),
        pytest.param(["run", "--reps", "1"], '{"samples": "2048"}', None,
                     id="config-samples-string"),
        pytest.param(["run", "--reps", "1"], '{"samples": 2048.5}', None,
                     id="config-samples-float"),
        pytest.param(["run", "--reps", "1"], "[" * 200_000 + "]" * 200_000, None,
                     id="config-deeply-nested"),
        pytest.param(["oracle", "--config", "a\x00b"], None, None, id="config-path-nul"),
        pytest.param(["oracle"], '{"sweep_r": [0.5], "sweep_gamma": []}', None,
                     id="config-sweep-keys-on-oracle"),
        pytest.param(["run", "--mode", "foo", *SMALL], None, None, id="mode-unknown"),
        pytest.param(["run", *SMALL], '{"r": true}', None, id="config-r-bool"),
        pytest.param(["run", *SMALL], '{"seed": false}', None, id="config-seed-bool"),
        pytest.param(["run", *SMALL], '{"gamma": "2"}', None, id="config-gamma-string"),
        pytest.param(["run", "--samples", "64"], '{"reps": 2.0}', None,
                     id="config-reps-float"),
        pytest.param(["run", *SMALL], '{"t1": null}', None, id="config-t1-null"),
        pytest.param(["run", *SMALL], '{"mode": 5}', None, id="config-mode-number"),
        pytest.param(["sweep", *SMALL], '{"sweep_r": 0.5}', None, id="config-sweep-r-number"),
        pytest.param(["sweep", *SMALL], '{"sweep_gamma": ["1.5"]}', None,
                     id="config-sweep-gamma-string-entry"),
        pytest.param(["sweep", *SMALL], '{"sweep_r": [0.5, null]}', None,
                     id="config-sweep-r-null-entry"),
        pytest.param(["run", *SMALL], None, "abc", id="workers-not-integer"),
        pytest.param(["run", *SMALL], None, "0", id="workers-zero"),
        pytest.param(["run", *SMALL], None, "-3", id="workers-negative"),
    ],
)
def test_invalid_input_exits_2(argv, config, workers, tmp_path, capsys, monkeypatch):
    argv = [*argv, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    if workers is not None:
        monkeypatch.setenv("LGWAVE_WORKERS", workers)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "invalid-config" in err
    assert "Traceback" not in err


def test_config_out_must_be_a_string(tmp_path, capsys, monkeypatch):
    # test_invalid_input_exits_2 always passes --out, which overrides the key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"out": 5}')
    assert run_cli(["oracle", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert "invalid-config" in err
    assert "Traceback" not in err


def test_key_a_flag_overrides_is_not_checked(tmp_path):
    # only the values a command uses are checked
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"r": "0.3"}')
    argv = ["run", *TINY, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert run_cli([*argv, "--r", "0.3"]) == 0
    assert run_cli(argv) == 2


def test_oracle_runs_no_pool_so_reads_no_worker_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LGWAVE_WORKERS", "abc")
    assert run_cli(["oracle", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "oracle.json").is_file()


def test_unopenable_config_path_is_not_blamed_on_json(capsys):
    assert run_cli(["oracle", "--config", "a\x00b"]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err
    assert "not valid JSON" not in err


# Arbitrary JSON, plus in-range numbers and valid modes so valid configs occur too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.floats(0, 1) | st.sampled_from(["independent-draws", "shared-draws"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
CONFIG_DOCS = (
    st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]), JSON_VALUES)
    | JSON_VALUES
)


@settings(max_examples=200, deadline=None, database=None)
@given(doc=CONFIG_DOCS)
@example(doc={"out": "o\x00x"})
@example(doc={"out": "W"})
@example(doc={"out": "/"})
def test_any_config_document_exits_0_or_2(doc):
    # a relative "out" writes oracle.json under the working directory, so the
    # call runs inside the temporary directory (contextlib.chdir needs 3.11);
    # an absolute one is moved under it, still absolute
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(doc, dict) and isinstance(doc.get("out"), str) and os.path.isabs(doc["out"]):
            doc = {**doc, "out": os.path.join(tmp, doc["out"].lstrip(os.sep))}
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert main(["oracle", "--config", str(path)]) in (0, 2)
        finally:
            os.chdir(cwd)


@settings(max_examples=200, deadline=None, database=None)
@given(doc=CONFIG_DOCS)
@example(doc={"out": "o\x00x"})
def test_any_config_document_loads_or_is_invalid_on_sweep(doc):
    # sweep takes every key and load_config draws no samples, so each key's
    # value check is reached: a RunConfig or InvalidConfig, nothing else
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        args = build_parser().parse_args(["sweep", "--config", str(path)])
        try:
            assert isinstance(load_config(args), RunConfig)
        except cli.InvalidConfig:
            pass
