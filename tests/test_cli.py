import argparse
import contextlib
import io
import json
import os
import shutil
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
RUN = ["run", "--samples", "1024", "--reps", "2", "--seed", "7", "--gamma", "1.2"]
SWEEP = ["sweep", "--samples", "4096", "--reps", "2", "--seed", "7",
         "--sweep-r", "0.5,1.0", "--sweep-gamma", "1.2,1.5"]
SHARED = ["--mode", "shared-draws"]

# The golden CLI runs, by name: (argv, config file text or None, golden file
# in DATA or None).  golden_<output>[_<variant>] is the output file of a
# run, written to the relative --out named after the golden file, which
# summary.json records as config.out.
GOLDEN = {
    "counts": (RUN, None, "golden_counts.csv"),
    "counts-shared": ([*RUN, *SHARED], None, "golden_counts_shared.csv"),
    # 4161 = 2 * 2048 + 65: the last row block is partial
    "counts-partial": (["run", "--samples", "4161", *RUN[3:]], None, "golden_counts_partial.csv"),
    "counts-from-config": (["run"], '{"samples": 1024, "reps": 2, "seed": 7, "gamma": 1.2}',
                           "golden_counts.csv"),
    # a flag overrides its config key
    "counts-config-override": (["run", "--reps", "2"],
                               '{"samples": 1024, "reps": 1, "seed": 7, "gamma": 1.2}',
                               "golden_counts.csv"),
    "summary": (RUN, None, "golden_summary.json"),
    "summary-shared": ([*RUN, *SHARED], None, "golden_summary_shared.json"),
    "sweep": (SWEEP, None, "golden_sweep_independent.csv"),
    "sweep-shared": ([*SWEEP, *SHARED], None, "golden_sweep_shared.csv"),
    # the grid sets every point: --r and --gamma, as flags or config keys,
    # are checked (INVALID) and leave sweep.csv as it is
    "sweep-r-gamma": ([*SWEEP, "--r", "0.9", "--gamma", "3.0"], None,
                      "golden_sweep_independent.csv"),
    "sweep-r-gamma-config": (SWEEP, '{"r": 0.9, "gamma": 3.0}', "golden_sweep_independent.csv"),
    # a config file's integral grid entry 1 writes the flag's r = 1.0
    "sweep-from-config": (["sweep"], '{"sweep_r": [0.5, 1], "sweep_gamma": [1.2, 1.5], '
                          '"samples": 4096, "reps": 2, "seed": 7}', "golden_sweep_independent.csv"),
    "oracle": (["oracle"], None, "golden_oracle.json"),
    "oracle-tilted": (["oracle", "--t1", "0.3", "--t2", "0.6", "--t3", "0.9", "--theta1", "0.7",
                       "--theta2", "-1.1"], None, "golden_oracle_tilted.json"),
    "contexts": (["contexts"], None, None),
}


def run_cli(script, cwd, argv, config=None, env={}):
    """Run argv from directory cwd, with env added to the environment and,
    unless config is None, --config cfg.json holding that text: through
    main in this process if script is None, else as the command line
    script[0] in a subprocess whose environment is script[1] plus env.
    Returns the exit status and stderr."""
    if config is not None:
        (cwd / "cfg.json").write_text(config)
        argv = [*argv, "--config", "cfg.json"]
    if script is not None:
        proc = subprocess.run([*script[0], *argv], cwd=cwd, env={**script[1], **env},
                              capture_output=True, text=True)
        return proc.returncode, proc.stderr
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.chdir(cwd)
        for name, value in env.items():
            mp.setenv(name, value)
        return main(argv), err.getvalue()


# The lgwave script pip installs from [project.scripts], run without
# PYTHONPATH so that it imports the installed package.
LGWAVE = shutil.which("lgwave")
INSTALLED = ([LGWAVE], {k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
needs_lgwave = pytest.mark.skipif(LGWAVE is None, reason="no lgwave script on PATH")


def check_golden(script, names, tmp_path, env={}):
    """Each golden run of `names` exits 0 through run_cli(script), with env
    added to the environment, silent on stderr, and writes its output byte
    for byte as its golden file holds it."""
    for name in names:
        argv, config, golden = GOLDEN[name]
        (cwd := tmp_path / name).mkdir()
        if golden is None:
            assert run_cli(script, cwd, argv, config, env) == (0, ""), name
            continue
        stem = Path(golden).stem
        assert run_cli(script, cwd, [*argv, "--out", stem], config, env) == (0, ""), name
        output = cwd / stem / (stem.split("_")[1] + Path(golden).suffix)
        assert output.read_bytes() == (DATA / golden).read_bytes(), name


class TestContexts:
    def test_lists_nine_rows(self, capsys):
        assert main(["contexts"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10  # header + nine contexts
        assert "1  0  0  1" in out[7]


class TestOracle:
    def test_out_from_config_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["oracle"]) == 0
        assert list(tmp_path.iterdir()) == []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "from_config"}))
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert main(["oracle", "--out", "from_flag"]) == 0
        written = (tmp_path / "from_config" / "oracle.json").read_bytes()
        assert written == (tmp_path / "from_flag" / "oracle.json").read_bytes()


class TestRun:
    @pytest.mark.parametrize("gamma, message", [
        ("2.0", "no herald detections in the shared-draw record"),
        # every detector clicks on every row: n_herald == n_total, all doubles
        ("0", "all four coincidence counts are zero"),
    ], ids=["gamma-2", "gamma-0"])
    def test_no_coincidences_reported(self, gamma, message, tmp_path, capsys):
        rc = main(["run", "--samples", "64", "--reps", "1", "--seed", "7", "--gamma", gamma,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert f"[no-statistics] {message}" in capsys.readouterr().err

    def test_zero_efficiency_reported(self, tmp_path, capsys):
        # the per-context streams give PMFs, but the shared pass leaves a
        # Lambda set empty, so the W decomposition has no efficiency to divide by
        rc = main(["run", "--samples", "800", "--reps", "1", "--seed", "3",
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
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "lgwave: error [invariant-violation]" in err
        assert "count ordering violated in context 1111: n_total=4096, n_herald=4097" in err
        if command == "sweep":
            assert "r=0.3, gamma=1.2: count ordering violated" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_out_fails_before_sampling(self, command, tmp_path, monkeypatch, capsys):
        def sample(*args):
            raise AssertionError("sampled before the output directory was made")

        monkeypatch.setattr(cli, "run_experiment", sample)
        monkeypatch.setattr(cli, "run_kw_only", sample)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        argv = [command, "--samples", "8192", "--reps", "2", "--gamma", "1.2"]
        assert main([*argv, "--out", str(not_a_dir / "x")]) == 3
        assert "lgwave: error [io-error]" in capsys.readouterr().err

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        assert main(["run", *TINY, "--out", str(tmp_path / "out")]) == 130
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
            status = main(argv)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        assert status == 130
        assert capsys.readouterr().err.splitlines() == ["lgwave: interrupted"]
        assert len(calls) <= 2

    def test_golden_counts(self, tmp_path):
        check_golden(None, GOLDEN, tmp_path)


@needs_lgwave
def test_golden_counts_installed(tmp_path):
    check_golden(INSTALLED, GOLDEN, tmp_path)


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
    check_golden(([sys.executable, "-m", "lgwave.cli"], env), ["counts-shared", "sweep"], tmp_path)


def test_outputs_written_as_bytes(tmp_path, monkeypatch):
    # text mode would end each line with the platform's os.linesep
    def text_mode(*args, **kwargs):
        raise AssertionError("an output file was written in text mode")

    monkeypatch.setattr(Path, "write_text", text_mode)
    check_golden(None, ["summary", "counts", "sweep", "oracle"], tmp_path)


class TestSweep:
    def test_failing_point_named(self, tmp_path, capsys):
        # gamma = 50 leaves its point without a single coincidence
        for mode in ("independent-draws", "shared-draws"):
            assert main([
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


def bad(id, argv, names, config=None, env={}):
    """A row of INVALID: argv, given a config file's text and environment
    variables, exits 2 with a message that starts with `names`."""
    return pytest.param(argv, config, env, names, id=id)


INVALID = pytest.mark.parametrize("argv, config, env, names", [
    bad("samples-zero", ["run", "--samples", "0", "--reps", "1"], "samples"),
    bad("negative-seed", ["run", "--seed", "-1", *SMALL], "seed"),
    bad("r-nan", ["run", "--r", "nan", *SMALL], "r"),
    bad("r-356", ["run", "--r", "356", *SMALL], "r"),
    bad("r-1000", ["run", "--r", "1000", *SMALL], "r"),
    bad("sweep-r-1000", ["sweep", "--sweep-r", "0.5,1000", *SMALL], "r"),
    bad("gamma-nan", ["run", "--gamma", "nan", *SMALL], "gamma"),
    bad("theta1-nan", ["run", "--theta1", "nan", *SMALL], "theta1"),
    bad("t1-1.5", ["run", "--t1", "1.5", *SMALL], "t1"),
    bad("sweep-r-nan", ["sweep", "--sweep-r", "nan", *SMALL], "r"),
    bad("oracle-theta1-nan", ["oracle", "--theta1", "nan"], "theta1"),
    bad("oracle-t1-1.5", ["oracle", "--t1", "1.5"], "t1"),
    bad("sweep-r-negative", ["sweep", "--sweep-r=-1", *SMALL], "r"),
    bad("sweep-gamma-negative", ["sweep", "--sweep-gamma=-1", *SMALL], "gamma"),
    bad("sweep-grid-r-400", [*SWEEP, "--r", "400"], "r"),
    bad("sweep-grid-gamma-negative", [*SWEEP, "--gamma", "-1"], "gamma"),
    bad("sweep-grid-empty", ["sweep", "--sweep-r", "", *SMALL], "sweep grids"),
    bad("config-not-object", ["run", "--reps", "1"], "config file", config="[]"),
    bad("config-unknown-key", ["run", *SMALL], "unknown config keys:", config='{"sample": 4096}'),
    bad("config-samples-string", ["run", "--reps", "1"], "samples", config='{"samples": "2048"}'),
    bad("config-samples-float", ["run", "--reps", "1"], "samples", config='{"samples": 2048.5}'),
    bad("config-deeply-nested", ["run", "--reps", "1"], "config file",
        config="[" * 200_000 + "]" * 200_000),
    bad("config-path-nul", ["oracle", "--config", "a\x00b"], "cannot read config file:"),
    bad("config-sweep-keys-on-oracle", ["oracle"], "unknown config keys:",
        config='{"sweep_r": [0.5], "sweep_gamma": []}'),
    bad("mode-unknown", ["run", "--mode", "foo", *SMALL], "unknown mode"),
    bad("config-r-bool", ["run", *SMALL], "r", config='{"r": true}'),
    bad("config-seed-bool", ["run", *SMALL], "seed", config='{"seed": false}'),
    bad("config-gamma-string", ["run", *SMALL], "gamma", config='{"gamma": "2"}'),
    bad("config-reps-float", ["run", "--samples", "64"], "reps", config='{"reps": 2.0}'),
    bad("config-t1-null", ["run", *SMALL], "t1", config='{"t1": null}'),
    bad("config-mode-number", ["run", *SMALL], "unknown mode", config='{"mode": 5}'),
    bad("config-sweep-r-number", ["sweep", *SMALL], "sweep grids", config='{"sweep_r": 0.5}'),
    bad("config-sweep-gamma-string-entry", ["sweep", *SMALL], "gamma",
        config='{"sweep_gamma": ["1.5"]}'),
    bad("config-sweep-r-null-entry", ["sweep", *SMALL], "r", config='{"sweep_r": [0.5, null]}'),
    bad("workers-not-integer", ["run", *SMALL], "LGWAVE_WORKERS", env={"LGWAVE_WORKERS": "abc"}),
    bad("workers-zero", ["run", *SMALL], "LGWAVE_WORKERS", env={"LGWAVE_WORKERS": "0"}),
    bad("workers-negative", ["run", *SMALL], "LGWAVE_WORKERS", env={"LGWAVE_WORKERS": "-3"}),
])


def check_invalid(script, argv, config, env, names, tmp_path):
    """argv exits 2 through run_cli(script) with one [invalid-config] message that
    names its setting, no traceback, and nothing written to --out."""
    status, err = run_cli(script, tmp_path, [*argv, "--out", "out"], config, env)
    assert status == 2 and err.startswith(f"lgwave: error [invalid-config] {names} ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@INVALID
def test_invalid_input_exits_2(argv, config, env, names, tmp_path):
    check_invalid(None, argv, config, env, names, tmp_path)


@needs_lgwave
@INVALID
def test_invalid_input_exits_2_installed(argv, config, env, names, tmp_path):
    if "\x00" in "".join(argv):
        pytest.skip("a process argument cannot hold a NUL byte")
    check_invalid(INSTALLED, argv, config, env, names, tmp_path)


def test_config_out_must_be_a_string(tmp_path, capsys, monkeypatch):
    # test_invalid_input_exits_2 always passes --out, which overrides the key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"out": 5}')
    assert main(["oracle", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert "invalid-config" in err
    assert "Traceback" not in err


def test_key_a_flag_overrides_is_not_checked(tmp_path):
    # only the values a command uses are checked
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"r": "0.3"}')
    argv = ["run", *TINY, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main([*argv, "--r", "0.3"]) == 0
    assert main(argv) == 2


def test_oracle_runs_no_pool_so_reads_no_worker_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LGWAVE_WORKERS", "abc")
    assert main(["oracle", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "oracle.json").is_file()


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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(doc=CONFIG_DOCS)
@example(doc={"out": "o\x00x"})
@example(doc={"out": "W"})
@example(doc={"out": "/"})
@example(doc={"out": 0})
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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
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
