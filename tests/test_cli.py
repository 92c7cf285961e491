import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgwave.cli import RunConfig, main

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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample": 4096}))
        assert run_cli(["run", "--config", str(cfg)]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_golden_counts(self, tmp_path):
        # frozen tiny runs and sweeps, one per draw mode: (argv, output, golden file)
        run = ["run", "--samples", "1024", "--reps", "2", "--seed", "7", "--gamma", "1.2"]
        sweep = ["sweep", "--samples", "4096", "--reps", "2", "--seed", "7",
                 "--sweep-r", "0.5,1.0", "--sweep-gamma", "1.2,1.5"]
        shared = ["--mode", "shared-draws"]
        cases = [
            (run, "counts.csv", "golden_counts.csv"),
            (run + shared, "counts.csv", "golden_counts_shared.csv"),
            (sweep, "sweep.csv", "golden_sweep_independent.csv"),
            (sweep + shared, "sweep.csv", "golden_sweep_shared.csv"),
        ]
        for i, (argv, output, golden) in enumerate(cases):
            out = tmp_path / str(i)
            assert run_cli([*argv, "--out", str(out)]) == 0
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
def test_any_config_document_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(["oracle", "--config", str(path)]) in (0, 2)
