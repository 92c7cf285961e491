"""Command-line driver: full runs, parameter sweeps, oracle reports.

Every setting is one RunConfig field, given as a flag or as a key of a
single flat JSON config file; a flag overrides the matching key.  Every
value the command uses, from either source, is checked once, by the
parameter dataclass it is passed to.  Outputs are batch artifacts: a JSON
summary plus a CSV of raw counts for `run`, a plotter-ready CSV for `sweep`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .experiment import SUMMARY_STATS, InvariantViolation, default_workers, run_experiment, run_kw_only
from .stats import MINUS, PLUS, ZeroCoincidences, marginal_12
from .harness import (
    CONTEXT_BITS,
    COUNT_COLUMNS,
    MODE_INDEPENDENT,
    MODE_SHARED,
    STANDARD_CONTEXT_TABLE,
    ExperimentPlan,
)
from .optics import OpticalParams, SourceParams
from .oracle import predicted_pmfs, predicted_stats, type_weight_sums

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_CONFIG = 2
EXIT_IO_ERROR = 3
EXIT_INVARIANT = 4
EXIT_INTERRUPTED = 130


class InvalidConfig(ValueError):
    pass


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


# Per RunConfig annotation: the parser of a flag's text.
_PARSERS = {"float": float, "int": int, "str": str, "list[float]": _float_list}


def _setting(default, help: str):
    """A RunConfig field: its default, and the help text of its flag."""
    metadata = {"help": help}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Every setting, declared once.  Each field is a config key and a flag
    (--name, dashes for underscores; on the commands _command_settings
    names) parsed by its annotation (_PARSERS); optics() and plan() pass it to
    the parameter dataclass field of its name, whose default it mirrors."""

    r: float = _setting(0.3, "squeezing strength")
    gamma: float = _setting(ExperimentPlan.gamma, "detection threshold")
    t1: float = _setting(OpticalParams.t1, "transmittance of beam splitter 1")
    t2: float = _setting(OpticalParams.t2, "transmittance of beam splitter 2")
    t3: float = _setting(OpticalParams.t3, "transmittance of beam splitter 3")
    theta1: float = _setting(OpticalParams.theta1, "phase delay after beam splitter 1")
    theta2: float = _setting(OpticalParams.theta2, "phase delay after beam splitter 2")
    samples: int = _setting(ExperimentPlan.samples, "realizations per context")
    reps: int = _setting(ExperimentPlan.reps, "experiment repetitions")
    seed: int = _setting(ExperimentPlan.seed, "seed of every random stream")
    mode: str = _setting(ExperimentPlan.mode, f"draw mode: {MODE_INDEPENDENT} or {MODE_SHARED}")
    out: str = _setting(".", "output directory")
    sweep_r: list[float] = _setting(
        [round(0.1 * i, 1) for i in range(11)], "comma-separated r values"
    )
    sweep_gamma: list[float] = _setting([1.5, 2.0], "comma-separated gamma values")

    def _params(self, cls, **given):
        """Parameter dataclass `cls` from `given` and this config's fields."""
        own = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**own, **given)

    def optics(self) -> OpticalParams:
        return self._params(OpticalParams)

    def plan(self, **overrides) -> ExperimentPlan:
        parts = {"source": self._params(SourceParams), "optics": self.optics()}
        return self._params(ExperimentPlan, **{**parts, **overrides})


def _command_settings(command: str) -> list:
    """The RunConfig fields `command` takes, each as a flag and as a config
    key: all on `sweep`, all but sweep_* on `run`, the optics and out on `oracle`."""
    if command == "oracle":
        optics = {f.name for f in fields(OpticalParams)}
        return [f for f in fields(RunConfig) if f.name in optics | {"out"}]
    return [f for f in fields(RunConfig) if command == "sweep" or not f.name.startswith("sweep_")]


def sweep_plans(cfg: RunConfig) -> list[ExperimentPlan]:
    """The plan of every sweep grid point, in sweep.csv row order."""
    return [
        cfg.plan(source=SourceParams(r=r), gamma=gamma)
        for gamma in cfg.sweep_gamma
        for r in cfg.sweep_r
    ]


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file and the flags, then build what the command
    will run, every plan or the oracle's optics: the dataclasses are the
    validation, and any value they reject raises InvalidConfig.  Only what
    no dataclass owns is checked here: a null key, `out` and the sweep
    grids.  Config keys fill in the flags that were not given, so `args`
    holds the merged choice afterwards; a key a flag overrides is unused
    and unchecked.  Float settings are then stored as floats, so a config
    file's 1 writes what the flag's 1.0 does."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, ValueError) as e:
            raise InvalidConfig(f"cannot read config file: {e}") from e
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise InvalidConfig(f"config file is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise InvalidConfig(
                f"config file must hold a JSON object, not {type(doc).__name__}"
            )
        unknown = set(doc) - {f.name for f in _command_settings(args.command)}
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if getattr(args, key, None) is None:
                if value is None:
                    raise InvalidConfig(f"{key} must not be null")
                setattr(args, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if not isinstance(cfg.out, str) or "\0" in cfg.out:
        raise InvalidConfig(f"out must be a string without NUL bytes, got {cfg.out!r}")
    sweep = args.command == "sweep"
    if sweep and not all(isinstance(g, list) and g for g in (cfg.sweep_r, cfg.sweep_gamma)):
        raise InvalidConfig("sweep grids must be nonempty lists")
    try:
        if args.command == "oracle":
            cfg.optics()
        else:
            default_workers()
            cfg.plan()
        if sweep:
            sweep_plans(cfg)
    except ValueError as e:
        raise InvalidConfig(str(e)) from e
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.type == "float":
            setattr(cfg, f.name, float(value))
        elif f.type == "list[float]":
            setattr(cfg, f.name, [float(v) for v in value])
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, made before any sampling so a bad `out` fails fast."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write(path: Path, text: str) -> None:
    """Write an output file as UTF-8 bytes, so its line ends are "\n" on
    every platform (text mode would write os.linesep)."""
    path.write_bytes(text.encode("utf-8"))


def write_run_outputs(
    cfg: RunConfig, counts: np.ndarray, report: dict, out_dir: Path
) -> tuple[Path, Path]:
    """summary.json from run_experiment's report and counts.csv from its
    (reps, 9, 5) counts."""
    summary = {"schema_version": SCHEMA_VERSION, "config": asdict(cfg), **report}
    json_path = out_dir / "summary.json"
    _write(json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")

    csv_path = out_dir / "counts.csv"
    lines = [",".join(("rep", "context_bits", *COUNT_COLUMNS))]
    for rep, rows in enumerate(counts.tolist()):
        for bits, row in zip(CONTEXT_BITS, rows):
            lines.append(",".join(map(str, (rep, bits, *row))))
    _write(csv_path, "\n".join(lines) + "\n")
    return json_path, csv_path


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    out_dir = _out_dir(cfg)
    counts, report = run_experiment(cfg.plan())
    json_path, csv_path = write_run_outputs(cfg, counts, report, out_dir)
    s = report["summary"]
    for name in (n for n in SUMMARY_STATS if n in ("K", "W") or n.startswith("eta_")):
        print(f"{name} = {s[name]['mean']:.4f} +/- {s[name]['std']:.4f}")
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


def write_sweep_csv(plans: list[ExperimentPlan], kw: list, path: Path) -> None:
    lines = ["r,gamma,K_mean,K_std,W_mean,W_std,lgi_bound,qm_bound"]
    for p, (k, w) in zip(plans, kw):
        lines.append(
            f"{p.source.r},{p.gamma},{k['mean']!r},{k['std']!r},"
            f"{w['mean']!r},{w['std']!r},1.0,1.5"
        )
    _write(path, "\n".join(lines) + "\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    out_dir = _out_dir(cfg)
    plans = sweep_plans(cfg)
    kw = run_kw_only(plans)
    path = out_dir / "sweep.csv"
    write_sweep_csv(plans, kw, path)
    print(f"wrote {path} ({len(plans)} rows)")
    return EXIT_OK


def oracle_report(cfg: RunConfig) -> dict:
    optics = cfg.optics()
    p13, p23, p3 = predicted_pmfs(optics)
    p12 = marginal_12(p3)

    def cells(pmf):
        return {"".join("+-"[i] for i in idx): float(v) for idx, v in np.ndenumerate(pmf)}

    return {
        "params": asdict(optics),
        "pmf_t1t3": cells(p13),
        "pmf_t2t3": cells(p23),
        "pmf_t1t2t3": cells(p3),
        "pmf_t1t2": cells(p12),
        "stats": predicted_stats(optics),
        "type_weight_sums": type_weight_sums(optics),
    }


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    report = oracle_report(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        _write(_out_dir(cfg) / "oracle.json", text + "\n")
    return EXIT_OK


def cmd_contexts(args: argparse.Namespace) -> int:
    label = {None: ".", PLUS: "+", MINUS: "-"}
    print("b1 b2 b3 b4   q1 q2")
    for bits, q1, q2 in STANDARD_CONTEXT_TABLE:
        print(f"{'  '.join(map(str, bits))}    {label[q1]}  {label[q2]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgwave",
        description="Classical wave-model Monte Carlo of a heralded Leggett-Garg test",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("run", "run the full nine-context experiment", cmd_run),
        ("sweep", "K/W over a grid of (r, gamma)", cmd_sweep),
        ("oracle", "closed-form quantum predictions", cmd_oracle),
    )
    for name, help, func in commands:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat JSON config file")
        for f in _command_settings(name):
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=_PARSERS[f.type], **f.metadata)
        p.set_defaults(func=func)

    p_ctx = sub.add_parser("contexts", help="list the nine blocker configurations")
    p_ctx.set_defaults(func=cmd_contexts)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as e:
        print(f"lgwave: error [invalid-config] {e}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except ZeroCoincidences as e:
        print(f"lgwave: error [no-statistics] {e}", file=sys.stderr)
        return EXIT_ERROR
    except InvariantViolation as e:
        print(f"lgwave: error [invariant-violation] {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        print(f"lgwave: error [io-error] {e}", file=sys.stderr)
        return EXIT_IO_ERROR
    except KeyboardInterrupt:
        print("lgwave: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
