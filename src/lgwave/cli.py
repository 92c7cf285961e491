"""Command-line driver: full runs, parameter sweeps, oracle reports.

Configuration is a single flat JSON document; every flag overrides the
matching key.  Outputs are batch artifacts: a JSON summary plus a CSV of
raw counts for `run`, a plotter-ready CSV for `sweep`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .experiment import InvariantViolation, default_workers, run_experiment, run_kw_only
from .stats import NoHeralds, ZeroCoincidences, marginal_12
from .harness import (
    CONTEXT_BITS,
    COUNT_COLUMNS,
    MODE_INDEPENDENT,
    MODE_SHARED,
    ExperimentPlan,
)
from .optics import OpticalParams, SourceParams
from .oracle import context_labels, predicted_pmfs, predicted_stats, type_weight_sums

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_CONFIG = 2
EXIT_IO_ERROR = 3
EXIT_INVARIANT = 4


class InvalidConfig(ValueError):
    pass


@dataclass
class RunConfig:
    r: float = 0.3
    gamma: float = 2.0
    t1: float = 0.5
    t2: float = 0.75
    t3: float = 0.75
    theta1: float = 0.0
    theta2: float = 0.0
    samples: int = 1 << 20
    reps: int = 30
    seed: int = 0
    mode: str = MODE_INDEPENDENT
    sweep_r: list[float] = field(
        default_factory=lambda: [round(0.1 * i, 1) for i in range(11)]
    )
    sweep_gamma: list[float] = field(default_factory=lambda: [1.5, 2.0])
    out: str = "."

    def optics(self) -> OpticalParams:
        return OpticalParams(
            t1=self.t1, t2=self.t2, t3=self.t3, theta1=self.theta1, theta2=self.theta2
        )

    def plan(self, **overrides) -> ExperimentPlan:
        kwargs = dict(
            source=SourceParams(r=self.r),
            optics=self.optics(),
            gamma=self.gamma,
            samples=self.samples,
            reps=self.reps,
            mode=self.mode,
            seed=self.seed,
        )
        kwargs.update(overrides)
        return ExperimentPlan(**kwargs)


def sweep_plans(cfg: RunConfig) -> list[ExperimentPlan]:
    """The plan of every sweep grid point, in sweep.csv row order."""
    return [
        cfg.plan(source=SourceParams(r=r), gamma=gamma)
        for gamma in cfg.sweep_gamma
        for r in cfg.sweep_r
    ]


def _json_type_ok(value, annotation: str) -> bool:
    """Whether a config-file value has the JSON type of a RunConfig field
    annotated `annotation`; booleans do not count as numbers."""
    if annotation == "list[float]":
        return isinstance(value, list) and all(_json_type_ok(v, "float") for v in value)
    kinds = {"float": (int, float), "int": int, "str": str}[annotation]
    return isinstance(value, kinds) and not isinstance(value, bool)


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file and the flags, then build every plan the
    command will run: the dataclasses are the validation, and any value
    they reject raises InvalidConfig.  Config keys fill in the flags that
    were not given, so `args` holds the merged choice afterwards."""
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
        types = {f.name: f.type for f in fields(RunConfig)}
        unknown = set(doc) - set(types)
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if not _json_type_ok(value, types[key]):
                raise InvalidConfig(f"{key} must be {types[key]}, got {value!r}")
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if "\0" in cfg.out:
        raise InvalidConfig(f"out must not contain a NUL byte, got {cfg.out!r}")
    sweep = args.command == "sweep"
    if sweep and not (cfg.sweep_r and cfg.sweep_gamma):
        raise InvalidConfig("sweep grids must be nonempty")
    try:
        default_workers()
        cfg.plan()
        if sweep:
            sweep_plans(cfg)
    except ValueError as e:
        raise InvalidConfig(str(e)) from e
    return cfg


def write_run_outputs(cfg: RunConfig, result, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "summary": result.summary,
        "per_rep": [r.stats for r in result.reps],
    }
    json_path = out_dir / "summary.json"
    json_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    csv_path = out_dir / "counts.csv"
    lines = [",".join(("rep", "context_bits", *COUNT_COLUMNS))]
    for rep, r in enumerate(result.reps):
        for bits, row in zip(CONTEXT_BITS, r.counts.tolist()):
            lines.append(",".join(map(str, (rep, bits, *row))))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return json_path, csv_path


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    result = run_experiment(cfg.plan())
    json_path, csv_path = write_run_outputs(cfg, result, Path(cfg.out))
    s = result.summary
    for name in ("K", "W", "eta_t3", "eta_t1t3", "eta_t2t3", "eta_t1t2t3"):
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    plans = sweep_plans(cfg)
    kw = run_kw_only(plans)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "oracle.json").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_contexts(args: argparse.Namespace) -> int:
    print("b1 b2 b3 b4   q1 q2")
    for row in context_labels():
        bits = "  ".join(map(str, row["b"]))
        print(f"{bits}    {row['q1']}  {row['q2']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgwave",
        description="Classical wave-model Monte Carlo of a heralded Leggett-Garg test",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--r", type=float, help="squeezing strength")
        p.add_argument("--gamma", type=float, help="detection threshold")
        p.add_argument("--t1", type=float)
        p.add_argument("--t2", type=float)
        p.add_argument("--t3", type=float)
        p.add_argument("--theta1", type=float)
        p.add_argument("--theta2", type=float)
        p.add_argument("--samples", type=int, help="realizations per context")
        p.add_argument("--reps", type=int, help="experiment repetitions")
        p.add_argument("--seed", type=int)
        p.add_argument("--mode", choices=[MODE_INDEPENDENT, MODE_SHARED])
        p.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="run the full nine-context experiment")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="K/W over a grid of (r, gamma)")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--sweep-r", dest="sweep_r", type=_float_list, help="comma-separated r values"
    )
    p_sweep.add_argument(
        "--sweep-gamma",
        dest="sweep_gamma",
        type=_float_list,
        help="comma-separated gamma values",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="closed-form quantum predictions")
    add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_ctx = sub.add_parser("contexts", help="list the nine blocker configurations")
    p_ctx.set_defaults(func=cmd_contexts)
    return parser


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as e:
        print(f"lgwave: error [invalid-config] {e}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (ZeroCoincidences, NoHeralds) as e:
        print(f"lgwave: error [no-statistics] {e}", file=sys.stderr)
        return EXIT_ERROR
    except InvariantViolation as e:
        print(f"lgwave: error [invariant-violation] {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        print(f"lgwave: error [io-error] {e}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
