"""Set-up probe: a fresh interpreter imports lgwave and validates its plans.

    python3 perfbench/setup_probe.py [--run] <lgwave CLI arguments>

run.py starts this script with a workload's CLI arguments and times it from
process start until the "ready" line: interpreter start, ``import lgwave``,
config loading and validation, and every ExperimentPlan the command would
run.  That is the cost a user pays on every CLI call before any sampling.

With ``--run`` the probe then runs the command once and prints
"peak_rss_mb <MB>", the peak resident memory of the whole process, and exits
with the command's exit code.
"""

import contextlib
import os
import resource
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from lgwave import cli  # imports the whole package: part of the measured cost
    from lgwave.optics import SourceParams

    argv = sys.argv[1:]
    run = argv[:1] == ["--run"]
    if run:
        argv = argv[1:]
    args = cli.build_parser().parse_args(argv)
    cfg = cli.load_config(args)
    if args.command == "sweep":
        plans = [
            cfg.plan(source=SourceParams(r=r), gamma=g)
            for g in cfg.sweep_gamma
            for r in cfg.sweep_r
        ]
    else:
        plans = [cfg.plan()]
    print("ready", len(plans), flush=True)
    if run:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            code = cli.main(argv)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("peak_rss_mb", peak_mb, flush=True)
        sys.exit(code)
