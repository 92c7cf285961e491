#!/usr/bin/env python3
"""Record the output digests the correctness gate compares against.

    python3 perfbench/record_digests.py --profile full --seeds 0-31

Runs each workload once per seed, requires its outputs to pass the
invariant checks of check.py, and stores their SHA-256 digests in
digests.json under (profile, workload, seed), keeping entries for other
seeds.  Outputs are byte-deterministic for a seed, so re-record only for a
change that deliberately alters them (a new stream-layout version) and say
so where that change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from workloads import PROFILES


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--seeds", type=seed_range, default=[0], help="e.g. 0-31")
    args = parser.parse_args()

    os.chdir(run.ROOT)
    run.import_lgwave()
    from lgwave import cli

    from check import Gate

    os.environ["LGWAVE_WORKERS"] = str(len(os.sched_getaffinity(0)))
    try:
        table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    for wl in PROFILES[args.profile].values():
        out_dir = run.OUT / wl.name
        for seed in args.seeds:
            gate = Gate(wl, seed, expected=None)
            code, _ = run.invoke(cli, wl, wl.argv(seed, str(out_dir)), out_dir)
            if not gate.check(code, out_dir):
                return 1
            table.setdefault(args.profile, {}).setdefault(wl.name, {})[str(seed)] = gate.reference
            print(f"{args.profile} {wl.name} seed {seed}: recorded", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
