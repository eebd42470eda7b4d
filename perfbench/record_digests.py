#!/usr/bin/env python3
"""Record the trajectory digests run.py checks against (perfbench/digests.json).

    python3 perfbench/record_digests.py --seeds 0-99 [--workload NAME]

Runs one untraced full-size iteration per (workload, seed), refuses to
record an iteration whose own output checks fail, and merges the digests
into digests.json. Re-record only when a change is meant to alter
trajectories; a changed digest otherwise means the program's output changed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args()

    binary = run.build()
    path = os.path.join(HERE, "digests.json")
    with open(path) as f:
        table = json.load(f)
    for workload in args.workload or run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            it = run.iterate(binary, workload, seed, 0, "full")
            if it["failures"]:
                sys.exit("%s seed %d fails its checks: %s" % (workload, seed, it["failures"]))
            table.setdefault(workload, {})[str(seed)] = it["digests"]
            print(workload, seed, " ".join(it["digests"]), flush=True)
        with open(path, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
