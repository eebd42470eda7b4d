#!/usr/bin/env python3
"""The benchmark's own smoke test (about a minute, most of it the build).

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size through run.py, timed and traced, and
asserts that every output check passes and that every end-to-end and
per-layer metric is emitted with its unit. Also checks that the churn-sweep
body (SweepRunner's default steps, each timed) gives the same RunResults as
SweepRunner::default_run_fn. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the driver: metric tables and the build step)


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, "%s exited %d:\n%s" % (cmd, proc.returncode, proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    binary = run.build()
    proc = subprocess.run([binary, "--check-default-body", "--seed=5"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, "default-body check failed:\n" + proc.stdout + proc.stderr
    print("churn-sweep body matches SweepRunner::default_run_fn")

    for workload in run.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result, stderr = bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                "%s trace=%d: output checks failed:\n%s" % (workload, trace, stderr)
            assert set(result["metrics"]) == set(names), \
                "%s trace=%d: metric set differs: %s" % (
                    workload, trace, set(result["metrics"]) ^ set(names))
            for name, metric in result["metrics"].items():
                assert metric["unit"] == names[name], (workload, name, metric)
                assert isinstance(metric["value"], (int, float)), (workload, name, metric)
            if trace == 0:
                for name, metric in result["metrics"].items():
                    assert metric["value"] > 0, "%s: %s is not positive" % (workload, name)
            else:
                assert result["metrics"]["trace.coverage"]["value"] > 0.97, \
                    "%s: top-level spans cover too little of the iteration" % workload
            print("%s trace=%d: %d metrics, %d operations, all checks pass"
                  % (workload, trace, len(result["metrics"]), result["attempted"]))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
