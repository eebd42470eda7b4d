#!/usr/bin/env python3
"""End-to-end benchmark of the gcs library: one command, three workloads.

    python3 perfbench/run.py --workload grid-1024 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30   # every workload

Builds perfbench/ (the library from src/ plus the gcs_perfbench driver) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
gcs_perfbench once per iteration, each iteration in its own process, until
--seconds are used up. It checks every iteration's outputs and prints one
line per metric followed by a JSON summary as the last line of stdout.

--trace 0 reports the end-to-end metrics (medians over the iterations).
--trace 1 alternates plain and traced iterations (one pair at least) and
reports the per-layer metrics (medians over the traced iterations) and the
tracing overhead, and writes each traced iteration's spans to
<build dir>/spans/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-1024", "churn-sweep", "rt-tcp-chaos")
ITERATION_TIMEOUT_S = 170

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frames_per_s": "1/s",
    "skew_bound_ratio": "ratio",
}

PER_LAYER = {
    "runner.construct_s": "s",
    "runner.start_s": "s",
    "runner.sweep_utilization": "ratio",
    "runner.islands.plan_s": "s",
    "runner.islands.construct_s": "s",
    "runner.islands.run_s": "s",
    "runner.islands.speedup": "x",
    "runner.islands.cut_edges": "count",
    "runner.islands.shard_imbalance": "ratio",
    "runner.self_s": "s",
    "graph.topology_s": "s",
    "graph.gtilde_s": "s",
    "graph.adversary_ops": "count",
    "graph.self_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.events.tick": "count",
    "sim.events.beacon": "count",
    "sim.events.delivery": "count",
    "sim.events.drift": "count",
    "sim.events.mlock": "count",
    "sim.events.target": "count",
    "sim.events.probe": "count",
    "sim.events.closure": "count",
    "sim.self_s": "s",
    "core.mode_switches": "count",
    "core.jumps": "count",
    "core.max_raises": "count",
    "net.sent": "count",
    "net.delivered": "count",
    "net.dropped": "count",
    "net.fanout": "ratio",
    "metrics.skew_s": "s",
    "metrics.skew.calls": "count",
    "metrics.skew.p50_ms": "ms",
    "metrics.skew.phi_ms": "ms",
    "metrics.skew.phi_pct": "%",
    "metrics.legality_s": "s",
    "metrics.diameter_s": "s",
    "metrics.gradient_s": "s",
    "metrics.self_s": "s",
    "rt.run_s": "s",
    "rt.drain_s": "s",
    "rt.report_s": "s",
    "rt.frames_out": "count",
    "rt.frames_in": "count",
    "rt.corrupted": "count",
    "rt.rejected": "count",
    "rt.tcp.backpressure": "count",
    "rt.tcp.resets": "count",
    "rt.tcp.reconnects": "count",
    "rt.tcp.conn_down": "count",
    "rt.wire.encode_ns": "ns",
    "rt.wire.decode_ns": "ns",
    "rt.wire.crc_ns": "ns",
    "rt.wire.share": "ratio",
    "rt.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then let the build tool bring the driver up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "scenario.h")):
        fail("no library sources under %s/src: run from a source checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(open(log_path).read()[-4000:])
                fail("cmake configure failed (log: %s)" % log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=log, stderr=subprocess.STDOUT).returncode:
            log.flush()
            sys.stderr.write(open(log_path).read()[-4000:])
            fail("build failed (log: %s)" % log_path)
    return os.path.join(bdir, "gcs_perfbench")


def iterate(binary, workload, seed, traced, size, spans=None):
    """Run one iteration in its own process; a crash is a failed operation."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--trace=%d" % traced, "--size=" + size]
    if spans:
        cmd.append("--spans=" + spans)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = "exit code %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    except subprocess.TimeoutExpired:
        why = "timed out after %d s" % ITERATION_TIMEOUT_S
    except json.JSONDecodeError as err:
        why = "unreadable result: %s" % err
    return {"ops": 1, "digests": [], "failures": ["iteration process: " + why],
            "failed_ops": [0], "metrics": {}, "crashed": True}


def expected_digests(workload, seed, size):
    """The recorded trajectory digests for (workload, seed), or None."""
    if size != "full":
        return None
    with open(os.path.join(HERE, "digests.json")) as f:
        table = json.load(f)
    return table.get(workload, {}).get(str(seed))


def score(iterations, expected):
    """Count attempted and failed operations over all iterations.

    An operation is one scenario (one sweep run, or one cluster run). It
    fails if any output check of the iteration names it, if its digest
    differs from the recorded one, or if it differs from the same
    operation's digest in the run's first iteration."""
    attempted = 0
    failed = 0
    messages = []
    first = next((it["digests"] for it in iterations if it["digests"]), None)
    for it in iterations:
        attempted += it["ops"]
        bad = set(it.get("failed_ops", []))
        for i, digest in enumerate(it["digests"]):
            if expected is not None and (i >= len(expected) or digest != expected[i]):
                bad.add(i)
                messages.append("op %d: digest %s, recorded %s" % (
                    i, digest, expected[i] if i < len(expected) else "none"))
            if first is not None and (i >= len(first) or digest != first[i]):
                bad.add(i)
                messages.append("op %d: digest %s differs from the first iteration" % (i, digest))
        failed += min(len(bad), it["ops"])
        messages.extend(it["failures"])
    return attempted, failed, messages


def median_metrics(iterations, names):
    out = {}
    for name, unit in names.items():
        values = [it["metrics"][name] for it in iterations if name in it["metrics"]]
        # A layer the workload does not exercise reports nothing: 0.
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    return out


def measure(binary, workload, args):
    """One workload's run: iterate, check, aggregate. Returns the summary."""
    expected = expected_digests(workload, args.seed, args.size)
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)

    # Iterate until the next iteration would overrun --seconds (full-size
    # timed runs: at least three, so the median can reject one slow outlier;
    # traced runs pair a plain iteration with a traced one so the tracing
    # overhead is measured on the same seed).
    minimum = 1 if args.trace or args.size == "tiny" else 3
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(iterate(binary, workload, args.seed, 0, args.size))
        if args.trace:
            spans = os.path.join(spans_dir, "%s-seed%d-%d.jsonl" % (
                workload, args.seed, len(traced)))
            traced.append(iterate(binary, workload, args.seed, 1, args.size, spans))
        done = len(plain)
        elapsed = time.monotonic() - start
        if done >= minimum and elapsed * (done + 1) / done > args.seconds:
            break

    iterations = plain + traced
    attempted, failed, messages = score(iterations, expected)
    for message in messages:
        print("check failed: " + message, file=sys.stderr)
    if expected is None and args.size == "full":
        print("note: no recorded digest for %s seed %d; checked run-to-run only"
              % (workload, args.seed), file=sys.stderr)

    ok_plain = [it for it in plain if not it.get("crashed")]
    if args.trace:
        ok_traced = [it for it in traced if not it.get("crashed")]
        metrics = median_metrics(ok_traced, PER_LAYER)
        if ok_plain and ok_traced:
            overhead = (statistics.median(it["metrics"]["total_s"] for it in ok_traced)
                        - statistics.median(it["metrics"]["total_s"] for it in ok_plain))
            metrics["trace.overhead_s"]["value"] = overhead
    else:
        metrics = median_metrics(ok_plain, END_TO_END)

    print("%s seed %d: %d iterations, %d/%d operations failed"
          % (workload, args.seed, len(iterations), failed, attempted))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="all: every workload in turn, metrics named <workload>/<metric>")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the smoke test")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        print(json.dumps(measure(binary, args.workload, args)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = measure(binary, workload, args)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
