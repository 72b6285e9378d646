#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N \
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Builds perfbench/ (library sources from src/) into $CARGO_TARGET_DIR
(default .bench_build) on first use, runs the gkbench binary and prints its
human-readable report followed, as the last line of standard output, by one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end_to_end metrics of BENCHMARK.json for the named
workload. --trace 1 runs the traced pass of every workload, each in its own
process, and reports the per_layer metrics; process.cpu_util,
trace.coverage and trace.overhead_frac are those of the named workload.

Exit codes: 0 when a result was printed (a failed output check shows as
"correct": false), 2 on usage errors, 3 when the build fails, 4 when a run
fails or its result lacks a metric BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_cluster", "stream_ingest", "serve_mixed"]
# Never run while this benchmark was written: the seed for checking a
# claim on data the change was not tuned on.
HELD_OUT_SEED = 9001
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(3)
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    return os.path.join(out, "gkbench"), work


def run_pass(binary, work, workload, seed, seconds, trace, overhead):
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work-dir", work]
    if trace:
        cmd.append("--trace")
    if overhead:
        cmd.append("--overhead")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        sys.exit(4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(4)
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def select(result, metrics):
    """Keeps the metrics BENCHMARK.json names, in its order."""
    out = {}
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            log("perfbench: result lacks metric %s" % m["name"])
            sys.exit(4)
        if got["unit"] != m["unit"]:
            log("perfbench: metric %s has unit %s, expected %s"
                % (m["name"], got["unit"], m["unit"]))
            sys.exit(4)
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def run(args, spec):
    binary, work = build()
    if args.trace:
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        own = None
        for w in WORKLOADS:
            r = run_pass(binary, work, w, args.seed, args.seconds, True,
                         w == args.workload)
            merged["correct"] = merged["correct"] and r["correct"]
            merged["attempted"] += r["attempted"]
            merged["failed"] += r["failed"]
            merged["metrics"].update(r["metrics"])
            if w == args.workload:
                own = r
        merged["metrics"].update(own["metrics"])  # the named workload's own
        metrics = spec["per_layer"]
        result = merged
    else:
        result = run_pass(binary, work, args.workload, args.seed,
                          args.seconds, False, False)
        metrics = spec["end_to_end"]
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": select(result, metrics)}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", default="1",
                   help="workload seed, or 'held-out' for %d" % HELD_OUT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the statistics/check self-test")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.selftest:
        build()
        sys.exit(subprocess.run(
            [os.path.join(build_dir(), "gkbench_selftest")]).returncode)
    if args.workload is None:
        p.error("--workload is required")
    args.seed = HELD_OUT_SEED if args.seed == "held-out" else int(args.seed)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if args.workload == "all":
        if args.trace:
            p.error("--trace 1 already runs every workload; name one")
        results = {}
        for w in WORKLOADS:
            args.workload = w
            results[w] = run(args, spec)
            print(json.dumps(results[w]))
        print(json.dumps(results))
        return
    print(json.dumps(run(args, spec)))


if __name__ == "__main__":
    main()
