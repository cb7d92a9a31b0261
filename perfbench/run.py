#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; the repo's one benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repo. The benchmark binary is
built from the checkout's sources (CMake, Release) into the directory named
by $CARGO_TARGET_DIR, or .bench_build at the checkout root, and then run
once. With --trace 1 it is run twice with the same seed, untraced and then
traced, so the tracing overhead (traced minus untraced end-to-end) can be
reported beside the per-layer metrics.

stdout ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Build output and diagnostics go to stderr.
The full record of each run (all metrics, provenance, oracle errors) is
kept under <build dir>/results/, and span logs under <build dir>/traces/.

Exit status: 0 when the run finished and every oracle agreed; 1 when an
oracle disagreed (the result line is still printed, with "correct": false);
2 when the benchmark could not be built or run (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s (900 s for the one that builds): the build
# gets BUILD_BUDGET_S, the benchmark binary RUN_BUDGET_S after it.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 700.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no library sources next to perfbench/ (looked in {ROOT})")
    jobs = str(os.cpu_count() or 1)
    # Configuring every time ties the build directory to this checkout:
    # CMake refuses a directory that was set up from another source tree,
    # so a shared $CARGO_TARGET_DIR can never build one checkout's sources
    # on behalf of another.
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench"]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_BUDGET_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build step {cmd[:2]} failed: {err}")
        if proc.returncode != 0:
            die(f"build step {' '.join(cmd)} exited {proc.returncode}")
    binary = os.path.join(out_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        die(f"build produced no binary at {binary}")
    return binary


def source_digest():
    """sha256 over the build inputs, for provenance where git is absent."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_binary(binary, args, trace, deadline, out_dir):
    work = os.path.join(out_dir, "work")
    traces = os.path.join(out_dir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--scale", str(args.scale), "--work-dir", work]
    if trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within the run budget")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        die(f"benchmark binary exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die("benchmark binary printed no result record")


def value(record, section, name):
    metric = record[section].get(name)
    return None if metric is None else metric["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data and rates (self-test smoke runs)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")

    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    records = [run_binary(binary, args, False, deadline, out_dir)]
    if args.trace:
        records.append(run_binary(binary, args, True, deadline, out_dir))
    final = records[-1]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    if args.trace:
        untraced = value(records[0], "end_to_end", "latency_p50_ms")
        traced = value(records[1], "end_to_end", "latency_p50_ms")
        final["per_layer"]["trace.overhead_ms"] = {
            "value": traced - untraced, "unit": "ms"}
        final["per_layer"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    section = "per_layer" if args.trace else "end_to_end"
    correct = all(r["correct"] for r in records)
    for entry in wanted:
        got = final[section].get(entry["name"])
        if (got is None or got["unit"] != entry["unit"] or got["value"] is None
                or not math.isfinite(got["value"])):
            log(f"metric {entry['name']} missing, non-finite or in the "
                f"wrong unit: {got}")
            correct = False
            continue
        metrics[entry["name"]] = got

    final["provenance"].update(
        {"git_sha": git_sha(), "source_sha256": source_digest(),
         "python": sys.version.split()[0], "platform": sys.platform})
    print("provenance: " + json.dumps(final["provenance"], sort_keys=True))
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as handle:
        json.dump(records, handle, indent=1)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        for err in r["errors"]:
            log(f"oracle: {err}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
