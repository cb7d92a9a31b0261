#!/usr/bin/env python3
"""The benchmark's own self-test.

    python3 perfbench/selftest.py            # everything (about a minute)
    python3 perfbench/selftest.py --quick    # skip the smoke runs

Checks, in order:
  1. BENCHMARK.json keeps the benchmark contract (keys, names, units,
     bounds, a setup_s metric);
  2. the compare tool passes identical inputs as "unchanged", flags a seeded
     synthetic regression as "regressed" and a clear gain as "improved";
  3. smoke runs: every workload at a tiny scale, untraced and traced, exits
     0 with its oracles green and prints every metric named in
     BENCHMARK.json with its unit (end-to-end metrics non-zero);
  4. a directory holding only BENCHMARK.json and perfbench/ (no library
     sources) makes run.py fail without printing a result.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SMOKE_SCALE = "0.1"
SMOKE_SECONDS = "2"

failures = []


def check(condition, what):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]), "paths are relative benchmark directories")
    check(isinstance(spec["command"], list) and len(spec["command"]) <= 32
          and all(isinstance(c, str) and len(c) <= 200
                  for c in spec["command"]), "command is a short list")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in spec["workloads"]),
        "2-8 workloads, each a name and a one-line why")
    check(1 <= len(spec["end_to_end"]) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"}
        and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
        "1-16 end-to-end metrics with bounds in (0, 0.25]")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is an end-to-end metric")
    setup_bound = [m["bound"] for m in spec["end_to_end"]
                   if m["name"] == "setup_s"]
    check(setup_bound and setup_bound[0] == max(
        m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")
    check(1 <= len(spec["per_layer"]) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
        "1-128 per-layer metrics")
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "names are unique and well formed")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in spec["end_to_end"] + spec["per_layer"]),
          "units and directions are well formed")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json under 64 KiB")


def check_compare(spec):
    rng = random.Random(7)
    metric = {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}
    parent = [100.0 + rng.gauss(0, 1) for _ in range(10)]
    v, _ = compare.verdict(parent, list(parent), metric)
    check(v == "unchanged", f"compare: identical inputs -> {v}")
    v, _ = compare.verdict(parent, [p * 1.3 for p in parent], metric)
    check(v == "regressed", f"compare: seeded 30% regression -> {v}")
    v, _ = compare.verdict(parent, [p * 0.7 for p in parent], metric)
    check(v == "improved", f"compare: seeded 30% gain -> {v}")
    higher = {"name": "throughput_per_s", "better": "higher", "bound": 0.1}
    v, _ = compare.verdict(parent, [p * 0.7 for p in parent], higher)
    check(v == "regressed", f"compare: throughput drop -> {v}")
    v, _ = compare.verdict(parent[:5], [p * 1.3 for p in parent[:5]], metric)
    check(v == "unresolved", f"compare: five pairs are too few -> {v}")
    noisy = [100.0 * (1 + 0.4 * rng.random()) for _ in range(10)]
    v, _ = compare.verdict(noisy, [n * 1.02 for n in noisy], metric)
    check(v == "unresolved", f"compare: spread wider than bound -> {v}")
    other = [100.0 * (1 + 0.4 * rng.random()) for _ in range(10)]
    other = [o * 1.12 for o in other]
    v, _ = compare.verdict(noisy, other, metric)
    check(v == "unresolved", f"compare: noisy runs, shifted median -> {v}")
    check(all(m["name"] in {e["name"] for e in spec["end_to_end"]}
              for m in (metric, higher)), "compare: test metrics exist")


def run(args, cwd):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600,
                          check=False)


def check_smoke(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            proc = run([os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace",
                        trace, "--scale", SMOKE_SCALE], ROOT)
            what = f"smoke {workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{what}: result line (exit {proc.returncode})")
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(proc.returncode == 0 and result["correct"],
                  f"{what}: exit 0 and oracles agree")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1, f"{what}: result keys")
            wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            got = result["metrics"]
            check(set(got) == {m["name"] for m in wanted} and all(
                got[m["name"]]["unit"] == m["unit"]
                and math.isfinite(got[m["name"]]["value"]) for m in wanted),
                f"{what}: every metric printed with its unit")
            if trace == "0":
                check(all(got[m["name"]]["value"] != 0 for m in wanted),
                      f"{what}: no end-to-end metric reads 0")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_csv",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
        capture_output=True, text=True, timeout=180, check=False)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          "bare directory: run.py fails without a result line")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the smoke runs")
    args = parser.parse_args()
    spec = compare.load_spec(ROOT)
    check_spec(spec)
    check_compare(spec)
    if not args.quick:
        check_smoke(spec)
    check_bare_directory()
    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
