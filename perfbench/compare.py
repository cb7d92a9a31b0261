#!/usr/bin/env python3
"""Compares two versions of the repo on the benchmark, or checks how steady
one version's figures are.

    # Run N alternating parent/change pairs (the side that runs first
    # alternates; both sides of a pair use the same seed), building each
    # side under OUT/build/<side> and saving each run's result line under
    # OUT/<side>/<workload>/seed<N>.json:
    compare.py run --parent ../parent-checkout --change . --pairs 10 --out OUT

    # Judge the pairs, per (workload, metric), under BENCHMARK.json's bounds:
    compare.py report OUT

    # Spread of one side's runs (IQR / median) against each metric's bound:
    compare.py spread OUT/change

Verdicts (the choosing-metrics rule, section 8 and 6.5):
  improved    the change wins at least 90% of the pairs (ties count for
              neither side) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, and either the parent's spread is within
              the bound or every change run is worse than every parent run;
  unresolved  fewer than 10 pairs, or the parent's spread is wider than the
              bound and the change neither beats nor loses to every parent
              run;
  unchanged   otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec(root=None):
    path = os.path.join(root or os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as handle:
        return json.load(handle)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    """Judges paired runs of one (workload, metric); returns (verdict, stats)."""
    direction, bound = metric["better"], metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    stats = {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
             "pairs": len(pairs), "win_share": wins / len(pairs) if pairs else 0}
    if len(pairs) < MIN_PAIRS:
        return "unresolved", stats
    parent_iqr = pq3 - pq1
    worse_by = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if (wins >= WIN_SHARE * len(pairs) and better(cmed, pmed, direction)
            and abs(cmed - pmed) > parent_iqr):
        return "improved", stats
    # When the parent's own runs spread wider than the bound, a median shift
    # by the bound may be noise: only a change that is worse (or better) in
    # every run against every parent run is judged.
    noisy = parent_iqr > bound * abs(pmed)
    all_worse = all(better(p, c, direction) for c in change for p in parent)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if worse_by > bound * abs(pmed):
        return ("regressed" if not noisy or all_worse else "unresolved"), stats
    if noisy and not all_better:
        return "unresolved", stats
    return "unchanged", stats


def read_side(directory):
    """{workload: {seed: {metric: value}}} from a side's result files."""
    runs = {}
    if not os.path.isdir(directory):
        return runs
    for workload in sorted(os.listdir(directory)):
        wdir = os.path.join(directory, workload)
        for name in sorted(os.listdir(wdir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(wdir, name)) as handle:
                result = json.load(handle)
            if not result.get("correct"):
                print(f"warning: {wdir}/{name} failed its oracle; skipped",
                      file=sys.stderr)
                continue
            seed = name[len("seed"):-len(".json")]
            runs.setdefault(workload, {})[seed] = {
                k: v["value"] for k, v in result["metrics"].items()}
    return runs


def report(parent_runs, change_runs, spec):
    """Prints one row per (workload, metric); returns the verdicts."""
    verdicts = {}
    print(f"{'workload':<16} {'metric':<22} {'parent med [q1, q3]':<34} "
          f"{'change med [q1, q3]':<34} {'wins':>5}  verdict")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs), key=str)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            paired = [s for s in seeds
                      if name in p_runs[s] and name in c_runs[s]]
            if not paired:
                continue
            parent = [p_runs[s][name] for s in paired]
            change = [c_runs[s][name] for s in paired]
            v, st = verdict(parent, change, metric)
            verdicts[(workload, name)] = v
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{workload:<16} {name:<22} "
                  f"{fmt.format(st['parent'][1], st['parent'][0], st['parent'][2]):<34} "
                  f"{fmt.format(st['change'][1], st['change'][0], st['change'][2]):<34} "
                  f"{st['win_share']:>5.0%}  {v}")
    return verdicts


def spread_report(runs, spec):
    """Prints each metric's spread (IQR / median) beside its bound."""
    print(f"{'workload':<16} {'metric':<22} {'runs':>4} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload, by_seed in sorted(runs.items()):
        for metric in spec["end_to_end"]:
            values = [m[metric["name"]] for m in by_seed.values()
                      if metric["name"] in m]
            if not values:
                continue
            print(f"{workload:<16} {metric['name']:<22} {len(values):>4} "
                  f"{quartiles(values)[1]:>12.5g} {spread(values):>8.3f} "
                  f"{metric['bound']:>6.3f}")


def run_pairs(args, spec):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = str(args.seconds or spec["run_seconds"])
    # Each side builds into a directory of its own, whatever the caller's
    # $CARGO_TARGET_DIR says, so neither side runs the other's build.
    envs = {side: dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(
                os.path.join(args.out, "build", side)))
            for side in ("parent", "change")}
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        order = [("parent", args.parent), ("change", args.change)]
        if pair % 2:
            order.reverse()
        for workload in workloads:
            for side, checkout in order:
                cmd = [sys.executable,
                       os.path.join(checkout, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", seconds, "--trace", "0"]
                proc = subprocess.run(cmd, cwd=checkout, env=envs[side],
                                      capture_output=True, text=True,
                                      check=False)
                lines = proc.stdout.strip().splitlines()
                if not lines or not lines[-1].startswith("{"):
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{side} {workload} seed {seed}: no result")
                out = os.path.join(args.out, side, workload)
                os.makedirs(out, exist_ok=True)
                with open(os.path.join(out, f"seed{seed}.json"), "w") as f:
                    f.write(lines[-1] + "\n")
                print(f"pair {pair} {workload} {side} done", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="parent checkout")
    run.add_argument("--change", required=True, help="change checkout")
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--workloads", help="comma-separated; default all")
    run.add_argument("--seconds", type=int, help="default: run_seconds")
    run.add_argument("--seed-base", type=int, default=1000)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="judge the pairs under OUT")
    rep.add_argument("out")
    spr = sub.add_parser("spread", help="spread of one side's runs")
    spr.add_argument("side_dir")
    args = parser.parse_args()

    spec = load_spec()
    if args.command == "run":
        run_pairs(args, spec)
    elif args.command == "report":
        verdicts = report(read_side(os.path.join(args.out, "parent")),
                          read_side(os.path.join(args.out, "change")), spec)
        sys.exit(1 if "regressed" in verdicts.values() else 0)
    else:
        spread_report(read_side(args.side_dir), spec)


if __name__ == "__main__":
    main()
