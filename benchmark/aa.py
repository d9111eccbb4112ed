#!/usr/bin/env python3
"""A/A: runs two sets of end-to-end runs of the same code and compares them.

For every workload and end-to-end metric it prints both sets' medians, how much
worse the second is than the first (relative to the first), the spread of each
set (distance between its quartiles over its median, as the driver computes it),
the bound from BENCHMARK.json, and PASS/FAIL: FAIL if the second median is worse
than the first by more than the bound, or if a set's spread exceeds the bound
(`setup_s` is exempt from the spread rule, as in the builder's contract).

This is the evidence behind the bounds and the procedure for re-measuring the
baseline. Run through `benchmark/run.sh aa`, which builds first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def one_run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True, check=False)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.exit(f"{workload} seed {seed}: no result line (exit {out.returncode})")
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correctness epilogue failed (exit {out.returncode})")
    disturbed = sum("disturbed" in l or "invalid" in l for l in out.stdout.splitlines() if l.startswith("# attempt"))
    return result, disturbed


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=3, help="runs per workload per set, each with another seed")
    parser.add_argument("--seed", type=int, default=1, help="first seed; set B continues where set A stops")
    parser.add_argument("--seconds", type=int, default=None, help="window (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    binary = os.path.join(os.environ.get("CARGO_TARGET_DIR", "benchmark/target"), "release", "zab-benchmark")
    workloads = [w["name"] for w in spec["workloads"]]

    sets, repeats = [], 0
    for s in range(2):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
        for r in range(args.runs):
            seed = args.seed + s * args.runs + r
            for w in workloads:
                result, disturbed = one_run(binary, w, seed, seconds)
                repeats += disturbed
                for name, m in result["metrics"].items():
                    values[w][name].append(m["value"])
                print(f"# set {'AB'[s]} seed {seed} {w}: failed {result['failed']} of {result['attempted']}",
                      flush=True)
        sets.append(values)

    print(f"# commit {os.environ.get('ZAB_BENCH_COMMIT', 'unknown')}, {args.runs} runs per workload per set, "
          f"{seconds} s windows, seeds {args.seed}..{args.seed + 2 * args.runs - 1}, "
          f"{repeats} attempts repeated as disturbed or invalid")
    print(f"{'workload':16} {'metric':20} {'median A':>12} {'median B':>12} {'B worse by':>10} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    failed = False
    for w in workloads:
        for m in spec["end_to_end"]:
            a, b = (s[w][m["name"]] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            spreads = (spread(a), spread(b))
            ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
            failed |= not ok
            print(f"{w:16} {m['name']:20} {med_a:12.4f} {med_b:12.4f} {worse:+10.3f} "
                  f"{spreads[0]:9.3f} {spreads[1]:9.3f} {m['bound']:6.2f}  {'PASS' if ok else 'FAIL'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
