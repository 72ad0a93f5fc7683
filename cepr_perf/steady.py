#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs, medians compared.

    python3 cepr_perf/steady.py

Run from the root of a checkout. For each workload in BENCHMARK.json it
makes two sets of ten untraced runs through run.py, each run with its own
seed: set A on seeds 1-10, set B on seeds 11-20. For every end-to-end
metric it prints both medians, each set's spread (distance between the
first and third quartile as a share of the median) and whether the sets
agree: both spreads and the difference between the medians, in either
direction, stay within the metric's bound. It also compares the share of
failed operations. Exits 1 when any check fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEEDS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(workload, seed, bench["run_seconds"])
                 for seed in seeds] for seeds in SEEDS]
        shares = [sorted({r["failed"] / r["attempted"] for r in runs})
                  for runs in sets]
        same_share = shares[0] == shares[1] and len(shares[0]) == 1
        ok = ok and same_share and all(r["correct"] for rs in sets for r in rs)
        print("%s: failed share %s / %s%s" % (
            workload, shares[0], shares[1], "" if same_share else "  MISMATCH"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            # Signed for reading (positive: B is worse); checked both ways.
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            good = abs(worse) <= bound and max(spreads) <= bound
            ok = ok and good
            print("  %-24s A %-12.6g B %-12.6g spread %.3f/%.3f "
                  "B worse by %+.3f bound %.2f %s" % (
                      name, medians[0], medians[1], spreads[0], spreads[1],
                      worse, bound, "ok" if good else "FAIL"))
            for label, v in zip("AB", values):
                print("    %s: %s" % (label, " ".join("%.4g" % x for x in v)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
