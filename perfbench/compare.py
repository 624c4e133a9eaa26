#!/usr/bin/env python3
"""Compare two sets of perfbench runs (standard library only).

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are each a directory holding run records (the
record.json every run writes under .bench_build/runs/) or a file of JSON
lines, one record per line. Records are paired per workload by seed:
run the parent and the change on the same seeds, alternating which side
runs first.

For each workload and end-to-end metric the comparer prints each side's
median and quartiles, the change in the median, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither side), over at least 10 pairs, and the medians
              differ by more than the parent's own interquartile spread
  worse       the same test, with the parent winning
  unresolved  anything else

A change beyond the metric's bound in BENCHMARK.json is flagged
"beyond bound" whatever the verdict.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """Returns {(workload, seed): record} for the untraced runs under path."""
    records = []
    if os.path.isdir(path):
        for root, _, files in os.walk(path):
            if "record.json" in files:
                with open(os.path.join(root, "record.json")) as f:
                    records.append(json.load(f))
    else:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    out = {}
    for r in records:
        if r.get("traced") or not r.get("correct", False):
            continue
        out[(r["workload"], r["seed"])] = r
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(pairs, better_higher, parent_iqr):
    """Applies the paired rule to [(parent, change), ...]."""
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(1 for p, c in pairs if (c > p if better_higher else c < p))
    losses = sum(1 for p, c in pairs if (c < p if better_higher else c > p))
    gap = statistics.median(c for _, c in pairs) - statistics.median(p for p, _ in pairs)
    if abs(gap) <= parent_iqr:
        return "unresolved"
    if wins >= WIN_SHARE * len(pairs) and (gap > 0) == better_higher:
        return "better"
    if losses >= WIN_SHARE * len(pairs) and (gap > 0) != better_higher:
        return "worse"
    return "unresolved"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    if not workloads:
        sys.exit("no untraced, correct run records found")

    print("%-13s %-17s %6s %23s %23s %9s  %s" % (
        "workload", "metric", "pairs", "parent med [q1, q3]", "change med [q1, q3]", "delta", "verdict"))
    for w in workloads:
        seeds = sorted({s for ww, s in parent if ww == w} & {s for ww, s in change if ww == w})
        for m in bench["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            pairs = [(parent[(w, s)]["metrics"][name]["value"], change[(w, s)]["metrics"][name]["value"])
                     for s in seeds
                     if name in parent[(w, s)]["metrics"] and name in change[(w, s)]["metrics"]]
            if not pairs:
                continue
            ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
            pm, cm = statistics.median(ps), statistics.median(cs)
            pq, cq = quartiles(ps), quartiles(cs)
            delta = (cm - pm) / pm if pm else 0.0
            v = verdict(pairs, higher, pq[1] - pq[0])
            worse_by = -delta if higher else delta
            if worse_by > m["bound"]:
                v += ", beyond bound %.2f" % m["bound"]
            print("%-13s %-17s %6d %9.4g [%5.4g, %5.4g] %9.4g [%5.4g, %5.4g] %+8.1f%%  %s" % (
                w, name, len(pairs), pm, pq[0], pq[1], cm, cq[0], cq[1], 100 * delta, v))


if __name__ == "__main__":
    main()
