#!/usr/bin/env python3
"""Paired comparison of two benchmark result sets.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files, or directories of files, holding the standard
output of perfbench/run.py runs (their {"report": ...} lines are read;
other lines are ignored). For every workload and end-to-end metric it
prints each side's median and quartiles, the share of pairs the change
won, and a verdict under the rules of the benchmark's README:

  improved      the change won >= 90% of the pairs and the medians differ
                by more than the base's interquartile range
  within bound  the change's median is no worse than the base's by more
                than the metric's bound in BENCHMARK.json
  worse         it is worse by more than the bound
  unresolved    the base's own spread is wider than the bound, and not
                every change run beats every base run

Runs pair by seed when both sides hold the same seeds, else in file
order. Paired by seed, the two runs of a seed must have read the same
input (env.input_crc32): a workload whose inputs differ on any seed gets
the verdict "inputs differ" on every metric, with the seeds named. It
also reports on how many seeds val_loss stayed bit-identical (a changed
trajectory must be declared, not hidden). When both sides hold traced
runs of a workload, the per-layer medians follow.
Exits 1 if any verdict is "worse" or "inputs differ", or any change run
failed a correctness gate, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPROVED_SHARE = 0.9


def read_reports(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))]
    reports = []
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if isinstance(obj, dict) and "report" in obj:
                    reports.append(obj["report"])
    return reports


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def runs_by_workload(reports, trace):
    out = {}
    for r in reports:
        if r.get("trace", 0) == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def pair(base, change):
    """Pairs of runs, and whether they were paired by seed."""
    seeds_a = [r["env"]["seed"] for r in base]
    seeds_b = [r["env"]["seed"] for r in change]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = {r["env"]["seed"]: r for r in change}
        return [(r, by_seed[r["env"]["seed"]]) for r in base], True
    return list(zip(base, change)), False


def value(report, name):
    m = report["metrics"].get(name)
    return m["value"] if isinstance(m, dict) else None


def verdict(metric, a, b, pairs):
    """Verdict for one metric; a, b are the two sides' values."""
    lower = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    spread = (q3 - q1) / med_a if med_a else float("inf")
    worse_by = (med_b - med_a) / med_a if med_a else 0.0
    if not lower:
        worse_by = -worse_by
    won = sum(1 for x, y in pairs if better(y, x))
    all_better = all(better(y, x) for x in a for y in b)
    if spread > metric["bound"]:
        return ("improved" if all_better else "unresolved"), won, worse_by
    if worse_by > metric["bound"]:
        return "worse", won, worse_by
    if (pairs and won >= IMPROVED_SHARE * len(pairs)
            and better(med_b, med_a) and abs(med_b - med_a) > q3 - q1):
        return "improved", won, worse_by
    return "within bound", won, worse_by


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    base_all, change_all = read_reports(args.base), read_reports(args.change)
    base = runs_by_workload(base_all, 0)
    change = runs_by_workload(change_all, 0)
    regress = False
    bad = [r for r in change_all if not r.get("correct", False)]
    if bad:
        regress = True
        print(f"change: {len(bad)} run(s) failed a correctness gate")

    fmt = "{:22s} {:20s} {:>28s} {:>28s} {:>8s} {:>7s}  {}"
    print(fmt.format("workload", "metric", "base med [q1, q3]",
                     "change med [q1, q3]", "worse", "won", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in change:
            print(f"{w}: no runs on {'base' if w not in base else 'change'}")
            continue
        pairs_all, by_seed = pair(base[w], change[w])
        differ = []
        if by_seed:
            differ = sorted(x["env"]["seed"] for x, y in pairs_all
                            if x["env"].get("input_crc32")
                            != y["env"].get("input_crc32"))
        if differ:
            regress = True
            print(f"{w}: inputs differ on seeds {differ}; no verdict")
        for m in spec["end_to_end"]:
            a = [v for v in (value(r, m["name"]) for r in base[w]) if v is not None]
            b = [v for v in (value(r, m["name"]) for r in change[w]) if v is not None]
            if not a or not b:
                print(f"{w}: {m['name']} missing")
                regress = True
                continue
            pairs = [(value(x, m["name"]), value(y, m["name"]))
                     for x, y in pairs_all]
            pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
            v, won, worse_by = verdict(m, a, b, pairs)
            if differ:
                v = "inputs differ"
            regress = regress or v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(fmt.format(
                w, m["name"],
                f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]",
                f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]",
                f"{100 * worse_by:+.1f}%", f"{won}/{len(pairs)}", v))
        if by_seed:
            same = sum(1 for x, y in pairs_all
                       if x.get("counts", {}).get("val_loss_bits")
                       == y.get("counts", {}).get("val_loss_bits"))
            print(f"{w}: val_loss bit-identical on {same}/{len(pairs_all)} "
                  f"seeds{'' if same == len(pairs_all) else ' (trajectory changed)'}")

    tb, tc = runs_by_workload(base_all, 1), runs_by_workload(change_all, 1)
    for w in sorted(set(tb) & set(tc)):
        print(f"{w}: per-layer medians, base -> change")
        for m in spec["per_layer"]:
            a = [v for v in (value(r, m["name"]) for r in tb[w]) if v is not None]
            b = [v for v in (value(r, m["name"]) for r in tc[w]) if v is not None]
            if a and b:
                print(f"  {m['name']:28s} {statistics.median(a):>12.5g} "
                      f"{statistics.median(b):>12.5g} {m['unit']}")
    sys.exit(1 if regress else 0)


if __name__ == "__main__":
    main()
