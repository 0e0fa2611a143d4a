#!/usr/bin/env python3
"""Summarize and compare imo-bench result files (imo-bench --json).

    compare_runs.py A1.json A2.json ...               # one set
    compare_runs.py A1.json A2.json ... --vs B1.json B2.json ...

For each workload and metric, prints the median and quartiles of the
values across the files of each set. The end-to-end metrics of
BENCHMARK.json are judged against the bounds it gives, and no others: a
set whose spread (quartile distance over median) exceeds the bound is
"unresolved"; with --vs, B is a "regression" when its median is worse
than A's by more than the bound, unless either set is unresolved and
not every B run beats every A run. Other metrics are printed without a
verdict. Report digests are compared between files of the same seed and
flagged when they differ. Exit status 1 on a regression, a digest
difference, or a result that is not correct (a failed or mismatched
point).

Standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load_rules(path):
    """{metric: (better, bound)} from BENCHMARK.json's end_to_end list."""
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_set(paths):
    """{workload: {"metrics": {name: [values]}, "units": {}, ...}}"""
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        seed = doc["env"]["seed"]
        for name, w in doc["workloads"].items():
            entry = out.setdefault(name, {"metrics": {}, "units": {},
                                          "digests": [], "bad": []})
            for m, v in w["metrics"].items():
                entry["metrics"].setdefault(m, []).append(v["value"])
                entry["units"][m] = v["unit"]
            entry["digests"].append((seed, w["digests"]["reference"], path))
            if not w["correct"] or not w["digests"]["identical"]:
                entry["bad"].append(path)
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict_one(spread, rule):
    if rule is None:
        return ""
    return "unresolved" if spread > rule[1] else "steady"


def verdict_two(a, b, rule):
    if rule is None:
        return ""
    better, bound = rule
    ma, _, _, sa = summary(a)
    mb, _, _, sb = summary(b)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mb - ma)  # > 0: B is worse
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if (sa > bound or sb > bound) and not all_better:
        return "unresolved"
    if worse_by > bound * abs(ma):
        return "REGRESSION"
    if all_better and worse_by < 0:
        return "better (every run)"
    return "ok"


def digest_problems(sets):
    """Files of one workload and seed whose report digests differ."""
    problems = []
    workloads = set()
    for s in sets:
        workloads.update(s)
    for name in sorted(workloads):
        by_seed = {}
        for s in sets:
            for seed, digest, path in s.get(name, {}).get("digests", []):
                by_seed.setdefault(seed, set()).add(digest)
        for seed, digests in sorted(by_seed.items()):
            if len(digests) > 1:
                problems.append("%s seed %s: digests differ: %s"
                                % (name, seed, " ".join(sorted(digests))))
    return problems


def main():
    ap = argparse.ArgumentParser(
        description="Compare imo-bench result files.")
    ap.add_argument("a", nargs="+", help="result files of set A")
    ap.add_argument("--vs", nargs="+", default=[],
                    help="result files of set B, compared against A")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()

    rules = load_rules(args.benchmark)
    a = load_set(args.a)
    b = load_set(args.vs) if args.vs else None
    failed = False

    for name in a:
        print("== %s" % name)
        ea = a[name]
        eb = b.get(name) if b else None
        for m, va in ea["metrics"].items():
            unit = ea["units"][m]
            rule = rules.get(m)
            med, q1, q3, spread = summary(va)
            line = "  %-36s %-8s A: %12.6g [%.6g, %.6g] n=%d spread %.3f" % (
                m, unit, med, q1, q3, len(va), spread)
            if eb and m in eb["metrics"]:
                vb = eb["metrics"][m]
                mb, q1b, q3b, sb = summary(vb)
                v = verdict_two(va, vb, rule)
                line += "  B: %12.6g [%.6g, %.6g] n=%d spread %.3f  %s" % (
                    mb, q1b, q3b, len(vb), sb, v)
                failed = failed or v == "REGRESSION"
            else:
                line += "  %s" % verdict_one(spread, rule)
            print(line)
        for path in ea["bad"] + (eb["bad"] if eb else []):
            print("  NOT CORRECT: %s" % path)
            failed = True

    for p in digest_problems([a] + ([b] if b else [])):
        print("DIGEST: %s" % p)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
