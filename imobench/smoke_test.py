#!/usr/bin/env python3
"""imo_bench_smoke: every workload of imo-bench at tiny scale.

Checks that every metric BENCHMARK.json names is printed with its unit,
that no point fails, that one seed gives identical digests twice while
another seed changes them, and that the traced run's file passes
tools/check_trace.cmake.
"""

import argparse
import json
import os
import re
import subprocess
import sys


def run(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s%s"
                 % (" ".join(cmd), p.returncode, p.stdout, p.stderr))
    return p.stdout


def bench(args, name, *extra):
    out = os.path.join(args.scratch, name + ".json")
    stdout = run([args.bin, "--smoke", "--scratch", args.scratch,
                  "--json", out] + list(extra))
    with open(out) as f:
        return stdout, json.load(f)["workloads"]


def check_metrics(stdout, result, wanted, workload, errors):
    metrics = result["metrics"]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in metrics:
            # A p90 is reported only with ten samples beyond it.
            p50 = metrics.get(name.replace("_p90", "_p50"))
            if name.endswith("_p90") and p50 and p50["n"] < 100:
                continue
            errors.append("%s: %s not reported" % (workload, name))
        elif metrics[name]["unit"] != unit:
            errors.append("%s: %s in %s, not %s"
                          % (workload, name, metrics[name]["unit"], unit))
        elif not re.search(r"\b%s\s+\S+\s+%s(?=\s|$)"
                           % (re.escape(name), re.escape(unit)),
                           stdout, re.MULTILINE):
            errors.append("%s: %s not printed with %s"
                          % (workload, name, unit))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--check-trace", required=True)
    ap.add_argument("--cmake", default="cmake")
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()
    os.makedirs(args.scratch, exist_ok=True)
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    errors = []

    out1, a = bench(args, "seed1", "--seed", "1")
    _, b = bench(args, "seed1-again", "--seed", "1")
    _, c = bench(args, "seed2", "--seed", "2")
    for w in names:
        if w not in a:
            errors.append("%s: not run" % w)
            continue
        check_metrics(out1, a[w], spec["end_to_end"], w, errors)
        if a[w]["metrics"]["fail_ratio"]["value"] != 0 or not a[w]["correct"]:
            errors.append("%s: failed points" % w)
        if a[w]["digests"] != b[w]["digests"]:
            errors.append("%s: seed 1 digests differ between runs" % w)
        if a[w]["digests"]["reference"] == c[w]["digests"]["reference"]:
            errors.append("%s: seed 2 gives seed 1's digest" % w)

    trace = os.path.join(args.scratch, "trace.json")
    out_t, t = bench(args, "traced", "--trace", trace)
    for w in names:
        if w in t:
            check_metrics(out_t, t[w], spec["per_layer"], w, errors)
        else:
            errors.append("%s: not traced" % w)
    run([args.cmake, "-DTRACE=" + trace, "-DMODE=chrome",
         "-P", args.check_trace])

    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print("imo_bench_smoke: %d workloads ok" % len(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
