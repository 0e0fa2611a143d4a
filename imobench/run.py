#!/usr/bin/env python3
"""Build imo-bench from this checkout and run one workload of it.

    python3 imobench/run.py --workload fig2-full --seed 1 --seconds 14 --trace 0

Run from the root of a checkout. The benchmark and the simulator
libraries are built in Release mode into .bench_build/imobench (once;
later runs only check that the build is current). imo-bench's own
report goes to standard output, and the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, from a
timed run; with --trace 1 they are its per_layer list, from a traced
run. Exit status is non-zero, with no JSON line, when the build or the
run cannot complete.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "imobench")
SCRATCH = os.path.join(ROOT, ".bench_build", "imobench-run")
BINARY = os.path.join(BUILD, "imo-bench")
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
               "imo-bench"])


def run_bench(cmd):
    """Run imo-bench in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: unknown workload %r" % args.workload)

    build()
    os.makedirs(SCRATCH, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(SCRATCH, "result-%s.json" % tag)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--json", result_path,
           "--scratch", SCRATCH]
    if args.trace:
        cmd += ["--trace", os.path.join(SCRATCH, "trace-%s.json" % tag)]
    sys.stdout.flush()
    status = run_bench(cmd)
    # Status 1 means a failed or mismatched point: still a result, with
    # "correct": false. Anything else means no result.
    if status not in (0, 1) or not os.path.exists(result_path):
        sys.exit("run.py: imo-bench exited with status %d" % status)

    with open(result_path) as f:
        result = json.load(f)["workloads"][args.workload]
    measured = result["metrics"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("run.py: imo-bench did not report %s in %s"
                     % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and status == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build step failed: %s" % " ".join(e.cmd))
    except subprocess.TimeoutExpired:
        sys.exit("run.py: imo-bench ran longer than %d s" % RUN_TIMEOUT_S)
