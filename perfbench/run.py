#!/usr/bin/env python3
"""Repository benchmark: build snip_perfbench, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_snip75 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

The benchmark program snip_perfbench (perfbench/src, built with
perfbench/CMakeLists.txt into .bench_build/perfbench) measures one
workload per process. This script

  * builds it from source on first use (under a lock, output on stderr),
  * pins the pool width per workload (THREADS, capped at the usable CPUs),
  * forwards its report and adds a cross-run check: the output
    fingerprint (loss bits or generated tokens) of a seed must equal the
    one an earlier run of the same build recorded,
  * checks the metric names against BENCHMARK.json,
  * prints as its last line {"correct", "attempted", "failed", "metrics"}.

Exit status 0 when every check passed, 1 when a correctness check failed,
2 when snip_perfbench could not be built or did not produce a report.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "snip_perfbench")
WORKLOADS = ["train_snip75", "train_bf16", "serve_fp8kv"]
# Pool width per workload (capped at the usable CPUs): the width at which
# its figures spread least across runs on a shared 4-vCPU host. Training
# spreads its work over 4 threads; serving's 1-2 row decode steps gain
# little from the pool and at 4 threads pay for waking it every step.
THREADS = {"train_snip75": 4, "train_bf16": 4, "serve_fp8kv": 1}
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build snip_perfbench; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(max(1, len(os.sched_getaffinity(0))))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: build step failed:", " ".join(cmd))
                return False
    return os.path.exists(BINARY)


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def cross_run_check(workload, seed, crc):
    """Compare @crc with the fingerprint an earlier run of this build
    recorded for (workload, seed); record it when there is none."""
    folder = os.path.join(BUILD, "fingerprints", binary_digest())
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s_%d" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != crc:
            return "output fingerprint %s differs from %s recorded by an " \
                   "earlier run of seed %d" % (crc, earlier, seed)
        return None
    with open(path + ".tmp", "w") as f:
        f.write(crc + "\n")
    os.replace(path + ".tmp", path)
    return None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    """Run snip_perfbench once; returns its result dict, or None when it
    produced no report."""
    threads = min(THREADS[workload], len(os.sched_getaffinity(0)))
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--threads=%d" % threads]
    if trace:
        cmd.append("--spans=" + os.path.join(
            BUILD, "spans_%s_%d.json" % (workload, seed)))
    env = dict(os.environ, SNIP_THREADS=str(threads))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=BUILD)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        sys.stdout.write(stdout)
        log("perfbench: snip_perfbench exited with status %d"
            % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(stdout)
        log("perfbench: snip_perfbench printed no result line")
        return None
    print("\n".join(lines[:-1]), flush=True)

    problems = []
    for line in lines:
        if line.startswith("crc %s " % workload):
            problem = cross_run_check(workload, seed, line.split()[-1])
            if problem:
                problems.append(problem)
    names = declared_metrics(trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(names) ^ set(result["metrics"])))
        return None
    for p in problems:
        print("INCORRECT:", p)
    if problems:
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    results = {}
    for w in workloads:
        result = run_workload(w, args.seed, args.seconds, args.trace)
        if result is None:
            return 2
        results[w] = result

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, k): v
                             for w, r in results.items()
                             for k, v in r["metrics"].items()}}
        if not args.trace:
            snip = results["train_snip75"]["metrics"]["latency_ms_p50"]
            bf16 = results["train_bf16"]["metrics"]["latency_ms_p50"]
            print("modeled vs measured: train_snip75 / train_bf16 step "
                  "%.2f ms / %.2f ms = %.2fx (FlopsModel prediction in the "
                  "train_snip75 report above)"
                  % (snip["value"], bf16["value"],
                     snip["value"] / bf16["value"]))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
