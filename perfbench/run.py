#!/usr/bin/env python3
"""End-to-end benchmark of Causer training and loopback-TCP serving.

Builds the benchmark package (this directory, linked against the program's
library targets under src/) into .bench_build/ at the repository root, runs
one workload, and prints one JSON result line as its last line of output:

    python3 perfbench/run.py --workload causer-4k --seed 1 --seconds 10 --trace 0

With --trace 1 the workload runs three times, untraced, traced and untraced
again; the result holds the traced run's per-layer metrics,
trace.overhead_pct (the traced run's headline time against the mean of the
two untraced runs) and trace.noise_pct (how far the two untraced runs differ
from each other). --selftest builds and runs the benchmark's own tests
instead. See README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
WORKLOADS = ("causer-fsq", "causer-4k")
# The harness prints, in every run, the time a traced run's overhead is
# measured on (the open-loop p50) under this name; it is not one of the
# benchmark's metrics.
HEADLINE = "headline"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources next to the benchmark; nothing to build")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_harness(workload, seed, seconds, trace, timeout):
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (workload, os.getpid(),
                                                      trace))
    cmd = [os.path.join(CMAKE_DIR, "perfbench_harness"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--bin-dir=" + CMAKE_DIR, "--work-dir=" + work]
    # The harness and the server it starts share a new process group, so
    # nothing outlives the run even if the harness dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        out = ""
    stop_group(proc)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("%s exited with status %s" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def stop_group(proc):
    """Kills what is left of the process group and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return subprocess.run(
            [os.path.join(CMAKE_DIR, "perfbench_selftest")]).returncode

    if not args.trace:
        result = run_harness(args.workload, args.seed, args.seconds, 0, 170)
        if result is None:
            return 1
        result["metrics"].pop(HEADLINE)
    else:
        # Untraced, traced, untraced: the overhead is the traced headline
        # against the mean of the untraced pair around it, and the pair's
        # own disagreement is reported beside it, so an overhead smaller
        # than the run-to-run noise shows as such.
        # Each run takes --seconds plus set-up and checks (under 50 s at
        # --seconds 30); three must end within the 180 s a run is allowed.
        runs = [run_harness(args.workload, args.seed, args.seconds, t, 58)
                for t in (0, 1, 0)]
        if any(r is None for r in runs):
            return 1
        untraced = [runs[0]["metrics"][HEADLINE]["value"],
                    runs[2]["metrics"][HEADLINE]["value"]]
        base = sum(untraced) / 2.0
        result = runs[1]
        result["correct"] = all(r["correct"] for r in runs)
        traced = result["metrics"].pop(HEADLINE)["value"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": (traced / base - 1.0) * 100.0, "unit": "%"}
        result["metrics"]["trace.noise_pct"] = {
            "value": abs(untraced[0] - untraced[1]) / base * 100.0,
            "unit": "%"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
