#!/usr/bin/env python3
"""Benchmark entry point: builds the daemon and the load generator, then runs one
workload.

    python3 perfbench/run.py --workload warm-repeat --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/ (its log to
.bench_out/build.log), daemon logs and trace spans to .bench_out/. The
load generator's stdout is passed through: its last line is the result JSON.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
LOADGEN = os.path.join(BUILD, "perfbench_load")
DAEMON = os.path.join(BUILD, "estima", "example_estima_serve")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_load",
                  "example_estima_serve", "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=log, env=env,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    cmd = [LOADGEN, "--selftest"] if a.selftest else [
        LOADGEN, "--workload=" + a.workload, "--seed=%d" % a.seed,
        "--seconds=%d" % a.seconds, "--trace=%d" % a.trace,
        "--daemon=" + DAEMON, "--out=" + OUT]
    # Own process group, so a hung or crashed run takes its daemon down
    # with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        rc = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # nothing left in the group: the normal case
    proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
