#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, judged as the benchmark's gate
judges it: per workload, run N seeds, and for each end-to-end metric
report the median and (q3 - q1) / median with q1, q3 from
statistics.quantiles(values, n=4), next to the metric's bound.

    python3 perfbench/spread.py --runs 10 [--workload cold-fit ...]
        [--first-seed 1] [--trace 0]

Run from the repository root. Exits 1 if any run fails or reports
"correct": false.
"""
import argparse
import json
import statistics
import subprocess
import sys

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(a.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not res.get("correct"):
                ok = False
                sys.stderr.write("%s seed %d failed (rc %d)\n%s" %
                                 (w, seed, p.returncode, p.stderr))
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: %s" % (w, seed, lines[-2]), flush=True)
        print("== %s (%d runs)" % (w, len(values[metrics[0]["name"]])))
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = "ok" if spread < bound / 3 else (
                    "WITHIN BOUND" if spread <= bound else "TOO NOISY")
            print("  %-28s median %-14.6g spread %6.2f%%  bound %s %s" % (
                m["name"], med, 100 * spread,
                "-" if bound is None else "%g%%" % (100 * bound), flag),
                flush=True)
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
