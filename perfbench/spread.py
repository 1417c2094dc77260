#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--seconds 20]

For every end_to_end metric of BENCHMARK.json it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median beside the metric's bound. Run from the root of a
checkout; every run goes through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        start = time.time()
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                            args.workload, "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", "0"], capture_output=True, text=True)
        if r.returncode:
            sys.exit("seed %d failed:\n%s" % (seed, r.stderr))
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = [l for l in lines if l.startswith("host steal")]
        print("seed %d: wall %.1f s, %s, correct %s, attempted %d, failed %d, %s" % (
            seed, time.time() - start, steal[0] if steal else "host steal unknown",
            result["correct"], result["attempted"], result["failed"],
            ", ".join("%s %.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print("%-14s median %12.6g  Q1 %12.6g  Q3 %12.6g  spread %6.3f  bound %.2f" % (
            m["name"], med, q1, q3, (q3 - q1) / med, m["bound"]))


if __name__ == "__main__":
    main()
