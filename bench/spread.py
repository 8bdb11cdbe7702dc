#!/usr/bin/env python3
"""Run bench/run.py once per seed and report each metric's median and
quartile spread (Q3 - Q1) / median across the runs.

    python3 bench/spread.py --workload mc_logit_ar1 --seeds 1-10

Runs untraced, for BENCHMARK.json's ``run_seconds``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:12.6g}  spread {share:.4f}")


if __name__ == "__main__":
    main()
