#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 --seconds 15

Run from the repository root. For every metric it prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, then the raw
values. A run that fails or reports incorrect outputs stops the script.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("seed %d: exit %d" % (seed, proc.returncode))
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit("seed %d: outputs incorrect" % seed)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d done" % seed, file=sys.stderr, flush=True)
    print("%-32s %12s %8s  %s" % ("metric", "median", "iqr/med", "values"))
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        print("%-32s %12.6g %8.4f  %s %s" % (name, med, spread,
              " ".join("%.4g" % v for v in vs), units[name]))


if __name__ == "__main__":
    main()
