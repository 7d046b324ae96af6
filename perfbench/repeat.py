#!/usr/bin/env python3
"""Run benchmark workloads repeatedly and print each metric's spread.

    python3 perfbench/repeat.py [--workloads kv-read-scan,index-hot]
                                [--runs 10] [--first-seed 1]
                                [--seconds 10] [--trace 0|1]

Run from the repository root. Each run is the command of BENCHMARK.json
with its own seed (first-seed, first-seed+1, ...). For every metric the
script prints the median and the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread
(Q3 - Q1) / median, and, for end-to-end metrics, the bound of
BENCHMARK.json and whether the spread is below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's notes and values")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for w in a.workloads.split(","):
        if w not in names:
            sys.exit(f"unknown workload {w}; known: {', '.join(names)}")
        values, shares = {}, []
        for i in range(a.runs):
            seed = a.first_seed + i
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
            ]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            lines = p.stdout.strip().splitlines()
            r = json.loads(lines[-1])
            if a.verbose:
                for line in lines[:-1]:
                    if line.startswith("# ") and not line.startswith("# host"):
                        print(f"  seed {seed} {line}")
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"  seed {seed}: {vals}", flush=True)
            if not r["correct"]:
                print(f"  seed {seed}: correct=false")
            shares.append(r["failed"] / r["attempted"])
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{w}: {a.runs} runs, failed shares {sorted(set(shares))}")
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            line = f"  {k:34s} median {med:14.6g}  Q1 {q1:14.6g}  Q3 {q3:14.6g}  spread {spread:7.4f}"
            if k in bounds:
                ok = "ok" if spread < bounds[k] / 3 else "WIDE"
                line += f"  bound {bounds[k]:.2f} {ok}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
