#!/usr/bin/env python3
"""Measures how much each end-to-end metric spreads across seeds.

    python3 perfbench/spread.py <workload> [--seeds 10] [--first-seed 1]
                                [--save set.json] [--against earlier.json]

Runs the benchmark once per seed and prints, per metric, the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is steady. With
--against, it also compares each median with a set saved by --save and
flags one that is worse by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", default="0")
    p.add_argument("--save", help="write the per-metric values to this JSON file")
    p.add_argument("--against", help="values saved by an earlier set: flag medians worse by more than the bound")
    a = p.parse_args()

    values = {}
    for seed in range(a.first_seed, a.first_seed + a.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", a.trace],
            cwd=root, capture_output=True, text=True,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f)
    earlier = {}
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    print(f"{'metric':32} {'median':>12} {'iqr/median':>10} {'bound':>6} {'vs earlier':>10}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else 0.0
        m = e2e.get(name, {})
        bound = m.get("bound")
        flags = []
        if bound is not None and name != "setup_s" and share >= bound / 3:
            flags.append("spread not below a third of the bound")
        change = ""
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) if m.get("better") == "lower" else (before - med)
            change = f"{worse / before:+.4f}" if before else ""
            if bound is not None and before and worse / before > bound:
                flags.append("worse than the earlier set by more than the bound")
        print(f"{name:32} {med:12.6g} {share:10.4f} {bound if bound is not None else '':>6} "
              f"{change:>10}  {'; '.join(flags)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
