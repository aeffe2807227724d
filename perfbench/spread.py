#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and print, for every
metric, the median, the quartiles and the spread (interquartile range as a
share of the median), with the bound from BENCHMARK.json beside it.

    python3 perfbench/spread.py                      # every workload, seeds 1..10
    python3 perfbench/spread.py --workloads open_loop --seeds 5 --trace 1

Run it from the repository root; it builds through the benchmark's own
command, so the first run includes the build.
"""
import argparse
import json
import statistics
import subprocess
import sys

def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.seeds} seeds, {seconds} s, trace {args.trace})")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread over bound/3"
            print(f"  {name:34} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}" + (f" bound {bound}" if bound else "") + flag)
    sys.exit(0 if ok else 1)

if __name__ == "__main__":
    main()
