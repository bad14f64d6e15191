#!/usr/bin/env python3
"""Measures tcbbench's run-to-run spread.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with the next seed, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread:
the distance between the quartiles as a share of the median, next to the
metric's bound, and how long a run took. Run it from the repository root:

    python3 cmd/tcbbench/spread.py --runs 10 --first-seed 1 [--workload W ...]

With --compare FILE it also reads a JSONL file an earlier invocation wrote
with --out, and prints how far this set's medians moved from that set's.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=300)
    wall = time.monotonic() - start
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{p.stderr}")
    return res, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="append each run's result as a JSON line")
    ap.add_argument("--compare", help="JSONL from an earlier --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            for line in f:
                r = json.loads(line)
                for k, m in r["metrics"].items():
                    earlier.setdefault((r["workload"], k), []).append(m["value"])

    out = open(args.out, "a") if args.out else None
    walls = []
    for w in names:
        values = {}
        for i in range(args.runs):
            res, wall = run(bench["command"], w, args.first_seed + i, bench["run_seconds"])
            walls.append(wall)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            if out:
                out.write(json.dumps({"workload": w, "seed": args.first_seed + i, "wall_s": wall, **res}) + "\n")
                out.flush()
        print(f"== {w} ({args.runs} runs, longest {max(walls[-args.runs:]):.1f} s)")
        for k in bounds:
            v = values[k]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[k] / 3 else "  <-- spread not below a third of the bound"
            line = (f"  {k:15} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                    f"  spread {100 * spread:6.2f}%  bound {100 * bounds[k]:4.0f}%{flag}")
            if (w, k) in earlier:
                m0 = statistics.median(earlier[(w, k)])
                line += f"  vs earlier median {100 * (med - m0) / m0:+6.2f}%"
            print(line, flush=True)
    n = len(bench["workloads"])
    print(f"mean run {statistics.mean(walls):.1f} s: {4 + 22 * n} runs of {n} workloads"
          f" take about {(4 + 22 * n) * statistics.mean(walls):.0f} s")


if __name__ == "__main__":
    main()
