#!/usr/bin/env python3
"""Noise report: runs each workload of BENCHMARK.json repeatedly, one seed
per run, and prints per metric the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound, so bounds
come from measured spread. Run from the repository root:

    python3 perfbench/noise.py --runs 10
    python3 perfbench/noise.py --workloads collapse-paper --runs 5 --first-seed 100

Every run's host line (CPU model, nproc, GOMAXPROCS, Go version) is
printed with its figures.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    host = next((l for l in lines if l.startswith("# host")), "# host ?")
    return host, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if a.trace else spec["end_to_end"]
    workloads = a.workloads or [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(a.runs):
            seed = a.first_seed + i
            host, res = run_once(spec["command"], w, seed, seconds, a.trace)
            print(f"{w} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {host[2:]}", flush=True)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print("   " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        print(f"\n{w}: {a.runs} runs, {seconds} s each")
        print(f"  {'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {m['name']:34} {m['unit']:8} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}")
        print()
    if not a.trace:
        print(f"largest spread / bound, setup_s aside: {worst:.2f}")


if __name__ == "__main__":
    main()
