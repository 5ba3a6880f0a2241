#!/usr/bin/env python3
"""Repeat each workload and report how steady its metrics are.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed 1]
                                [--seconds S] [--trace 0|1] [--window-check]

Runs perfbench/run.py --runs times per workload, one seed after another, and
prints each metric's median, quartiles and spread (q3 - q1) / median next to
its bound from BENCHMARK.json. A spread under a third of the bound is marked
"ok" (for setup_s, a spread under the bound). The share of failed operations
must be the same in every run.

--window-check repeats the runs with the timed window halved and checks
that host_us_per_op stays within its bound: the metric measures per-op work,
not fixed costs. Run from the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def series(workload, seeds, seconds, trace):
    results = [run_once(workload, s, seconds, trace) for s in seeds]
    shares = {r["failed"] / r["attempted"] for r in results}
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, shares


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window-check", action="store_true")
    a = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = list(range(a.seed, a.seed + a.runs))
    unsteady = 0
    for w in a.workloads.split(","):
        values, shares = series(w, seeds, a.seconds, a.trace)
        print(f"== {w}: {a.runs} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                ok = sp < bound / 3 or name == "setup_s" and sp < bound
                mark = "ok" if ok else "UNSTEADY"
                unsteady += not ok
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                  f"{bound if bound is not None else '-':>6} {mark}")
        if len(shares) != 1:
            print("  failed share differs between runs")
            unsteady += 1
        if a.window_check and a.trace == 0:
            half, _ = series(w, seeds, a.seconds / 2, 0)
            full_med = statistics.median(values["host_us_per_op"])
            half_med = statistics.median(half["host_us_per_op"])
            rel = abs(half_med - full_med) / full_med
            ok = rel <= bounds["host_us_per_op"]
            unsteady += not ok
            print(f"  window check: host_us_per_op {full_med:.4g} at {a.seconds} s, "
                  f"{half_med:.4g} at {a.seconds / 2} s ({rel:+.2%}) "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
