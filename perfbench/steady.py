#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one workload.

    python3 perfbench/steady.py --workload <name>

Runs the benchmark command from BENCHMARK.json (from the repository root)
ten times per set, on seeds 1-10; run i of set A and run i of set B use the
same seed and alternate which goes first. For every end-to-end metric it
prints each set's median and quartiles, each set's spread (quartile
distance over median) and the worse-direction difference of the medians,
both set against the metric's bound. It exits non-zero if a spread or a
median difference exceeds its bound, or if the two sets failed a different
share of their operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"run failed (exit {out.returncode}): {' '.join(cmd)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {"A": [], "B": []}
    for i in range(RUNS):
        seed = 1 + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            r = run_once(bench, args.workload, seed)
            sets[name].append(r)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"set {name} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {vals}", flush=True)

    ok = True
    print(f"\n{args.workload}: {RUNS} runs per set")
    print(f"{'metric':<20} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}   bound")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds = {}
        for s in ("A", "B"):
            vals = [r["metrics"][name]["value"] for r in sets[s]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            meds[s] = med
            flag = ""
            if spread > bound:
                flag, ok = "  SPREAD OVER BOUND", False
            print(f"{name:<20} {s:<3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f}   {bound}{flag}")
        worse = (meds["B"] - meds["A"]) / meds["A"]
        if m["better"] == "higher":
            worse = -worse
        flag = ""
        if worse > bound:
            flag, ok = "  DIFFERENCE OVER BOUND", False
        print(f"{name:<20} B vs A: {worse:+.4f} worse (bound {bound}){flag}")
    shares = {s: (sum(r["failed"] for r in sets[s]), sum(r["attempted"] for r in sets[s]))
              for s in sets}
    same_share = all(all(r["failed"] * rr["attempted"] == rr["failed"] * r["attempted"]
                         for rr in sets["A"] + sets["B"])
                     for r in sets["A"] + sets["B"])
    print(f"failed/attempted: A {shares['A'][0]}/{shares['A'][1]}, "
          f"B {shares['B'][0]}/{shares['B'][1]}, same share in every run: {same_share}")
    if not same_share or not all(r["correct"] for s in sets.values() for r in s):
        ok = False
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
