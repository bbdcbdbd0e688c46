#!/usr/bin/env python3
"""Steadiness check of the reader benchmark.

Runs every workload of BENCHMARK.json `--runs` times, alternating
workloads (serve_ambient seed 1, batch_decode seed 1, serve_ambient seed
2, ...), and prints, per workload and end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median against the metric's bound.
A metric is steady when its spread stays below a third of its bound.
setup_s times one cold set-up per process, so its spread carries the
host's drift in full: its verdict is printed but does not set the exit
code, and only its median is meant to be compared between two sets.
Also prints each workload's failed share, which must be the same in every
run.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]

Run from the repository root; exits 1 when a check does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(bench, w, args.seed_base + i)
            results[w].append(r)
            print(f"# {w} seed {args.seed_base + i}: " +
                  ", ".join(f"{k}={v['value']:.6g}"
                            for k, v in r["metrics"].items()),
                  file=sys.stderr)

    ok = True
    print("| workload | metric | median | q1 | q3 | spread | bound | steady |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok = ok and (steady or m["name"] == "setup_s")
            verdict = "yes" if steady else "NO"
            print(f"| {w} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {m['bound']} | {verdict} |")
    for w in workloads:
        shares = {(r["failed"], r["attempted"]) for r in results[w]}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for r in results[w])
        ok = ok and correct and len(ratios) == 1
        print(f"{w}: correct={correct} failed/attempted="
              f"{sorted(f'{f}/{a}' for f, a in shares)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
