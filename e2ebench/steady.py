#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs two interleaved sets of the benchmark command from BENCHMARK.json
(same build, same settings; each set sees seeds 1..N, and which set runs
first alternates seed by seed), then prints, per (workload, metric), each
set's median and quartiles, the quartile spread as a share of the median,
and how far the second set's median drifted from the first's. These are
the numbers the bounds in BENCHMARK.json are set from.

    python3 e2ebench/steady.py [--seeds N]

Run it from the repository root. It runs every workload of BENCHMARK.json
for run_seconds, and calls the benchmark steady only if, for every
(workload, end-to-end metric), both sets' quartile spreads and the drift
between their medians stay within the metric's bound, every run reports
correct, and every run fails the same share of its operations. Raw results
are appended, one JSON line per run, to .bench_data/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = 2
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(".bench_data", exist_ok=True)
    log = open(".bench_data/steady.jsonl", "a")
    results = {}  # (set, workload) -> list of result objects
    for seed in range(1, args.seeds + 1):
        order = list(range(sets))
        if seed % 2 == 0:
            order.reverse()
        for s in order:
            for w in workloads:
                r = run_once(bench["command"], w, seed, seconds)
                r.update(set=s, workload=w, seed=seed)
                log.write(json.dumps(r) + "\n")
                log.flush()
                results.setdefault((s, w), []).append(r)
                share = r["failed"] / r["attempted"]
                print(f"set {s} seed {seed:>2} {w:<13} correct {r['correct']} "
                      f"failed {r['failed']}/{r['attempted']} ({share:.6f})",
                      file=sys.stderr)

    print(f"{'workload':<13} {'metric':<22} set {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6} {'drift':>7}")
    ok = True
    for w in workloads:
        shares = {s: {r["failed"] / r["attempted"] for r in results[(s, w)]}
                  for s in range(sets)}
        if any(len(v) != 1 for v in shares.values()) or len(
                set().union(*shares.values())) != 1:
            print(f"{w}: failed share differs between runs: {shares}")
            ok = False
        if not all(r["correct"] for s in range(sets) for r in results[(s, w)]):
            print(f"{w}: a run reported correct = false")
            ok = False
        names = list(results[(0, w)][0]["metrics"])
        for name in names:
            bound = bounds[name]
            medians = []
            for s in range(sets):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                med, q1, q3, spread = summary(values)
                medians.append(med)
                drift = (med - medians[0]) / medians[0] if s else 0.0
                print(f"{w:<13} {name:<22} {s:>3} {med:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {spread:>7.3f} {bound:>6} "
                      f"{f'{drift:+.3f}' if s else '':>7}")
                if not spread <= bound or not abs(drift) <= bound:
                    ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
