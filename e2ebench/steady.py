#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs the command of BENCHMARK.json several times per workload, each time
with another seed, and prints for every end-to-end metric the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound. It also checks that every
run is correct and that the share of failed operations is identical in
every run. With --trace it adds one traced run per workload and prints the
tracing overhead on p50_us and throughput_ops_s.

Run from the repository root:

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1]
        [--workloads advise-tpcc,migrate-drift,serve-oltp] [--trace]
        [--seconds S] [--log FILE]

Exits 1 if a run is incorrect, a failure share differs, or a spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--log", help="append every run's stdout to this file")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w!r}")
    if a.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    log = open(a.log, "a") if a.log else None
    for w in workloads:
        results = []
        for i in range(a.runs):
            seed = a.first_seed + i
            res, stdout = run_once(bench["command"], w, seed, a.seconds, False)
            if log:
                log.write(f"== {w} seed {seed}\n{stdout}")
                log.flush()
            results.append(res)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
              f"correct {correct}, failed share {sorted(str(s) for s in shares)}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        medians = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            medians[m["name"]] = q2
            within = spread <= m["bound"]
            ok &= within
            flag = "" if within else "  OVER BOUND"
            if within and spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {m['name']:<18} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}{flag}")
        if a.trace:
            res, stdout = run_once(bench["command"], w, a.first_seed, a.seconds, True)
            if log:
                log.write(f"== {w} seed {a.first_seed} traced\n{stdout}")
            ok &= res["correct"]
            traced = res["metrics"]
            p50 = traced["trace.p50_us"]["value"] / medians["p50_us"] - 1
            thr = 1 - traced["trace.throughput_ops_s"]["value"] / medians["throughput_ops_s"]
            print(f"  traced run (seed {a.first_seed}): correct {res['correct']}, "
                  f"p50_us {p50:+.1%}, throughput {-thr:+.1%} against the untraced medians")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
