#!/usr/bin/env python3
"""Noise report: two interleaved sets of benchmark runs of the same code.

For every end-to-end metric x workload it prints each set's median and
spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles), the difference
between the two set medians in the metric's worse direction, and the
metric's bound from BENCHMARK.json; then it names the noisiest pairs.

Run from the repository root:

    python3 perfbench/noise.py --runs 10
    python3 perfbench/noise.py --runs 5 --workloads daemon-mix --seconds 10
    python3 perfbench/noise.py --load .bench_build/noise/runs.jsonl

Set A uses seeds 1..N and set B seeds 1001..1000+N; run i of A and run
i of B follow each other, alternating which goes first, so host drift
lands on both sets alike. Raw results are appended to --save.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run not correct")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def worse_by(metric, a, b):
    """How much worse median b is than median a, as a share of a."""
    if a == 0:
        return 0.0
    d = (b - a) / a
    return d if metric["better"] == "lower" else -d


def report(bench, rows):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    table = []
    for w in bench["workloads"]:
        name = w["name"]
        for mname, m in metrics.items():
            a = [r["metrics"][mname] for r in rows if r["workload"] == name and r["set"] == "A"]
            b = [r["metrics"][mname] for r in rows if r["workload"] == name and r["set"] == "B"]
            if len(a) < 2 or len(b) < 2:
                continue
            sa, sb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            drift = worse_by(m, ma, mb)
            bound = m["bound"]
            noise = max(sa, sb) if mname != "setup_s" else 0.0
            if noise > bound or drift > bound:
                verdict = "FAIL"
            elif noise >= bound / 3:
                verdict = "noisy"
            else:
                verdict = "ok"
            table.append((name, mname, bound, ma, sa, mb, sb, drift, verdict, len(a), len(b)))
    hdr = f"{'workload':<12} {'metric':<16} {'bound':>6} {'A median':>12} {'A sprd':>7} {'B median':>12} {'B sprd':>7} {'B worse':>8}  verdict"
    print(hdr)
    print("-" * len(hdr))
    for name, mname, bound, ma, sa, mb, sb, drift, verdict, na, nb in table:
        print(f"{name:<12} {mname:<16} {bound:>6.3f} {ma:>12.5g} {sa:>7.2%} {mb:>12.5g} {sb:>7.2%} {drift:>+8.2%}  {verdict}")
    print()
    print("noisiest pairs (largest spread or median difference as a share of the bound):")
    ranked = sorted(table, key=lambda t: -max(max(t[4], t[6]) if t[1] != "setup_s" else 0, abs(t[7])) / t[2])
    for name, mname, bound, ma, sa, mb, sb, drift, verdict, na, nb in ranked[:6]:
        worst = max(max(sa, sb) if mname != "setup_s" else 0, abs(drift))
        print(f"  {name}/{mname}: {worst:.2%} of a {bound:.0%} bound ({worst / bound:.2f}x) [{verdict}]")
    return all(t[8] != "FAIL" for t in table)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set per workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--seconds", type=int, default=0, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--save", default=".bench_build/noise/runs.jsonl", help="append raw results here")
    ap.add_argument("--load", default="", help="report on saved results instead of running")
    args = ap.parse_args()

    bench = load_bench()
    if args.load:
        with open(args.load) as f:
            rows = [json.loads(line) for line in f if line.strip()]
    else:
        seconds = args.seconds or bench["run_seconds"]
        names = [w["name"] for w in bench["workloads"]]
        if args.workloads:
            names = [n for n in names if n in args.workloads.split(",")]
        os.makedirs(os.path.dirname(args.save), exist_ok=True)
        rows = []
        with open(args.save, "a") as out:
            for i in range(args.runs):
                order = [("A", 1 + i), ("B", 1001 + i)]
                if i % 2:
                    order.reverse()
                for name in names:
                    for set_name, seed in order:
                        row = {"workload": name, "set": set_name, "seed": seed,
                               "metrics": run_once(bench, name, seed, seconds)}
                        rows.append(row)
                        out.write(json.dumps(row) + "\n")
                        out.flush()
                        print(f"run {i + 1}/{args.runs} {name} set {set_name} seed {seed}", file=sys.stderr)
    ok = report(bench, rows)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
