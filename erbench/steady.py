#!/usr/bin/env python3
"""Steadiness check for the erbench benchmark.

Runs each workload several times, each on its own seed, and prints per
metric the median, the quartiles, and the spread (distance between the
quartiles as a share of the median) against the metric's bound from
BENCHMARK.json, plus the attempted and failed operation counts.

Run from the repository root:

    python3 erbench/steady.py --runs 10                  # every workload, seeds 1..10
    python3 erbench/steady.py --workloads serve_mixed --first-seed 101
    python3 erbench/steady.py --runs 10 --sets 2         # two sets, medians compared
    python3 erbench/steady.py --runs 3 --trace           # traced runs too: per-layer
                                                         # medians and tracing overhead

A metric is "steady" when its spread is below a third of its bound,
"within" when below the bound, and "TOO WIDE" otherwise; setup_s is held
to the same rule. With --sets 2 the same seeds run a second time, and
each metric's second median is compared with the first: "worse" when it
is worse, in the metric's direction, by more than its bound. The failed
share of attempted operations must be the same in every run of both sets.
The exit code is 1 when any spread is too wide, any second median is
worse, or the failed shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report_set(label, runs, bounds, verbose):
    """Prints one set's table; returns (worst spread/bound, medians, shares)."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    ok = all(r["correct"] for r in runs)
    walls = [r["wall_s"] for r in runs]
    print(f"\n== {label}; correct={ok} attempted={attempted} failed={failed} failed-share={shares}; "
          f"wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    print(f"{'metric':22} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    worst, medians = 0.0, {}
    for name, m in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, sp = spread(vals)
        medians[name] = med
        verdict = ("steady" if sp < m["bound"] / 3 else
                   "within" if sp <= m["bound"] else "TOO WIDE")
        worst = max(worst, sp / m["bound"])
        print(f"{name:22} {m['unit']:8} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {m['bound']:6.3g}  {verdict}")
        if verbose:
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    if not ok:
        worst = float("inf")
    return worst, medians, shares


def compare(first, second, bounds):
    """Prints the second set's medians against the first; returns the
    number of metrics worse by more than their bound."""
    print(f"-- second set against the first")
    print(f"{'metric':22} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}  verdict")
    bad = 0
    for name, m in bounds.items():
        a, b = first[name], second[name]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "worse" if worse > m["bound"] else "ok"
        bad += verdict == "worse"
        print(f"{name:22} {a:12.6g} {b:12.6g} {worse:+9.4f} {m['bound']:6.3g}  {verdict}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1,
                    help="2 = run the seeds twice and compare the medians")
    ap.add_argument("--trace", action="store_true", help="also make traced runs")
    ap.add_argument("--verbose", action="store_true", help="print every run's value too")
    opts = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst, failures = 0.0, 0
    for w in names:
        sets = []
        for i in range(opts.sets):
            runs = [run_once(bench["command"], w, s, seconds, 0) for s in seeds]
            label = (f"{w}: set {i + 1}, {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
                     f"{seconds}s each")
            set_worst, medians, shares = report_set(label, runs, bounds, opts.verbose)
            worst = max(worst, set_worst)
            sets.append((runs, medians, shares))
        if len(sets) == 2:
            failures += compare(sets[0][1], sets[1][1], bounds)
            if sets[0][2] != sets[1][2] or len(sets[0][2]) != 1:
                print(f"failed shares differ: {sets[0][2]} vs {sets[1][2]}")
                failures += 1
        if opts.trace:
            runs = sets[0][0]
            traced = [run_once(bench["command"], w, s, seconds, 1) for s in seeds]
            print(f"-- traced: per-layer medians over {len(traced)} runs")
            for layer in bench["per_layer"]:
                vals = [r["metrics"][layer["name"]]["value"] for r in traced]
                print(f"{layer['name']:36} {statistics.median(vals):14.6g} {layer['unit']}")
            plain = statistics.median(r["metrics"]["docs_per_s"]["value"] for r in runs)
            with_trace = statistics.median(r["metrics"]["trace.docs_per_s"]["value"] for r in traced)
            print(f"tracing overhead: docs_per_s {plain:.6g} untraced vs {with_trace:.6g} traced "
                  f"({100 * (plain - with_trace) / plain:+.2f}% slower traced)")
    print(f"\nworst spread / bound (setup_s included): {worst:.3f}")
    if opts.sets == 2:
        print(f"second-set medians worse than their bound, or failed shares differing: {failures}")
    return 1 if worst > 1 or failures else 0


if __name__ == "__main__":
    sys.exit(main())
