#!/usr/bin/env python3
"""Runs the benchmark as BENCHMARK.json says, ten seeds per workload, and
reports each end-to-end metric's run-to-run spread.

    python3 benchmark/spread.py --out benchmark/baseline/set-a [--first-seed 1] [--runs 10]
    python3 benchmark/spread.py --compare benchmark/baseline/set-a benchmark/baseline/set-b
    python3 benchmark/spread.py --table benchmark/baseline/set-a     # rewrite spread.md

Run from the repository root. The spread of a metric is the distance between
the first and third quartile of its values (statistics.quantiles, n=4) as a
share of their median; a benchmark is steady when every spread is below a
third of the metric's bound. --compare checks that the second set's medians
are not worse than the first's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(contract, workload, seed, trace):
    cmd = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    result["seed"] = seed
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(contract, runs):
    """{workload: {metric: {median, spread, values}}} over the untraced runs."""
    out = {}
    for workload, results in runs.items():
        out[workload] = {}
        for m in contract["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            out[workload][m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
    return out


def table(contract, summary):
    lines = ["| workload | metric | unit | median | spread (IQR/median) | bound | spread < bound/3 |",
             "|---|---|---|---|---|---|---|"]
    for workload, metrics in summary.items():
        for m in contract["end_to_end"]:
            s = metrics[m["name"]]
            steady = "yes" if s["spread"] < m["bound"] / 3 else (
                "exempt" if m["name"] == "setup_s" else "NO")
            lines.append(f"| {workload} | {m['name']} | {m['unit']} | {s['median']:.6g} | "
                         f"{s['spread']:.4f} | {m['bound']} | {steady} |")
    return "\n".join(lines) + "\n"


def measure(args):
    contract = load_contract()
    os.makedirs(args.out, exist_ok=True)
    runs, traced = {}, {}
    for w in contract["workloads"]:
        name = w["name"]
        runs[name] = []
        for i in range(args.runs):
            r = run_once(contract, name, args.first_seed + i, 0)
            runs[name].append(r)
            print(f"{name} seed {r['seed']}: {r['wall_s']:.1f} s, correct={r['correct']}, "
                  f"failed={r['failed']}", flush=True)
        traced[name] = run_once(contract, name, args.first_seed, 1)
        print(f"{name} traced: {traced[name]['wall_s']:.1f} s, "
              f"correct={traced[name]['correct']}", flush=True)
    summary = summarise(contract, runs)
    with open(os.path.join(args.out, "runs.json"), "w") as f:
        json.dump({"first_seed": args.first_seed, "untraced": runs, "traced": traced}, f, indent=1)
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    text = table(contract, summary)
    with open(os.path.join(args.out, "spread.md"), "w") as f:
        f.write(text)
    print(text)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    failed += sum(r["failed"] for r in traced.values())
    if failed:
        sys.exit(f"{failed} failed operations")


def retable(directory):
    """Rewrites summary.json and spread.md from runs.json and today's bounds."""
    contract = load_contract()
    with open(os.path.join(directory, "runs.json")) as f:
        summary = summarise(contract, json.load(f)["untraced"])
    with open(os.path.join(directory, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    with open(os.path.join(directory, "spread.md"), "w") as f:
        f.write(table(contract, summary))


def compare(args):
    contract = load_contract()
    first, second = [json.load(open(os.path.join(d, "summary.json"))) for d in args.compare]
    print("| workload | metric | first median | second median | worse by | bound | within |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for workload in first:
        for m in contract["end_to_end"]:
            a = first[workload][m["name"]]["median"]
            b = second[workload][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            within = worse <= m["bound"]
            ok &= within
            print(f"| {workload} | {m['name']} | {a:.6g} | {b:.6g} | {worse:+.4f} | "
                  f"{m['bound']} | {'yes' if within else 'NO'} |")
    if not ok:
        sys.exit("a second median is worse than the first by more than its bound")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="directory for runs.json, summary.json and spread.md")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare", nargs=2, metavar="DIR")
    p.add_argument("--table", metavar="DIR")
    args = p.parse_args()
    if args.table:
        retable(args.table)
    elif args.compare:
        compare(args)
    elif args.out:
        measure(args)
    else:
        p.error("give --out, --compare or --table")


if __name__ == "__main__":
    main()
