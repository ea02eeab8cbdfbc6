#!/usr/bin/env python3
"""Paired A/B runs of the `e2e` benchmark: a base revision against a candidate.

Builds each side's `e2e` binary from its own checkout of the repository (an
export made with `git archive`, so the repository's worktree list is left
alone; `vendor/` is in the tree, so the build is offline), then runs the two
binaries alternately, one pair per seed, and prints per end-to-end metric
of BENCHMARK.json the paired medians, the quartiles and the candidate's wins
out of n.

    tools/ab.py --base HEAD~1 --cand HEAD --workloads hot_windows --pairs 10
    tools/ab.py --base HEAD --cand WORKTREE --workloads hot_windows,cold_budget \\
        --seeds 1,2,3,4,5,6,7,8,9,10 --pairs 10

`WORKTREE` is the working tree as it is, uncommitted edits included. Every
run is untraced and lasts BENCHMARK.json's `run_seconds`. Pair i
runs seed `seeds[i % len(seeds)]`; even pairs run the base first, odd pairs
the candidate first. A metric is `unresolved` when one side's median lies
inside the other side's interquartile range. `claim` marks a metric whose
candidate wins at least nine pairs in ten and whose medians differ, in the
better direction, by more than the base's interquartile range; `REGRESSION`
marks a metric whose candidate median is worse than the base's
by more than the bound in BENCHMARK.json.

Standard library only. Builds and exports go under `--work` (default
`$TMPDIR/mbi-ab`); each binary writes its reports under its own checkout's
`benchmark/out/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def checkout(rev, work, label):
    """The source directory of `rev`: the repository itself for WORKTREE,
    else a fresh `git archive` export under `work`."""
    if rev == "WORKTREE":
        return REPO
    dest = os.path.join(work, label + "-src")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", rev], check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def build(src, work, label):
    """Builds `src`'s e2e binary into its own target dir; returns its path."""
    target = os.path.join(work, label + "-target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(src, "benchmark", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
        env=env,
    )
    return os.path.join(target, "release", "e2e")


def run(binary, workload, seed, seconds):
    """One untraced run; returns (metrics {name: value}, failed, attempted)."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    return metrics, last["failed"], last["attempted"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def benchmark_spec():
    """BENCHMARK.json's end-to-end metrics as [(name, "higher"|"lower", bound)]
    and its run length in seconds."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    return metrics, spec["run_seconds"]


def summarise(runs, workload, metrics):
    """Prints one row per end-to-end metric for `workload`."""
    print(f"\n## {workload}: {len(runs)} pairs")
    print(f"{'metric':<34} {'base median [q1, q3]':>30} {'cand median [q1, q3]':>30}"
          f" {'cand/base':>9} {'wins':>6}  verdict")
    for name, better, bound in metrics:
        pairs = [(b[name], c[name]) for b, c in runs if name in b and name in c]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        cand = [c for _, c in pairs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(cand)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
        unresolved = bq1 <= cmed <= bq3 or cq1 <= bmed <= cq3
        verdicts = []
        if cmed == bmed:
            verdicts.append("same")
        else:
            verdicts.append("unresolved" if unresolved else "resolved")
            gain = sign * (cmed - bmed)
            if wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
                verdicts.append("claim")
            if bmed != 0 and -gain / abs(bmed) > bound:
                verdicts.append("REGRESSION")
        ratio = cmed / bmed if bmed else float("nan")
        print(f"{name:<34} {bmed:>12.4g} [{bq1:>7.4g}, {bq3:>7.4g}]"
              f" {cmed:>12.4g} [{cq1:>7.4g}, {cq3:>7.4g}] {ratio:>9.3f}"
              f" {wins:>2}/{len(pairs):<3}  {' '.join(verdicts)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision, or WORKTREE")
    ap.add_argument("--cand", required=True, help="git revision, or WORKTREE")
    ap.add_argument("--workloads", default="hot_windows", help="comma-separated")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10", help="comma-separated")
    ap.add_argument("--work", default=os.path.join(tempfile.gettempdir(), "mbi-ab"))
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    seeds = [int(s) for s in args.seeds.split(",")]
    binaries = {}
    for label, rev in (("base", args.base), ("cand", args.cand)):
        log(f"building {label} ({rev})")
        binaries[label] = build(checkout(rev, args.work, label), args.work, label)

    metrics, seconds = benchmark_spec()
    for workload in args.workloads.split(","):
        runs, failed = [], {"base": 0, "cand": 0}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
            got = {}
            for label in order:
                values, nfailed, attempted = run(binaries[label], workload, seed, seconds)
                failed[label] += nfailed
                got[label] = values
                log(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {label}: "
                    f"{nfailed}/{attempted} failed")
            runs.append((got["base"], got["cand"]))
        summarise(runs, workload, metrics)
        print(f"failed operations: base {failed['base']}, cand {failed['cand']}")


if __name__ == "__main__":
    main()
