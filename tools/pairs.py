#!/usr/bin/env python3
"""Paired benchmark runs: a parent revision against a child, alternating.

Usage:
    tools/pairs.py PARENT_REV [WORKLOAD ...] [--pairs N] [--seed S]
                   [--seconds T] [--child REV] [--workdir DIR] [--smoke]

Both revisions are extracted with `git archive` into sibling directories
under DIR (default `target/pairs`, one per source tree, so equal trees share
one build) and the repo benchmark (`benchmark/`, BENCHMARK.json) is built in
each, offline, with `-C llvm-args=-align-all-functions=6`: aligning every
function keeps code placement from moving a number between two builds. The
flag is for this evidence only; the benchmark command builds without it.

Each pair runs one workload once on each side, `--workload W --seed S
--seconds T --trace 0`, and alternates which side runs first. For every
end-to-end metric BENCHMARK.json declares, the table prints the parent's and
the child's median, the parent's interquartile range (IQR), the change of the
medians and wins/N (pairs in which the child is better). A claim holds when
the child wins at least nine pairs in ten and the medians differ by more than
the parent's IQR (`claim` column). A change is refused when any metric's
child median is worse than the parent's by more than the metric's `bound` in
BENCHMARK.json, a fraction of the parent's median (`bound` column: `over`;
`over_bound` in the JSON). The same numbers follow the table as one JSON
object, and are written to DIR/pairs.json.

The child defaults to the working tree, untracked files included (whatever
`git add -A` would stage; the real index is not touched). `--smoke` runs one
pair of one-second runs of `pipeline_serial` unless workloads are named: a
check that both sides build and report, not evidence. Standard library only.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ALIGN = "-C llvm-args=-align-all-functions=6"


def git(root, *args, env=None):
    out = subprocess.run(
        ["git", *args], cwd=root, env=env, check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


def tree_of(root, rev):
    """The tree a revision names; `None` means the working tree."""
    if rev is not None:
        return git(root, "rev-parse", f"{rev}^{{tree}}")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git(root, "read-tree", "HEAD", env=env)
        git(root, "add", "-A", env=env)
        return git(root, "write-tree", env=env)


def build(root, workdir, tree):
    """Extract `tree` under `workdir` once and build its benchmark; returns
    the benchmark binary and the directory it runs in."""
    side = os.path.join(workdir, tree[:12])
    stamp = os.path.join(side, ".tree")
    if not (os.path.exists(stamp) and open(stamp).read() == tree):
        shutil.rmtree(side, ignore_errors=True)
        os.makedirs(side)
        archive = subprocess.Popen(["git", "archive", tree], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", side], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {tree} failed")
        with open(stamp, "w") as f:
            f.write(tree)
    env = dict(os.environ, RUSTFLAGS=(os.environ.get("RUSTFLAGS", "") + " " + ALIGN).strip())
    manifest = os.path.join(side, "benchmark", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        env=env,
        check=True,
    )
    return os.path.join(side, "benchmark", "target", "release", "rt-benchmark"), side


def run(binary, cwd, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--trace", "0"],
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["failed"]:
        sys.exit(f"{workload} in {cwd}: {result['failed']} failed frames")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, better, bound, parent, child):
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, child))
    pm, cm = statistics.median(parent), statistics.median(child)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    n = len(parent)
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    return {
        "metric": metric,
        "better": better,
        "parent_median": pm,
        "child_median": cm,
        "change_pct": 100.0 * (cm - pm) / pm if pm else 0.0,
        "parent_iqr": iqr,
        "wins": wins,
        "pairs": n,
        "claim": wins >= math.ceil(0.9 * n)
        and abs(cm - pm) > iqr
        and ((cm < pm) if lower else (cm > pm)),
        "bound": bound,
        "over_bound": worse > bound,
        "parent": parent,
        "child": child,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--child", default=None, help="child revision (default: working tree)")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    if args.smoke:
        args.pairs, args.seconds = 1, 1
        args.workloads = args.workloads or ["pipeline_serial"]
    workdir = os.path.abspath(args.workdir or os.path.join(root, "target", "pairs"))
    os.makedirs(workdir, exist_ok=True)
    declared = json.load(open(os.path.join(root, "BENCHMARK.json")))
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    metrics = [(m["name"], m["better"], m["bound"]) for m in declared["end_to_end"]]

    sides = {}
    for name, rev in (("parent", args.parent_rev), ("child", args.child)):
        tree = tree_of(root, rev)
        print(f"{name}: {rev or 'working tree'} (tree {tree[:12]})", file=sys.stderr)
        sides[name] = build(root, workdir, tree)

    report = {"parent_rev": args.parent_rev, "child_rev": args.child or "working tree"}
    report.update(seed=args.seed, seconds=args.seconds, pairs=args.pairs, workloads={})
    for workload in workloads:
        samples = {"parent": [], "child": []}
        for i in range(args.pairs):
            order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
            for name in order:
                binary, cwd = sides[name]
                samples[name].append(run(binary, cwd, workload, args.seed, args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs}", file=sys.stderr)
        report["workloads"][workload] = [
            summarize(
                m, better, bound, [s[m] for s in samples["parent"]], [s[m] for s in samples["child"]]
            )
            for m, better, bound in metrics
        ]

    print(f"{'workload':22} {'metric':18} {'parent':>10} {'child':>10} "
          f"{'change':>8} {'IQR':>9} {'wins':>6}  claim  bound")
    for workload, rows in report["workloads"].items():
        for r in rows:
            print(f"{workload:22} {r['metric']:18} {r['parent_median']:10.4g} "
                  f"{r['child_median']:10.4g} {r['change_pct']:+7.1f}% "
                  f"{r['parent_iqr']:9.3g} {r['wins']:>2}/{r['pairs']:<3}  "
                  f"{'yes' if r['claim'] else 'no':5}  {'over' if r['over_bound'] else 'ok'}")
    with open(os.path.join(workdir, "pairs.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
