#!/usr/bin/env python3
"""Interleaved A/B comparison of two commits on the pipeline benchmark.

    python3 perfbench/ab.py BASE [HEAD] [--pairs 10] [--seed0 N]
        [--workdir DIR] [--json OUT]

Exports BASE and HEAD (default: the working tree's HEAD commit) with
`git archive` into two directories outside the repository, puts the
working tree's benchmark (perfbench/ and BENCHMARK.json) into both so
each side runs identical benchmark code, and builds each with the same
flags. It then runs --pairs pairs of every workload, pair i on seed
seed0 + i, alternating which side runs first, with tracing off and at
BENCHMARK.json's run_seconds, the length the bounds were set at.

For every workload and end-to-end metric it prints each side's median
and quartiles, the change of the medians, and the head's win fraction
(ties count for neither side). Verdicts follow the benchmark's bounds:

  unresolved  a side's quartile spread exceeds the metric's bound (or
              fewer than 10 pairs ran)
  better      head wins at least 9 pairs in 10 and the medians differ by
              more than the base's own quartile spread
  worse       head's median is worse than base's by more than the bound
  same        none of the above
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
MIN_PAIRS = 10


def git(*args):
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha, dest):
    """Source tree of @p sha plus the working tree's benchmark."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=REPO,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit("ab: git archive %s failed" % sha)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(REPO, "perfbench"),
                    os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)


def run(side_dir, workload, seed, seconds):
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=side_dir, capture_output=True, text=True)
    if r.returncode:
        sys.exit("ab: run failed in %s:\n%s" % (side_dir, r.stderr[-3000:]))
    lines = r.stdout.strip().splitlines()
    host = json.loads(lines[-2].split(": ", 1)[1])
    return json.loads(lines[-1]), host


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(metric, base, head, pairs):
    better_higher = metric["better"] == "higher"
    sign = 1 if better_higher else -1
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    spread = max((bq3 - bq1) / bmed if bmed else 0,
                 (hq3 - hq1) / hmed if hmed else 0)
    change = (hmed - bmed) / bmed if bmed else 0
    if pairs < MIN_PAIRS or spread > metric["bound"]:
        v = "unresolved"
    elif wins >= 0.9 * pairs and abs(hmed - bmed) > (bq3 - bq1):
        v = "better"
    elif -sign * change > metric["bound"]:
        v = "worse"
    else:
        v = "same"
    return {"base": [bq1, bmed, bq3], "head": [hq1, hmed, hq3],
            "change": change, "wins": wins, "losses": losses,
            "win_fraction": wins / pairs, "spread": spread, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default="HEAD")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--workdir")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"base": git("rev-parse", args.base + "^{commit}"),
             "head": git("rev-parse", args.head + "^{commit}")}

    work = args.workdir or tempfile.mkdtemp(prefix="mipp-ab-")
    if os.path.realpath(work).startswith(os.path.realpath(REPO) + os.sep):
        sys.exit("ab: --workdir must be outside the repository")
    dirs = {}
    for side, sha in sides.items():
        dirs[side] = os.path.join(work, side)
        shutil.rmtree(dirs[side], ignore_errors=True)
        export(sha, dirs[side])
        print("ab: building %s %s" % (side, sha[:12]), file=sys.stderr)
        run(dirs[side], workloads[0], args.seed0, 1)

    values = {w: {m["name"]: {"base": [], "head": []}
                  for m in spec["end_to_end"]} for w in workloads}
    hosts = []
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                res, host = run(dirs[side], w, args.seed0 + i, seconds)
                hosts.append(host)
                if not res["correct"]:
                    sys.exit("ab: %s failed its output checks on %s seed %d"
                             % (side, w, args.seed0 + i))
                for name, mv in res["metrics"].items():
                    values[w][name][side].append(mv["value"])
        print("ab: pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    report = {"base": sides["base"], "head": sides["head"],
              "pairs": args.pairs, "seconds": seconds, "workloads": {},
              "host": hosts[0] if hosts else {},
              "steal_pct_max": max((h["steal_pct"] for h in hosts),
                                   default=0)}
    print("%-9s %-12s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "base median", "head median", "change",
        "wins", "verdict"))
    for w in workloads:
        report["workloads"][w] = {}
        for m in spec["end_to_end"]:
            v = verdict(m, values[w][m["name"]]["base"],
                        values[w][m["name"]]["head"], args.pairs)
            report["workloads"][w][m["name"]] = v
            print("%-9s %-12s %14.6g %14.6g %+7.1f%% %6.2f  %s" % (
                w, m["name"], v["base"][1], v["head"][1], 100 * v["change"],
                v["win_fraction"], v["verdict"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
    if not args.workdir:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
