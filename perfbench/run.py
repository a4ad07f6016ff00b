#!/usr/bin/env python3
"""Build and run the pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest|explore|serve|validate \
        --seed N --seconds S --trace 0|1 [--inject-bad K]

Builds libmipp and the perfbench binary from source into .bench_build/
(CMake, Ninja when available), runs one workload, and prints two lines
on stdout: a host fingerprint ("perfbench host: {...}") and, last, the
result object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are exactly BENCHMARK.json's end_to_end set.
With --trace 1 they are its per_layer set: a workload reports the
layers it runs, and a layer it does not run reads 0.

Exits non-zero without printing a result when the build or the run
fails, or when the binary's metrics disagree with BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      cwd=ROOT, stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(ROOT, BUILD_DIR, "perfbench")


def cpu_ticks():
    """(steal ticks, all ticks) from the aggregate /proc/stat line."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return -1.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_ids():
    """git SHA when the checkout is a repository, and always a digest of
    the sources the benchmark builds (checkouts need not be repos)."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns
            if "__pycache__" not in d)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


def conform(metrics, spec, trace):
    """Check the binary's metrics against BENCHMARK.json; complete the
    per-layer set with zeros for layers the workload does not run."""
    want = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in want}
    extra = sorted(set(metrics) - names)
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(extra))
    out = {}
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                fail("missing end-to-end metric " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-bad", type=int, default=0,
                    help="corrupt the first K checked outputs (tests)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)

    binary = build()
    steal0, all0 = cpu_ticks()
    load0 = loadavg()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inject-bad", str(args.inject_bad)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode:
        fail("perfbench exited with %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")
    steal1, all1 = cpu_ticks()

    sha, digest = source_ids()
    host = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "source_digest": digest,
        "steal_ticks": steal1 - steal0,
        "steal_pct": round(100.0 * (steal1 - steal0) / max(1, all1 - all0), 3),
        "loadavg_start": load0,
        "loadavg_end": loadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    result["metrics"] = conform(result["metrics"], spec, args.trace)
    print("perfbench host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
