#!/usr/bin/env bash
# Run the google-benchmark binaries and emit BENCH_speedup.json
# (benchmark -> ns/op, items/s): the memo amortization, the
# observability overhead guards and the seed baseline. Pipeline
# throughput and per-layer speed are measured by perfbench
# (BENCHMARK.json, perfbench/ab.py) and are not recorded here.
#
# Every bench/*.cc is a google-benchmark source and bench_<name> its
# binary; the list is derived from the sources, so a new benchmark that
# fails to build or is not wired up fails the run instead of being
# silently skipped. (The paper figures are one plain program,
# mipp_figures, built from bench/figures/.)
#
# Usage: bench/run_benchmarks.sh [--smoke] [build-dir] [output-json]
#   --smoke   one repetition with a short min-time, for CI plumbing
#             checks (this is the same path the build-and-test CI job
#             runs — there is deliberately no separate filtered
#             invocation). Numbers are noisy, so smoke runs write
#             bench_smoke.json (or the given output path) and never
#             touch BENCH_speedup.json. The run fails when the names it
#             produced differ from the names BENCH_speedup.json records,
#             in either direction: a stale or unrecorded entry is an
#             error, not a detail.
#
# A full run records the minimum of 5 repetitions per benchmark, stamps
# the host and the measured sources (context.host, context.measured_at),
# keeps the "baseline" block of the existing file as a record, and
# derives the one in-binary "speedup" pair from the numbers of this run.
# No speedup is derived against the baseline: it was measured in a
# separate, earlier run, and a ratio across runs is not interleaved.
set -euo pipefail

SMOKE=0
ARGS=()
for a in "$@"; do
    case "$a" in
      --smoke) SMOKE=1 ;;
      *) ARGS+=("$a") ;;
    esac
done
BUILD_DIR="${ARGS[0]:-build}"
if [[ "$SMOKE" == 1 ]]; then
    OUT="${ARGS[1]:-bench_smoke.json}"
    if [[ "$(basename "$OUT")" == "BENCH_speedup.json" ]]; then
        echo "error: smoke runs must not write BENCH_speedup.json" >&2
        echo "(the trajectory only records the full protocol)" >&2
        exit 1
    fi
else
    OUT="${ARGS[1]:-BENCH_speedup.json}"
fi

BENCH_SRC_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH_SRC_DIR")"

# Derive the binary list from the sources. Every derived binary must
# have been built: a bench source that vanishes from the build is a
# rotten CMake glob, not an ignorable detail.
GBENCH_BINS=()
MISSING=()
for src in "$BENCH_SRC_DIR"/bench_*.cc; do
    [[ -e "$src" ]] || continue
    bin="$(basename "$src" .cc)"
    GBENCH_BINS+=("$bin")
    [[ -x "$BUILD_DIR/$bin" ]] || MISSING+=("$bin")
done
if [[ ${#GBENCH_BINS[@]} -eq 0 ]]; then
    echo "error: no google-benchmark sources found in $BENCH_SRC_DIR" >&2
    exit 1
fi
if [[ ${#MISSING[@]} -gt 0 ]]; then
    echo "error: missing bench binaries in $BUILD_DIR:" >&2
    printf '  %s\n' "${MISSING[@]}" >&2
    echo "build first: cmake -B $BUILD_DIR -S . && " \
         "cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

BENCH_FLAGS=(--benchmark_format=json)
if [[ "$SMOKE" == 1 ]]; then
    # One repetition, short min-time: proves the binaries run and emit
    # parseable JSON without occupying a CI runner for minutes.
    # Unsuffixed seconds: accepted by both pre- and post-1.8 benchmark.
    BENCH_FLAGS+=(--benchmark_repetitions=1 --benchmark_min_time=0.01)
else
    # Five repetitions; the per-benchmark minimum is the most noise-robust
    # estimate of the true cost on shared machines.
    BENCH_FLAGS+=(--benchmark_repetitions=5)
fi

RAWS=()
# ${RAWS[@]+...} guard: expanding an empty array trips `set -u` on
# bash < 4.4 (macOS ships 3.2).
cleanup() { rm -f ${RAWS[@]+"${RAWS[@]}"}; }
trap cleanup EXIT

RAW_ARGS=() # bin=rawpath pairs so the merge can blame a binary
for bin in "${GBENCH_BINS[@]}"; do
    raw="$(mktemp)"
    RAWS+=("$raw")
    RAW_ARGS+=("$bin=$raw")
    "$BUILD_DIR/$bin" "${BENCH_FLAGS[@]}" >"$raw"
done

MIPP_ROOT="$ROOT" MIPP_SMOKE="$SMOKE" python3 - "$OUT" "${RAW_ARGS[@]}" <<'EOF'
import json
import os
import sys

root = os.environ["MIPP_ROOT"]
smoke = os.environ["MIPP_SMOKE"] == "1"
out_path, raw_args = sys.argv[1], sys.argv[2:]

# One host fingerprint for both benchmark runners; no __pycache__ may
# land under perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(root, "perfbench"))
from run import cpu_model, source_ids  # noqa: E402


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


benches = {}
context = {}
empty_bins = []
for raw_arg in raw_args:
    bin_name, _, raw_path = raw_arg.partition("=")
    with open(raw_path) as f:
        raw = json.load(f)
    context = raw.get("context", context)
    contributed = 0
    for b in raw.get("benchmarks", []):
        if b.get("aggregate_name"):  # keep raw repetitions only
            continue
        name = b["run_name"]
        # real_time is in the benchmark's own unit (most binaries set
        # kMillisecond, bench_metrics keeps the ns default).
        scale = {"ns": 1, "us": 1e3, "ms": 1e6,
                 "s": 1e9}[b.get("time_unit", "ns")]
        entry = {"ns_per_op": b["real_time"] * scale}
        if "items_per_second" in b:
            entry["items_per_sec"] = b["items_per_second"]
        prev = benches.get(name)
        if prev is None or entry["ns_per_op"] < prev["ns_per_op"]:
            benches[name] = entry
        contributed += 1
    if contributed == 0:
        empty_bins.append(bin_name)
if empty_bins:
    sys.exit("error: no benchmark entries from: " + ", ".join(empty_bins))

for name, e in sorted(benches.items()):
    line = f"{name}: {e['ns_per_op'] / 1e6:.6f} ms/op"
    if "items_per_sec" in e:
        line += f", {e['items_per_sec'] / 1e6:.2f} M items/s"
    print(line)

if smoke:
    with open(out_path, "w") as f:
        json.dump({"protocol": "smoke (1 repetition, not comparable)",
                   "benchmarks": benches}, f, indent=2, sort_keys=True)
        f.write("\n")
    # Stale-entry guard: every benchmark runs in smoke, so the recorded
    # trajectory must name exactly the benchmarks that exist.
    recorded = set(load(os.path.join(root, "BENCH_speedup.json"))
                   .get("benchmarks", {}))
    stale = sorted(recorded - set(benches))
    unrecorded = sorted(set(benches) - recorded)
    if stale or unrecorded:
        sys.exit("error: BENCH_speedup.json does not match this run\n"
                 f"  recorded but not run: {', '.join(stale) or '-'}\n"
                 f"  run but not recorded: {', '.join(unrecorded) or '-'}\n"
                 "(re-measure with the full protocol and prune renamed "
                 "or deleted entries deliberately)")
    print(f"smoke run OK (wrote {out_path}; trajectory JSON untouched)")
    sys.exit(0)

# Vanished-entry guard (full protocol): a trajectory entry this run did
# not produce means a filter or name rot; fail instead of silently
# writing a shrunken trajectory.
old = load(out_path)
vanished = sorted(set(old.get("benchmarks", {})) - set(benches))
if vanished:
    sys.exit("error: trajectory entries vanished from this run: "
             + ", ".join(vanished) + " (renamed benchmarks need the old "
             "entry pruned deliberately, not dropped by accident)")

sha, digest = source_ids()
out = {
    "context": {
        "date": context.get("date"),
        "host": {"cpu_model": cpu_model(), "nproc": os.cpu_count()},
        # One stamp covers every entry: each full run measures them all.
        "measured_at": {"git_sha": sha, "source_digest": digest},
        "aggregate": "min of 5 repetitions",
        "protocol": "all benchmarks compiled with identical CMake flags "
                    "(-O2) and run in one session; in-binary "
                    "baseline/optimized pairs (BM_EvalUncached vs "
                    "BM_EvalCached) are interleaved by the benchmark "
                    "runner itself",
    },
    "benchmarks": benches,
}

# The one speedup is the in-binary pair, interleaved by the benchmark
# runner. The baseline block is kept as a record only: dividing it by
# this run's numbers would compare two separate runs.
cached = benches.get("BM_EvalCached")
uncached = benches.get("BM_EvalUncached")
if cached and uncached:
    out["speedup"] = {"BM_EvalCached_vs_BM_EvalUncached": round(
        uncached["ns_per_op"] / cached["ns_per_op"], 3)}
if "baseline" in old:
    out["baseline"] = old["baseline"]

with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
EOF
