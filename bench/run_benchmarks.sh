#!/usr/bin/env bash
# Run the google-benchmark binaries and emit BENCH_speedup.json
# (benchmark -> ns/op, items/s) for the performance trajectory. A
# "baseline" block already present in the output file (e.g. the
# pre-optimization numbers) is preserved across runs.
#
# The binary list is DERIVED from bench/*.cc, not hardcoded: every
# source including <benchmark/benchmark.h> is a google-benchmark binary
# and is run with the benchmark protocol; every other bench_* source
# (the bench_fig* / bench_tab* figure generators) must at least exist as
# a built executable. A new bench source that fails to build, or a
# google-benchmark binary someone forgets to wire up, fails the run
# instead of being silently skipped.
#
# Usage: bench/run_benchmarks.sh [--smoke] [--skip-slow] [build-dir] \
#                                [output-json]
#   --smoke   one repetition with a short min-time, for CI plumbing
#             checks (this is the same path the build-and-test CI job
#             runs — there is deliberately no separate filtered
#             invocation). Numbers are noisy, so smoke runs write
#             bench_smoke.json (or the given output path) and never
#             touch BENCH_speedup.json — the recorded trajectory only
#             ever holds the full 5-repetition protocol. Implies
#             --skip-slow: a smoke check must not sweep 2^20 points.
#   --skip-slow  exclude benchmarks tagged slow by name (BM_*Million —
#             ~1 s per iteration x 5 repetitions) from a full run.
set -euo pipefail

SMOKE=0
SKIP_SLOW=0
ARGS=()
for a in "$@"; do
    case "$a" in
      --smoke) SMOKE=1; SKIP_SLOW=1 ;;
      --skip-slow) SKIP_SLOW=1 ;;
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

# Derive the binary lists from the sources.
GBENCH_BINS=()
PLAIN_BINS=()
for src in "$BENCH_SRC_DIR"/bench_*.cc; do
    name="$(basename "$src" .cc)"
    if grep -q '#include <benchmark/benchmark.h>' "$src"; then
        GBENCH_BINS+=("$name")
    else
        PLAIN_BINS+=("$name")
    fi
done
if [[ ${#GBENCH_BINS[@]} -eq 0 ]]; then
    echo "error: no google-benchmark sources found in $BENCH_SRC_DIR" >&2
    exit 1
fi

# Every derived binary must have been built: a bench source that vanishes
# from the build is a rotten CMake glob, not an ignorable detail.
MISSING=()
for bin in ${GBENCH_BINS[@]+"${GBENCH_BINS[@]}"} \
           ${PLAIN_BINS[@]+"${PLAIN_BINS[@]}"}; do
    [[ -x "$BUILD_DIR/$bin" ]] || MISSING+=("$bin")
done
if [[ ${#MISSING[@]} -gt 0 ]]; then
    echo "error: missing bench binaries in $BUILD_DIR:" >&2
    printf '  %s\n' "${MISSING[@]}" >&2
    echo "build first: cmake -B $BUILD_DIR -S . && " \
         "cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

BENCH_FLAGS=(--benchmark_format=json)
if [[ "$SKIP_SLOW" == 1 ]]; then
    # Slow-tagged benchmarks are excluded by naming convention: anything
    # matching BM_.*Million (the 2^20-point generated sweep).
    BENCH_FLAGS+=(--benchmark_filter=-BM_.*Million)
fi
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

if [[ "$SMOKE" == 1 ]]; then
    python3 - "$OUT" "${RAWS[@]}" <<'EOF'
import json, sys
out_path, raw_paths = sys.argv[1], sys.argv[2:]
benches = {}
for raw_path in raw_paths:
    with open(raw_path) as f:
        raw = json.load(f)
    for b in raw.get("benchmarks", []):
        if b.get("aggregate_name"):
            continue
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1,
                 "s": 1e3}[b.get("time_unit", "ns")]
        ms = b["real_time"] * scale
        benches[b["run_name"]] = {"ms_per_op": ms}
        print(f"{b['run_name']}: {ms:.6f} ms/op")
with open(out_path, "w") as f:
    json.dump({"protocol": "smoke (1 repetition, not comparable)",
               "benchmarks": benches}, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"smoke run OK (wrote {out_path}; trajectory JSON untouched)")
EOF
    exit 0
fi

MIPP_SKIP_SLOW="$SKIP_SLOW" python3 - "$OUT" "${RAW_ARGS[@]}" <<'EOF'
import json
import os
import re
import sys

out_path, raw_args = sys.argv[1], sys.argv[2:]
skip_slow = os.environ.get("MIPP_SKIP_SLOW") == "1"

old = {}
try:
    with open(out_path) as f:
        old = json.load(f)
except (OSError, ValueError):
    pass
old_names = set(old.get("benchmarks", {}))

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
        # real_time is in the benchmark's own unit (our older binaries
        # set kMillisecond, bench_metrics keeps the ns default).
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

# Trajectory-gain guard (full protocol only): a binary that emitted no
# entries, or a merged set that does not cover what the trajectory
# already records, means a filter/name rot — fail instead of silently
# writing a shrunken trajectory. A --skip-slow run carries the last
# full measurement of the slow-tagged benchmarks forward unchanged
# (they only update on runs without the flag) rather than dropping
# them.
if empty_bins:
    sys.exit("error: no benchmark entries from: " + ", ".join(empty_bins))
if not benches:
    sys.exit("error: merged benchmark set is empty")
slow_re = re.compile(r"^BM_.*Million")
for name in old_names - set(benches):
    if skip_slow and slow_re.match(name):
        benches[name] = old["benchmarks"][name]
    else:
        sys.exit("error: trajectory entry vanished from this run: "
                 + name + " (renamed benchmarks need the old entry "
                 "pruned deliberately, not dropped by accident)")

out = {
    "context": {
        "date": context.get("date"),
        "num_cpus": context.get("num_cpus"),
        "aggregate": "min of 5 repetitions",
        "protocol": old.get("context", {}).get("protocol")
            or "all benchmarks compiled with identical CMake flags (-O2) "
               "and run in one session; in-binary baseline/optimized "
               "pairs (e.g. BM_EvalUncached vs BM_EvalCached) are "
               "interleaved by the benchmark runner itself",
    },
    "benchmarks": benches,
}
for key in ("baseline", "speedup"):
    if key in old:
        out[key] = old[key]

# In-binary baseline/optimized pairs: derive speedups automatically.
pairs = {"BM_EvalCached": "BM_EvalUncached",
         "BM_ProfileParallel/2": "BM_ProfileSequential",
         "BM_ProfileParallel/4": "BM_ProfileSequential"}
for fast, slow in pairs.items():
    if fast in benches and slow in benches:
        out.setdefault("speedup", {})[fast + "_vs_" + slow] = round(
            benches[slow]["ns_per_op"] / benches[fast]["ns_per_op"], 3)

with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")

for name, e in sorted(benches.items()):
    line = f"{name}: {e['ns_per_op'] / 1e6:.6f} ms/op"
    if "items_per_sec" in e:
        line += f", {e['items_per_sec'] / 1e6:.2f} M items/s"
    print(line)
print(f"wrote {out_path}")
EOF
