/**
 * Benchmarks for the memoized evaluation pipeline and the DSE sweep
 * modes (google-benchmark; recorded in BENCH_speedup.json by
 * bench/run_benchmarks.sh).
 *
 * BM_EvalUncached / BM_EvalCached measure the paper's core amortization:
 * one profile evaluated across the thesis's full 243-point design space
 * (width x ROB x L1 x L2 x L3, Table 6.3), once with a fresh EvalContext
 * per point and once through a shared one. Outputs are bitwise identical
 * (tests/test_eval_cache.cc); only the repeated per-workload rebuild cost
 * differs. BM_DseSweepModelOnly sweeps the full 243-config space over
 * several workloads with no simulation, materializing every point, and
 * BM_DseSweepPaired gives the simulation-bound reference on a small
 * space.
 *
 * BM_DseSweepBatched runs the same space through the O(front)
 * ModelOnlyPareto mode with a persistent ModelEvalPool — the warm
 * steady-state throughput the README quotes. Both sweeps run the one
 * EvalContext engine; they differ only in point materialization and in
 * cold versus pooled contexts, so their ratio is not recorded as an
 * engine speedup. BM_DseSweepMillion sweeps a generated 2^20-point space
 * (the paper's million-point claim) without ever materializing the
 * configs or the point grid; it is excluded from smoke runs (see
 * run_benchmarks.sh).
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "dse/explorer.hh"
#include "model/eval_cache.hh"
#include "profiler/profiler.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

const Profile &
sharedProfile()
{
    static Profile p = [] {
        Trace t = generateWorkload(suiteWorkload("balanced_mix"), 150000);
        return profileTrace(t, {.name = "balanced_mix"});
    }();
    return p;
}

/** The thesis's full 243-point design space (3 levels on each of 5
 *  axes): a handful of discrete cache/ROB levels shared by many design
 *  points, the structure the evaluation cache exploits. */
const std::vector<CoreConfig> &
evalGrid()
{
    static DesignSpace space; // full 243-point space
    return space.configs();
}

void
BM_EvalUncached(benchmark::State &state)
{
    const Profile &p = sharedProfile();
    const auto &grid = evalGrid();
    for (auto _ : state) {
        double acc = 0;
        for (const CoreConfig &cfg : grid)
            acc += evaluateModel(p, cfg).cycles;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * grid.size());
}
BENCHMARK(BM_EvalUncached)->Unit(benchmark::kMillisecond);

void
BM_EvalCached(benchmark::State &state)
{
    const Profile &p = sharedProfile();
    const auto &grid = evalGrid();
    for (auto _ : state) {
        // One context per workload, exactly as a sweep chunk holds it;
        // its construction and warm-up are part of the measured cost.
        EvalContext ctx(p);
        double acc = 0;
        for (const CoreConfig &cfg : grid)
            acc += evaluateModel(ctx, cfg).cycles;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * grid.size());
}
BENCHMARK(BM_EvalCached)->Unit(benchmark::kMillisecond);

struct SweepInputs {
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
};

SweepInputs
makeSweepInputs(std::initializer_list<const char *> names, size_t uops)
{
    SweepInputs in;
    for (const char *name : names) {
        in.traces.push_back(generateWorkload(suiteWorkload(name), uops));
        in.profiles.push_back(
            profileTrace(in.traces.back(), {.name = name}));
    }
    return in;
}

void
BM_DseSweepModelOnly(benchmark::State &state)
{
    static const SweepInputs in = makeSweepInputs(
        {"balanced_mix", "stream_add", "ptr_chase", "branchy"}, 150000);
    DesignSpace space; // full 243-point space
    SweepOptions so;
    so.mode = SweepMode::ModelOnly;
    size_t points = in.profiles.size() * space.size();
    for (auto _ : state) {
        SweepResult r =
            sweepEx(in.traces, in.profiles, space.configs(), {}, so);
        benchmark::DoNotOptimize(r.points.data());
    }
    state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_DseSweepModelOnly)->Unit(benchmark::kMillisecond);

void
BM_DseSweepBatched(benchmark::State &state)
{
    // Same 4 workloads x 243 configs as BM_DseSweepModelOnly. The pool
    // lives across iterations, so the min-of-reps aggregate measures warm
    // steady-state throughput (repeated sweeps against pinned profiles,
    // the pool's use case).
    static const SweepInputs in = makeSweepInputs(
        {"balanced_mix", "stream_add", "ptr_chase", "branchy"}, 150000);
    static ModelEvalPool pool;
    DesignSpace space; // full 243-point space
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    so.evalPool = &pool;
    size_t points = in.profiles.size() * space.size();
    for (auto _ : state) {
        SweepResult r =
            sweepEx(in.traces, in.profiles, space.configs(), {}, so);
        benchmark::DoNotOptimize(r.frontPoints.data());
    }
    state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_DseSweepBatched)->Unit(benchmark::kMillisecond);

void
BM_DseSweepMillion(benchmark::State &state)
{
    // 8 widths x 16 ROB sizes x 8 L1D x 8 L2 x 8 L3 x 16 DVFS points =
    // 2^20 = 1,048,576 configs, produced on the fly by a generator that
    // decodes the point index — neither the config vector (~1 GB) nor
    // the result grid is ever materialized. DVFS is the innermost axis,
    // so each microarchitecture's model evaluation is reused across the
    // ladder and only the power changes.
    static const SweepInputs in = makeSweepInputs({"balanced_mix"}, 150000);
    static ModelEvalPool pool;
    const CoreConfig base = CoreConfig::nehalemReference();
    constexpr size_t kDvfs = 16;
    ConfigGenerator gen = [&base](size_t ci, CoreConfig &out) {
        if (out.ports.empty())
            out = base; // first use of this scratch slot
        size_t v = ci % kDvfs;
        ci /= kDvfs;
        size_t l3 = ci % 8;
        ci /= 8;
        size_t l2 = ci % 8;
        ci /= 8;
        size_t l1 = ci % 8;
        ci /= 8;
        size_t rob = ci % 16;
        ci /= 16;
        uint32_t width = static_cast<uint32_t>(ci) + 1; // 1..8
        if (out.dispatchWidth != width)
            out.setWidth(width);
        scaleBackEnd(out, 32 + 16 * static_cast<uint32_t>(rob));
        out.l1d.sizeBytes = (8u << l1) * 1024;   // 8 KB .. 1 MB
        out.l2.sizeBytes = (128u << l2) * 1024;  // 128 KB .. 16 MB
        out.l3.sizeBytes = (1u << l3) * 1024 * 1024; // 1 MB .. 128 MB
        scaleCacheLatencies(out);
        // Finer-grained ladder than dvfsLadder()'s 7 steps, same span.
        out.freqGHz = 1.20 + 0.14 * static_cast<double>(v);
        out.vdd = 0.85 + 0.025 * static_cast<double>(v);
    };
    constexpr size_t kPoints = 8 * 16 * 8 * 8 * 8 * kDvfs;
    static_assert(kPoints == 1048576);
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    so.evalPool = &pool;
    for (auto _ : state) {
        SweepResult r = sweepGenerated(in.profiles, kPoints, gen, {}, so);
        benchmark::DoNotOptimize(r.frontPoints.data());
    }
    state.SetItemsProcessed(state.iterations() * kPoints);
}
BENCHMARK(BM_DseSweepMillion)->Unit(benchmark::kMillisecond);

void
BM_DseSweepPaired(benchmark::State &state)
{
    // Simulation-bound reference: tiny traces and a small grid keep the
    // benchmark runnable while preserving the O(points x sim) shape.
    static const SweepInputs in =
        makeSweepInputs({"balanced_mix", "ptr_chase"}, 30000);
    std::vector<CoreConfig> configs;
    for (uint32_t w : {2u, 4u})
        for (uint32_t rob : {64u, 256u}) {
            CoreConfig c = CoreConfig::nehalemReference();
            c.setWidth(w);
            scaleBackEnd(c, rob);
            configs.push_back(c);
        }
    size_t points = in.profiles.size() * configs.size();
    for (auto _ : state) {
        SweepResult r = sweepEx(in.traces, in.profiles, configs, {}, {});
        benchmark::DoNotOptimize(r.points.data());
    }
    state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_DseSweepPaired)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
