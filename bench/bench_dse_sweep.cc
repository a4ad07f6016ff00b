/**
 * Benchmarks for the memoized evaluation engine and the simulation-bound
 * DSE sweep (google-benchmark; recorded in BENCH_speedup.json by
 * bench/run_benchmarks.sh).
 *
 * BM_EvalUncached / BM_EvalCached measure the paper's core amortization:
 * one profile evaluated across the thesis's full 243-point design space
 * (width x ROB x L1 x L2 x L3, Table 6.3), once with a fresh EvalContext
 * per point and once through a shared one. Outputs are bitwise identical
 * (tests/test_eval_cache.cc); only the repeated per-workload rebuild cost
 * differs. BM_DseSweepPaired gives the simulation-bound reference on a
 * small space. Model-only sweep throughput is measured by the pipeline
 * benchmark's explore workload (perfbench/).
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
