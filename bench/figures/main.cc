/**
 * @file
 * mipp_figures — regenerates the paper's evaluation figures and tables.
 *
 *   mipp_figures            run every figure in table order
 *   mipp_figures ID...      run the named figures in the given order
 *   mipp_figures --list     print the table of ids
 *
 * An unknown id exits 2 before any figure runs; a figure that fails
 * (throws) stops the run with exit 1.
 */
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "figures.hh"
#include "uarch/design_space.hh"
#include "util/thread_pool.hh"

namespace mipp::figures {

size_t
Bundle::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < specs.size(); ++i)
        if (specs[i].name == name)
            return i;
    throw std::out_of_range("no workload " + name + " in the bundle");
}

Bundle
makeBundle(std::vector<WorkloadSpec> specs, size_t uops)
{
    Bundle b;
    b.specs = std::move(specs);
    b.traces.resize(b.size());
    std::vector<ProfilerConfig> cfgs(b.size());
    parallelForShared(b.size(), 0, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            b.traces[i] = generateWorkload(b.specs[i], uops);
            cfgs[i].name = b.specs[i].name;
        }
    });
    b.profiles = profileTraces(b.traces, cfgs);
    return b;
}

Bundle
makeBundle(std::initializer_list<const char *> names, size_t uops)
{
    std::vector<WorkloadSpec> specs;
    for (const char *name : names)
        specs.push_back(suiteWorkload(name));
    return makeBundle(std::move(specs), uops);
}

namespace {

/** @p slot's value, made by @p make on first use. */
template <typename T, typename Make>
const T &
once(std::optional<T> &slot, Make make)
{
    if (!slot)
        slot = make();
    return *slot;
}

/** The suite at @p uops per trace, simulated at the reference config
 *  with default SimOptions. Regenerating a trace costs little next to
 *  simulating it, so no trace is kept. */
std::vector<SimResult>
simulateSuite(size_t uops)
{
    auto specs = workloadSuite();
    std::vector<SimResult> sims(specs.size());
    parallelForShared(specs.size(), 0, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            sims[i] = simulate(generateWorkload(specs[i], uops),
                               CoreConfig::nehalemReference());
    });
    return sims;
}

} // namespace

const Bundle &
Context::suite()
{
    return once(suite_,
                [] { return makeBundle(workloadSuite(), kSuiteUops); });
}

const std::vector<SimResult> &
Context::suiteSims()
{
    return once(suiteSims_, [] { return simulateSuite(kSuiteUops); });
}

const std::vector<SimResult> &
Context::longSims()
{
    return once(longSims_, [] { return simulateSuite(kLongUops); });
}

const Bundle &
Context::memoryBound()
{
    return once(memoryBound_,
                [] { return makeBundle(memoryBoundSuite(), 200000); });
}

const Bundle &
Context::dse()
{
    return once(dse_, [] {
        return makeBundle({"stream_add", "ptr_chase", "dense_compute",
                           "matrix_tile", "mix_mid", "balanced_mix"},
                          120000);
    });
}

const SweepResult &
Context::dseSweep()
{
    return once(dseSweep_, [this] {
        return sweepEx(dse().traces, dse().profiles,
                       DesignSpace::small().configs());
    });
}

namespace {

struct Figure {
    const char *id;
    void (*run)(Context &);
    const char *description; ///< banner text: figure label — content
};

const Figure kFigures[] = {
    {"fig3_1", fig3_1,
     "Fig 3.1 — micro-operations per instruction per benchmark"},
    {"fig3_4", fig3_4, "Fig 3.4 — average path, average branch path, "
                       "critical path (ROB=128)"},
    {"fig3_6", fig3_6,
     "Fig 3.6 — factors limiting the effective dispatch rate"},
    {"fig3_7", fig3_7, "Fig 3.7 — base-component error vs perfect "
                       "simulation per refinement"},
    {"fig3_9", fig3_9,
     "Fig 3.9 — branch entropy vs miss rate, linear fit per predictor"},
    {"fig3_10", fig3_10, "Fig 3.10 — entropy-model MPKI error per "
                         "predictor (box summary)"},
    {"fig4_2", fig4_2,
     "Fig 4.2 — cache MPKI: StatStack model vs simulator, 3 levels"},
    {"fig4_3", fig4_3,
     "Fig 4.3 — normalized execution time with/without MLP model"},
    {"fig4_4", fig4_4,
     "Fig 4.4 — cold vs capacity LLC miss breakdown (load/store)"},
    {"fig4_7", fig4_7, "Fig 4.7 — per-static-load stride-class ratios"},
    {"fig4_9", fig4_9,
     "Fig 4.9 — CPI over time +/- LLC-hit chaining (mix_mid)"},
    {"fig5_2", fig5_2, "Fig 5.2 — sampled vs full instruction mix error"},
    {"fig5_4", fig5_4,
     "Fig 5.4 — chain-length interpolation error between ROB sizes"},
    {"fig5_5", fig5_5,
     "Fig 5.5 — chain-length error due to micro-trace sampling"},
    {"fig6_1", fig6_1, "Fig 6.1 / §6.2.1 — CPI stacks, model vs "
                       "simulator, reference architecture"},
    {"fig6_3", fig6_3,
     "Fig 6.3 — CPI error vs profiled fraction (sampling sweep)"},
    {"fig6_5", fig6_5, "Fig 6.5/6.6 — CPI error across the design space"},
    {"fig6_7", fig6_7, "Fig 6.7 — power stacks, model vs simulator"},
    {"fig6_9", fig6_9,
     "Fig 6.9/6.10 — power error across the design space"},
    {"fig6_14", fig6_14,
     "Fig 6.14 — phase tracking: windowed CPI, sim vs model"},
    {"fig6_15", fig6_15,
     "Fig 6.15-6.17 — cold-miss vs stride MLP (no prefetcher)"},
    {"fig6_18", fig6_18,
     "Fig 6.18 — stride vs cold-miss MLP with stride prefetching"},
    {"tab6_2", tab6_2, "Tab 6.2 — error when adding each model component"},
    {"fig7_2", fig7_2,
     "Fig 7.2 — application-specific vs general-purpose core"},
    {"fig7_3", fig7_3, "Fig 7.3 — ED2P over DVFS settings, sim vs model"},
    {"fig7_4", fig7_4, "Fig 7.4/7.5 — Pareto frontiers, sim vs model"},
    {"fig7_7", fig7_7, "Fig 7.7/7.9 — Pareto pruning: sensitivity / "
                       "specificity / accuracy / HVR"},
    {"fig7_10", fig7_10,
     "Fig 7.10-7.13 — mechanistic vs empirical model"},
    {"tab7_1", tab7_1,
     "Tab 7.1 — optimizing performance under power constraints"},
};

} // namespace

} // namespace mipp::figures

int
main(int argc, char **argv)
{
    using namespace mipp::figures;
    if (argc == 2 && !std::strcmp(argv[1], "--list")) {
        for (const Figure &f : kFigures)
            std::printf("%-8s %s\n", f.id, f.description);
        return 0;
    }
    std::vector<const Figure *> run;
    for (int i = 1; i < argc; ++i) {
        auto it = std::find_if(
            std::begin(kFigures), std::end(kFigures),
            [&](const Figure &f) { return !std::strcmp(f.id, argv[i]); });
        if (it == std::end(kFigures)) {
            std::fprintf(stderr, "unknown figure id: %s (mipp_figures "
                                 "--list prints the ids)\n", argv[i]);
            return 2;
        }
        run.push_back(it);
    }
    if (run.empty())
        for (const Figure &f : kFigures)
            run.push_back(&f);

    Context ctx;
    const std::string rule(78, '=');
    try {
        for (const Figure *f : run) {
            std::printf("%s\n%s\n%s\n", rule.c_str(), f->description,
                        rule.c_str());
            f->run(ctx);
        }
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "mipp_figures: %s\n", e.what());
        return 1;
    }
    return 0;
}
