/**
 * @file
 * Thesis Ch. 4 figures: cache miss rates, MLP, cold vs capacity misses,
 * stride classes and LLC-hit chaining.
 */
#include "figures.hh"
#include "model/interval_model.hh"

namespace mipp::figures {

/**
 * Fig 4.2: StatStack-predicted vs simulated MPKI for the three-level
 * reference hierarchy (32 KB / 256 KB / 8 MB).
 */
void
fig4_2(Context &ctx)
{
    const Bundle &b = ctx.suite();
    const auto &sims = ctx.suiteSims();
    CoreConfig cfg = CoreConfig::nehalemReference();
    std::printf("%-16s %8s %8s | %8s %8s | %8s %8s\n", "benchmark",
                "L1 sim", "L1 mod", "L2 sim", "L2 mod", "L3 sim",
                "L3 mod");
    std::vector<double> e1, e2, e3;
    for (size_t i = 0; i < b.size(); ++i) {
        const SimResult &sim = sims[i];
        auto model = evaluateModel(b.profiles[i], cfg);
        double kilo =
            static_cast<double>(b.traces[i].numInstructions()) / 1000.0;
        double s1 = sim.mem.l1d.loadMisses / kilo;
        double s2 = sim.mem.l2.loadMisses / kilo;
        double s3 = sim.mem.l3.loadMisses / kilo;
        double m1 = model.loadMissesL1 / kilo;
        double m2 = model.loadMissesL2 / kilo;
        double m3 = model.loadMissesL3 / kilo;
        std::printf("%-16s %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f\n",
                    b.specs[i].name.c_str(), s1, m1, s2, m2, s3, m3);
        // Follow the paper: only count benchmarks with meaningful MPKI.
        if (s1 > 10) e1.push_back(pctErr(m1, s1));
        if (s2 > 10) e2.push_back(pctErr(m2, s2));
        if (s3 > 10) e3.push_back(pctErr(m3, s3));
    }
    std::printf("\navg |err| for MPKI>10: L1 %.1f%%  L2 %.1f%%  L3 %.1f%%"
                "  (paper: 4.1%% / 6.7%% / 3.5%%)\n",
                meanAbs(e1), meanAbs(e2), meanAbs(e3));
}

/**
 * Fig 4.3: normalized execution time with and without MLP modeling. Not
 * modeling MLP serializes every DRAM access; the paper reports a 24.6 %
 * average (96 % max) error from that omission.
 */
void
fig4_3(Context &ctx)
{
    const Bundle &b = ctx.suite();
    const auto &sims = ctx.suiteSims();
    CoreConfig cfg = CoreConfig::nehalemReference();
    ModelOptions with;
    ModelOptions without;
    without.mlpMode = ModelOptions::MlpMode::None;

    std::printf("%-16s %10s %10s %10s %9s\n", "benchmark", "sim",
                "model+MLP", "model-noMLP", "sim MLP");
    std::vector<double> errNoMlp;
    for (size_t i = 0; i < b.size(); ++i) {
        const SimResult &sim = sims[i];
        double simC = static_cast<double>(sim.cycles);
        double withC = evaluateModel(b.profiles[i], cfg, with).cycles;
        double noC = evaluateModel(b.profiles[i], cfg, without).cycles;
        std::printf("%-16s %10.3f %10.3f %10.3f %9.2f\n",
                    b.specs[i].name.c_str(), 1.0, withC / simC,
                    noC / simC, sim.avgMlp);
        errNoMlp.push_back(pctErr(noC, simC));
    }
    std::printf("\nno-MLP avg |err| %.1f%%, max %.1f%%  "
                "(paper: 24.6%% avg, 96%% max)\n",
                meanAbs(errNoMlp), maxAbs(errNoMlp));
}

/**
 * Fig 4.4: breakdown of cold vs capacity LLC misses for a short trace,
 * and for the second half of a doubled trace whose first half is the
 * warm-up. A workload's trace is one RNG stream, so the short trace is
 * the first half of the doubled one: the second half's misses are the
 * doubled run's minus the short run's.
 */
void
fig4_4(Context &ctx)
{
    const Bundle &b = ctx.suite();
    const auto &sims = ctx.suiteSims();
    const auto &longSims = ctx.longSims();
    std::printf("%-16s | %22s | %22s\n", "", "150k uops",
                "300k uops (150k warm)");
    std::printf("%-16s | %10s %11s | %10s %11s\n", "benchmark",
                "cold frac", "misses", "cold frac", "misses");
    // {cold, all} LLC demand misses of a run. Signed: out-of-order
    // overlap at the halfway point can move a miss across it, so a
    // second-half difference may come out negative.
    auto misses = [](const MemoryStats &m) {
        long long cold = m.coldLoadMisses + m.coldStoreMisses;
        long long capacity = m.capacityLoadMisses + m.capacityStoreMisses;
        return std::pair{cold, cold + capacity};
    };
    auto pct = [](long long cold, long long all) {
        return all ? 100 * (static_cast<double>(cold) / all) : 0.0;
    };
    for (size_t i = 0; i < b.size(); ++i) {
        auto [coldS, allS] = misses(sims[i].mem);
        auto [coldL, allL] = misses(longSims[i].mem);
        std::printf("%-16s | %9.0f%% %11lld | %9.0f%% %11lld\n",
                    b.specs[i].name.c_str(), pct(coldS, allS), allS,
                    pct(coldL - coldS, allL - allS), allL - allS);
    }
    std::printf("\n(paper: warm-up shrinks the cold fraction for most "
                "benchmarks but not all — large-footprint ones keep "
                "touching new lines)\n");
}

/** Fig 4.7: stride-category ratios per benchmark. */
void
fig4_7(Context &ctx)
{
    const Bundle &b = ctx.suite();
    std::printf("%-16s %8s %8s %8s %8s %8s %8s\n", "benchmark", "str-1",
                "str-2", "str-3", "str-4", "random", "unique");
    for (size_t i = 0; i < b.size(); ++i) {
        double counts[6] = {};
        double total = 0;
        for (const auto &op : b.profiles[i].memOps) {
            if (op.isStore)
                continue;
            counts[static_cast<int>(op.strideClass())] +=
                static_cast<double>(op.count);
            total += static_cast<double>(op.count);
        }
        if (total == 0)
            total = 1;
        std::printf("%-16s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% "
                    "%7.1f%%\n",
                    b.specs[i].name.c_str(), 100 * counts[0] / total,
                    100 * counts[1] / total, 100 * counts[2] / total,
                    100 * counts[3] / total, 100 * counts[4] / total,
                    100 * counts[5] / total);
    }
}

/**
 * Fig 4.9: CPI over time for the gcc-like workload with and without the
 * chained-LLC-hit component.
 */
void
fig4_9(Context &)
{
    WorkloadSpec spec = suiteWorkload("mix_mid");
    Trace t = generateWorkload(spec, 400000);
    CoreConfig cfg = CoreConfig::nehalemReference();

    SimOptions so;
    so.cpiWindowUops = 20000;
    auto sim = simulate(t, cfg, so);
    Profile p = profileTrace(t, {});
    ModelOptions with;
    ModelOptions without;
    without.modelLlcChaining = false;
    auto mW = evaluateModel(p, cfg, with);
    auto mN = evaluateModel(p, cfg, without);

    // The model's windows are micro-traces (one per 20k-uop window), so
    // series align 1:1 with the simulator's 20k-uop windows.
    size_t n = std::min(sim.windowCpi.size(), mW.windowCpi.size());
    std::printf("%-8s %10s %12s %16s\n", "window", "sim CPI",
                "model CPI", "model, no chain");
    for (size_t i = 0; i < n; ++i) {
        std::printf("%-8zu %10.3f %12.3f %16.3f\n", i, sim.windowCpi[i],
                    mW.windowCpi[i], mN.windowCpi[i]);
    }
    double simC = static_cast<double>(sim.cycles);
    std::printf("\ntotal error with chaining %.1f%%, without %.1f%%  "
                "(paper gcc: -3.6%% vs -12.3%%)\n",
                pctErr(mW.cycles, simC), pctErr(mN.cycles, simC));
}

} // namespace mipp::figures
