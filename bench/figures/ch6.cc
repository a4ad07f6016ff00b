/**
 * @file
 * Thesis Ch. 6 figures: CPI and power accuracy on the reference machine
 * and across the design space, sampling rate, phases, MLP models and
 * the per-component ablation.
 */
#include <algorithm>
#include <iterator>

#include "figures.hh"
#include "model/interval_model.hh"
#include "uarch/design_space.hh"
#include "util/thread_pool.hh"

namespace mipp::figures {

namespace {

/** evaluatePair() of suite workload @p i at the reference config. */
PairEval
referencePair(Context &ctx, size_t i)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    const SimResult &sim = ctx.suiteSims()[i];
    ModelResult model = evaluateModel(ctx.suite().profiles[i], cfg);
    return {sim, model, computePower(sim.activity, cfg),
            computePower(model.activity, cfg)};
}

} // namespace

/**
 * Fig 6.1: CPI stacks from the model and from the simulator on the
 * reference architecture — the paper's headline absolute-accuracy result
 * (ISPASS'15: ~13 % average CPI error).
 */
void
fig6_1(Context &ctx)
{
    const Bundle &b = ctx.suite();
    std::printf("%-16s %-5s %7s %7s %7s %7s %7s %7s | %7s\n", "benchmark",
                "side", "base", "branch", "icache", "l2hit", "llc",
                "dram", "CPI");
    std::vector<double> errs;
    for (size_t i = 0; i < b.size(); ++i) {
        PairEval e = referencePair(ctx, i);
        double n = static_cast<double>(b.traces[i].size());
        auto row = [&](const char *side, const CpiStack &s, double cpi) {
            std::printf("%-16s %-5s %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f "
                        "| %7.3f\n",
                        side == std::string("sim") ?
                            b.specs[i].name.c_str() : "",
                        side, s.base / n, s.branch / n, s.icache / n,
                        s.l2hit / n, s.llcHit / n, s.dram / n, cpi);
        };
        row("sim", e.sim.stack, e.simCpi());
        row("model", e.model.stack, e.modelCpi());
        errs.push_back(100 * e.cpiError());
    }
    std::printf("\nreference-architecture CPI error: avg |err| %.1f%%, "
                "max %.1f%%  (ISPASS'15 paper: ~13%% avg)\n",
                meanAbs(errs), maxAbs(errs));
}

/**
 * Fig 6.3: prediction error versus the number of instructions profiled
 * (micro-trace sampling rate sweep).
 */
void
fig6_3(Context &ctx)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    const std::pair<SamplingConfig, const char *> rates[] = {
        {{500, 50000}, "1/100"},
        {{1000, 40000}, "1/40"},
        {{1000, 20000}, "1/20 (default)"},
        {{1000, 10000}, "1/10"},
        {{1000, 4000}, "1/4"},
        {SamplingConfig::full(), "full"},
    };

    // Ground truth: the shared simulation of each doubled trace. Each
    // worker regenerates one trace and profiles it at every rate, so one
    // trace per worker is resident rather than the whole suite.
    const auto &sims = ctx.longSims();
    const auto specs = workloadSuite();
    constexpr size_t kRates = std::size(rates);
    std::vector<std::vector<double>> errs(
        kRates, std::vector<double>(specs.size()));
    parallelForShared(specs.size(), 0, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            Trace t = generateWorkload(specs[i], kLongUops);
            for (size_t r = 0; r < kRates; ++r) {
                ProfilerConfig pc;
                pc.sampling = rates[r].first;
                errs[r][i] =
                    pctErr(evaluateModel(profileTrace(t, pc), cfg).cycles,
                           static_cast<double>(sims[i].cycles));
            }
        }
    });

    std::printf("%-16s %12s %12s\n", "sample rate", "avg |err|",
                "max |err|");
    for (size_t r = 0; r < kRates; ++r)
        std::printf("%-16s %11.1f%% %11.1f%%\n", rates[r].second,
                    meanAbs(errs[r]), maxAbs(errs[r]));
    std::printf("\n(paper: accuracy saturates well below full profiling "
                "— sampling buys speed at little cost)\n");
}

/**
 * Fig 6.5/6.6: performance prediction error across a design space (box
 * summary + scatter rows of simulated vs predicted CPI). TC'16 reports
 * 9.3 % average across the full 243-point space; this figure uses the
 * 27-point subspace and six diverse workloads to stay laptop-fast.
 */
void
fig6_5(Context &ctx)
{
    const Bundle &b = ctx.dse();
    const SweepResult &r = ctx.dseSweep();
    DesignSpace space = DesignSpace::small();

    std::printf("%-30s %-14s %9s %9s %8s\n", "config", "workload",
                "sim CPI", "mod CPI", "err");
    std::vector<double> errs;
    for (size_t ci = 0; ci < r.nConfigs; ++ci)
        for (size_t wi = 0; wi < r.nWorkloads; ++wi) {
            const SweepPoint &pt = r.at(wi, ci);
            errs.push_back(100 * pt.cpiError());
            std::printf("%-30s %-14s %9.3f %9.3f %7.1f%%\n",
                        space[ci].name.c_str(), b.specs[wi].name.c_str(),
                        pt.simCpi, pt.modelCpi, 100 * pt.cpiError());
        }
    std::printf("\ndesign-space CPI error: avg |err| %.1f%%, max %.1f%%  "
                "(paper: 9.3%%-13%% avg)\n",
                meanAbs(errs), maxAbs(errs));
}

/**
 * Fig 6.7/6.8: power stacks from the model and the simulator on the
 * reference machine (ISPASS'15: ~7 % average power error).
 */
void
fig6_7(Context &ctx)
{
    const Bundle &b = ctx.suite();
    std::printf("%-16s %-5s %7s %7s %7s %7s %8s | %7s\n", "benchmark",
                "side", "core", "caches", "dram", "static", "dynamic",
                "total W");
    std::vector<double> errs;
    for (size_t i = 0; i < b.size(); ++i) {
        PairEval e = referencePair(ctx, i);
        auto row = [&](const char *side, const PowerBreakdown &p) {
            std::printf("%-16s %-5s %7.2f %7.2f %7.2f %7.2f %8.2f | "
                        "%7.2f\n",
                        side == std::string("sim") ?
                            b.specs[i].name.c_str() : "",
                        side, p.corePower(), p.cachePower(), p.dram,
                        p.staticPower, p.dynamicPower(), p.total());
        };
        row("sim", e.simPower);
        row("model", e.modelPower);
        errs.push_back(100 * e.powerError());
    }
    std::printf("\nreference-architecture power error: avg |err| %.1f%%, "
                "max %.1f%%  (ISPASS'15 paper: ~7%% avg)\n",
                meanAbs(errs), maxAbs(errs));
}

/**
 * Fig 6.8-6.10: power prediction error across the design space (TC'16:
 * 4.3 % average).
 */
void
fig6_9(Context &ctx)
{
    const SweepResult &r = ctx.dseSweep();

    // Cumulative error distribution (Fig 6.8-style).
    std::vector<double> errs;
    for (const SweepPoint &pt : r.points)
        errs.push_back(std::fabs(100 * pt.powerError()));
    std::sort(errs.begin(), errs.end());
    std::printf("cumulative power |err| distribution:\n");
    for (double q : {0.25, 0.5, 0.75, 0.9, 1.0}) {
        size_t idx = std::min(errs.size() - 1,
                              static_cast<size_t>(q * errs.size()));
        std::printf("  p%-3.0f %6.1f%%\n", q * 100, errs[idx]);
    }
    double sum = 0;
    for (double e : errs)
        sum += e;
    std::printf("\ndesign-space power error: avg |err| %.1f%%, max %.1f%%"
                "  (paper: 4.3%%-7%% avg)\n",
                sum / errs.size(), errs.back());
}

/**
 * Fig 6.14: phase behaviour over time — windowed CPI from the simulator
 * and from the per-micro-trace model evaluation.
 */
void
fig6_14(Context &)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    for (const auto &spec : phasedSuite()) {
        Trace t = generatePhased(spec);
        SimOptions so;
        so.cpiWindowUops = 20000;
        auto sim = simulate(t, cfg, so);
        Profile p = profileTrace(t, {});
        auto model = evaluateModel(p, cfg);

        std::printf("\n%s (windows of 20k uops)\n", spec.name.c_str());
        std::printf("%-8s %10s %10s\n", "window", "sim CPI", "model CPI");
        size_t n = std::min(sim.windowCpi.size(), model.windowCpi.size());
        double corrNum = 0, sx = 0, sy = 0, sxx = 0, syy = 0;
        for (size_t i = 0; i < n; ++i) {
            std::printf("%-8zu %10.3f %10.3f\n", i, sim.windowCpi[i],
                        model.windowCpi[i]);
            double x = sim.windowCpi[i], y = model.windowCpi[i];
            sx += x; sy += y; sxx += x * x; syy += y * y; corrNum += x * y;
        }
        double cov = corrNum / n - (sx / n) * (sy / n);
        double vx = sxx / n - (sx / n) * (sx / n);
        double vy = syy / n - (sy / n) * (sy / n);
        double corr = vx > 0 && vy > 0 ? cov / std::sqrt(vx * vy) : 0;
        std::printf("phase correlation (Pearson): %.3f\n", corr);
    }
}

/**
 * Fig 6.15-6.17: cold-miss vs stride MLP model error on the memory-bound
 * suite, without hardware prefetching. The CAL'18 result: the stride
 * model clearly beats the cold-miss model on full executions.
 */
void
fig6_15(Context &ctx)
{
    const Bundle &b = ctx.memoryBound();
    CoreConfig cfg = CoreConfig::nehalemReference();

    ModelOptions cold;
    cold.mlpMode = ModelOptions::MlpMode::ColdMiss;
    ModelOptions stride;
    stride.mlpMode = ModelOptions::MlpMode::Stride;

    std::printf("%-16s %8s %8s %8s | %9s %9s\n", "benchmark", "sim MLP",
                "cold", "stride", "cold err", "stride err");
    std::vector<double> coldErr, strideErr;
    for (size_t i = 0; i < b.size(); ++i) {
        auto sim = simulate(b.traces[i], cfg);
        auto mc = evaluateModel(b.profiles[i], cfg, cold);
        auto ms = evaluateModel(b.profiles[i], cfg, stride);
        double simC = static_cast<double>(sim.cycles);
        double ec = pctErr(mc.cycles, simC);
        double es = pctErr(ms.cycles, simC);
        std::printf("%-16s %8.2f %8.2f %8.2f | %8.1f%% %8.1f%%\n",
                    b.specs[i].name.c_str(), sim.avgMlp, mc.mlp, ms.mlp,
                    ec, es);
        coldErr.push_back(ec);
        strideErr.push_back(es);
    }
    std::printf("\nCPI avg |err|: cold-miss %.1f%%  stride %.1f%%  "
                "(paper trend: stride < cold-miss on full runs)\n",
                meanAbs(coldErr), meanAbs(strideErr));
}

/**
 * Fig 6.18: MLP-model error with a hardware stride prefetcher enabled —
 * only the stride model can account for it (CAL'18: 3.6 % vs 16.9 %
 * DRAM-wait error).
 */
void
fig6_18(Context &ctx)
{
    const Bundle &b = ctx.memoryBound();
    CoreConfig cfg = CoreConfig::nehalemReference();
    cfg.prefetcherEnabled = true;
    cfg.prefetcherEntries = 64;

    ModelOptions cold;
    cold.mlpMode = ModelOptions::MlpMode::ColdMiss;
    cold.modelPrefetcher = false; // cold-miss model cannot see prefetches
    ModelOptions stride;
    stride.mlpMode = ModelOptions::MlpMode::Stride;

    std::printf("%-16s %11s %10s %10s | %9s %9s\n", "benchmark",
                "sim memCPI", "cold", "stride", "cold err",
                "stride err");
    std::vector<double> coldErr, strideErr;
    for (size_t i = 0; i < b.size(); ++i) {
        auto sim = simulate(b.traces[i], cfg);
        auto mc = evaluateModel(b.profiles[i], cfg, cold);
        auto ms = evaluateModel(b.profiles[i], cfg, stride);
        double n = static_cast<double>(b.traces[i].size());
        double simDram =
            (sim.stack.dram + sim.stack.l2hit + sim.stack.llcHit) / n;
        // DRAM-wait error normalized to the total simulated CPI: the
        // prefetcher can drive the DRAM component itself near zero, so
        // a component-relative error would be ill-conditioned.
        double simCpi = sim.cpiPerUop();
        double mcMem = (mc.stack.dram + mc.stack.llcHit) / n;
        double msMem = (ms.stack.dram + ms.stack.llcHit) / n;
        double ec = 100 * (mcMem - simDram) / simCpi;
        double es = 100 * (msMem - simDram) / simCpi;
        std::printf("%-16s %11.3f %10.3f %10.3f | %8.1f%% %8.1f%%\n",
                    b.specs[i].name.c_str(), simDram, mcMem, msMem, ec, es);
        coldErr.push_back(ec);
        strideErr.push_back(es);
    }
    std::printf("\nmemory-stall error (of total CPI): cold-miss (blind to "
                "prefetching) %.1f%%  stride %.1f%%  "
                "(paper: 16.9%% vs 3.6%%)\n",
                meanAbs(coldErr), meanAbs(strideErr));
}

/**
 * Table 6.2: average and maximum CPI error as the micro-architecture
 * independent components are enabled one by one.
 */
void
tab6_2(Context &ctx)
{
    const Bundle &b = ctx.suite();
    const auto &sims = ctx.suiteSims();
    CoreConfig cfg = CoreConfig::nehalemReference();

    struct Step {
        const char *name;
        ModelOptions opts;
    };
    std::vector<Step> steps;
    {
        ModelOptions o;
        o.mlpMode = ModelOptions::MlpMode::None;
        o.modelLlcChaining = false;
        o.modelBus = false;
        o.modelMshrs = false;
        steps.push_back({"base + branch + caches (serial memory)", o});
        o.mlpMode = ModelOptions::MlpMode::ColdMiss;
        steps.push_back({"+ cold-miss MLP", o});
        o.mlpMode = ModelOptions::MlpMode::Stride;
        steps.push_back({"+ stride MLP", o});
        o.modelMshrs = true;
        steps.push_back({"+ MSHR cap", o});
        o.modelBus = true;
        steps.push_back({"+ memory bus queuing", o});
        o.modelLlcChaining = true;
        steps.push_back({"+ LLC-hit chaining (full model)", o});
    }

    std::printf("%-42s %10s %10s\n", "configuration", "avg |err|",
                "max |err|");
    for (const auto &step : steps) {
        std::vector<double> errs;
        for (size_t i = 0; i < b.size(); ++i) {
            auto res = evaluateModel(b.profiles[i], cfg, step.opts);
            errs.push_back(
                pctErr(res.cycles, static_cast<double>(sims[i].cycles)));
        }
        std::printf("%-42s %9.1f%% %9.1f%%\n", step.name, meanAbs(errs),
                    maxAbs(errs));
    }
}

} // namespace mipp::figures
