/**
 * @file
 * Thesis Ch. 7 figures: design-space exploration with the model — core
 * selection, DVFS, Pareto pruning and the empirical-model comparison.
 */
#include <stdexcept>

#include "figures.hh"
#include "dse/empirical.hh"
#include "dse/pareto.hh"
#include "model/interval_model.hh"
#include "trace/rng.hh"
#include "uarch/design_space.hh"

namespace mipp::figures {

namespace {

/** Simulated and modeled (CPI, W) of dseSweep() workload @p wi, one per
 *  config. */
void
objectives(const SweepResult &r, size_t wi, std::vector<Objective> &sim,
           std::vector<Objective> &model)
{
    for (size_t ci = 0; ci < r.nConfigs; ++ci) {
        const SweepPoint &pt = r.at(wi, ci);
        sim.push_back({pt.simCpi, pt.simWatts});
        model.push_back({pt.modelCpi, pt.modelWatts});
    }
}

} // namespace

/**
 * Fig 7.1/7.2: selecting an application-specific core from the design
 * space versus one general-purpose core for all.
 */
void
fig7_2(Context &)
{
    Bundle b = makeBundle(workloadSuite(), 120000);
    DesignSpace space = DesignSpace::small();

    // Model-predicted CPI for every (workload, config).
    std::vector<std::vector<double>> cpi(b.size());
    for (size_t wi = 0; wi < b.size(); ++wi)
        for (const auto &cfg : space.configs())
            cpi[wi].push_back(
                evaluateModel(b.profiles[wi], cfg).cpiPerUop());

    // General-purpose core: minimizes the suite-average CPI.
    size_t bestGeneral = 0;
    double bestAvg = 1e30;
    for (size_t ci = 0; ci < space.size(); ++ci) {
        double avg = 0;
        for (size_t wi = 0; wi < b.size(); ++wi)
            avg += cpi[wi][ci];
        if (avg < bestAvg) {
            bestAvg = avg;
            bestGeneral = ci;
        }
    }

    std::printf("general-purpose core: %s\n\n",
                space[bestGeneral].name.c_str());
    std::printf("%-16s %10s %10s %8s  %s\n", "benchmark", "general",
                "specific", "gain", "chosen core");
    double gainSum = 0;
    for (size_t wi = 0; wi < b.size(); ++wi) {
        size_t best = 0;
        for (size_t ci = 1; ci < space.size(); ++ci)
            if (cpi[wi][ci] < cpi[wi][best])
                best = ci;
        double gain = 100 * (cpi[wi][bestGeneral] - cpi[wi][best]) /
                      cpi[wi][bestGeneral];
        gainSum += gain;
        std::printf("%-16s %10.3f %10.3f %7.1f%%  %s\n",
                    b.specs[wi].name.c_str(), cpi[wi][bestGeneral],
                    cpi[wi][best], gain, space[best].name.c_str());
    }
    std::printf("\naverage CPI gain from specialization: %.1f%%\n",
                gainSum / b.size());
}

/**
 * Table 7.2 / Fig 7.3: ED2P across the DVFS ladder, computed by the
 * simulator and the model; both should identify the same (or a
 * neighbouring) optimal operating point.
 */
void
fig7_3(Context &ctx)
{
    const Bundle &b = ctx.dse();
    for (const char *name : {"mix_mid", "dense_compute", "stream_add"}) {
        size_t wi = b.indexOf(name);
        std::printf("\n%s\n", name);
        std::printf("%8s %6s | %12s %12s\n", "GHz", "Vdd", "sim ED2P",
                    "model ED2P");
        double bestSim = 1e300, bestMod = 1e300;
        double bestSimF = 0, bestModF = 0;
        for (const auto &pt : dvfsLadder()) {
            CoreConfig cfg = CoreConfig::nehalemReference();
            cfg.freqGHz = pt.freqGHz;
            cfg.vdd = pt.vdd;
            // Memory latency in cycles scales with frequency (DRAM time
            // is constant in nanoseconds).
            cfg.memLatency = static_cast<uint32_t>(
                200.0 * pt.freqGHz / 2.66);
            auto e = evaluatePair(b.traces[wi], b.profiles[wi], cfg);
            auto simM = energyMetrics(
                static_cast<double>(e.sim.cycles), e.simPower, cfg);
            auto modM = energyMetrics(e.model.cycles, e.modelPower, cfg);
            std::printf("%8.2f %6.2f | %12.4e %12.4e\n", pt.freqGHz,
                        pt.vdd, simM.ed2p, modM.ed2p);
            if (simM.ed2p < bestSim) {
                bestSim = simM.ed2p;
                bestSimF = pt.freqGHz;
            }
            if (modM.ed2p < bestMod) {
                bestMod = modM.ed2p;
                bestModF = pt.freqGHz;
            }
        }
        std::printf("optimal ED2P point: sim %.2f GHz, model %.2f GHz\n",
                    bestSimF, bestModF);
    }
}

/**
 * Fig 7.4/7.5: Pareto frontiers (delay vs power) from simulation and
 * from the model for selected workloads.
 */
void
fig7_4(Context &ctx)
{
    const Bundle &b = ctx.dse();
    const SweepResult &r = ctx.dseSweep();
    DesignSpace space = DesignSpace::small();

    for (const char *name : {"matrix_tile", "mix_mid"}) {
        size_t wi = b.indexOf(name);
        std::vector<Objective> trueObj, predObj;
        objectives(r, wi, trueObj, predObj);
        auto tf = paretoFront(trueObj);
        auto pf = paretoFront(predObj);

        std::printf("\n%s — true Pareto front (simulated):\n", name);
        for (size_t i : tf)
            std::printf("  %-30s CPI %7.3f  W %6.2f\n",
                        space[i].name.c_str(), trueObj[i].first,
                        trueObj[i].second);
        std::printf("%s — predicted Pareto front (model):\n", name);
        for (size_t i : pf)
            std::printf("  %-30s CPI %7.3f  W %6.2f  (true: %7.3f / "
                        "%6.2f)\n",
                        space[i].name.c_str(), predObj[i].first,
                        predObj[i].second, trueObj[i].first,
                        trueObj[i].second);
        auto m = compareFronts(trueObj, predObj);
        std::printf("metrics: sens %.1f%%  spec %.1f%%  acc %.1f%%  HVR "
                    "%.1f%%\n",
                    100 * m.sensitivity, 100 * m.specificity,
                    100 * m.accuracy, 100 * m.hvr);
    }
}

/**
 * Fig 7.7/7.9: Pareto-pruning quality over the design space —
 * sensitivity, specificity, accuracy and HVR per workload. The thesis
 * averages: 46.2 % / 87.9 % / 76.8 % / 97.0 %.
 */
void
fig7_7(Context &ctx)
{
    const Bundle &b = ctx.dse();
    const SweepResult &r = ctx.dseSweep();

    std::printf("%-16s %8s %8s %8s %8s\n", "benchmark", "sens", "spec",
                "acc", "HVR");
    double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
    for (size_t wi = 0; wi < b.size(); ++wi) {
        std::vector<Objective> trueObj, predObj;
        objectives(r, wi, trueObj, predObj);
        auto m = compareFronts(trueObj, predObj);
        std::printf("%-16s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                    b.specs[wi].name.c_str(), 100 * m.sensitivity,
                    100 * m.specificity, 100 * m.accuracy, 100 * m.hvr);
        s1 += m.sensitivity;
        s2 += m.specificity;
        s3 += m.accuracy;
        s4 += m.hvr;
    }
    double n = static_cast<double>(b.size());
    std::printf("\naverages: sens %.1f%%  spec %.1f%%  acc %.1f%%  HVR "
                "%.1f%%  (paper: 46.2 / 87.9 / 76.8 / 97.0)\n",
                100 * s1 / n, 100 * s2 / n, 100 * s3 / n, 100 * s4 / n);
}

/**
 * Fig 7.10-7.13: the mechanistic model versus an empirical (regression)
 * model for design-space pruning. The empirical model is trained on a
 * random subset of simulated points and evaluated on the rest; the
 * thesis finds it accurate on average but worse at ranking (lower
 * Pareto quality).
 */
void
fig7_10(Context &ctx)
{
    const Bundle &b = ctx.dse();
    const SweepResult &r = ctx.dseSweep();
    DesignSpace space = DesignSpace::small();
    const char *names[] = {"stream_add", "dense_compute", "matrix_tile",
                           "mix_mid"};
    const size_t nw = std::size(names);
    std::vector<size_t> idx; // figure workload -> dse() index
    for (const char *name : names)
        idx.push_back(b.indexOf(name));
    // Config-major order over this figure's workloads (point i is
    // workload names[i % nw], config i / nw): the seeded training split
    // below draws one coin per point in this order.
    std::vector<SweepPoint> points;
    for (size_t ci = 0; ci < r.nConfigs; ++ci)
        for (size_t wi = 0; wi < nw; ++wi)
            points.push_back(r.at(idx[wi], ci));

    // Train the empirical model on half the simulated points.
    Rng rng(2026);
    EmpiricalModel emp;
    std::vector<bool> isTraining(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        isTraining[i] = rng.chance(0.5);
        if (isTraining[i]) {
            const auto &pt = points[i];
            emp.addSample(space[pt.configIdx], b.profiles[pt.workloadIdx],
                          pt.simCpi, pt.simWatts);
        }
    }
    if (!emp.train())
        throw std::runtime_error("empirical model under-determined");

    // Held-out accuracy of both models.
    std::vector<double> mechErr, empErr;
    for (size_t i = 0; i < points.size(); ++i) {
        if (isTraining[i])
            continue;
        const auto &pt = points[i];
        double e = emp.predictCpi(space[pt.configIdx],
                                  b.profiles[pt.workloadIdx]);
        mechErr.push_back(100 * pt.cpiError());
        empErr.push_back(pctErr(e, pt.simCpi));
    }
    std::printf("held-out CPI avg |err|: mechanistic %.1f%%, empirical "
                "%.1f%%\n\n", meanAbs(mechErr), meanAbs(empErr));

    // Pareto quality per workload for both models.
    std::printf("%-16s | %25s | %25s\n", "", "mechanistic",
                "empirical");
    std::printf("%-16s | %7s %7s %8s | %7s %7s %8s\n", "benchmark",
                "sens", "spec", "HVR", "sens", "spec", "HVR");
    double mh = 0, eh = 0;
    for (size_t wi = 0; wi < nw; ++wi) {
        const Profile &p = b.profiles[idx[wi]];
        std::vector<Objective> trueObj, mechObj, empObj;
        objectives(r, idx[wi], trueObj, mechObj);
        for (const CoreConfig &cfg : space.configs())
            empObj.push_back(
                {emp.predictCpi(cfg, p), emp.predictPower(cfg, p)});
        auto mm = compareFronts(trueObj, mechObj);
        auto em = compareFronts(trueObj, empObj);
        std::printf("%-16s | %6.1f%% %6.1f%% %7.1f%% | %6.1f%% %6.1f%% "
                    "%7.1f%%\n",
                    names[wi], 100 * mm.sensitivity,
                    100 * mm.specificity, 100 * mm.hvr,
                    100 * em.sensitivity, 100 * em.specificity,
                    100 * em.hvr);
        mh += mm.hvr;
        eh += em.hvr;
    }
    std::printf("\navg HVR: mechanistic %.1f%%, empirical %.1f%%  "
                "(paper: mechanistic ranks better)\n",
                100 * mh / nw, 100 * eh / nw);
}

/**
 * Table 7.1: the fastest predicted design under a power budget, per
 * workload.
 */
void
tab7_1(Context &)
{
    Bundle b = makeBundle(
        {"dense_compute", "stream_add", "mix_mid", "branchy"}, 120000);
    DesignSpace space = DesignSpace::small();

    const double budgets[] = {6.0, 8.0, 12.0, 1e9};
    std::printf("%-16s %10s %12s %10s  %s\n", "benchmark", "budget W",
                "pred CPI", "pred W", "chosen core");
    for (size_t wi = 0; wi < b.size(); ++wi) {
        // Model-predicted CPI and power per config.
        std::vector<double> cpi, watts;
        for (const auto &cfg : space.configs()) {
            auto res = evaluateModel(b.profiles[wi], cfg);
            cpi.push_back(res.cpiPerUop());
            watts.push_back(computePower(res.activity, cfg).total());
        }
        for (double budget : budgets) {
            int best = -1;
            for (size_t ci = 0; ci < space.size(); ++ci) {
                if (watts[ci] > budget)
                    continue;
                if (best < 0 || cpi[ci] < cpi[best])
                    best = static_cast<int>(ci);
            }
            if (best < 0) {
                std::printf("%-16s %10.1f %12s\n",
                            b.specs[wi].name.c_str(), budget,
                            "infeasible");
                continue;
            }
            std::printf("%-16s %10.1f %12.3f %10.2f  %s\n",
                        b.specs[wi].name.c_str(),
                        budget >= 1e8 ? 999.0 : budget, cpi[best],
                        watts[best], space[best].name.c_str());
        }
        std::printf("\n");
    }
}

} // namespace mipp::figures
