/**
 * @file
 * Thesis Ch. 5 figures: the error micro-trace sampling and chain-length
 * interpolation add to the profile.
 */
#include "figures.hh"

namespace mipp::figures {

namespace {

/** Full and default-sampled profiles of @p t. */
std::pair<Profile, Profile>
fullAndSampled(const Trace &t)
{
    ProfilerConfig full;
    full.sampling = SamplingConfig::full();
    ProfilerConfig sampled;
    sampled.sampling = {1000, 20000};
    return {profileTrace(t, full), profileTrace(t, sampled)};
}

} // namespace

/**
 * Fig 5.2: sampled vs non-sampled instruction mix. The paper reports
 * 0.08 % average / 1.8 % max per-category error.
 */
void
fig5_2(Context &)
{
    std::printf("%-16s %12s %12s\n", "benchmark", "avg |err|",
                "max |err|");
    double worst = 0, grand = 0;
    int n = 0;
    for (const auto &spec : workloadSuite()) {
        auto [pf, ps] = fullAndSampled(generateWorkload(spec, 300000));
        double sum = 0, mx = 0;
        for (int ty = 0; ty < kNumUopTypes; ++ty) {
            double d = 100.0 *
                std::fabs(pf.uopFraction(static_cast<UopType>(ty)) -
                          ps.uopFraction(static_cast<UopType>(ty)));
            sum += d;
            mx = std::max(mx, d);
        }
        std::printf("%-16s %11.3f%% %11.3f%%\n", spec.name.c_str(),
                    sum / kNumUopTypes, mx);
        worst = std::max(worst, mx);
        grand += sum / kNumUopTypes;
        n++;
    }
    std::printf("\nsuite: avg %.3f%%, max %.3f%%  "
                "(paper: 0.08%% avg, 1.8%% max)\n", grand / n, worst);
}

/**
 * Fig 5.4: dependence-chain error introduced by the logarithmic
 * interpolation between profiled ROB sizes. The paper reports 0.34 % /
 * 0.23 % / 0.61 % average for AP / ABP / CP.
 */
void
fig5_4(Context &)
{
    std::printf("%-16s %8s %8s %8s\n", "benchmark", "AP", "ABP", "CP");
    std::vector<double> apAll, abpAll, cpAll;
    for (const auto &spec : workloadSuite()) {
        Trace t = generateWorkload(spec, 200000);
        // Profile the default (dense) ROB sizes and a sparse set;
        // interpolate the sparse profile at the dense sizes and compare.
        ProfilerConfig sparse;
        sparse.robSizes = {16, 48, 80, 112, 144, 176, 208, 240};
        Profile pd = profileTrace(t, {});
        Profile ps = profileTrace(t, sparse);
        double apErr = 0, abpErr = 0, cpErr = 0;
        int n = 0;
        for (uint32_t rob : {32u, 64u, 96u, 128u, 160u, 192u, 224u}) {
            size_t i = pd.robIndex(rob);
            apErr += std::fabs(pctErr(ps.chains.ap(rob),
                                      pd.chains.apAt(i)));
            abpErr += std::fabs(pctErr(ps.chains.abp(rob),
                                       pd.chains.abpAt(i)));
            cpErr += std::fabs(pctErr(ps.chains.cp(rob),
                                      pd.chains.cpAt(i)));
            n++;
        }
        std::printf("%-16s %7.2f%% %7.2f%% %7.2f%%\n", spec.name.c_str(),
                    apErr / n, abpErr / n, cpErr / n);
        apAll.push_back(apErr / n);
        abpAll.push_back(abpErr / n);
        cpAll.push_back(cpErr / n);
    }
    std::printf("\nsuite avg: AP %.2f%%  ABP %.2f%%  CP %.2f%%  "
                "(paper: 0.34%% / 0.23%% / 0.61%%)\n",
                meanAbs(apAll), meanAbs(abpAll), meanAbs(cpAll));
}

/**
 * Fig 5.5: dependence-chain error due to micro-trace sampling. The paper
 * reports 0.45 % (AP), 4.22 % (ABP), 0.34 % (CP).
 */
void
fig5_5(Context &)
{
    std::printf("%-16s %8s %8s %8s\n", "benchmark", "AP", "ABP", "CP");
    std::vector<double> apAll, abpAll, cpAll;
    for (const auto &spec : workloadSuite()) {
        auto [pf, ps] = fullAndSampled(generateWorkload(spec, 300000));
        double ap = pctErr(ps.chains.ap(128), pf.chains.ap(128));
        double abp = pctErr(ps.chains.abp(128), pf.chains.abp(128));
        double cp = pctErr(ps.chains.cp(128), pf.chains.cp(128));
        std::printf("%-16s %7.2f%% %7.2f%% %7.2f%%\n", spec.name.c_str(),
                    ap, abp, cp);
        apAll.push_back(ap);
        abpAll.push_back(abp);
        cpAll.push_back(cp);
    }
    std::printf("\nsuite avg |err|: AP %.2f%%  ABP %.2f%%  CP %.2f%%  "
                "(paper: 0.45%% / 4.22%% / 0.34%%)\n",
                meanAbs(apAll), meanAbs(abpAll), meanAbs(cpAll));
}

} // namespace mipp::figures
