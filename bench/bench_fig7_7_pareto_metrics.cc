/**
 * Regenerates thesis Fig 7.7/7.9: Pareto-pruning quality over the design
 * space — sensitivity, specificity, accuracy and HVR per workload. The
 * thesis averages: 46.2 % / 87.9 % / 76.8 % / 97.0 %.
 */
#include "bench_util.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "uarch/design_space.hh"

using namespace mipp;
using namespace mipp::bench;

int
main()
{
    banner("Fig 7.7/7.9",
           "Pareto pruning: sensitivity / specificity / accuracy / HVR");
    auto b = makeBundle({suiteWorkload("stream_add"),
                         suiteWorkload("ptr_chase"),
                         suiteWorkload("dense_compute"),
                         suiteWorkload("matrix_tile"),
                         suiteWorkload("mix_mid"),
                         suiteWorkload("balanced_mix")},
                        120000);
    DesignSpace space = DesignSpace::small();
    SweepResult r = sweepEx(b.traces, b.profiles, space.configs());

    std::printf("%-16s %8s %8s %8s %8s\n", "benchmark", "sens", "spec",
                "acc", "HVR");
    double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
    for (size_t wi = 0; wi < b.size(); ++wi) {
        std::vector<Objective> trueObj, predObj;
        for (size_t ci = 0; ci < r.nConfigs; ++ci) {
            const SweepPoint &pt = r.at(wi, ci);
            trueObj.push_back({pt.simCpi, pt.simWatts});
            predObj.push_back({pt.modelCpi, pt.modelWatts});
        }
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
    return 0;
}
