/**
 * Regenerates thesis Fig 7.4/7.5: Pareto frontiers (delay vs power) from
 * simulation and from the model for selected workloads.
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
    banner("Fig 7.4/7.5", "Pareto frontiers, sim vs model");
    auto b = makeBundle({suiteWorkload("matrix_tile"),
                         suiteWorkload("mix_mid")},
                        120000);
    DesignSpace space = DesignSpace::small();
    SweepResult r = sweepEx(b.traces, b.profiles, space.configs());

    for (size_t wi = 0; wi < b.size(); ++wi) {
        std::vector<Objective> trueObj, predObj;
        for (size_t ci = 0; ci < r.nConfigs; ++ci) {
            const SweepPoint &pt = r.at(wi, ci);
            trueObj.push_back({pt.simCpi, pt.simWatts});
            predObj.push_back({pt.modelCpi, pt.modelWatts});
        }
        auto tf = paretoFront(trueObj);
        auto pf = paretoFront(predObj);

        std::printf("\n%s — true Pareto front (simulated):\n",
                    b.specs[wi].name.c_str());
        for (size_t i : tf)
            std::printf("  %-30s CPI %7.3f  W %6.2f\n",
                        space[i].name.c_str(), trueObj[i].first,
                        trueObj[i].second);
        std::printf("%s — predicted Pareto front (model):\n",
                    b.specs[wi].name.c_str());
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
    return 0;
}
