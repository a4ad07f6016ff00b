/**
 * Regenerates thesis Fig 6.5/6.6: performance prediction error across a
 * design space (box summary + scatter rows of simulated vs predicted
 * CPI). TC'16 reports 9.3 % average across the full 243-point space;
 * this bench uses the 27-point subspace and six diverse workloads to
 * stay laptop-fast.
 */
#include "bench_util.hh"
#include "dse/explorer.hh"
#include "uarch/design_space.hh"

using namespace mipp;
using namespace mipp::bench;

int
main()
{
    banner("Fig 6.5/6.6", "CPI error across the design space");
    auto b = makeBundle({suiteWorkload("stream_add"),
                         suiteWorkload("ptr_chase"),
                         suiteWorkload("dense_compute"),
                         suiteWorkload("matrix_tile"),
                         suiteWorkload("mix_mid"),
                         suiteWorkload("balanced_mix")},
                        120000);
    DesignSpace space = DesignSpace::small();
    SweepResult r = sweepEx(b.traces, b.profiles, space.configs());

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
    return 0;
}
