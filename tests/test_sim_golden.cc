/**
 * @file
 * Pins the reference simulator's output bit for bit.
 *
 * Every suite workload (10k uops) runs on every point of the "default"
 * accuracy grid under four idealizations. Each run's SimResult is
 * rendered to text through util/json (numbers round-trip exactly) and
 * reduced to an FNV-1a 64 digest; tests/sim.golden holds one line per
 * run: `workload point ablation digest`. A simulator change that is
 * meant to give the same answers must leave every line as it is.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "golden.hh"
#include "sim/ooo_core.hh"
#include "validate/accuracy.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

constexpr size_t kUops = 10000;

/** Every field of @p r as JSON text. */
std::string
render(const SimResult &r)
{
    golden::JsonFields f;
    auto level = [&](const std::string &prefix, const LevelStats &l) {
        f.add(prefix + ".loadAccesses", l.loadAccesses);
        f.add(prefix + ".loadMisses", l.loadMisses);
        f.add(prefix + ".storeAccesses", l.storeAccesses);
        f.add(prefix + ".storeMisses", l.storeMisses);
        f.add(prefix + ".ifetchAccesses", l.ifetchAccesses);
        f.add(prefix + ".ifetchMisses", l.ifetchMisses);
    };

    f.add("cycles", r.cycles);
    f.add("uops", r.uops);
    f.add("instructions", r.instructions);
    f.add("branches", r.branches);
    f.add("branchMispredicts", r.branchMispredicts);

    f.add("stack.base", r.stack.base);
    f.add("stack.branch", r.stack.branch);
    f.add("stack.icache", r.stack.icache);
    f.add("stack.l2hit", r.stack.l2hit);
    f.add("stack.llcHit", r.stack.llcHit);
    f.add("stack.dram", r.stack.dram);

    const MemoryStats &m = r.mem;
    level("l1i", m.l1i);
    level("l1d", m.l1d);
    level("l2", m.l2);
    level("l3", m.l3);
    f.add("dramAccesses", m.dramAccesses);
    f.add("coldLoadMisses", m.coldLoadMisses);
    f.add("capacityLoadMisses", m.capacityLoadMisses);
    f.add("coldStoreMisses", m.coldStoreMisses);
    f.add("capacityStoreMisses", m.capacityStoreMisses);
    f.add("writebacks", m.writebacks);
    f.add("busWaitCycles", m.busWaitCycles);
    f.add("prefetchesIssued", m.prefetchesIssued);
    f.add("prefetchHits", m.prefetchHits);
    f.add("prefetchesInstalled", m.prefetchesInstalled);

    f.add("a.", r.activity);

    f.add("avgMlp", r.avgMlp);
    f.add("dramCycles", r.dramCycles);
    f.add("windowCpi", r.windowCpi);
    return f.str();
}

class SimGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimGolden, MatchesRecordedDigests)
{
    static const std::set<std::string> goldenLines =
        golden::readLines(MIPP_TEST_SIM_GOLDEN);
    const Trace trace = generateWorkload(suiteWorkload(GetParam()), kUops);
    struct Ablation {
        const char *name;
        SimOptions opts;
    };
    Ablation ablations[4] = {{"none", {}}, {"perfectBranch", {}},
                             {"perfectICache", {}}, {"perfectDCache", {}}};
    ablations[1].opts.perfectBranch = true;
    ablations[2].opts.perfectICache = true;
    ablations[3].opts.perfectDCache = true;

    for (const CoreConfig &cfg : accuracyGrid("default")) {
        for (Ablation &ab : ablations) {
            ab.opts.cpiWindowUops = 2000;
            const std::string line =
                GetParam() + " " + cfg.name + " " + ab.name + " " +
                golden::digest(render(simulate(trace, cfg, ab.opts)));
            if (!goldenLines.count(line))
                ADD_FAILURE() << "computed: " << line;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, SimGolden,
                         ::testing::ValuesIn(golden::suiteNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace mipp
