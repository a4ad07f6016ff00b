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

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "sim/ooo_core.hh"
#include "util/json.hh"
#include "validate/accuracy.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

constexpr size_t kUops = 10000;

/** The golden lines, keyed by "workload point ablation". */
const std::map<std::string, std::string> &
goldenDigests()
{
    static const std::map<std::string, std::string> digests = [] {
        std::map<std::string, std::string> m;
        std::ifstream in(MIPP_TEST_SIM_GOLDEN);
        std::string line;
        while (std::getline(in, line)) {
            size_t cut = line.rfind(' ');
            if (cut != std::string::npos)
                m[line.substr(0, cut)] = line.substr(cut + 1);
        }
        return m;
    }();
    return digests;
}

/** Every field of @p r as JSON text. */
std::string
render(const SimResult &r)
{
    std::string s = "{";
    auto field = [&](const char *name, double v) {
        if (s.size() > 1)
            s += ',';
        s += json::quote(name);
        s += ':';
        s += json::number(v);
    };
    auto level = [&](const char *name, const LevelStats &l) {
        std::string prefix = name;
        field((prefix + ".loadAccesses").c_str(), l.loadAccesses);
        field((prefix + ".loadMisses").c_str(), l.loadMisses);
        field((prefix + ".storeAccesses").c_str(), l.storeAccesses);
        field((prefix + ".storeMisses").c_str(), l.storeMisses);
        field((prefix + ".ifetchAccesses").c_str(), l.ifetchAccesses);
        field((prefix + ".ifetchMisses").c_str(), l.ifetchMisses);
    };

    field("cycles", r.cycles);
    field("uops", r.uops);
    field("instructions", r.instructions);
    field("branches", r.branches);
    field("branchMispredicts", r.branchMispredicts);

    field("stack.base", r.stack.base);
    field("stack.branch", r.stack.branch);
    field("stack.icache", r.stack.icache);
    field("stack.l2hit", r.stack.l2hit);
    field("stack.llcHit", r.stack.llcHit);
    field("stack.dram", r.stack.dram);

    const MemoryStats &m = r.mem;
    level("l1i", m.l1i);
    level("l1d", m.l1d);
    level("l2", m.l2);
    level("l3", m.l3);
    field("dramAccesses", m.dramAccesses);
    field("coldLoadMisses", m.coldLoadMisses);
    field("capacityLoadMisses", m.capacityLoadMisses);
    field("coldStoreMisses", m.coldStoreMisses);
    field("capacityStoreMisses", m.capacityStoreMisses);
    field("writebacks", m.writebacks);
    field("busWaitCycles", m.busWaitCycles);
    field("prefetchesIssued", m.prefetchesIssued);
    field("prefetchHits", m.prefetchHits);
    field("prefetchesInstalled", m.prefetchesInstalled);

    const ActivityCounts &a = r.activity;
    field("a.cycles", a.cycles);
    field("a.uops", a.uops);
    field("a.instructions", a.instructions);
    for (size_t t = 0; t < a.fuOps.size(); ++t)
        field(("a.fuOps" + std::to_string(t)).c_str(), a.fuOps[t]);
    field("a.robWrites", a.robWrites);
    field("a.robReads", a.robReads);
    field("a.iqWrites", a.iqWrites);
    field("a.iqWakeups", a.iqWakeups);
    field("a.rfReads", a.rfReads);
    field("a.rfWrites", a.rfWrites);
    field("a.bpLookups", a.bpLookups);
    field("a.l1iAccesses", a.l1iAccesses);
    field("a.l1dAccesses", a.l1dAccesses);
    field("a.l2Accesses", a.l2Accesses);
    field("a.l3Accesses", a.l3Accesses);
    field("a.dramAccesses", a.dramAccesses);

    field("avgMlp", r.avgMlp);
    field("dramCycles", r.dramCycles);
    s += ",\"windowCpi\":[";
    for (size_t i = 0; i < r.windowCpi.size(); ++i)
        s += (i ? "," : "") + json::number(r.windowCpi[i]);
    s += "]}";
    return s;
}

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

class SimGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimGolden, MatchesRecordedDigests)
{
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
            const std::string key =
                GetParam() + " " + cfg.name + " " + ab.name;
            char digest[17];
            std::snprintf(digest, sizeof digest, "%016" PRIx64,
                          fnv1a64(render(simulate(trace, cfg, ab.opts))));
            auto it = goldenDigests().find(key);
            if (it == goldenDigests().end() || it->second != digest)
                ADD_FAILURE() << "computed: " << key << " " << digest;
        }
    }
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &s : workloadSuite())
        names.push_back(s.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, SimGolden, ::testing::ValuesIn(suiteNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace mipp
