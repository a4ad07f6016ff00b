/**
 * @file
 * Pins the profiler's bytes and the analytical model's values bit for
 * bit.
 *
 * Every suite workload (100k uops) is profiled with the default
 * ProfilerConfig. Its writeProfile bytes are reduced to an FNV-1a 64
 * digest, and so is the text of every ModelResult over the "default"
 * accuracy grid under each MLP mode (fields rendered through util/json,
 * so numbers round-trip exactly). tests/profile.golden holds one line
 * per workload: `workload profileDigest modelDigest`. The segment-
 * parallel profiler (4 threads, 20k-uop segments) must write the same
 * bytes as the sequential one. A profiler or model change that is meant
 * to give the same answers must leave every line as it is.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "golden.hh"
#include "model/interval_model.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "trace/trace_source.hh"
#include "validate/accuracy.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

constexpr size_t kUops = 100000;

/** Every field of @p r as JSON text. */
std::string
render(const ModelResult &r)
{
    golden::JsonFields f;
    f.add("cycles", r.cycles);
    f.add("uops", r.uops);
    f.add("instructions", r.instructions);

    f.add("stack.base", r.stack.base);
    f.add("stack.branch", r.stack.branch);
    f.add("stack.icache", r.stack.icache);
    f.add("stack.l2hit", r.stack.l2hit);
    f.add("stack.llcHit", r.stack.llcHit);
    f.add("stack.dram", r.stack.dram);

    f.add("limits.width", r.limits.width);
    f.add("limits.dependences", r.limits.dependences);
    f.add("limits.ports", r.limits.ports);
    f.add("limits.fus", r.limits.fus);
    f.add("deff", r.deff);
    f.add("avgLatency", r.avgLatency);

    f.add("branchMissRate", r.branchMissRate);
    f.add("branchMisses", r.branchMisses);
    f.add("branchResolution", r.branchResolution);

    f.add("loadMissesL1", r.loadMissesL1);
    f.add("loadMissesL2", r.loadMissesL2);
    f.add("loadMissesL3", r.loadMissesL3);
    f.add("storeMissesL1", r.storeMissesL1);
    f.add("storeMissesL2", r.storeMissesL2);
    f.add("storeMissesL3", r.storeMissesL3);
    f.add("ifetchMissesL1", r.ifetchMissesL1);
    f.add("ifetchMissesL2", r.ifetchMissesL2);
    f.add("ifetchMissesL3", r.ifetchMissesL3);

    f.add("mlp", r.mlp);
    f.add("busCyclesPerMiss", r.busCyclesPerMiss);
    f.add("llcChainPenalty", r.llcChainPenalty);

    f.add("a.", r.activity);
    f.add("windowCpi", r.windowCpi);
    return f.str();
}

std::string
profileBytes(const Profile &p)
{
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

class ProfileGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProfileGolden, MatchesRecordedDigests)
{
    static const std::set<std::string> goldenLines =
        golden::readLines(MIPP_TEST_PROFILE_GOLDEN);
    const Trace trace = generateWorkload(suiteWorkload(GetParam()), kUops);
    const ProfilerConfig cfg;
    const Profile profile = profileTrace(trace, cfg);
    const std::string bytes = profileBytes(profile);

    MaterializedTraceSource src(trace);
    const Profile par =
        profileSourceParallel(src, cfg, {.threads = 4, .segmentUops = 20000});
    EXPECT_TRUE(profileBytes(par) == bytes)
        << "parallel profile bytes differ from sequential";

    std::string model;
    for (const CoreConfig &core : accuracyGrid("default")) {
        for (auto mode : {ModelOptions::MlpMode::None,
                          ModelOptions::MlpMode::ColdMiss,
                          ModelOptions::MlpMode::Stride}) {
            ModelOptions opts;
            opts.mlpMode = mode;
            model += render(evaluateModel(profile, core, opts));
            model += '\n';
        }
    }

    const std::string line = GetParam() + " " + golden::digest(bytes) +
                             " " + golden::digest(model);
    if (!goldenLines.count(line))
        ADD_FAILURE() << "computed: " << line;
}

INSTANTIATE_TEST_SUITE_P(Suite, ProfileGolden,
                         ::testing::ValuesIn(golden::suiteNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace mipp
