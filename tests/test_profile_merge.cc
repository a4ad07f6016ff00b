/**
 * @file
 * Profile::merge property tests. merge combines *finalized* profiles of
 * independent workload parts (sharding one long program's sections, or
 * pooling phases into an aggregate): identity against empty profiles,
 * associativity (integer statistics exact; double accumulators to
 * rounding), determinism, and additivity of every count. Exact
 * single-stream parallelism is profileSourceParallel's job, not merge's.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "profile_compare.hh"
#include "profiler/profiler.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

Profile
profileOf(const char *name, size_t uops, ProfilerConfig cfg = {})
{
    Trace t = generateWorkload(suiteWorkload(name), uops);
    cfg.name = name;
    return profileTrace(t, cfg);
}

/** Like expectProfilesIdentical, but double accumulators (chain sums,
 *  entropy) compare to rounding — reassociating double sums is allowed
 *  to differ in the last ulps. */
void
expectProfilesEquivalent(const Profile &a, const Profile &b)
{
    EXPECT_EQ(a.totalUops, b.totalUops);
    EXPECT_EQ(a.profiledUops, b.profiledUops);
    EXPECT_EQ(a.profiledInsts, b.profiledInsts);
    EXPECT_EQ(a.uopCounts, b.uopCounts);
    EXPECT_EQ(a.srcOperands, b.srcOperands);
    EXPECT_EQ(a.dstOperands, b.dstOperands);
    EXPECT_EQ(a.robSizes, b.robSizes);
    for (size_t i = 0; i < a.robSizes.size(); ++i) {
        auto ra = a.chains.exportRow(i);
        auto rb = b.chains.exportRow(i);
        EXPECT_DOUBLE_EQ(ra.apSum, rb.apSum) << "chains row " << i;
        EXPECT_DOUBLE_EQ(ra.abpSum, rb.abpSum) << "chains row " << i;
        EXPECT_DOUBLE_EQ(ra.cpSum, rb.cpSum) << "chains row " << i;
        EXPECT_EQ(ra.weight, rb.weight) << "chains row " << i;
        EXPECT_EQ(ra.abpWeight, rb.abpWeight) << "chains row " << i;
    }
    EXPECT_EQ(a.loadDeps.histo, b.loadDeps.histo);
    EXPECT_EQ(a.branch.branches, b.branch.branches);
    EXPECT_DOUBLE_EQ(a.branch.entropySum, b.branch.entropySum);
    EXPECT_EQ(a.cold.coldLoadMisses, b.cold.coldLoadMisses);
    expectHistogramsEqual(a.reuseAll, b.reuseAll, "reuseAll");
    expectHistogramsEqual(a.reuseInsts, b.reuseInsts, "reuseInsts");
    ASSERT_EQ(a.memOps.size(), b.memOps.size());
    for (size_t i = 0; i < a.memOps.size(); ++i) {
        EXPECT_EQ(a.memOps[i].pc, b.memOps[i].pc) << "op " << i;
        EXPECT_EQ(a.memOps[i].count, b.memOps[i].count) << "op " << i;
        EXPECT_EQ(a.memOps[i].strides, b.memOps[i].strides) << "op " << i;
    }
    EXPECT_EQ(a.windows.size(), b.windows.size());
}

TEST(ProfileMerge, EmptyIsIdentity)
{
    Profile p = profileOf("balanced_mix", 50000);
    Profile orig = p;

    Profile empty;
    EXPECT_TRUE(empty.empty());
    p.merge(empty);
    expectProfilesIdentical(p, orig);

    // Merging into an empty receiver adopts everything but keeps a
    // non-empty receiver name.
    Profile sink;
    sink.name = "aggregate";
    sink.merge(orig);
    EXPECT_EQ(sink.name, "aggregate");
    sink.name = orig.name;
    expectProfilesIdentical(sink, orig);

    Profile unnamed;
    unnamed.merge(orig);
    EXPECT_EQ(unnamed.name, orig.name);
}

TEST(ProfileMerge, Associative)
{
    Profile a = profileOf("balanced_mix", 40000);
    Profile b = profileOf("stream_add", 40000);
    Profile c = profileOf("branchy", 40000);

    Profile ab = a;
    ab.merge(b);
    Profile abc1 = ab;
    abc1.merge(c);

    Profile bc = b;
    bc.merge(c);
    Profile abc2 = a;
    abc2.merge(bc);

    expectProfilesEquivalent(abc1, abc2);
}

TEST(ProfileMerge, Deterministic)
{
    Profile a = profileOf("ptr_chase", 40000);
    Profile b = profileOf("bursty_mem", 40000);

    Profile m1 = a;
    m1.merge(b);
    Profile m2 = a;
    m2.merge(b);
    expectProfilesIdentical(m1, m2);
}

TEST(ProfileMerge, CountsAreAdditive)
{
    Profile a = profileOf("balanced_mix", 60000);
    Profile b = profileOf("balanced_mix", 40000);

    Profile m = a;
    m.merge(b);
    EXPECT_EQ(m.totalUops, a.totalUops + b.totalUops);
    EXPECT_EQ(m.profiledUops, a.profiledUops + b.profiledUops);
    EXPECT_EQ(m.windows.size(), a.windows.size() + b.windows.size());
    EXPECT_EQ(m.reuseAll.total(), a.reuseAll.total() + b.reuseAll.total());
    EXPECT_EQ(m.cold.coldLoadMisses,
              a.cold.coldLoadMisses + b.cold.coldLoadMisses);
    EXPECT_EQ(m.branch.branches, a.branch.branches + b.branch.branches);

    // Same generator => same static pcs: ops unify rather than append,
    // and every window's memCounts indices stay in range.
    EXPECT_EQ(m.memOps.size(), a.memOps.size());
    for (const auto &w : m.windows)
        for (const auto &[idx, cnt] : w.memCounts)
            ASSERT_LT(idx, m.memOps.size());
}

TEST(ProfileMerge, DisjointOpsAppend)
{
    Profile a = profileOf("stream_add", 40000);
    Profile b = profileOf("ptr_chase", 40000);
    size_t shared = 0;
    for (const auto &oa : a.memOps)
        for (const auto &ob : b.memOps)
            shared += oa.pc == ob.pc;
    Profile m = a;
    m.merge(b);
    EXPECT_EQ(m.memOps.size(), a.memOps.size() + b.memOps.size() - shared);
}

TEST(ProfileMerge, MismatchedShapesThrow)
{
    Profile a = profileOf("balanced_mix", 30000);

    ProfilerConfig narrow;
    narrow.robSizes = {32, 128};
    Profile b = profileOf("balanced_mix", 30000, narrow);
    EXPECT_THROW(a.merge(b), std::invalid_argument);

    ProfilerConfig longHist;
    longHist.historyBits = 14;
    Profile c = profileOf("balanced_mix", 30000, longHist);
    EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(ProfileMerge, DependenceChainsGuards)
{
    DependenceChains empty;
    DependenceChains filled(std::vector<uint32_t>{16, 32});
    filled.addSample(0, 1.5, 0.5, true, 3.0);

    // Merging an empty instance is a no-op; merging into an empty
    // instance adopts the other's sizes and sums.
    DependenceChains copy = filled;
    copy.merge(empty);
    EXPECT_EQ(copy.robSizes(), filled.robSizes());
    DependenceChains sink;
    sink.merge(filled);
    EXPECT_EQ(sink.robSizes(), filled.robSizes());
    EXPECT_DOUBLE_EQ(sink.exportRow(0).apSum, 1.5);

    DependenceChains other(std::vector<uint32_t>{16, 64});
    EXPECT_THROW(filled.merge(other), std::invalid_argument);
}

} // namespace
} // namespace mipp
