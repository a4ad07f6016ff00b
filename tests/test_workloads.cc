/**
 * @file
 * Tests for the synthetic workload generators: determinism, fidelity to
 * the declarative spec, and suite-wide behavioural properties.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "workloads/workload.hh"

namespace mipp {
namespace {

TEST(Workload, DeterministicForSameSpec)
{
    WorkloadSpec spec;
    spec.seed = 99;
    Trace a = generateWorkload(spec, 20000);
    Trace b = generateWorkload(spec, 20000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].addr, b[i].addr);
        ASSERT_EQ(a[i].type, b[i].type);
        ASSERT_EQ(a[i].taken, b[i].taken);
    }
}

TEST(Workload, DifferentSeedsProduceDifferentStreams)
{
    WorkloadSpec spec;
    spec.seed = 1;
    Trace a = generateWorkload(spec, 10000);
    spec.seed = 2;
    Trace b = generateWorkload(spec, 10000);
    size_t diff = 0;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        diff += a[i].addr != b[i].addr || a[i].type != b[i].type;
    EXPECT_GT(diff, 100u);
}

TEST(Workload, RequestedLengthHonored)
{
    WorkloadSpec spec;
    Trace t = generateWorkload(spec, 12345);
    EXPECT_GE(t.size(), 12345u);
    EXPECT_LE(t.size(), 12345u + 4u);
}

TEST(Workload, MixRoughlyMatchesSpec)
{
    WorkloadSpec spec;
    spec.fLoad = 0.40;
    spec.fStore = 0.10;
    spec.fIntAlu = 0.30;
    spec.fIntMul = 0; spec.fIntDiv = 0;
    spec.fFpAlu = 0; spec.fFpMul = 0; spec.fFpDiv = 0;
    spec.fBranch = 0.10;
    spec.fMove = 0.10;
    spec.loadOpFusion = 0;
    spec.loopBodyInsts = 400;
    Trace t = generateWorkload(spec, 200000);
    EXPECT_NEAR(t.typeFraction(UopType::Load), 0.40, 0.05);
    EXPECT_NEAR(t.typeFraction(UopType::Store), 0.10, 0.04);
    EXPECT_NEAR(t.typeFraction(UopType::Branch), 0.10, 0.04);
    EXPECT_DOUBLE_EQ(t.typeFraction(UopType::FpAlu), 0.0);
}

TEST(Workload, LoadOpFusionRaisesUopsPerInstruction)
{
    WorkloadSpec lean;
    lean.loadOpFusion = 0.0;
    lean.seed = 5;
    WorkloadSpec fat = lean;
    fat.loadOpFusion = 0.5;
    double lo = generateWorkload(lean, 100000).uopsPerInstruction();
    double hi = generateWorkload(fat, 100000).uopsPerInstruction();
    EXPECT_NEAR(lo, 1.0, 0.01);
    EXPECT_GT(hi, lo + 0.08);
    EXPECT_LT(hi, 1.45); // thesis Fig 3.1 range
}

TEST(Workload, StaticPcsRecurAcrossIterations)
{
    WorkloadSpec spec;
    spec.loopBodyInsts = 50;
    Trace t = generateWorkload(spec, 20000);
    std::map<uint64_t, int> pcCounts;
    for (const auto &op : t)
        pcCounts[op.pc]++;
    // A 50-instruction body over 20k uops: every static pc recurs often.
    for (const auto &[pc, n] : pcCounts)
        EXPECT_GT(n, 50) << "pc " << std::hex << pc;
}

TEST(Workload, LoopBackBranchMostlyTaken)
{
    WorkloadSpec spec;
    spec.fBranch = 0; // only the loop-back branch remains
    spec.innerIters = 64;
    Trace t = generateWorkload(spec, 100000);
    uint64_t taken = 0, total = 0;
    for (const auto &op : t) {
        if (op.type != UopType::Branch)
            continue;
        total++;
        taken += op.taken;
    }
    ASSERT_GT(total, 100u);
    EXPECT_NEAR(static_cast<double>(taken) / total, 63.0 / 64, 0.01);
}

TEST(Workload, UniqueFootprintNeverReusesLines)
{
    WorkloadSpec spec;
    spec.wL1 = 0; spec.wL2 = 0; spec.wL3 = 0; spec.wDram = 0;
    spec.wUnique = 1.0;
    spec.wStride1 = 1.0; spec.wStride2 = 0; spec.wRandom = 0;
    spec.wPtrChase = 0;
    Trace t = generateWorkload(spec, 50000);
    std::map<uint64_t, int> lines;
    for (const auto &op : t)
        if (isMemory(op.type))
            lines[op.lineAddr()]++;
    for (const auto &[line, n] : lines)
        EXPECT_EQ(n, 1);
}

TEST(Workload, PtrChaseLoadsAreSelfDependent)
{
    WorkloadSpec spec;
    spec.wPtrChase = 1.0;
    spec.wStride1 = 0; spec.wStride2 = 0; spec.wRandom = 0;
    spec.loadOpFusion = 0; // fused reads are never pointer chases
    Trace t = generateWorkload(spec, 20000);
    size_t selfDep = 0, loads = 0;
    for (const auto &op : t) {
        if (op.type != UopType::Load)
            continue;
        loads++;
        selfDep += op.dst != kNoReg && op.src1 == op.dst;
    }
    ASSERT_GT(loads, 100u);
    EXPECT_GT(static_cast<double>(selfDep) / loads, 0.9);
}

TEST(Workload, PhasedConcatenatesSegments)
{
    PhasedSpec p;
    p.name = "t";
    WorkloadSpec a;
    a.fLoad = 0.5; a.fIntAlu = 0.5;
    a.fStore = a.fIntMul = a.fIntDiv = a.fFpAlu = a.fFpMul = 0;
    a.fFpDiv = a.fBranch = a.fMove = 0;
    a.loadOpFusion = 0;
    WorkloadSpec b = a;
    b.fLoad = 0.0; b.fIntAlu = 1.0;
    p.segments = {{a, 10000}, {b, 10000}};
    Trace t = generatePhased(p);
    EXPECT_GE(t.size(), 20000u);
    // First half has loads, second half has none.
    size_t loadsFirst = 0, loadsSecond = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].type == UopType::Load)
            (i < t.size() / 2 ? loadsFirst : loadsSecond)++;
    }
    EXPECT_GT(loadsFirst, 1000u);
    EXPECT_LT(loadsSecond, loadsFirst / 10);
}

TEST(WorkloadSuite, HasTwentyUniqueNames)
{
    auto suite = workloadSuite();
    EXPECT_EQ(suite.size(), 20u);
    std::map<std::string, int> names;
    for (const auto &s : suite)
        names[s.name]++;
    for (const auto &[n, c] : names)
        EXPECT_EQ(c, 1) << n;
}

TEST(WorkloadSuite, LookupByNameWorks)
{
    EXPECT_EQ(suiteWorkload("stream_add").name, "stream_add");
    EXPECT_THROW(suiteWorkload("nope"), std::out_of_range);
}

TEST(WorkloadSuite, MemoryBoundSubsetNonEmptyAndMemoryHeavy)
{
    auto mem = memoryBoundSuite();
    EXPECT_GE(mem.size(), 5u);
    for (const auto &s : mem)
        EXPECT_TRUE(s.wDram + s.wUnique >= 0.25 || s.wL3 >= 0.4) << s.name;
}

TEST(WorkloadSuite, PhasedSuiteGenerates)
{
    for (const auto &p : phasedSuite()) {
        Trace t = generatePhased(p);
        EXPECT_GT(t.size(), 100000u) << p.name;
    }
}

TEST(WorkloadValidation, AllZeroPatternMixRejected)
{
    // Pre-validate() behaviour: pickWeighted returned the *last* index
    // for an all-zero mix, silently turning every memory op into a
    // pointer chase.
    WorkloadSpec spec;
    spec.wStride1 = 0; spec.wStride2 = 0; spec.wRandom = 0;
    spec.wPtrChase = 0;
    EXPECT_THROW(generateWorkload(spec, 1000), std::invalid_argument);
}

TEST(WorkloadValidation, AllZeroFootprintMixRejected)
{
    // ... and an all-zero footprint mix into Unique (pure cold misses).
    WorkloadSpec spec;
    spec.wL1 = 0; spec.wL2 = 0; spec.wL3 = 0; spec.wDram = 0;
    spec.wUnique = 0;
    EXPECT_THROW(generateWorkload(spec, 1000), std::invalid_argument);
}

TEST(WorkloadValidation, NegativeWeightsAndEmptyMixRejected)
{
    WorkloadSpec neg;
    neg.wL1 = -0.5;
    EXPECT_THROW(neg.validate(), std::invalid_argument);

    WorkloadSpec empty;
    empty.fLoad = empty.fStore = empty.fIntAlu = empty.fIntMul = 0;
    empty.fIntDiv = empty.fFpAlu = empty.fFpMul = empty.fFpDiv = 0;
    empty.fBranch = empty.fMove = 0;
    EXPECT_THROW(empty.validate(), std::invalid_argument);

    WorkloadSpec zeroBody;
    zeroBody.loopBodyInsts = 0;
    EXPECT_THROW(zeroBody.validate(), std::invalid_argument);
}

TEST(WorkloadValidation, ComputeOnlySpecIgnoresMemoryMixes)
{
    // No loads, stores or fused reads: the memory mixes are dead and an
    // all-zero value must not be rejected.
    WorkloadSpec spec;
    spec.fLoad = 0; spec.fStore = 0; spec.loadOpFusion = 0;
    spec.fIntAlu = 1.0;
    spec.wStride1 = 0; spec.wStride2 = 0; spec.wRandom = 0;
    spec.wPtrChase = 0;
    EXPECT_NO_THROW(spec.validate());
    Trace t = generateWorkload(spec, 5000);
    EXPECT_GE(t.size(), 5000u);
}

TEST(WorkloadValidation, EntireSuiteValidates)
{
    for (const auto &s : workloadSuite())
        EXPECT_NO_THROW(s.validate()) << s.name;
    for (const auto &p : phasedSuite())
        for (const auto &[seg, uops] : p.segments)
            EXPECT_NO_THROW(seg.validate()) << p.name;
}

} // namespace

/**
 * Print a workload parameter as its name. Without this gtest dumps the
 * spec's raw bytes, which hold the name string's heap pointer, so the
 * test ids ctest discovers would change from build to build.
 */
void PrintTo(const WorkloadSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace {

/** Every suite workload generates a valid trace with sane properties. */
class SuiteProperty : public ::testing::TestWithParam<WorkloadSpec>
{
};

TEST_P(SuiteProperty, GeneratesWellFormedTrace)
{
    const WorkloadSpec &spec = GetParam();
    Trace t = generateWorkload(spec, 50000);
    ASSERT_GE(t.size(), 50000u);

    double upi = t.uopsPerInstruction();
    EXPECT_GE(upi, 1.0) << spec.name;
    EXPECT_LE(upi, 1.45) << spec.name; // thesis Fig 3.1 range

    size_t branches = 0;
    for (const auto &op : t) {
        if (op.type == UopType::Branch)
            branches++;
        if (isMemory(op.type))
            EXPECT_NE(op.addr, 0u) << spec.name;
        if (op.src1 != kNoReg)
            EXPECT_LT(op.src1, kNumRegs) << spec.name;
        if (op.dst != kNoReg)
            EXPECT_LT(op.dst, kNumRegs) << spec.name;
    }
    EXPECT_GT(branches, 100u) << spec.name; // at least the loop-back
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteProperty, ::testing::ValuesIn(workloadSuite()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        return info.param.name;
    });

} // namespace
} // namespace mipp
