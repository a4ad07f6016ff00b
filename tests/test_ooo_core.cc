/**
 * @file
 * Tests for the cycle-level out-of-order core, using small hand-built
 * traces with analytically known timing.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/ooo_core.hh"

namespace mipp {
namespace {

/** Small builder for hand-crafted uop traces. */
class TraceBuilder
{
  public:
    TraceBuilder &
    alu(int8_t dst, int8_t src1 = kNoReg, int8_t src2 = kNoReg)
    {
        MicroOp op;
        op.type = UopType::IntAlu;
        op.pc = nextPc();
        op.dst = dst;
        op.src1 = src1;
        op.src2 = src2;
        trace.push(op);
        return *this;
    }

    TraceBuilder &
    div(int8_t dst, int8_t src1 = kNoReg)
    {
        MicroOp op;
        op.type = UopType::IntDiv;
        op.pc = nextPc();
        op.dst = dst;
        op.src1 = src1;
        trace.push(op);
        return *this;
    }

    TraceBuilder &
    load(uint64_t addr, int8_t dst, int8_t addrReg = kNoReg)
    {
        MicroOp op;
        op.type = UopType::Load;
        op.pc = nextPc();
        op.addr = addr;
        op.dst = dst;
        op.src1 = addrReg;
        trace.push(op);
        return *this;
    }

    TraceBuilder &
    branch(bool taken, uint64_t pc = 0)
    {
        MicroOp op;
        op.type = UopType::Branch;
        op.pc = pc ? pc : nextPc();
        op.taken = taken;
        trace.push(op);
        return *this;
    }

    Trace trace;

  private:
    uint64_t
    nextPc()
    {
        return 0x400000 + 8 * trace.size();
    }
};

CoreConfig
testConfig()
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    return cfg;
}

SimOptions
idealOptions()
{
    SimOptions o;
    o.perfectBranch = true;
    o.perfectICache = true;
    o.perfectDCache = true;
    return o;
}

TEST(OooCore, IndependentAluApproachWidth)
{
    TraceBuilder b;
    for (int i = 0; i < 4000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 10));
    auto res = simulate(b.trace, testConfig(), idealOptions());
    // 4-wide core, fully independent single-cycle ops: IPC close to 3
    // once the pipeline is full (destination-register reuse every 10 ops
    // creates mild dependences).
    EXPECT_GT(res.ipc(), 2.4);
    EXPECT_LE(res.ipc(), 4.0);
}

TEST(OooCore, SerialChainRunsAtOneIpc)
{
    TraceBuilder b;
    for (int i = 0; i < 2000; ++i)
        b.alu(4, 4); // every op depends on the previous one
    auto res = simulate(b.trace, testConfig(), idealOptions());
    EXPECT_NEAR(res.cpiPerUop(), 1.0, 0.05);
}

TEST(OooCore, NonPipelinedDividerSerializes)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    for (int i = 0; i < 200; ++i)
        b.div(static_cast<int8_t>(4 + i % 8)); // independent divides
    auto res = simulate(b.trace, cfg, idealOptions());
    // One non-pipelined divider with 20-cycle latency: ~20 CPI.
    double divLat = cfg.lat.of(UopType::IntDiv);
    EXPECT_NEAR(res.cpiPerUop(), divLat, divLat * 0.15);
}

TEST(OooCore, LoadPortLimitsThroughput)
{
    // All loads, single load port: at most 1 uop/cycle.
    TraceBuilder b;
    for (int i = 0; i < 3000; ++i)
        b.load(0x1000 + (i % 64) * 8, static_cast<int8_t>(4 + i % 8));
    auto res = simulate(b.trace, testConfig(), idealOptions());
    EXPECT_GE(res.cpiPerUop(), 0.95);
    EXPECT_LT(res.cpiPerUop(), 1.3);
}

TEST(OooCore, DramMissCostsMemoryLatency)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    // Dependent chain: load -> 100 dependent alus -> done. The load
    // goes to DRAM (cold).
    b.load(0x40000000, 4);
    for (int i = 0; i < 100; ++i)
        b.alu(4, 4);
    auto res = simulate(b.trace, cfg);
    EXPECT_GT(res.cycles, cfg.memLatency);
    EXPECT_GT(res.stack.dram, 0.0);
}

TEST(OooCore, PerfectDCacheRemovesDramStalls)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    for (int i = 0; i < 500; ++i) {
        b.load(0x40000000 + i * 4096, static_cast<int8_t>(4));
        b.alu(5, 4);
    }
    SimOptions ideal = idealOptions();
    auto real = simulate(b.trace, cfg);
    auto perfect = simulate(b.trace, cfg, ideal);
    EXPECT_GT(real.cycles, 2 * perfect.cycles);
    EXPECT_DOUBLE_EQ(perfect.stack.dram, 0.0);
}

TEST(OooCore, MispredictsAddFrontendPenalty)
{
    CoreConfig cfg = testConfig();
    TraceBuilder b;
    // Random-looking branch pattern the predictor cannot learn well,
    // interleaved with a little work.
    uint32_t lfsr = 0xACE1u;
    for (int i = 0; i < 2000; ++i) {
        b.alu(static_cast<int8_t>(4 + i % 8));
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        b.branch((lfsr & 1) != 0, 0x400008);
    }
    SimOptions opts;
    opts.perfectICache = true;
    opts.perfectDCache = true;
    auto real = simulate(b.trace, cfg, opts);
    auto perfect = simulate(b.trace, cfg, idealOptions());
    EXPECT_GT(real.branchMispredicts, 100u);
    EXPECT_GT(real.cycles, perfect.cycles);
    EXPECT_GT(real.stack.branch, 0.0);
    EXPECT_DOUBLE_EQ(perfect.stack.branch, 0.0);
}

TEST(OooCore, CpiStackSumsToCycles)
{
    TraceBuilder b;
    for (int i = 0; i < 1000; ++i) {
        b.load(0x2000000 + i * 256, static_cast<int8_t>(4 + i % 4));
        b.alu(8, 4);
        b.branch(i % 3 != 0, 0x400010);
    }
    auto res = simulate(b.trace, testConfig());
    EXPECT_NEAR(res.stack.total(), static_cast<double>(res.cycles),
                res.cycles * 0.01 + 2);
}

TEST(OooCore, FewerMshrsSlowParallelMisses)
{
    TraceBuilder b;
    for (int i = 0; i < 400; ++i)
        b.load(0x80000000ull + i * 65536,
               static_cast<int8_t>(4 + i % 8)); // independent DRAM misses
    CoreConfig many = testConfig();
    many.mshrs = 16;
    CoreConfig few = testConfig();
    few.mshrs = 1;
    auto fast = simulate(b.trace, many);
    auto slow = simulate(b.trace, few);
    EXPECT_GT(slow.cycles, fast.cycles * 2);
    EXPECT_LE(fast.avgMlp, 16.0);
    EXPECT_LE(slow.avgMlp, 1.01);
}

TEST(OooCore, MlpMeasuredForParallelStreams)
{
    TraceBuilder b;
    for (int i = 0; i < 600; ++i)
        b.load(0x80000000ull + i * 65536, static_cast<int8_t>(4 + i % 8));
    auto res = simulate(b.trace, testConfig());
    EXPECT_GT(res.avgMlp, 3.0);
}

TEST(OooCore, CommitWidthLowerBound)
{
    TraceBuilder b;
    for (int i = 0; i < 4000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 12));
    auto res = simulate(b.trace, testConfig(), idealOptions());
    EXPECT_GE(res.cycles * testConfig().commitWidth, res.uops);
}

TEST(OooCore, WindowCpiSeriesProduced)
{
    TraceBuilder b;
    for (int i = 0; i < 50000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 12));
    SimOptions opts = idealOptions();
    opts.cpiWindowUops = 10000;
    auto res = simulate(b.trace, testConfig(), opts);
    EXPECT_GE(res.windowCpi.size(), 4u);
    for (double cpi : res.windowCpi)
        EXPECT_GT(cpi, 0.0);
}

TEST(OooCore, DeterministicAcrossRuns)
{
    TraceBuilder b;
    for (int i = 0; i < 3000; ++i) {
        b.load(0x3000000 + (i * 7919) % 100000 * 8,
               static_cast<int8_t>(4 + i % 6));
        b.branch(i % 5 != 0, 0x400018);
    }
    auto r1 = simulate(b.trace, testConfig());
    auto r2 = simulate(b.trace, testConfig());
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.branchMispredicts, r2.branchMispredicts);
    EXPECT_EQ(r1.mem.dramAccesses, r2.mem.dramAccesses);
}

TEST(OooCore, WiderCoreIsNotSlower)
{
    TraceBuilder b;
    for (int i = 0; i < 5000; ++i)
        b.alu(static_cast<int8_t>(4 + i % 12));
    CoreConfig narrow = testConfig();
    narrow.setWidth(2);
    CoreConfig wide = testConfig();
    wide.setWidth(6);
    auto n = simulate(b.trace, narrow, idealOptions());
    auto w = simulate(b.trace, wide, idealOptions());
    EXPECT_LE(w.cycles, n.cycles);
}

TEST(OooCore, ActivityCountsConsistent)
{
    TraceBuilder b;
    for (int i = 0; i < 2000; ++i) {
        b.load(0x5000 + (i % 32) * 8, 4);
        b.alu(5, 4);
    }
    auto res = simulate(b.trace, testConfig());
    EXPECT_EQ(res.activity.uops, res.uops);
    EXPECT_EQ(res.activity.robWrites, res.uops);
    EXPECT_EQ(res.activity.robReads, res.uops);
    EXPECT_EQ(res.activity.cycles, res.cycles);
    EXPECT_EQ(res.activity.fuOps[static_cast<int>(UopType::Load)],
              res.uops / 2);
}

TEST(OooCore, DeadlockThrowsAtSameCycle)
{
    // With no ROB entries nothing dispatches: a million cycles pass
    // without a commit and the simulator gives up on the cycle after.
    TraceBuilder b;
    for (int i = 0; i < 100; ++i)
        b.alu(4);
    CoreConfig cfg = testConfig();
    cfg.robSize = 0;
    try {
        simulate(b.trace, cfg);
        FAIL() << "a core that cannot dispatch must not finish";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "simulator deadlock at cycle 1000001");
    }
}

} // namespace
} // namespace mipp
