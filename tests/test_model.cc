/**
 * @file
 * Tests for the analytical model: dispatch limits (incl. the Table 3.1
 * worked examples), branch modeling, MLP models and the interval model's
 * behavioural properties.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/interval_model.hh"
#include "profiler/profiler.hh"
#include "trace/rng.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

/** Nehalem-like config with the latencies of the Table 3.1 examples. */
CoreConfig
table31Config()
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    cfg.robSize = 64;
    cfg.lat.of(UopType::Load) = 2;
    cfg.lat.of(UopType::Store) = 2;
    cfg.lat.of(UopType::IntAlu) = 1;
    cfg.lat.of(UopType::FpMul) = 5;
    cfg.lat.of(UopType::IntDiv) = 5;
    cfg.lat.of(UopType::Branch) = 1;
    return cfg;
}

std::array<double, kNumUopTypes>
counts(std::initializer_list<std::pair<UopType, double>> list)
{
    std::array<double, kNumUopTypes> c{};
    for (const auto &[t, n] : list)
        c[static_cast<int>(t)] = n;
    return c;
}

TEST(DispatchModel, Table31FirstMixLoadPortLimited)
{
    // Thesis Table 3.1 / Eq 3.11: 40 loads on a single load port limit
    // the effective dispatch rate to 100/40 = 2.5 (CP term: 64/(2*8)=4).
    auto mix = counts({{UopType::Load, 40},
                       {UopType::Store, 20},
                       {UopType::IntAlu, 20},
                       {UopType::FpMul, 10},
                       {UopType::Branch, 10}});
    auto lim = dispatchLimits(mix, 8.0, 2.0, table31Config());
    EXPECT_DOUBLE_EQ(lim.width, 4.0);
    EXPECT_DOUBLE_EQ(lim.dependences, 4.0);
    EXPECT_DOUBLE_EQ(lim.ports, 2.5);
    EXPECT_DOUBLE_EQ(lim.effective(), 2.5);
    EXPECT_STREQ(lim.binding(), "port");
}

TEST(DispatchModel, Table31SecondMixDividerLimited)
{
    // Thesis Eq 3.12: swapping the FP multiplies for 10 divides on the
    // non-pipelined 5-cycle divider limits Deff to 100/(10*5) = 2.
    auto mix = counts({{UopType::Load, 40},
                       {UopType::Store, 20},
                       {UopType::IntAlu, 20},
                       {UopType::IntDiv, 10},
                       {UopType::Branch, 10}});
    auto lim = dispatchLimits(mix, 8.0, 2.0, table31Config());
    EXPECT_DOUBLE_EQ(lim.fus, 2.0);
    EXPECT_DOUBLE_EQ(lim.effective(), 2.0);
    EXPECT_STREQ(lim.binding(), "fu");
}

TEST(DispatchModel, BalancedMixReachesWidth)
{
    // A mix that spreads over all six ports sustains the full width.
    auto mix = counts({{UopType::IntAlu, 30},
                       {UopType::Move, 20},
                       {UopType::Branch, 10},
                       {UopType::Load, 25},
                       {UopType::Store, 15}});
    auto lim =
        dispatchLimits(mix, 2.0, 1.0, CoreConfig::nehalemReference());
    EXPECT_DOUBLE_EQ(lim.effective(), 4.0);
    EXPECT_STREQ(lim.binding(), "dispatch");
}

TEST(DispatchModel, PureAluMixIsPortLimitedOnThreePorts)
{
    // 100 % ALU-class uops over three ALU-capable ports: 3 uops/cycle.
    auto mix = counts({{UopType::IntAlu, 50},
                       {UopType::Move, 30},
                       {UopType::Branch, 20}});
    auto lim =
        dispatchLimits(mix, 2.0, 1.0, CoreConfig::nehalemReference());
    EXPECT_NEAR(lim.ports, 3.0, 0.01);
    EXPECT_STREQ(lim.binding(), "port");
}

TEST(DispatchModel, DeepChainsLimitViaLittlesLaw)
{
    auto mix = counts({{UopType::IntAlu, 100}});
    // CP 32 at ROB 128, latency 1: 128/32 = 4 ... CP 64 -> 2.
    auto lim =
        dispatchLimits(mix, 64.0, 1.0, CoreConfig::nehalemReference());
    EXPECT_DOUBLE_EQ(lim.dependences, 2.0);
    EXPECT_DOUBLE_EQ(lim.effective(), 2.0);
}

TEST(DispatchModel, PortScheduleBalancesMultiPortTypes)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    auto mix = counts({{UopType::IntAlu, 90}});
    auto activity = schedulePorts(mix, cfg);
    // Three ALU-capable ports: each should get ~30.
    double maxAct = 0;
    for (double a : activity)
        maxAct = std::max(maxAct, a);
    EXPECT_NEAR(maxAct, 30.0, 1.0);
}

TEST(DispatchModel, SinglePortTypesScheduledFirst)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    // Loads are single-port; ALUs can move elsewhere.
    auto mix = counts({{UopType::Load, 40}, {UopType::IntAlu, 60}});
    auto activity = schedulePorts(mix, cfg);
    double maxAct = 0;
    for (double a : activity)
        maxAct = std::max(maxAct, a);
    EXPECT_NEAR(maxAct, 40.0, 1.0); // the load port, not load+alu
}

TEST(DispatchModel, PortFillTerminatesBelowTheRoundingStep)
{
    // Two uop types both issue on both ports. The first fills the ports
    // to 5e16, where the second type's single uop is below the rounding
    // step: level + 1 rounds back to level, so a fill that waits for the
    // capacity to cover the remainder never finishes.
    CoreConfig cfg = CoreConfig::nehalemReference();
    cfg.ports = {{{UopType::IntAlu, UopType::FpAlu}},
                 {{UopType::IntAlu, UopType::FpAlu}}};
    auto mix = counts({{UopType::IntAlu, 1e17}, {UopType::FpAlu, 1}});
    ASSERT_EQ(5e16 + 1, 5e16);
    auto activity = schedulePorts(mix, cfg);
    ASSERT_EQ(activity.size(), 2u);
    EXPECT_EQ(activity[0], 5e16);
    EXPECT_EQ(activity[1], 5e16);
}

TEST(DispatchModel, PortFillConservesUopsOnEveryLayout)
{
    // Random type counts over eighteen decades (zeros included), against
    // the issue-port layout of every dispatch width from 1 to 16.
    Rng rng(17);
    for (uint32_t width = 1; width <= 16; ++width) {
        CoreConfig cfg = CoreConfig::nehalemReference();
        cfg.setWidth(width);
        const size_t np = cfg.ports.size();
        for (int trial = 0; trial < 200; ++trial) {
            std::array<double, kNumUopTypes> mix{};
            double placed = 0;
            std::vector<double> start(np, 0.0);
            for (int t = 0; t < kNumUopTypes; ++t) {
                if (rng.below(4) == 0)
                    continue;
                mix[t] = std::floor(std::pow(10.0, 18 * rng.uniform()));
                std::vector<size_t> eligible;
                for (size_t p = 0; p < np; ++p)
                    if (cfg.ports[p].canIssue(static_cast<UopType>(t)))
                        eligible.push_back(p);
                if (!eligible.empty())
                    placed += mix[t];
                // Single-port types are placed before any fill starts.
                if (eligible.size() == 1)
                    start[eligible[0]] += mix[t];
            }
            auto activity = schedulePorts(mix, cfg);
            ASSERT_EQ(activity.size(), np);
            double sum = 0;
            for (size_t p = 0; p < np; ++p) {
                EXPECT_GE(activity[p], start[p])
                    << "width " << width << " port " << p;
                sum += activity[p];
            }
            EXPECT_NEAR(sum, placed, 1e-9 * placed) << "width " << width;
        }
    }
}

TEST(BranchModel, MissRateClampedToUnitInterval)
{
    BranchMissModel m{BranchPredictorKind::GShare, 2.0, -0.5};
    EXPECT_DOUBLE_EQ(m.missRate(0.0), 0.0);
    EXPECT_DOUBLE_EQ(m.missRate(1.0), 1.0);
    EXPECT_NEAR(m.missRate(0.3), 0.1, 1e-12);
}

TEST(BranchModel, TrainerRecoversLinearRelation)
{
    EntropyFitTrainer tr;
    for (double e = 0; e <= 1.0; e += 0.05)
        tr.add(e, 0.6 * e + 0.02);
    auto m = tr.fit(BranchPredictorKind::GShare);
    EXPECT_NEAR(m.slope, 0.6, 1e-9);
    EXPECT_NEAR(m.intercept, 0.02, 1e-9);
    EXPECT_NEAR(tr.r2(), 1.0, 1e-9);
}

TEST(BranchModel, PretrainedFitsExistForAllKinds)
{
    for (int k = 0; k < static_cast<int>(BranchPredictorKind::NumKinds);
         ++k) {
        auto m = BranchMissModel::pretrained(
            static_cast<BranchPredictorKind>(k));
        // Piecewise fits may be flat below the knee (slope == 0), but
        // must never decrease and must rise above the knee.
        EXPECT_GE(m.slope, 0.0);
        EXPECT_GT(m.slope + m.kneeSlope, 0.0);
        EXPECT_GT(m.missRate(1.0), 0.3);
        EXPECT_LT(m.missRate(0.05), 0.15);
    }
}

TEST(BranchModel, ResolutionTimeGrowsWithChainDepth)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    DependenceChains shallow({64, 128});
    DependenceChains deep({64, 128});
    for (size_t i = 0; i < 2; ++i) {
        shallow.addSample(i, 2.0, 2.0, true, 4.0);
        deep.addSample(i, 8.0, 12.0, true, 20.0);
    }
    double fast = branchResolutionTime(shallow, cfg, 1.0, 500);
    double slow = branchResolutionTime(deep, cfg, 1.0, 500);
    EXPECT_GT(slow, fast);
    EXPECT_GE(fast, 1.0);
}

TEST(MlpModel, MshrCapBounds)
{
    EXPECT_DOUBLE_EQ(mshrCappedMlp(5.0, 5.0, 10), 5.0);  // under cap
    EXPECT_LE(mshrCappedMlp(40.0, 40.0, 10), 10.0);      // hard cap
    EXPECT_GE(mshrCappedMlp(0.5, 1.0, 10), 1.0);         // floor
    // 15 misses, 10 MSHRs: two batches -> 7.5 effective.
    EXPECT_NEAR(mshrCappedMlp(15.0, 15.0, 10), 7.5, 1e-9);
}

TEST(MlpModel, BusEquationMatchesThesis)
{
    // Thesis Eq 4.5: cbus(MLP') = (MLP'+1)/2 * transfer.
    EXPECT_DOUBLE_EQ(busCycles(1.0, 8), 8.0);
    EXPECT_DOUBLE_EQ(busCycles(3.0, 8), 16.0);
    // Eq 4.6: stores rescale MLP'.
    EXPECT_DOUBLE_EQ(busMlp(2.0, 100, 50), 3.0);
    EXPECT_DOUBLE_EQ(busMlp(2.0, 0, 50), 2.0);
}

TEST(MlpModel, StreamingWorkloadHasHighMlp)
{
    Trace t = generateWorkload(suiteWorkload("stream_add"), 200000);
    Profile p = profileTrace(t, {});
    CoreConfig cfg = CoreConfig::nehalemReference();
    StatStack ss(p.reuseAll);
    auto est = strideMlp(p, cfg, ss);
    EXPECT_GT(est.mlp, 3.0);
}

TEST(MlpModel, PointerChaseHasLowMlp)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 200000);
    Profile p = profileTrace(t, {});
    CoreConfig cfg = CoreConfig::nehalemReference();
    StatStack ss(p.reuseAll);
    auto est = strideMlp(p, cfg, ss);
    EXPECT_LT(est.mlp, 3.0);
    EXPECT_GE(est.mlp, 1.0);
}

TEST(MlpModel, ColdMissModelProducesSaneRange)
{
    for (const char *name : {"stream_add", "ptr_chase", "rand_gather"}) {
        Trace t = generateWorkload(suiteWorkload(name), 200000);
        Profile p = profileTrace(t, {});
        CoreConfig cfg = CoreConfig::nehalemReference();
        StatStack ss(p.reuseAll);
        auto est = coldMissMlp(p, cfg, ss);
        EXPECT_GE(est.mlp, 1.0) << name;
        EXPECT_LE(est.mlp, cfg.mshrs) << name;
    }
}

TEST(MlpModel, MshrOptionReducesMlp)
{
    Trace t = generateWorkload(suiteWorkload("rand_gather"), 200000);
    Profile p = profileTrace(t, {});
    CoreConfig cfg = CoreConfig::nehalemReference();
    cfg.mshrs = 2;
    StatStack ss(p.reuseAll);
    MlpOptions capped, uncapped;
    uncapped.modelMshrs = false;
    double withCap = strideMlp(p, cfg, ss, capped).mlp;
    double without = strideMlp(p, cfg, ss, uncapped).mlp;
    EXPECT_LE(withCap, 2.0 + 1e-9);
    EXPECT_GT(without, withCap);
}

// --- Interval model end-to-end properties --------------------------------

class IntervalModelTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        trace_ = new Trace(
            generateWorkload(suiteWorkload("balanced_mix"), 200000));
        profile_ = new Profile(profileTrace(*trace_, {}));
    }

    static void
    TearDownTestSuite()
    {
        delete trace_;
        delete profile_;
        trace_ = nullptr;
        profile_ = nullptr;
    }

    static Trace *trace_;
    static Profile *profile_;
};

Trace *IntervalModelTest::trace_ = nullptr;
Profile *IntervalModelTest::profile_ = nullptr;

TEST_F(IntervalModelTest, StackSumsToCycles)
{
    auto res = evaluateModel(*profile_, CoreConfig::nehalemReference());
    EXPECT_NEAR(res.stack.total(), res.cycles, res.cycles * 1e-6);
    EXPECT_GT(res.cycles, 0.0);
}

TEST_F(IntervalModelTest, BiggerLlcNeverSlower)
{
    CoreConfig small = CoreConfig::nehalemReference();
    small.l3.sizeBytes = 2 * 1024 * 1024;
    CoreConfig big = CoreConfig::nehalemReference();
    big.l3.sizeBytes = 32 * 1024 * 1024;
    auto s = evaluateModel(*profile_, small);
    auto b = evaluateModel(*profile_, big);
    EXPECT_LE(b.cycles, s.cycles * 1.001);
}

TEST_F(IntervalModelTest, WiderCoreNeverSlower)
{
    CoreConfig narrow = CoreConfig::nehalemReference();
    narrow.setWidth(2);
    CoreConfig wide = CoreConfig::nehalemReference();
    wide.setWidth(6);
    auto n = evaluateModel(*profile_, narrow);
    auto w = evaluateModel(*profile_, wide);
    EXPECT_LE(w.cycles, n.cycles * 1.001);
}

TEST_F(IntervalModelTest, BaseLevelRefinementsGrowBaseComponent)
{
    // Each refinement (uops -> +deps -> +ports/FUs) adds a constraint,
    // so the *base* component must not shrink (Fig 3.7 mechanics). The
    // total can move either way because slack-based corrections to the
    // branch and DRAM penalties depend on the effective dispatch rate.
    ModelOptions o;
    using L = ModelOptions::BaseLevel;
    o.baseLevel = L::MicroOps;
    double uops =
        evaluateModel(*profile_, CoreConfig::nehalemReference(), o)
            .stack.base;
    o.baseLevel = L::CriticalPath;
    double crit =
        evaluateModel(*profile_, CoreConfig::nehalemReference(), o)
            .stack.base;
    o.baseLevel = L::Functional;
    double full =
        evaluateModel(*profile_, CoreConfig::nehalemReference(), o)
            .stack.base;
    EXPECT_LE(uops, crit * 1.0001);
    EXPECT_LE(crit, full * 1.0001);
}

TEST_F(IntervalModelTest, NoMlpModelingInflatesDramComponent)
{
    ModelOptions with, without;
    without.mlpMode = ModelOptions::MlpMode::None;
    auto a =
        evaluateModel(*profile_, CoreConfig::nehalemReference(), with);
    auto b =
        evaluateModel(*profile_, CoreConfig::nehalemReference(), without);
    EXPECT_GT(b.stack.dram, a.stack.dram);
}

TEST_F(IntervalModelTest, PerWindowAndGlobalAgreeRoughly)
{
    ModelOptions pw, gl;
    gl.perWindow = false;
    auto a = evaluateModel(*profile_, CoreConfig::nehalemReference(), pw);
    auto b = evaluateModel(*profile_, CoreConfig::nehalemReference(), gl);
    EXPECT_NEAR(a.cycles, b.cycles, 0.35 * std::max(a.cycles, b.cycles));
}

TEST_F(IntervalModelTest, WindowCpiSeriesMatchesWindows)
{
    auto res = evaluateModel(*profile_, CoreConfig::nehalemReference());
    EXPECT_EQ(res.windowCpi.size(), profile_->windows.size());
    for (double cpi : res.windowCpi)
        EXPECT_GT(cpi, 0.0);
}

TEST_F(IntervalModelTest, ActivityScalesWithTrace)
{
    auto res = evaluateModel(*profile_, CoreConfig::nehalemReference());
    EXPECT_NEAR(static_cast<double>(res.activity.uops),
                static_cast<double>(trace_->size()), 1.0);
    EXPECT_GT(res.activity.rfReads, res.activity.uops / 2);
    EXPECT_GT(res.activity.l1dAccesses, 0u);
    EXPECT_GE(res.activity.l2Accesses, res.activity.l3Accesses);
}

TEST_F(IntervalModelTest, HigherEntropyFitRaisesBranchComponent)
{
    ModelOptions low, high;
    low.branchModel = BranchMissModel{BranchPredictorKind::GShare,
                                      0.1, 0.0};
    high.branchModel = BranchMissModel{BranchPredictorKind::GShare,
                                       0.9, 0.05};
    auto a = evaluateModel(*profile_, CoreConfig::nehalemReference(), low);
    auto b =
        evaluateModel(*profile_, CoreConfig::nehalemReference(), high);
    EXPECT_GT(b.stack.branch, a.stack.branch);
}

/** Property sweep: the model stays finite and positive across the
 *  design space for several workloads. */
class ModelDesignSpaceProperty
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ModelDesignSpaceProperty, FiniteAcrossDesignSpace)
{
    Trace t = generateWorkload(suiteWorkload(GetParam()), 100000);
    Profile p = profileTrace(t, {});
    DesignSpace space = DesignSpace::small();
    for (const auto &cfg : space.configs()) {
        auto res = evaluateModel(p, cfg);
        ASSERT_TRUE(std::isfinite(res.cycles)) << cfg.name;
        ASSERT_GT(res.cycles, 0.0) << cfg.name;
        ASSERT_GE(res.mlp, 1.0) << cfg.name;
        ASSERT_LE(res.branchMissRate, 1.0) << cfg.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ModelDesignSpaceProperty,
                         ::testing::Values("stream_add", "ptr_chase",
                                           "dense_compute", "mix_mid"));

} // namespace
} // namespace mipp
