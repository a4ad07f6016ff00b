/**
 * @file
 * Tests for the per-workload evaluation cache and the model-first DSE
 * pipeline.
 *
 * The load-bearing guarantee is *bitwise* parity: every memo table of an
 * EvalContext must return exactly the doubles the plain function it
 * replaces computes, and a warm context must answer exactly as a fresh
 * one, for every point of a design space. Everything downstream (Pareto
 * pruning, error metrics, the recorded benchmark speedups) assumes the
 * cache is a pure performance feature with zero numerical footprint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "model/eval_cache.hh"
#include "power/power_model.hh"
#include "profiler/profiler.hh"
#include "uarch/design_space.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

Profile
makeProfile(const char *name, size_t uops, Trace *traceOut = nullptr)
{
    Trace t = generateWorkload(suiteWorkload(name), uops);
    ProfilerConfig pc;
    pc.name = name;
    Profile p = profileTrace(t, pc);
    if (traceOut)
        *traceOut = std::move(t);
    return p;
}

/** Exact (bitwise modulo NaN) comparison of two model results. */
void
expectIdentical(const ModelResult &a, const ModelResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.deff, b.deff);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.stack.base, b.stack.base);
    EXPECT_EQ(a.stack.branch, b.stack.branch);
    EXPECT_EQ(a.stack.icache, b.stack.icache);
    EXPECT_EQ(a.stack.llcHit, b.stack.llcHit);
    EXPECT_EQ(a.stack.dram, b.stack.dram);
    EXPECT_EQ(a.branchMissRate, b.branchMissRate);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
    EXPECT_EQ(a.branchResolution, b.branchResolution);
    EXPECT_EQ(a.loadMissesL1, b.loadMissesL1);
    EXPECT_EQ(a.loadMissesL2, b.loadMissesL2);
    EXPECT_EQ(a.loadMissesL3, b.loadMissesL3);
    EXPECT_EQ(a.storeMissesL1, b.storeMissesL1);
    EXPECT_EQ(a.storeMissesL2, b.storeMissesL2);
    EXPECT_EQ(a.storeMissesL3, b.storeMissesL3);
    EXPECT_EQ(a.ifetchMissesL1, b.ifetchMissesL1);
    EXPECT_EQ(a.ifetchMissesL2, b.ifetchMissesL2);
    EXPECT_EQ(a.ifetchMissesL3, b.ifetchMissesL3);
    EXPECT_EQ(a.mlp, b.mlp);
    EXPECT_EQ(a.busCyclesPerMiss, b.busCyclesPerMiss);
    EXPECT_EQ(a.llcChainPenalty, b.llcChainPenalty);
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.dramAccesses, b.activity.dramAccesses);
    ASSERT_EQ(a.windowCpi.size(), b.windowCpi.size());
    for (size_t i = 0; i < a.windowCpi.size(); ++i)
        EXPECT_EQ(a.windowCpi[i], b.windowCpi[i]);
}

/** Grid of design points exercising every memo dimension: cache levels,
 *  ROB sizes, widths, predictors and the prefetcher path. */
std::vector<CoreConfig>
parityGrid()
{
    std::vector<CoreConfig> grid;
    for (uint32_t w : {2u, 4u})
        for (uint32_t rob : {64u, 128u})
            for (uint32_t l1dKb : {16u, 64u})
                for (uint32_t l3Mb : {2u, 32u})
                    for (auto pred : {BranchPredictorKind::GShare,
                                      BranchPredictorKind::Tournament}) {
                        CoreConfig c = CoreConfig::nehalemReference();
                        c.setWidth(w);
                        scaleBackEnd(c, rob);
                        c.l1d.sizeBytes = l1dKb * 1024;
                        c.l3.sizeBytes = l3Mb * 1024 * 1024;
                        c.predictor = pred;
                        c.prefetcherEnabled = (w == 4);
                        grid.push_back(c);
                    }
    return grid;
}

TEST(EvalCache, CachedMatchesUncachedBitwise)
{
    Profile p = makeProfile("balanced_mix", 60000);
    EvalContext ctx(p);
    for (const CoreConfig &cfg : parityGrid()) {
        ModelResult cached = evaluateModel(ctx, cfg);
        ModelResult uncached = evaluateModel(p, cfg);
        expectIdentical(cached, uncached);
    }
}

TEST(EvalCache, CachedMatchesUncachedAcrossModelOptions)
{
    Profile p = makeProfile("ptr_chase", 50000);
    ModelOptions variants[4];
    variants[1].perWindow = false;
    variants[2].mlpMode = ModelOptions::MlpMode::ColdMiss;
    variants[3].mlpMode = ModelOptions::MlpMode::None;
    variants[3].modelLlcChaining = false;
    for (const ModelOptions &mo : variants) {
        EvalContext ctx(p);
        for (const CoreConfig &cfg : parityGrid()) {
            ModelResult cached = evaluateModel(ctx, cfg);
            ModelResult uncached = evaluateModel(p, cfg);
            expectIdentical(cached, uncached);
            ModelResult cachedMo = evaluateModel(ctx, cfg, mo);
            ModelResult uncachedMo = evaluateModel(p, cfg, mo);
            expectIdentical(cachedMo, uncachedMo);
        }
    }
}

TEST(EvalCache, RepeatedEvaluationIsDeterministic)
{
    Profile p = makeProfile("matrix_tile", 50000);
    CoreConfig cfg = CoreConfig::nehalemReference();
    EvalContext ctx(p);
    ModelResult first = evaluateModel(ctx, cfg);
    ModelResult second = evaluateModel(ctx, cfg);
    expectIdentical(first, second);
}

TEST(EvalCache, InternedBranchModelMatchesPretrained)
{
    for (int k = 0;
         k < static_cast<int>(BranchPredictorKind::NumKinds); ++k) {
        auto kind = static_cast<BranchPredictorKind>(k);
        const BranchMissModel &interned = internedBranchModel(kind);
        BranchMissModel fresh = BranchMissModel::pretrained(kind);
        EXPECT_EQ(interned.kind, fresh.kind);
        EXPECT_EQ(interned.slope, fresh.slope);
        EXPECT_EQ(interned.intercept, fresh.intercept);
    }
    // Interning hands out one stable instance per kind.
    EXPECT_EQ(&internedBranchModel(BranchPredictorKind::GShare),
              &internedBranchModel(BranchPredictorKind::GShare));
}

// ---------------------------------------------------------------------------
// Memo replays against the plain functions they replace
// ---------------------------------------------------------------------------

/** Exact comparison that also equates identical NaN bit patterns. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool
sameLimits(const DispatchLimits &a, const DispatchLimits &b)
{
    return sameBits(a.width, b.width) &&
           sameBits(a.dependences, b.dependences) &&
           sameBits(a.ports, b.ports) && sameBits(a.fus, b.fus);
}

bool
sameMlp(const MlpEstimate &a, const MlpEstimate &b)
{
    if (!sameBits(a.mlp, b.mlp) || !sameBits(a.dramMisses, b.dramMisses) ||
        !sameBits(a.latWeighted, b.latWeighted) ||
        a.windows.size() != b.windows.size())
        return false;
    for (size_t i = 0; i < a.windows.size(); ++i)
        if (!sameBits(a.windows[i].dramMisses, b.windows[i].dramMisses) ||
            !sameBits(a.windows[i].latWeighted,
                      b.windows[i].latWeighted) ||
            !sameBits(a.windows[i].mlp, b.windows[i].mlp))
            return false;
    return true;
}

/** The fitted and the plain thesis coefficients: their different
 *  truncated windows and injection fractions reach different memo keys. */
std::vector<ModelOptions>
bothCalibrations()
{
    std::vector<ModelOptions> v(2);
    v[1].cal = ModelCalibration::uncalibrated();
    return v;
}

/** Mirror of the model's mispredict-interval window truncation. */
uint32_t
truncatedWindow(double frac, double uopsPerMiss, uint32_t rob)
{
    if (frac <= 0 || uopsPerMiss <= 0)
        return rob;
    double w = frac * uopsPerMiss;
    if (w >= rob)
        return rob;
    return static_cast<uint32_t>(std::max(w, 16.0));
}

/** The per-point inputs the model feeds its memoized components. */
struct PointInputs {
    double mrL1 = 0, avgLat = 0, uopsPerMiss = 0;
    uint32_t depWindow = 0, mlpWindow = 0;
};

PointInputs
pointInputs(const Profile &p, const StatStack &ss, const CoreConfig &cfg,
            const ModelOptions &mo)
{
    std::array<double, kNumUopTypes> frac{};
    for (int t = 0; t < kNumUopTypes; ++t)
        frac[t] = p.uopFraction(static_cast<UopType>(t));
    const BranchMissModel &bm = internedBranchModel(cfg.predictor);
    PointInputs in;
    in.mrL1 = ss.missRatio(p.reuseLoads, cfg.l1d.numLines());
    in.avgLat = mixAvgLatency(frac, cfg, in.mrL1);
    double misses = bm.missRate(p.branch.entropy()) * p.branch.branches;
    in.uopsPerMiss = misses > 0.5 ? p.totalUops / misses : 0;
    in.depWindow = truncatedWindow(mo.cal.baseWindowFrac, in.uopsPerMiss,
                                   cfg.robSize);
    in.mlpWindow = truncatedWindow(mo.cal.mlpWindowFrac, in.uopsPerMiss,
                                   cfg.robSize);
    return in;
}

struct ReplayFixture {
    Profile p = makeProfile("balanced_mix", 60000);
    StatStack ss{p.reuseAll}, ssI{p.reuseInsts};
    DesignSpace space; // full 243-point thesis grid
};

TEST(EvalCache, MissRatiosReplayStatStack)
{
    ReplayFixture f;
    EvalContext ctx(f.p);
    size_t bad = 0;
    for (const CoreConfig &cfg : f.space.configs()) {
        const EvalContext::Ratios &r = ctx.ratios(cfg);
        const double l1 = cfg.l1d.numLines(), l2 = cfg.l2.numLines(),
                     l3 = cfg.l3.numLines(), li = cfg.l1i.numLines();
        bad += !sameBits(r.l1, f.ss.missRatio(f.p.reuseLoads, l1)) +
               !sameBits(r.l2, f.ss.missRatio(f.p.reuseLoads, l2)) +
               !sameBits(r.l3, f.ss.missRatio(f.p.reuseLoads, l3)) +
               !sameBits(r.s1, f.ss.missRatio(f.p.reuseStores, l1)) +
               !sameBits(r.s2, f.ss.missRatio(f.p.reuseStores, l2)) +
               !sameBits(r.s3, f.ss.missRatio(f.p.reuseStores, l3)) +
               !sameBits(r.i1, f.ssI.missRatio(f.p.reuseInsts, li)) +
               !sameBits(r.i2, f.ssI.missRatio(f.p.reuseInsts, l2)) +
               !sameBits(r.i3, f.ssI.missRatio(f.p.reuseInsts, l3));
    }
    EXPECT_EQ(bad, 0u);
}

TEST(EvalCache, LimitsReplayAblatedLimitsAtEveryBaseLevel)
{
    ReplayFixture f;
    using Level = ModelOptions::BaseLevel;
    for (const ModelOptions &mo : bothCalibrations()) {
        EvalContext ctx(f.p);
        const EvalContext::WindowStatics &ws = ctx.windowStatics();
        size_t bad = 0, checked = 0;
        for (const CoreConfig &cfg : f.space.configs()) {
            PointInputs in = pointInputs(f.p, f.ss, cfg, mo);
            const uint32_t w0 = std::min(in.depWindow, cfg.robSize);
            for (Level level : {Level::Instructions, Level::MicroOps,
                                Level::CriticalPath, Level::Functional}) {
                const EvalContext::LimitsEntry &le =
                    ctx.limits(cfg, level, in.mrL1, in.depWindow);
                double latG = mixAvgLatency(ws.globalFrac, cfg, in.mrL1);
                bad += !sameLimits(
                    le.global,
                    ablatedLimits(ws.globalCounts,
                                  f.p.chains.cp(in.depWindow), latG, cfg,
                                  level, in.depWindow));
                ASSERT_EQ(le.windows.size(), f.p.windows.size());
                for (size_t wi = 0; wi < f.p.windows.size(); ++wi) {
                    const WindowProfile &w = f.p.windows[wi];
                    const double uops = w.uops();
                    DispatchLimits want;
                    if (uops > 0) {
                        std::array<double, kNumUopTypes> counts{}, frac{};
                        for (int t = 0; t < kNumUopTypes; ++t) {
                            counts[t] = w.uopCounts[t];
                            frac[t] = w.uopCounts[t] / uops;
                        }
                        want = ablatedLimits(
                            counts,
                            windowChainLength(w.cp, f.p.robSizes, w0),
                            mixAvgLatency(frac, cfg, in.mrL1), cfg, level,
                            w0);
                    }
                    bad += !sameLimits(le.windows[wi], want);
                    ++checked;
                }
            }
        }
        EXPECT_GT(checked, 0u);
        EXPECT_EQ(bad, 0u);
    }
}

TEST(EvalCache, BranchResolutionReplaysLeakyBucket)
{
    ReplayFixture f;
    for (const ModelOptions &mo : bothCalibrations()) {
        EvalContext ctx(f.p);
        size_t bad = 0;
        for (const CoreConfig &cfg : f.space.configs()) {
            PointInputs in = pointInputs(f.p, f.ss, cfg, mo);
            for (double ni : {in.uopsPerMiss, 7.0, 300.0, 5000.0})
                bad += !sameBits(
                    ctx.branchResolution(cfg, in.avgLat, ni),
                    branchResolutionTime(f.p.chains, cfg, in.avgLat, ni));
        }
        EXPECT_EQ(bad, 0u);
    }
}

TEST(EvalCache, MlpReplaysStrideAndColdMissModels)
{
    ReplayFixture f;
    for (ModelOptions mo : bothCalibrations()) {
        EvalContext ctx(f.p);
        size_t bad = 0;
        for (const CoreConfig &cfg : f.space.configs()) {
            PointInputs in = pointInputs(f.p, f.ss, cfg, mo);
            MlpOptions opt{mo.modelMshrs, mo.modelPrefetcher};
            opt.windowUops = in.mlpWindow;
            opt.coldInject = mo.cal.coldInject;
            mo.mlpMode = ModelOptions::MlpMode::Stride;
            bad += !sameMlp(ctx.mlpEstimate(cfg, mo, in.mlpWindow),
                            strideMlp(f.p, cfg, f.ss, opt));
            mo.mlpMode = ModelOptions::MlpMode::ColdMiss;
            bad += !sameMlp(ctx.mlpEstimate(cfg, mo, in.mlpWindow),
                            coldMissMlp(f.p, cfg, f.ss, opt));
        }
        EXPECT_EQ(bad, 0u);
    }
}

TEST(EvalCache, ChainWeightsReplayPerOpComputation)
{
    ReplayFixture f;
    EvalContext ctx(f.p);
    size_t bad = 0;
    for (const CoreConfig &cfg : f.space.configs()) {
        const double l2 = cfg.l2.numLines(), l3 = cfg.l3.numLines();
        const EvalContext::ChainWeights &cw = ctx.chainWeights(l2, l3);
        std::vector<double> weight(f.p.memOps.size(), 0.0);
        double global = 0, loads = 0;
        for (size_t i = 0; i < f.p.memOps.size(); ++i) {
            const StaticMemProfile &sp = f.p.memOps[i];
            if (sp.isStore)
                continue;
            double hit3 = std::max(0.0, f.ss.missRatio(sp.reuse, l2) -
                                            f.ss.missRatio(sp.reuse, l3));
            weight[i] =
                hit3 * std::clamp(sp.avgLoadDepth() - 1.0, 0.0, 1.0);
            global += weight[i] * sp.count;
            loads += sp.count;
        }
        if (loads > 0)
            global /= loads;
        bad += !sameBits(cw.globalSerialHits, global);
        ASSERT_EQ(cw.opWeight.size(), weight.size());
        for (size_t i = 0; i < weight.size(); ++i)
            bad += !sameBits(cw.opWeight[i], weight[i]);
        ASSERT_EQ(cw.windowSerial.size(), f.p.windows.size());
        for (size_t wi = 0; wi < f.p.windows.size(); ++wi) {
            double serial = 0;
            for (const auto &[op, cnt] : f.p.windows[wi].memCounts)
                serial += weight[op] * cnt;
            bad += !sameBits(cw.windowSerial[wi], serial);
        }
    }
    EXPECT_EQ(bad, 0u);
}

TEST(EvalCache, BranchRatesKeyOnCoefficientValues)
{
    ReplayFixture f;
    EvalContext ctx(f.p);
    const EvalContext::WindowStatics &ws = ctx.windowStatics();
    // Models differing in one coefficient each, built in turn in the
    // same stack slot: a key that missed a coefficient, or keyed on the
    // model's address, would hand one model another's rates.
    for (int field = -1; field < 4; ++field) {
        for (int rep = 0; rep < 2; ++rep) {
            // The knee sits below the profile's entropies, so all four
            // coefficients shape the rates.
            BranchMissModel bm;
            bm.knee = 0.02;
            bm.kneeSlope = 0.2;
            double *coef[] = {&bm.slope, &bm.intercept, &bm.knee,
                              &bm.kneeSlope};
            if (field >= 0)
                *coef[field] += 0.05;
            const EvalContext::BranchRates &r = ctx.branchRates(bm);
            EXPECT_TRUE(sameBits(r.global, bm.missRate(ws.globalEntropy)));
            ASSERT_EQ(r.windowMisses.size(), f.p.windows.size());
            for (size_t wi = 0; wi < f.p.windows.size(); ++wi)
                EXPECT_TRUE(sameBits(r.windowMisses[wi],
                                     bm.missRate(ws.entropyEff[wi]) *
                                         f.p.windows[wi].branches))
                    << "coefficient " << field << " window " << wi;
        }
    }
}

TEST(EvalCache, ColdContextMatchesWarmContextOnThesisGrid)
{
    // The contamination case that matters for a shared engine: a context
    // that has already served other configs, other coefficients, a
    // custom branch model and other base levels must answer exactly as a
    // fresh one does.
    ReplayFixture f;
    const auto &grid = f.space.configs();
    BranchMissModel custom;
    custom.slope = 0.35;
    custom.intercept = 0.01;
    custom.knee = 0.4;
    custom.kneeSlope = 0.2;

    EvalContext warm(f.p);
    const DesignSpace other = DesignSpace::small();
    for (const CoreConfig &cfg : other.configs()) {
        for (int variant = 0; variant < 4; ++variant) {
            ModelOptions mo;
            mo.baseLevel = static_cast<ModelOptions::BaseLevel>(variant);
            mo.cal.coldInject = 0.1 * variant;
            mo.cal.mlpWindowFrac = 0.5 + 0.25 * variant;
            mo.perWindow = variant % 2 == 0;
            BranchMissModel bm = custom;
            bm.slope += 0.05 * (variant + 1);
            mo.branchModel = bm;
            evaluateModel(warm, cfg, mo);
        }
    }

    std::vector<ModelOptions> variants = bothCalibrations();
    ModelOptions withCustom;
    withCustom.branchModel = custom;
    variants.push_back(withCustom);
    ModelOptions critical;
    critical.baseLevel = ModelOptions::BaseLevel::CriticalPath;
    variants.push_back(critical);
    for (const ModelOptions &mo : variants)
        for (const CoreConfig &cfg : grid)
            expectIdentical(evaluateModel(warm, cfg, mo),
                            evaluateModel(f.p, cfg, mo));
}

// ---------------------------------------------------------------------------
// Model-first DSE pipeline
// ---------------------------------------------------------------------------

struct SweepFixture {
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
    std::vector<CoreConfig> configs;

    SweepFixture()
    {
        for (const char *name : {"loopy_small", "int_crunch"}) {
            Trace t;
            profiles.push_back(makeProfile(name, 40000, &t));
            traces.push_back(std::move(t));
        }
        // Include an LLC axis so the space has clearly dominated points
        // (an oversized L3 costs power without helping small workloads)
        // and the model front stays well below the full space.
        for (uint32_t w : {2u, 4u, 6u})
            for (uint32_t rob : {64u, 256u})
                for (uint32_t l3Mb : {2u, 32u}) {
                    CoreConfig c = CoreConfig::nehalemReference();
                    c.setWidth(w);
                    scaleBackEnd(c, rob);
                    c.l3.sizeBytes = l3Mb * 1024 * 1024;
                    configs.push_back(c);
                }
    }
};

TEST(Sweep, ModelOnlyRunsNoSimulation)
{
    SweepFixture f;
    SweepOptions so;
    so.mode = SweepMode::ModelOnly;
    SweepResult r = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    EXPECT_EQ(r.simInvocations, 0u);
    ASSERT_EQ(r.points.size(), f.profiles.size() * f.configs.size());
    for (const SweepPoint &pt : r.points) {
        EXPECT_FALSE(pt.simulated);
        EXPECT_EQ(pt.simCpi, 0.0);
        EXPECT_GT(pt.modelCpi, 0.0);
        EXPECT_GT(pt.modelWatts, 0.0);
    }
    ASSERT_EQ(r.modelFronts.size(), f.profiles.size());
    for (const auto &front : r.modelFronts)
        EXPECT_FALSE(front.empty());
}

TEST(Sweep, WorkloadMajorOrdering)
{
    SweepFixture f;
    SweepOptions so;
    so.mode = SweepMode::ModelOnly;
    SweepResult r = sweepEx(f.traces, f.profiles, f.configs, {}, so);
    for (size_t wi = 0; wi < r.nWorkloads; ++wi)
        for (size_t ci = 0; ci < r.nConfigs; ++ci) {
            EXPECT_EQ(r.at(wi, ci).workloadIdx, wi);
            EXPECT_EQ(r.at(wi, ci).configIdx, ci);
        }
}

TEST(Sweep, PairedSimulatesEverything)
{
    SweepFixture f;
    SweepResult r = sweepEx(f.traces, f.profiles, f.configs, {}, {});
    EXPECT_EQ(r.simInvocations, r.points.size());
    for (const SweepPoint &pt : r.points) {
        EXPECT_TRUE(pt.simulated);
        EXPECT_GT(pt.simCpi, 0.0);
        EXPECT_GT(pt.modelCpi, 0.0);
    }
}

TEST(Sweep, ModelThenSimParetoPrunesSimulationToFrontPlusSample)
{
    SweepFixture f;
    const size_t nw = f.profiles.size();
    const size_t nc = f.configs.size();

    SweepResult paired = sweepEx(f.traces, f.profiles, f.configs, {}, {});

    SweepOptions so;
    so.mode = SweepMode::ModelThenSimPareto;
    so.validationSamples = 1;
    SweepResult pruned = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    // Model outputs are bitwise independent of the sweep mode.
    ASSERT_EQ(pruned.points.size(), paired.points.size());
    for (size_t i = 0; i < pruned.points.size(); ++i) {
        EXPECT_EQ(pruned.points[i].modelCpi, paired.points[i].modelCpi);
        EXPECT_EQ(pruned.points[i].modelWatts,
                  paired.points[i].modelWatts);
    }

    // The pruned mode's model front equals the front recomputed from the
    // Paired run's model objectives: pruning filters the simulation
    // budget, never the candidate set.
    ASSERT_EQ(pruned.modelFronts.size(), nw);
    size_t expectedSims = 0;
    for (size_t wi = 0; wi < nw; ++wi) {
        std::vector<Objective> modelObj;
        for (size_t ci = 0; ci < nc; ++ci)
            modelObj.push_back({paired.at(wi, ci).modelCpi,
                                paired.at(wi, ci).modelWatts});
        auto expectFront = paretoFront(modelObj);
        EXPECT_EQ(pruned.modelFronts[wi], expectFront);

        // Every model-front candidate got the detailed simulation.
        for (size_t ci : pruned.modelFronts[wi]) {
            EXPECT_TRUE(pruned.at(wi, ci).simulated);
            EXPECT_GT(pruned.at(wi, ci).simCpi, 0.0);
            // And its simulated coordinates match the Paired run's.
            EXPECT_EQ(pruned.at(wi, ci).simCpi, paired.at(wi, ci).simCpi);
        }
        expectedSims += expectFront.size() +
                        std::min<size_t>(so.validationSamples,
                                         nc - expectFront.size());
    }

    // The invocation counter proves the pruning: front + sample only.
    EXPECT_EQ(pruned.simInvocations, expectedSims);
    EXPECT_LT(pruned.simInvocations, paired.simInvocations);

    // Off-front, non-sample points carry model predictions only.
    size_t simulatedPoints = 0;
    for (const SweepPoint &pt : pruned.points)
        simulatedPoints += pt.simulated;
    EXPECT_EQ(simulatedPoints, expectedSims);
}

TEST(Sweep, StreamingParetoMatchesModelOnlyWithoutMaterializing)
{
    SweepFixture f;
    const size_t nw = f.profiles.size();

    SweepOptions mo;
    mo.mode = SweepMode::ModelOnly;
    SweepResult ref = sweepEx(f.traces, f.profiles, f.configs, {}, mo);

    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    SweepResult st = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    // O(front): the streaming mode never materializes the point grid.
    EXPECT_TRUE(st.points.empty());
    EXPECT_EQ(st.simInvocations, 0u);
    EXPECT_EQ(st.nWorkloads, nw);
    EXPECT_EQ(st.nConfigs, f.configs.size());

    // The surviving fronts are bitwise identical to ModelOnly's.
    ASSERT_EQ(st.modelFronts.size(), nw);
    ASSERT_EQ(st.frontPoints.size(), nw);
    for (size_t wi = 0; wi < nw; ++wi) {
        EXPECT_EQ(st.modelFronts[wi], ref.modelFronts[wi]);
        ASSERT_EQ(st.frontPoints[wi].size(), st.modelFronts[wi].size());
        for (size_t k = 0; k < st.frontPoints[wi].size(); ++k) {
            const SweepPoint &a = st.frontPoints[wi][k];
            EXPECT_EQ(a.configIdx, st.modelFronts[wi][k]);
            EXPECT_EQ(a.workloadIdx, wi);
            const SweepPoint &b = ref.at(wi, a.configIdx);
            EXPECT_EQ(a.modelCpi, b.modelCpi);
            EXPECT_EQ(a.modelWatts, b.modelWatts);
        }
    }
}

TEST(Sweep, GeneratedSweepMatchesExplicitAndPoolReuseIsStable)
{
    SweepFixture f;
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    SweepResult ref = sweepEx(f.traces, f.profiles, f.configs, {}, so);

    // Generator reproducing the explicit configs; evaluators pooled
    // across calls. Generators receive a reused scratch slot, so the
    // assignment here is the degenerate always-overwrite case.
    ModelEvalPool pool;
    so.evalPool = &pool;
    ConfigGenerator gen = [&f](size_t ci, CoreConfig &out) {
        out = f.configs[ci];
    };
    for (int rep = 0; rep < 2; ++rep) { // rep 1 reuses the warm pool
        SweepResult gn =
            sweepGenerated(f.profiles, f.configs.size(), gen, {}, so);
        EXPECT_TRUE(gn.points.empty());
        ASSERT_EQ(gn.modelFronts.size(), ref.modelFronts.size());
        for (size_t wi = 0; wi < ref.modelFronts.size(); ++wi) {
            EXPECT_EQ(gn.modelFronts[wi], ref.modelFronts[wi]);
            ASSERT_EQ(gn.frontPoints[wi].size(),
                      ref.frontPoints[wi].size());
            for (size_t k = 0; k < gn.frontPoints[wi].size(); ++k) {
                EXPECT_EQ(gn.frontPoints[wi][k].modelCpi,
                          ref.frontPoints[wi][k].modelCpi);
                EXPECT_EQ(gn.frontPoints[wi][k].modelWatts,
                          ref.frontPoints[wi][k].modelWatts);
            }
        }
    }
}

} // namespace
} // namespace mipp
