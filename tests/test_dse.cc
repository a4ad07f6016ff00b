/**
 * @file
 * Tests for Pareto machinery, the empirical baseline and the sweep
 * driver.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dse/empirical.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "profiler/profiler.hh"
#include "trace/rng.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

TEST(Pareto, DominatesSemantics)
{
    EXPECT_TRUE(dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(dominates({1, 2}, {1, 3}));
    EXPECT_FALSE(dominates({1, 1}, {1, 1}));
    EXPECT_FALSE(dominates({1, 3}, {2, 2}));
}

TEST(Pareto, FrontOfStaircase)
{
    std::vector<Objective> pts = {
        {1, 5}, {2, 4}, {3, 3}, {2.5, 4.5}, {4, 4}, {5, 1}};
    auto front = paretoFront(pts);
    std::vector<size_t> expected = {0, 1, 2, 5};
    EXPECT_EQ(front, expected);
}

TEST(Pareto, SinglePointIsItsOwnFront)
{
    std::vector<Objective> pts = {{3, 3}};
    EXPECT_EQ(paretoFront(pts).size(), 1u);
}

TEST(Pareto, HypervolumeOfOnePointIsRectangle)
{
    std::vector<Objective> pts = {{1, 1}};
    std::vector<size_t> front = {0};
    EXPECT_DOUBLE_EQ(hypervolume(pts, front, {3, 4}), 2.0 * 3.0);
}

TEST(Pareto, HypervolumeAdditiveForStaircase)
{
    std::vector<Objective> pts = {{1, 3}, {2, 1}};
    std::vector<size_t> front = {0, 1};
    // Ref (4,4): rect1 = (4-1)*(4-3)=3, rect2 = (4-2)*(3-1)=4.
    EXPECT_DOUBLE_EQ(hypervolume(pts, front, {4, 4}), 7.0);
}

TEST(Pareto, PerfectPredictionScoresOnes)
{
    std::vector<Objective> obj = {
        {1, 5}, {2, 3}, {4, 1}, {3, 4}, {5, 5}};
    auto m = compareFronts(obj, obj);
    EXPECT_DOUBLE_EQ(m.sensitivity, 1.0);
    EXPECT_DOUBLE_EQ(m.specificity, 1.0);
    EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
    EXPECT_NEAR(m.hvr, 1.0, 1e-9);
}

TEST(Pareto, InvertedPredictionScoresLow)
{
    std::vector<Objective> trueObj = {{1, 5}, {2, 3}, {4, 1}, {5, 5}};
    // Prediction declares only the truly-dominated point optimal.
    std::vector<Objective> predObj = {{5, 5}, {6, 6}, {7, 7}, {1, 1}};
    auto m = compareFronts(trueObj, predObj);
    EXPECT_LT(m.sensitivity, 0.5);
    EXPECT_LT(m.hvr, 0.9);
}

TEST(Pareto, BiasedButConsistentPredictionStillPerfect)
{
    // The model's key property (thesis): a constant relative bias does
    // not disturb Pareto identification.
    std::vector<Objective> trueObj = {
        {1, 5}, {2, 3}, {4, 1}, {3, 4}, {5, 5}};
    std::vector<Objective> predObj;
    for (auto [d, p] : trueObj)
        predObj.push_back({d * 1.3, p * 0.9});
    auto m = compareFronts(trueObj, predObj);
    EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
    EXPECT_NEAR(m.hvr, 1.0, 1e-9);
}

TEST(Pareto, AccumulatorMatchesPostHocFrontOnRandomSets)
{
    // The streaming sweep's contract: inserting a stream of points one
    // at a time must leave exactly paretoFront() of the whole set.
    // Coarse-grid coordinates force plenty of single-axis ties.
    uint64_t s = 0x9e3779b97f4a7c15ull;
    auto rnd = [&s] {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((s >> 33) & 63) / 8.0;
    };
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<Objective> pts;
        for (int i = 0; i < 300; ++i)
            pts.push_back({rnd(), rnd()});
        // Exact duplicates (all survive together or not at all) and a
        // one-axis tie that is strictly worse on the other axis.
        pts.push_back(pts[0]);
        pts.push_back(pts[7]);
        pts.push_back({pts[3].first, pts[3].second + 0.125});

        ParetoAccumulator acc;
        for (size_t i = 0; i < pts.size(); ++i)
            acc.insert(pts[i], i);
        EXPECT_EQ(acc.indices(), paretoFront(pts));

        // Survivors carry their original coordinates.
        for (const ParetoAccumulator::Entry &e : acc.entries())
            EXPECT_EQ(e.obj, pts[e.idx]);
    }
}

TEST(Pareto, AccumulatorDuplicateAndTieSemantics)
{
    // Exact-duplicate objectives all stay on the front; a point tied in
    // one objective and worse in the other is dominated — the same tie
    // treatment as paretoFront().
    std::vector<Objective> pts = {
        {1, 5}, {1, 5},   // duplicates: both survive
        {1, 6},           // delay tie, worse power: dominated
        {2, 5},           // power tie, worse delay: dominated
        {3, 2}, {3, 2},   // second duplicate pair
        {4, 2},           // power tie behind {3,2}: dominated
        {5, 1},
    };
    ParetoAccumulator acc;
    for (size_t i = 0; i < pts.size(); ++i)
        acc.insert(pts[i], i);
    std::vector<size_t> expect = {0, 1, 4, 5, 7};
    EXPECT_EQ(acc.indices(), expect);
    EXPECT_EQ(acc.indices(), paretoFront(pts));

    // A late arrival dominating existing survivors evicts all of them.
    acc.insert({0.5, 0.5}, 99);
    EXPECT_EQ(acc.size(), 1u);
    EXPECT_EQ(acc.entries()[0].idx, 99u);
}

TEST(Pareto, AccumulatorMergeEqualsSingleStream)
{
    // Per-shard accumulators merged afterwards must equal one
    // accumulator fed the full stream — the sweep's shard-merge step.
    uint64_t s = 0xdeadbeefcafef00dull;
    auto rnd = [&s] {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((s >> 33) & 127) / 16.0;
    };
    std::vector<Objective> pts;
    for (int i = 0; i < 500; ++i)
        pts.push_back({rnd(), rnd()});

    ParetoAccumulator whole;
    ParetoAccumulator shards[3];
    for (size_t i = 0; i < pts.size(); ++i) {
        whole.insert(pts[i], i);
        shards[i % 3].insert(pts[i], i);
    }
    ParetoAccumulator merged;
    for (const ParetoAccumulator &sh : shards)
        merged.merge(sh);
    EXPECT_EQ(merged.indices(), whole.indices());
    EXPECT_EQ(merged.indices(), paretoFront(pts));
}

TEST(Ridge, RecoversLogLinearFunction)
{
    RidgeRegression r(1e-8);
    Rng rng(21);
    for (int i = 0; i < 200; ++i) {
        double x1 = rng.uniform() * 4;
        double x2 = rng.uniform() * 2;
        double y = std::exp(0.5 + 0.3 * x1 - 0.7 * x2);
        r.addSample({1.0, x1, x2}, y);
    }
    ASSERT_TRUE(r.train());
    double pred = r.predict({1.0, 2.0, 1.0});
    double expect = std::exp(0.5 + 0.6 - 0.7);
    EXPECT_NEAR(pred, expect, expect * 0.01);
}

TEST(Ridge, RejectsNonPositiveTargets)
{
    RidgeRegression r;
    EXPECT_THROW(r.addSample({1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(r.addSample({1.0}, -3.0), std::invalid_argument);
}

TEST(Ridge, UntrainedPredictsFallback)
{
    RidgeRegression r;
    EXPECT_DOUBLE_EQ(r.predict({1.0, 2.0}), 1.0);
}

TEST(Empirical, FeaturesDependOnConfigAndWorkload)
{
    Trace t = generateWorkload(suiteWorkload("stream_add"), 50000);
    Profile p = profileTrace(t, {});
    auto a = empiricalFeatures(CoreConfig::nehalemReference(), p);
    CoreConfig other = CoreConfig::nehalemReference();
    other.setWidth(2);
    other.robSize = 64;
    auto b = empiricalFeatures(other, p);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_NE(a[1], b[1]); // width feature
    EXPECT_NE(a[2], b[2]); // rob feature
}

TEST(Empirical, InterpolatesWithinTrainingSpace)
{
    // Train CPI = f(width) on synthetic targets and check interpolation.
    Trace t = generateWorkload(suiteWorkload("mix_mid"), 50000);
    Profile p = profileTrace(t, {});
    EmpiricalModel m;
    for (uint32_t w : {2u, 4u, 6u}) {
        CoreConfig cfg = CoreConfig::nehalemReference();
        cfg.setWidth(w);
        double cpi = 4.0 / w; // synthetic ground truth
        m.addSample(cfg, p, cpi, 10.0 + w);
    }
    ASSERT_TRUE(m.train());
    CoreConfig mid = CoreConfig::nehalemReference();
    mid.setWidth(4);
    EXPECT_NEAR(m.predictCpi(mid, p), 1.0, 0.25);
    EXPECT_NEAR(m.predictPower(mid, p), 14.0, 2.0);
}

TEST(Explorer, PairEvalProducesConsistentRecord)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 60000);
    Profile p = profileTrace(t, {});
    auto e = evaluatePair(t, p, CoreConfig::nehalemReference());
    EXPECT_GT(e.simCpi(), 0.0);
    EXPECT_GT(e.modelCpi(), 0.0);
    EXPECT_GT(e.simPower.total(), 0.0);
    EXPECT_GT(e.modelPower.total(), 0.0);
    EXPECT_LT(std::abs(e.cpiError()), 0.8);
    EXPECT_LT(std::abs(e.powerError()), 0.5);
}

TEST(Explorer, SweepCoversAllPairs)
{
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
    for (const char *name : {"loopy_small", "int_crunch"}) {
        traces.push_back(generateWorkload(suiteWorkload(name), 40000));
        ProfilerConfig pc;
        pc.name = name;
        profiles.push_back(profileTrace(traces.back(), pc));
    }
    std::vector<CoreConfig> configs;
    for (uint32_t w : {2u, 4u}) {
        CoreConfig c = CoreConfig::nehalemReference();
        c.setWidth(w);
        configs.push_back(c);
    }
    SweepResult r = sweepEx(traces, profiles, configs);
    ASSERT_TRUE(r.status.isOk());
    ASSERT_EQ(r.points.size(), 4u);
    std::set<std::pair<size_t, size_t>> seen;
    for (const auto &pt : r.points) {
        seen.insert({pt.configIdx, pt.workloadIdx});
        EXPECT_GT(pt.simCpi, 0.0);
        EXPECT_GT(pt.modelCpi, 0.0);
        EXPECT_GT(pt.simWatts, 0.0);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Explorer, EmptyInputsAreStructuredErrorsNotEmptyResults)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 20000);
    Profile p = profileTrace(t, {});
    std::vector<CoreConfig> cfgs{CoreConfig::nehalemReference()};

    SweepOptions model;
    model.mode = SweepMode::ModelOnly;

    SweepResult r = sweepEx({}, {}, cfgs, {}, model);
    EXPECT_EQ(r.status.code(), StatusCode::InvalidArgument);
    EXPECT_TRUE(r.points.empty());

    r = sweepEx({t}, {p}, {}, {}, model);
    EXPECT_EQ(r.status.code(), StatusCode::InvalidArgument);

    // Paired mode must see one trace per profile.
    r = sweepEx({}, {p}, cfgs, {}, {});
    EXPECT_EQ(r.status.code(), StatusCode::InvalidArgument);

    // An empty design space is rejected in the simulating modes too.
    r = sweepEx({t}, {p}, {}, {}, {});
    EXPECT_EQ(r.status.code(), StatusCode::InvalidArgument);

    r = sweepGenerated({p}, 0, [](size_t, CoreConfig &) {});
    EXPECT_EQ(r.status.code(), StatusCode::InvalidArgument);
    r = sweepGenerated({}, 4, [](size_t, CoreConfig &) {});
    EXPECT_EQ(r.status.code(), StatusCode::InvalidArgument);
}

TEST(Explorer, CancelledSweepDegradesWithPartialFront)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 20000);
    Profile p = profileTrace(t, {});
    std::vector<CoreConfig> cfgs;
    for (uint32_t w : {2u, 4u, 6u}) {
        CoreConfig c = CoreConfig::nehalemReference();
        c.setWidth(w);
        c.name = "w" + std::to_string(w);
        cfgs.push_back(c);
    }

    // A pre-cancelled token: the sweep must come back degraded with
    // nothing evaluated — and an empty front, never zero-CPI points.
    SweepOptions sopts;
    sopts.mode = SweepMode::ModelOnly;
    sopts.cancel = CancelToken::manual();
    sopts.cancel.cancel();
    SweepResult r = sweepEx({t}, {p}, cfgs, {}, sopts);
    ASSERT_TRUE(r.status.isOk());
    EXPECT_TRUE(r.degraded);
    for (const auto &pt : r.points)
        EXPECT_FALSE(pt.evaluated);
    ASSERT_EQ(r.modelFronts.size(), 1u);
    EXPECT_TRUE(r.modelFronts[0].empty());

    // Streaming mode likewise.
    sopts.mode = SweepMode::ModelOnlyPareto;
    r = sweepEx({t}, {p}, cfgs, {}, sopts);
    ASSERT_TRUE(r.status.isOk());
    EXPECT_TRUE(r.degraded);

    // An uncancelled token leaves the sweep complete and undegraded.
    sopts.mode = SweepMode::ModelOnly;
    sopts.cancel = CancelToken::manual();
    r = sweepEx({t}, {p}, cfgs, {}, sopts);
    EXPECT_FALSE(r.degraded);
    for (const auto &pt : r.points)
        EXPECT_TRUE(pt.evaluated);
    EXPECT_FALSE(r.modelFronts[0].empty());
}

TEST(Explorer, DeadlineMidPairedSweepKeepsFinishedPoints)
{
    Trace t = generateWorkload(suiteWorkload("loopy_small"), 30000);
    Profile p = profileTrace(t, {});
    std::vector<CoreConfig> cfgs;
    for (uint32_t w : {2u, 4u}) {
        CoreConfig c = CoreConfig::nehalemReference();
        c.setWidth(w);
        cfgs.push_back(c);
    }

    // ModelThenSimPareto with an already-expired deadline: the model
    // pass is skipped AND the sim budget no longer fits — the sweep
    // falls back to a degraded result without spending simulations.
    SweepOptions sopts;
    sopts.mode = SweepMode::ModelThenSimPareto;
    sopts.cancel = CancelToken::withDeadlineMs(0);
    SweepResult r = sweepEx({t}, {p}, cfgs, {}, sopts);
    ASSERT_TRUE(r.status.isOk());
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.simInvocations, 0u);
}

} // namespace
} // namespace mipp
