/**
 * @file
 * Tests for the obs metrics layer: histogram binning goldens, quantile
 * and merge math, concurrent hammering (the TSan leg runs this suite),
 * registry find-or-create semantics, and the JSON / Prometheus
 * exposition round-trip.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "util/json.hh"

namespace mipp {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HistogramSnapshot;
using obs::LatencyHistogram;
using obs::Registry;

TEST(Metrics, BinIndexGoldens)
{
    // Exact range [0, kSubBins).
    EXPECT_EQ(HistogramSnapshot::binIndex(0), 0u);
    EXPECT_EQ(HistogramSnapshot::binIndex(1), 1u);
    EXPECT_EQ(HistogramSnapshot::binIndex(3), 3u);
    // First octave: [4, 8) in sub-bins of width 1.
    EXPECT_EQ(HistogramSnapshot::binIndex(4), 4u);
    EXPECT_EQ(HistogramSnapshot::binIndex(5), 5u);
    EXPECT_EQ(HistogramSnapshot::binIndex(7), 7u);
    // Second octave: [8, 16) in sub-bins of width 2.
    EXPECT_EQ(HistogramSnapshot::binIndex(8), 8u);
    EXPECT_EQ(HistogramSnapshot::binIndex(9), 8u);
    EXPECT_EQ(HistogramSnapshot::binIndex(10), 9u);
    EXPECT_EQ(HistogramSnapshot::binIndex(15), 11u);
    EXPECT_EQ(HistogramSnapshot::binIndex(16), 12u);
    // The top of the range still maps inside the bin array.
    EXPECT_LT(HistogramSnapshot::binIndex(UINT64_MAX),
              HistogramSnapshot::kBins);
}

TEST(Metrics, BinBoundsRoundTrip)
{
    // Every bin's lower bound maps back to that bin, and bounds tile
    // the axis without gaps.
    for (size_t b = 0; b < HistogramSnapshot::kBins; ++b) {
        uint64_t lo = HistogramSnapshot::binLower(b);
        EXPECT_EQ(HistogramSnapshot::binIndex(lo), b) << "bin " << b;
        if (b + 1 < HistogramSnapshot::kBins)
            EXPECT_EQ(HistogramSnapshot::binUpper(b),
                      HistogramSnapshot::binLower(b + 1));
    }
    EXPECT_EQ(HistogramSnapshot::binUpper(HistogramSnapshot::kBins - 1),
              UINT64_MAX);
}

TEST(Metrics, CounterAndGauge)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    Gauge g;
    g.set(7);
    g.add(-10);
    EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, HistogramCountSumMax)
{
    LatencyHistogram h;
    h.record(10);
    h.record(100);
    h.record(1000);
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 1110u);
    EXPECT_EQ(s.max, 1000u);
    EXPECT_DOUBLE_EQ(s.mean(), 370.0);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Metrics, QuantileGoldens)
{
    LatencyHistogram h;
    // Uniform 1..1000: quantiles are known up to the 25% relative bin
    // width plus within-bin interpolation.
    for (uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.quantile(0.0), 1.0);
    EXPECT_NEAR(s.quantile(0.5), 500.0, 500.0 * 0.13);
    EXPECT_NEAR(s.quantile(0.9), 900.0, 900.0 * 0.13);
    EXPECT_NEAR(s.quantile(0.99), 990.0, 990.0 * 0.13);
    // p100 clamps to the observed maximum, not the bin upper bound.
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);

    // Degenerate single-value histogram: interpolation stays inside
    // the bin and is clipped at the observed max.
    LatencyHistogram one;
    one.record(77);
    double q50 = one.snapshot().quantile(0.5);
    EXPECT_GE(q50, HistogramSnapshot::binLower(
                       HistogramSnapshot::binIndex(77)));
    EXPECT_LE(q50, 77.0);

    // Empty histogram.
    EXPECT_DOUBLE_EQ(LatencyHistogram().snapshot().quantile(0.5), 0.0);
}

TEST(Metrics, SnapshotMerge)
{
    LatencyHistogram a, b;
    for (uint64_t v = 1; v <= 500; ++v)
        a.record(v);
    for (uint64_t v = 501; v <= 1000; ++v)
        b.record(v);
    HistogramSnapshot sa = a.snapshot();
    sa.merge(b.snapshot());
    EXPECT_EQ(sa.count, 1000u);
    EXPECT_EQ(sa.sum, 1000u * 1001u / 2);
    EXPECT_EQ(sa.max, 1000u);
    EXPECT_NEAR(sa.quantile(0.5), 500.0, 500.0 * 0.13);

    // Merge must equal recording everything into one histogram.
    LatencyHistogram all;
    for (uint64_t v = 1; v <= 1000; ++v)
        all.record(v);
    HistogramSnapshot sall = all.snapshot();
    EXPECT_EQ(sa.bins, sall.bins);
}

TEST(Metrics, ConcurrentHammering)
{
    // The TSan CI leg runs this: N threads race on one counter, one
    // gauge and one histogram; totals must come out exact.
    Counter c;
    Gauge g;
    LatencyHistogram h;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                c.add();
                g.add(1);
                h.record((i % 1000) + static_cast<uint64_t>(t));
            }
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(g.value(),
              static_cast<int64_t>(kThreads * kPerThread));
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, kThreads * kPerThread);
    uint64_t binned = 0;
    for (uint64_t b : s.bins)
        binned += b;
    EXPECT_EQ(binned, s.count);
}

TEST(Metrics, RegistryFindOrCreate)
{
    Registry reg;
    Counter &a = reg.counter("x_total");
    Counter &b = reg.counter("x_total");
    EXPECT_EQ(&a, &b); // same handle, not a second metric
    Counter &c = reg.counter("x_total", "op=\"sweep\"");
    EXPECT_NE(&a, &c); // labels distinguish
    a.add(3);
    EXPECT_EQ(reg.counter("x_total").value(), 3u);

    // Re-registering a name as a different kind is a programming error.
    EXPECT_THROW(reg.gauge("x_total"), std::logic_error);
    EXPECT_THROW(reg.histogram("x_total"), std::logic_error);
}

TEST(Metrics, RegistryJsonRoundTrip)
{
    Registry reg;
    reg.counter("req_total").add(5);
    reg.gauge("depth").set(-2);
    LatencyHistogram &h = reg.histogram("lat_ns", "op=\"eval\"");
    for (uint64_t v = 1; v <= 100; ++v)
        h.record(v);

    // The render must survive the repo's own strict parser.
    json::Value doc;
    Status st = json::parse(reg.renderJsonArray(), doc);
    ASSERT_TRUE(st.isOk()) << st.toString();

    bool sawCounter = false, sawGauge = false, sawHist = false;
    for (const json::Value &m : doc.array()) {
        const std::string name = m.stringOr("name", "");
        if (name == "req_total") {
            sawCounter = true;
            EXPECT_EQ(m.stringOr("type", ""), "counter");
            EXPECT_DOUBLE_EQ(m.numberOr("value", -1), 5.0);
        } else if (name == "depth") {
            sawGauge = true;
            EXPECT_EQ(m.stringOr("type", ""), "gauge");
            EXPECT_DOUBLE_EQ(m.numberOr("value", 1), -2.0);
        } else if (name == "lat_ns") {
            sawHist = true;
            EXPECT_EQ(m.stringOr("type", ""), "histogram");
            EXPECT_EQ(m.stringOr("labels", ""), "op=\"eval\"");
            EXPECT_DOUBLE_EQ(m.numberOr("count", -1), 100.0);
            EXPECT_DOUBLE_EQ(m.numberOr("sum", -1), 5050.0);
            EXPECT_DOUBLE_EQ(m.numberOr("max", -1), 100.0);
            EXPECT_GT(m.numberOr("p99", 0), m.numberOr("p50", 1e18));
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawHist);
}

TEST(Metrics, RegistryPrometheusExposition)
{
    Registry reg;
    reg.counter("req_total").add(7);
    reg.counter("req_total", "op=\"a\"").add(2);
    reg.gauge("depth").set(3);
    LatencyHistogram &h = reg.histogram("lat_ns");
    h.record(5);
    h.record(5);
    h.record(1000);

    std::string text = reg.renderPrometheus();
    // One TYPE line per family even with multiple labeled children.
    EXPECT_EQ(text.find("# TYPE req_total counter"),
              text.rfind("# TYPE req_total counter"));
    EXPECT_NE(text.find("req_total 7"), std::string::npos);
    EXPECT_NE(text.find("req_total{op=\"a\"} 2"), std::string::npos);
    EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
    EXPECT_NE(text.find("depth 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
    // Cumulative buckets: the +Inf bucket equals the total count, and
    // the bucket holding value 5 already counts both 5s.
    EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("lat_ns_sum 1010"), std::string::npos);
    EXPECT_NE(text.find("lat_ns_count 3"), std::string::npos);
    size_t b5 = text.find("lat_ns_bucket{le=\"6\"} 2");
    EXPECT_NE(b5, std::string::npos) << text;
    // Buckets appear before sum/count (Prometheus convention).
    EXPECT_LT(b5, text.find("lat_ns_sum"));
}

} // namespace
} // namespace mipp
