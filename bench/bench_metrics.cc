/**
 * @file
 * Overhead guard for the observability layer. The promise in
 * src/obs/metrics.hh is "instruments cost nanoseconds": a disabled span
 * is one relaxed atomic load, counter/histogram mutation a handful of
 * relaxed RMWs. These benchmarks pin that down so a regression (say, an
 * accidental lock or clock read on the disabled path) shows up as a
 * latency cliff in the bench trajectory, not as a mystery serve
 * slowdown. BM_SpanDisabled is the one that must stay ~free: it is the
 * cost every instrumented hot path pays in production.
 */

#include <benchmark/benchmark.h>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace {

using namespace mipp;

void
BM_SpanDisabled(benchmark::State &state)
{
    // No recorder installed, no histogram: the production fast path.
    for (auto _ : state) {
        MIPP_SPAN("bench.disabled");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SpanDisabled);

void
BM_SpanWithHistogram(benchmark::State &state)
{
    // Untraced but feeding a latency histogram (the serve per-op path):
    // adds two clock reads plus the record.
    obs::LatencyHistogram h;
    for (auto _ : state) {
        MIPP_SPAN("bench.hist", &h);
        benchmark::ClobberMemory();
    }
    state.counters["recorded"] = static_cast<double>(h.count());
}
BENCHMARK(BM_SpanWithHistogram);

void
BM_SpanRecorded(benchmark::State &state)
{
    // Fully traced: ring-buffer write under a short mutex hold.
    obs::SpanRecorder rec;
    rec.install();
    for (auto _ : state) {
        MIPP_SPAN("bench.recorded");
        benchmark::ClobberMemory();
    }
    obs::SpanRecorder::uninstall();
}
BENCHMARK(BM_SpanRecorded);

void
BM_CounterAdd(benchmark::State &state)
{
    obs::Counter c;
    for (auto _ : state)
        c.add();
    benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void
BM_HistogramRecord(benchmark::State &state)
{
    obs::LatencyHistogram h;
    uint64_t v = 1;
    for (auto _ : state) {
        h.record(v);
        v = (v * 2862933555777941757ull + 3037000493ull) >> 32; // lcg
    }
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void
BM_MetricsOverhead(benchmark::State &state)
{
    // The composite guard: what one serve request pays with no sink
    // installed — op span + histogram, queue-wait record, four counter
    // bumps. Compare against the per-request latency of the pipeline
    // benchmark's serve workload (serve.client_p50_ms, perfbench/).
    obs::Registry reg;
    obs::Counter &a = reg.counter("bench_a_total");
    obs::Counter &b = reg.counter("bench_b_total");
    obs::Counter &c = reg.counter("bench_c_total");
    obs::Counter &d = reg.counter("bench_d_total");
    obs::LatencyHistogram &lat =
        reg.histogram("bench_lat_ns", "op=\"x\"");
    obs::LatencyHistogram &wait = reg.histogram("bench_wait_ns");
    for (auto _ : state) {
        MIPP_SPAN("bench.op", &lat);
        wait.record(42);
        a.add();
        b.add();
        c.add();
        d.add();
    }
    state.counters["ops"] = static_cast<double>(lat.count());
}
BENCHMARK(BM_MetricsOverhead);

void
BM_RegistryRenderPrometheus(benchmark::State &state)
{
    // Exposition cost scales with registry size; a serve-shaped
    // registry (a dozen counters, ten histograms) must render in
    // microseconds so scraping never perturbs the daemon.
    obs::Registry reg;
    for (int i = 0; i < 12; ++i)
        reg.counter("bench_counter_" + std::to_string(i)).add(i);
    for (int i = 0; i < 10; ++i) {
        obs::LatencyHistogram &h =
            reg.histogram("bench_hist_" + std::to_string(i));
        for (uint64_t v = 1; v < 2000; v *= 3)
            h.record(v);
    }
    for (auto _ : state) {
        std::string text = reg.renderPrometheus();
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_RegistryRenderPrometheus);

} // namespace

BENCHMARK_MAIN();
