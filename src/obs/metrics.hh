/**
 * @file
 * Process-internal metrics: lock-free counters, gauges and log-bucketed
 * latency histograms, registered by name (+ optional labels) in a
 * Registry that renders JSON and Prometheus text exposition.
 *
 * The repo's economics make a measurement layer non-optional: model
 * evaluation is ~0.4 µs/point while detailed simulation is ~10^5× that,
 * so "where did this request spend its time" is a question about
 * microseconds, and the instruments must cost nanoseconds. Every
 * mutation here is a relaxed atomic RMW on a pre-resolved handle — no
 * locks, no allocation, no branches on the hot path — so instrumented
 * code can record unconditionally. Registration (name lookup) takes a
 * mutex and is meant to happen once at setup; call sites keep the
 * returned reference, which is stable for the Registry's lifetime.
 *
 * LatencyHistogram reuses the profiler's LogHistogram idiom (power-of-
 * two octaves subdivided into sub-bins, within-bin interpolation for
 * quantiles) but with a fixed bin array of relaxed atomics so concurrent
 * recording needs no coordination. Snapshots are taken bin-by-bin with
 * relaxed loads: each bin is exact, cross-bin skew is bounded by what
 * was recorded during the snapshot — the standard monitoring contract
 * (see the snapshot-consistency note on Registry).
 *
 * A Registry is an instance, not a singleton: the serve daemon owns one
 * per Server so tests and repeated in-process servers start from zero.
 */

#ifndef MIPP_OBS_METRICS_HH
#define MIPP_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mipp::obs {

/** Monotonic counter (use Gauge for values that go down). */
class Counter
{
  public:
    void
    add(uint64_t by = 1)
    {
        v_.fetch_add(by, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Instantaneous signed value (queue depth, resident entries). */
class Gauge
{
  public:
    void
    set(int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(int64_t by)
    {
        v_.fetch_add(by, std::memory_order_relaxed);
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * Consistent read of a histogram: exact per-bin counts plus count/sum/
 * max, with quantile extraction. Also the merge currency — merging
 * snapshots (e.g. per-shard histograms) is just bin-wise addition.
 */
struct HistogramSnapshot {
    static constexpr int kSubBins = 4;
    /** Octaves 2..63, kSubBins each, plus the exact range [0, 4). */
    static constexpr size_t kBins =
        static_cast<size_t>(62) * kSubBins + kSubBins;

    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBins> bins{};

    /** Bin for a value: exact below kSubBins, then kSubBins sub-bins
     *  per power-of-two octave (relative width 1/4 per bin). */
    static size_t
    binIndex(uint64_t v)
    {
        if (v < static_cast<uint64_t>(kSubBins))
            return static_cast<size_t>(v);
        int octave = std::bit_width(v) - 1; // >= 2
        return static_cast<size_t>(octave - 1) * kSubBins +
               static_cast<size_t>((v >> (octave - 2)) & (kSubBins - 1));
    }

    /** Smallest value mapping to bin @p b. */
    static uint64_t
    binLower(size_t b)
    {
        if (b < static_cast<size_t>(kSubBins))
            return b;
        int octave = static_cast<int>(b / kSubBins) + 1;
        uint64_t sub = b % kSubBins;
        return (uint64_t{1} << octave) | (sub << (octave - 2));
    }

    /** Exclusive upper bound of bin @p b (UINT64_MAX for the last). */
    static uint64_t
    binUpper(size_t b)
    {
        return b + 1 < kBins ? binLower(b + 1) : UINT64_MAX;
    }

    /** Quantile q in [0, 1] with uniform within-bin interpolation,
     *  clamped to the observed max. 0 when empty. */
    double quantile(double q) const;

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / count : 0.0;
    }

    void merge(const HistogramSnapshot &other);
};

/**
 * Log-bucketed histogram with relaxed-atomic bins. Values are raw
 * uint64; the convention throughout this repo is nanoseconds (metric
 * names carry a _ns suffix). record() is wait-free: three relaxed RMWs
 * plus a CAS loop on max that almost always exits first try.
 */
class LatencyHistogram
{
  public:
    void
    record(uint64_t v)
    {
        bins_[HistogramSnapshot::binIndex(v)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (v > prev && !max_.compare_exchange_weak(
                               prev, v, std::memory_order_relaxed)) {
        }
    }

    HistogramSnapshot snapshot() const;

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<uint64_t>, HistogramSnapshot::kBins> bins_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

/**
 * Named metric registry.
 *
 * counter()/gauge()/histogram() find-or-create by (name, labels) and
 * return a reference that stays valid for the Registry's lifetime;
 * resolve handles once, record through them forever. `labels` is a
 * pre-rendered Prometheus label body without braces (e.g.
 * `op="sweep"`), empty for none.
 *
 * Snapshot consistency: renders and snapshots are *per-metric exact,
 * cross-metric relaxed*. Every counter/bin read is an atomic load of a
 * monotonic value, but no global lock stops the world, so two related
 * metrics (say requests_total and served_total) may disagree by
 * whatever was in flight during the render. Monotonic metrics never
 * decrease between renders; rate math belongs to the scraper, over
 * its own clock or an uptime the owner reports (serve's `uptime_ms`).
 */
class Registry
{
  public:
    Registry() = default;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(std::string_view name, std::string_view labels = {});
    Gauge &gauge(std::string_view name, std::string_view labels = {});
    LatencyHistogram &histogram(std::string_view name,
                                std::string_view labels = {});

    /** JSON array of metric objects:
     *  {"name":..,"labels":..,"type":"counter","value":N} and for
     *  histograms count/sum/max/mean/p50/p90/p99. */
    std::string renderJsonArray() const;

    /** Prometheus text exposition (TYPE lines, cumulative buckets for
     *  histograms, only non-empty buckets plus +Inf). */
    std::string renderPrometheus() const;

  private:
    enum class Kind : uint8_t { Counter, Gauge, Histogram };

    struct Entry {
        std::string name;
        std::string labels;
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<LatencyHistogram> histogram;
    };

    Entry &findOrCreate(std::string_view name, std::string_view labels,
                        Kind kind);

    mutable std::mutex mu_;
    // Deque-like stability is unnecessary: entries hold the metric via
    // unique_ptr, so vector growth never moves the metric itself.
    std::vector<Entry> entries_;
};

} // namespace mipp::obs

#endif // MIPP_OBS_METRICS_HH
