#include "obs/metrics.hh"

#include <algorithm>
#include <stdexcept>

#include "util/json.hh"

namespace mipp::obs {

namespace {

std::string
unum(uint64_t v)
{
    return std::to_string(v);
}

} // namespace

// ---- HistogramSnapshot ----------------------------------------------

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(count);
    uint64_t cum = 0;
    for (size_t b = 0; b < kBins; ++b) {
        if (bins[b] == 0)
            continue;
        double inBin = static_cast<double>(bins[b]);
        if (static_cast<double>(cum) + inBin >= target) {
            double frac = (target - static_cast<double>(cum)) / inBin;
            double lo = static_cast<double>(binLower(b));
            // The top bin of the observed range is clipped at max: the
            // p99 of a histogram whose largest value is 7 must not read
            // as "somewhere below 8".
            double hi = std::min(static_cast<double>(binUpper(b)),
                                 static_cast<double>(max) + 1);
            hi = std::max(hi, lo + 1);
            return std::min(lo + frac * (hi - lo),
                            static_cast<double>(max));
        }
        cum += bins[b];
    }
    return static_cast<double>(max);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    for (size_t b = 0; b < kBins; ++b)
        bins[b] += other.bins[b];
}

// ---- LatencyHistogram -----------------------------------------------

HistogramSnapshot
LatencyHistogram::snapshot() const
{
    HistogramSnapshot s;
    // Bin-by-bin relaxed loads; recompute count from the bins so the
    // snapshot is internally consistent (count == sum of bins) even if
    // recordings land mid-snapshot. sum/max are advisory aggregates.
    uint64_t total = 0;
    for (size_t b = 0; b < HistogramSnapshot::kBins; ++b) {
        s.bins[b] = bins_[b].load(std::memory_order_relaxed);
        total += s.bins[b];
    }
    s.count = total;
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
}

// ---- Registry -------------------------------------------------------

Registry::Entry &
Registry::findOrCreate(std::string_view name, std::string_view labels,
                       Kind kind)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (Entry &e : entries_)
        if (e.name == name && e.labels == labels) {
            if (e.kind != kind)
                throw std::logic_error(
                    "obs: metric '" + std::string(name) +
                    "' re-registered with a different kind");
            return e;
        }
    Entry e;
    e.name = std::string(name);
    e.labels = std::string(labels);
    e.kind = kind;
    switch (kind) {
    case Kind::Counter:
        e.counter = std::make_unique<Counter>();
        break;
    case Kind::Gauge:
        e.gauge = std::make_unique<Gauge>();
        break;
    case Kind::Histogram:
        e.histogram = std::make_unique<LatencyHistogram>();
        break;
    }
    entries_.push_back(std::move(e));
    return entries_.back();
}

Counter &
Registry::counter(std::string_view name, std::string_view labels)
{
    return *findOrCreate(name, labels, Kind::Counter).counter;
}

Gauge &
Registry::gauge(std::string_view name, std::string_view labels)
{
    return *findOrCreate(name, labels, Kind::Gauge).gauge;
}

LatencyHistogram &
Registry::histogram(std::string_view name, std::string_view labels)
{
    return *findOrCreate(name, labels, Kind::Histogram).histogram;
}

std::string
Registry::renderJsonArray() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "[";
    bool first = true;
    for (const Entry &e : entries_) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":" + json::quote(e.name);
        // Labels are pre-rendered Prometheus bodies (key="value").
        if (!e.labels.empty())
            out += ",\"labels\":" + json::quote(e.labels);
        switch (e.kind) {
        case Kind::Counter:
            out += ",\"type\":\"counter\",\"value\":" +
                   unum(e.counter->value());
            break;
        case Kind::Gauge:
            out += ",\"type\":\"gauge\",\"value\":" +
                   std::to_string(e.gauge->value());
            break;
        case Kind::Histogram: {
            HistogramSnapshot s = e.histogram->snapshot();
            out += ",\"type\":\"histogram\",\"count\":" + unum(s.count) +
                   ",\"sum\":" + unum(s.sum) + ",\"max\":" + unum(s.max) +
                   ",\"mean\":" + json::number(s.mean()) +
                   ",\"p50\":" + json::number(s.quantile(0.50)) +
                   ",\"p90\":" + json::number(s.quantile(0.90)) +
                   ",\"p99\":" + json::number(s.quantile(0.99));
            break;
        }
        }
        out += '}';
    }
    out += ']';
    return out;
}

std::string
Registry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    std::string lastTyped; // one TYPE line per metric family
    auto typeLine = [&](const std::string &name, const char *type) {
        if (name != lastTyped) {
            out += "# TYPE " + name + " " + type + "\n";
            lastTyped = name;
        }
    };
    auto labeled = [](const std::string &name, const std::string &labels,
                      const std::string &extra = {}) {
        std::string s = name;
        if (!labels.empty() || !extra.empty()) {
            s += '{';
            s += labels;
            if (!labels.empty() && !extra.empty())
                s += ',';
            s += extra;
            s += '}';
        }
        return s;
    };
    for (const Entry &e : entries_) {
        switch (e.kind) {
        case Kind::Counter:
            typeLine(e.name, "counter");
            out += labeled(e.name, e.labels) + " " +
                   unum(e.counter->value()) + "\n";
            break;
        case Kind::Gauge:
            typeLine(e.name, "gauge");
            out += labeled(e.name, e.labels) + " " +
                   std::to_string(e.gauge->value()) + "\n";
            break;
        case Kind::Histogram: {
            typeLine(e.name, "histogram");
            HistogramSnapshot s = e.histogram->snapshot();
            uint64_t cum = 0;
            for (size_t b = 0; b < HistogramSnapshot::kBins; ++b) {
                if (s.bins[b] == 0)
                    continue;
                cum += s.bins[b];
                out += labeled(e.name + "_bucket", e.labels,
                               "le=\"" +
                                   unum(HistogramSnapshot::binUpper(b)) +
                                   "\"") +
                       " " + unum(cum) + "\n";
            }
            out += labeled(e.name + "_bucket", e.labels,
                           "le=\"+Inf\"") +
                   " " + unum(s.count) + "\n";
            out += labeled(e.name + "_sum", e.labels) + " " +
                   unum(s.sum) + "\n";
            out += labeled(e.name + "_count", e.labels) + " " +
                   unum(s.count) + "\n";
            break;
        }
        }
    }
    return out;
}

Registry &
globalRegistry()
{
    static Registry r;
    return r;
}

} // namespace mipp::obs
