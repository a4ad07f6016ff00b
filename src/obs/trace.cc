#include "obs/trace.hh"

#include <chrono>
#include <ostream>

#include "util/json.hh"

namespace mipp::obs {

namespace detail {
std::atomic<SpanRecorder *> recorder{nullptr};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point
traceEpoch()
{
    static const Clock::time_point epoch = Clock::now();
    return epoch;
}

// Force epoch initialization at static-init time so the first traced
// span does not pay for it (and so ts 0 means "process start").
const Clock::time_point kEpochInit = traceEpoch();

thread_local uint64_t tTraceId = 0;

uint32_t
threadTid()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - traceEpoch())
            .count());
}

uint64_t
newTraceId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
currentTraceId()
{
    return tTraceId;
}

TraceIdScope::TraceIdScope(uint64_t id) : prev_(tTraceId)
{
    tTraceId = id;
}

TraceIdScope::~TraceIdScope() { tTraceId = prev_; }

// ---- SpanRecorder ---------------------------------------------------

SpanRecorder::SpanRecorder(size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    ring_.resize(capacity_);
}

SpanRecorder::~SpanRecorder()
{
    SpanRecorder *self = this;
    detail::recorder.compare_exchange_strong(self, nullptr,
                                             std::memory_order_acq_rel);
}

void
SpanRecorder::record(const char *name, uint64_t traceId,
                     uint64_t startNs, uint64_t durNs)
{
    SpanEvent ev{name, traceId, startNs, durNs, threadTid()};
    std::lock_guard<std::mutex> lk(mu_);
    ring_[total_ % capacity_] = ev;
    ++total_;
}

std::vector<SpanEvent>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SpanEvent> out;
    size_t n = total_ < capacity_ ? static_cast<size_t>(total_)
                                  : capacity_;
    out.reserve(n);
    size_t start = total_ < capacity_
                       ? 0
                       : static_cast<size_t>(total_ % capacity_);
    for (size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

uint64_t
SpanRecorder::dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return total_ > capacity_ ? total_ - capacity_ : 0;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    std::vector<SpanEvent> events = snapshot();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const SpanEvent &ev : events) {
        if (!ev.name)
            continue;
        os << (first ? "" : ",") << "{\"name\":" << json::quote(ev.name)
           << ",\"cat\":\"mipp\",\"ph\":\"X\",\"ts\":"
           << json::number(ev.startNs / 1e3)
           << ",\"dur\":" << json::number(ev.durNs / 1e3)
           << ",\"pid\":1,\"tid\":" << ev.tid
           << ",\"args\":{\"trace_id\":" << ev.traceId << "}}";
        first = false;
    }
    os << "]}";
}

void
SpanRecorder::install()
{
    detail::recorder.store(this, std::memory_order_release);
}

void
SpanRecorder::uninstall()
{
    detail::recorder.store(nullptr, std::memory_order_release);
}

SpanRecorder *
SpanRecorder::current()
{
    return detail::recorder.load(std::memory_order_acquire);
}

void
recordSpan(const char *name, uint64_t traceId, uint64_t startNs,
           uint64_t durNs)
{
    SpanRecorder *rec =
        detail::recorder.load(std::memory_order_acquire);
    if (rec)
        rec->record(name, traceId, startNs, durNs);
}

} // namespace mipp::obs
