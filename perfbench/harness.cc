#include "harness.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "model/eval_cache.hh"
#include "profiler/profiler.hh"
#include "uarch/core_config.hh"
#include "workloads/workload.hh"

namespace perfbench {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

} // namespace

double
processCpuSeconds()
{
    return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed ^ salt;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
nameSalt(const char *name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char *p = name; *p; ++p)
        h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
    return h;
}

bool
Checks::corruptNext()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (inject_ == 0)
        return false;
    --inject_;
    return true;
}

void
Checks::record(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    // A handful of failure reasons is enough to diagnose; the counts
    // carry the rest.
    if (reported_++ < 5)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

uint64_t
Checks::attempted() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return attempted_;
}

uint64_t
Checks::failed() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return failed_;
}

void
Metrics::set(const std::string &name, double value, const char *unit)
{
    items_.push_back({name, {value, unit}});
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t rank = static_cast<size_t>(std::ceil(q * double(xs.size())));
    return xs[std::clamp<size_t>(rank, 1, xs.size()) - 1];
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
resetPeakRss()
{
    // "5" resets the high-water mark of this process only.
    std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

using mipp::kNumUopTypes;
using TypeCounts = std::array<double, kNumUopTypes>;

/** schedulePorts' water-fill, returning false where it would loop.
 *  A copy that goes with the library fix; see modelMayHang. */
bool
waterFillTerminates(const TypeCounts &typeCounts, const mipp::CoreConfig &cfg)
{
    const size_t np = cfg.ports.size();
    std::vector<double> activity(np, 0.0);
    std::vector<std::vector<size_t>> eligible(kNumUopTypes);
    std::vector<int> order;
    for (int t = 0; t < kNumUopTypes; ++t) {
        for (size_t p = 0; p < np; ++p)
            if (cfg.ports[p].canIssue(static_cast<mipp::UopType>(t)))
                eligible[t].push_back(p);
        if (typeCounts[t] > 0)
            order.push_back(t);
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return eligible[a].size() < eligible[b].size();
    });
    for (int t : order) {
        const auto &ports = eligible[t];
        double remaining = typeCounts[t];
        if (ports.empty())
            continue;
        if (ports.size() == 1) {
            activity[ports[0]] += remaining;
            continue;
        }
        std::vector<size_t> sorted(ports);
        std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
            return activity[a] < activity[b];
        });
        size_t k = 1;
        // Each step either finishes or raises one more port: a fill
        // that is still running after every port was raised is stuck.
        for (size_t step = 0; remaining > 0; ++step) {
            if (step > sorted.size() + 1)
                return false;
            double level = activity[sorted[0]];
            double next = k < sorted.size() ? activity[sorted[k]]
                                            : level + remaining;
            double capacity = (next - level) * k;
            if (capacity >= remaining) {
                for (size_t i = 0; i < k; ++i)
                    activity[sorted[i]] += remaining / k;
                remaining = 0;
            } else {
                for (size_t i = 0; i < k; ++i)
                    activity[sorted[i]] = next;
                remaining -= capacity;
                if (k < sorted.size())
                    ++k;
            }
        }
    }
    return true;
}

} // namespace

bool
modelMayHang(const mipp::Profile &p)
{
    mipp::EvalContext ctx(p);
    const auto &ws = ctx.windowStatics();
    for (uint32_t width = 1; width <= 16; ++width) {
        mipp::CoreConfig cfg = mipp::CoreConfig::nehalemReference();
        cfg.setWidth(width);
        if (!waterFillTerminates(ws.globalCounts, cfg))
            return true;
        for (const mipp::WindowProfile &w : p.windows) {
            TypeCounts counts{};
            for (int t = 0; t < kNumUopTypes; ++t)
                counts[t] = w.uopCounts[t];
            if (!waterFillTerminates(counts, cfg))
                return true;
        }
    }
    return false;
}

Generated
generateScreened(const char *name, uint64_t seed, size_t uops)
{
    mipp::WorkloadSpec spec = mipp::suiteWorkload(name);
    Generated g;
    for (uint64_t attempt = 0;; ++attempt) {
        spec.seed = mixSeed(mixSeed(seed, nameSalt(name)), attempt);
        auto t0 = Clock::now();
        g.trace = mipp::generateWorkload(spec, uops);
        auto t1 = Clock::now();
        g.profile = mipp::profileTrace(g.trace, {.name = name});
        g.genSeconds += std::chrono::duration<double>(t1 - t0).count();
        g.profileSeconds += since(t1);
        g.uops += g.trace.size();
        if (!modelMayHang(g.profile))
            return g;
    }
}

std::vector<Phase>
phasesFor(const Args &args)
{
    if (!args.trace)
        return {{false, args.seconds}};
    return {{false, args.seconds * (1 - kTracedShare)},
            {true, args.seconds * kTracedShare}};
}

std::map<std::string, SpanAgg>
foldSpans(const std::vector<mipp::obs::SpanEvent> &spans)
{
    std::vector<const mipp::obs::SpanEvent *> order;
    order.reserve(spans.size());
    for (const auto &e : spans)
        order.push_back(&e);
    // Per thread, outer spans before the spans they enclose.
    std::sort(order.begin(), order.end(), [](auto *a, auto *b) {
        if (a->tid != b->tid)
            return a->tid < b->tid;
        if (a->startNs != b->startNs)
            return a->startNs < b->startNs;
        return a->durNs > b->durNs;
    });

    std::vector<double> childNs(order.size(), 0);
    std::vector<long> parent(order.size(), -1);
    std::vector<size_t> stack;
    for (size_t i = 0; i < order.size(); ++i) {
        const auto *e = order[i];
        if (i > 0 && order[i - 1]->tid != e->tid)
            stack.clear();
        uint64_t end = e->startNs + e->durNs;
        while (!stack.empty()) {
            const auto *top = order[stack.back()];
            if (top->startNs + top->durNs >= end && top->startNs <= e->startNs)
                break;
            stack.pop_back();
        }
        if (!stack.empty()) {
            parent[i] = static_cast<long>(stack.back());
            childNs[stack.back()] += static_cast<double>(e->durNs);
        }
        stack.push_back(i);
    }

    std::map<std::string, SpanAgg> out;
    for (size_t i = 0; i < order.size(); ++i) {
        const auto *e = order[i];
        double dur = static_cast<double>(e->durNs);
        double self = std::max(0.0, dur - childNs[i]);
        std::string keys[2] = {e->name, ""};
        if (parent[i] >= 0)
            keys[1] = std::string(order[parent[i]]->name) + ">" + e->name;
        for (const std::string &k : keys) {
            if (k.empty())
                continue;
            SpanAgg &a = out[k];
            a.count++;
            a.totalNs += dur;
            a.selfNs += self;
        }
    }
    return out;
}

TraceSession::TraceSession(size_t capacity) : rec_(capacity)
{
    rec_.install();
}

TraceSession::~TraceSession()
{
    if (live_)
        mipp::obs::SpanRecorder::uninstall();
}

std::map<std::string, SpanAgg>
TraceSession::finish()
{
    mipp::obs::SpanRecorder::uninstall();
    live_ = false;
    return foldSpans(rec_.snapshot());
}

size_t
ringCapacity(double expectedSpans)
{
    double want = std::clamp(2 * expectedSpans, double(1 << 16),
                             double(1 << 22));
    return static_cast<size_t>(want);
}

double
overheadPct(double untracedRate, double tracedRate)
{
    return tracedRate > 0 ? 100.0 * (untracedRate / tracedRate - 1) : 0;
}

} // namespace perfbench
