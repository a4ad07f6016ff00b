/**
 * @file
 * Shared plumbing of the pipeline benchmark: arguments, output checks,
 * the metric set printed in the result line, setup timing, the
 * untraced/traced phase split and span folding.
 *
 * Every workload follows the same shape:
 *
 *  1. set up its inputs from the seed several times: one cold set-up,
 *     untimed, then timed ones (see timedSetup). setup_s is the median
 *     CPU time of the timed set-ups, so it is a warm set-up (heap grown,
 *     pages faulted in, code warm), and one slow set-up does not move it;
 *  2. run one untimed warm-up round, whose outputs are checked and
 *     whose deterministic results (fronts, model error) are reported;
 *  3. run whole rounds until the phase's time is spent. With tracing
 *     off that is one phase; with tracing on an untraced phase comes
 *     first and a traced phase follows, so the traced run measures its
 *     own overhead against the same inputs.
 *
 * Layers are measured from outside: the benchmark wraps calls into the
 * library's public functions in its own spans ("bench.*") and folds
 * them together with the spans the library already emits.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "profiler/profile.hh"
#include "trace/trace.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/**
 * CPU seconds used so far by the whole process (every thread, user and
 * system) and by the calling thread. With paravirtual steal accounting
 * the kernel leaves out the time the hypervisor ran something else on
 * the vCPU, and a thread asleep uses none, so work per CPU-second does
 * not follow steal or wake-up latency the way work per second does.
 */
double processCpuSeconds();
double threadCpuSeconds();

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Corrupt the first N checked outputs before they are checked;
     *  the benchmark's own tests use it to prove checks catch them. */
    unsigned injectBad = 0;
};

/** splitmix64 of seed ^ salt: independent per-input seeds. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** FNV-1a of a string, for salting seeds by input name. */
uint64_t nameSalt(const char *name);

/**
 * Tally of checked operations. Every operation whose output is checked
 * counts as attempted; a failed check counts as failed. Thread-safe.
 */
class Checks
{
  public:
    explicit Checks(unsigned inject) : inject_(inject) {}

    /** True for the first --inject-bad outputs: the caller corrupts
     *  the output it is about to check. */
    bool corruptNext();

    /** Count one checked operation; @p what names a failure. */
    void record(bool ok, const std::string &what);

    uint64_t attempted() const;
    uint64_t failed() const;

  private:
    mutable std::mutex mu_;
    unsigned inject_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    unsigned reported_ = 0;
};

/** Named metrics with units, printed in insertion order. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit);
    const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

double median(std::vector<double> xs);
/** Nearest-rank percentile, q in [0, 1]. */
double percentile(std::vector<double> xs, double q);

/** Peak resident set size (VmHWM) in MB since the last reset. */
double peakRssMb();

/** Restart the peak-RSS high-water mark; without permission to, the
 *  peak stays the process peak. */
void resetPeakRss();

/**
 * Work rates and peak memory of a phase, measured per slice (a round, or
 * a second of serving) and reported as medians over the slices, so a
 * short stall of the host, or one round's unlucky allocation pattern,
 * moves one slice and not the result. A slice has two rates: work per
 * second of host time, and work per CPU-second (see processCpuSeconds).
 * add() ends a slice: it records the slice's peak RSS and restarts the
 * high-water mark for the next.
 */
class SliceRates
{
  public:
    void
    add(double work, double seconds, double cpuSeconds)
    {
        if (seconds > 0)
            rates_.push_back(work / seconds);
        if (cpuSeconds > 0)
            cpuRates_.push_back(work / cpuSeconds);
        peaks_.push_back(peakRssMb());
        resetPeakRss();
        seconds_ += seconds;
    }
    double median() const { return perfbench::median(rates_); }
    double cpuMedian() const { return perfbench::median(cpuRates_); }
    double peakRssMedian() const { return perfbench::median(peaks_); }
    double seconds() const { return seconds_; }
    size_t slices() const { return rates_.size(); }

  private:
    std::vector<double> rates_, cpuRates_, peaks_;
    double seconds_ = 0;
};

/**
 * Whether evaluating the model on @p p can hang. The port water-fill of
 * the dispatch model (schedulePorts, src/model/dispatch_model.cc) never
 * exits when the uops left to place drop below the rounding step of the
 * port level (level + remaining == level). This replica of it, with an
 * iteration guard, flags the profiles that drive it there for any issue-
 * port layout; the layouts depend only on the dispatch width.
 *
 * The screen is temporary: it exists only until schedulePorts gets a
 * guarded final step. The change that fixes the loop deletes
 * modelMayHang, its replica of the water-fill and the re-seed loop of
 * generateScreened, and measures the benchmark's baseline again.
 */
bool modelMayHang(const mipp::Profile &p);

/** A generated suite trace and its profile. */
struct Generated {
    mipp::Trace trace;
    mipp::Profile profile;
    double genSeconds = 0, profileSeconds = 0;
    uint64_t uops = 0; ///< generated and profiled, every attempt
};

/**
 * Generate suite workload @p name with WorkloadSpec::seed derived from
 * @p seed, and profile it. A seed whose profile modelMayHang() is
 * replaced by the next derived one (about one trace in a thousand), so
 * the inputs stay a pure function of the seed and every model
 * evaluation terminates.
 */
Generated generateScreened(const char *name, uint64_t seed, size_t uops);

/** Timed set-ups per run, after the untimed cold one: at least
 *  kSetupReps, more while they have taken under kSetupSeconds of CPU
 *  time in all, at most kSetupMaxReps. setup_s is their median. */
constexpr size_t kSetupReps = 5;
constexpr size_t kSetupMaxReps = 40;
constexpr double kSetupSeconds = 1.0;

/**
 * Build a workload's inputs once untimed (the cold set-up, which pays
 * for page faults and first-touch code), then repeatedly timed; returns
 * the last one and stores the median timed set-up. Set-up is timed in
 * process CPU seconds (see processCpuSeconds), which leave out the time
 * the hypervisor gives the vCPU to another guest. A set-up of a few
 * milliseconds is repeated more often, so its median is taken over
 * enough samples to hold still. The previous state is destroyed before
 * the next is built, so peak memory holds one state.
 */
template <class State, class Build>
std::unique_ptr<State>
timedSetup(Build &&build, double &medianSeconds)
{
    std::unique_ptr<State> st = build();
    std::vector<double> times;
    double spent = 0;
    while (times.size() < kSetupReps ||
           (spent < kSetupSeconds && times.size() < kSetupMaxReps)) {
        st.reset();
        const double c0 = processCpuSeconds();
        st = build();
        times.push_back(processCpuSeconds() - c0);
        spent += times.back();
    }
    medianSeconds = median(times);
    return st;
}

/** One timed phase of a run. */
struct Phase {
    bool traced = false;
    double seconds = 0;
};

/** Untraced only, or untraced then traced (share kTracedShare). */
std::vector<Phase> phasesFor(const Args &args);
constexpr double kTracedShare = 0.6;

/** Aggregate of one span name (or "parent>name" pair). */
struct SpanAgg {
    uint64_t count = 0;
    double totalNs = 0;
    double selfNs = 0; ///< total minus the time of direct children
};

/**
 * Fold spans into per-name aggregates. Nesting is per thread: a span's
 * parent is the innermost span on the same thread that encloses it.
 * Keys are the span name and "parent>name".
 */
std::map<std::string, SpanAgg>
foldSpans(const std::vector<mipp::obs::SpanEvent> &spans);

/**
 * Installs a SpanRecorder for its lifetime. Spans stay in memory and
 * are folded when the phase ends. A span that started while the
 * recorder was installed reports to it when it ends, so the session
 * must outlive every thread that may still hold an open span.
 */
class TraceSession
{
  public:
    explicit TraceSession(size_t capacity);
    ~TraceSession();
    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Stop recording and fold what was recorded. */
    std::map<std::string, SpanAgg> finish();
    uint64_t dropped() const { return rec_.dropped(); }

  private:
    mipp::obs::SpanRecorder rec_;
    bool live_ = true;
};

/** Span-ring capacity for a traced phase expected to record about
 *  @p expectedSpans spans (with headroom, clamped). */
size_t ringCapacity(double expectedSpans);

/** 100 * (untraced rate / traced rate - 1). */
double overheadPct(double untracedRate, double tracedRate);

/** Entry points, one per workload. Each fills @p m and @p checks. */
void runIngest(const Args &args, Checks &checks, Metrics &m);
void runExplore(const Args &args, Checks &checks, Metrics &m);
void runServe(const Args &args, Checks &checks, Metrics &m);
void runValidate(const Args &args, Checks &checks, Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
