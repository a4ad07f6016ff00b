/**
 * @file
 * The micro-architecture independent profiler (thesis Ch. 3-5).
 *
 * One pass over a uop trace produces a Profile: instruction mix, dependence
 * chains for a set of ROB sizes, linear branch entropy, reuse-distance
 * distributions, cold-miss burstiness and per-static-load stride / spacing /
 * dependence distributions. Core statistics are collected on sampled
 * micro-traces (thesis §5.1); memory reuse, strides and branch history are
 * tracked continuously so that long-range reuse is observed, mirroring
 * StatStack's whole-run burst sampling (§5.4).
 */

#ifndef MIPP_PROFILER_PROFILER_HH
#define MIPP_PROFILER_PROFILER_HH

#include <string>

#include "profiler/profile.hh"
#include "trace/trace.hh"

namespace mipp {

/** Global-history length for linear branch entropy (bits); every
 *  profile records it as Profile::branch.historyBits. */
inline constexpr uint32_t kHistoryBits = 8;
/** History bits for the cheap per-window entropy estimate. */
inline constexpr uint32_t kWindowHistoryBits = 4;

/** Profiling knobs. */
struct ProfilerConfig {
    std::string name = "workload";
    /** Micro-trace / window geometry; default 1000-uop micro-traces every
     *  20k uops (the thesis rate, scaled to this framework's trace sizes). */
    SamplingConfig sampling{1000, 20000};
    /** ROB sizes for which dependence chains are profiled (thesis §5.2). */
    std::vector<uint32_t> robSizes = defaultRobSizes();
};

/*
 * One driver runs every entry point below over a TraceSource. It pulls
 * window-aligned segments (a short span in mid-stream is accumulated to
 * the full segment) and either feeds them straight to the sequential
 * head or, with threads > 1, profiles batches of up to `threads`
 * segments concurrently on the shared thread pool and absorbs each
 * batch in stream order. Only a parallel batch over a source whose
 * spans die on the next next() call (spansOutliveNext() false, e.g. an
 * `.mtf` decode buffer) copies its segments; a Trace is profiled
 * zero-copy on every path. Each call is one `profiler.pass` span, and
 * every result is bit-identical to profileTrace on the same stream:
 * all cross-segment state (reuse last-touch maps, branch global
 * history, per-op stride runs, order-sensitive float accumulations) is
 * carried explicitly across segment boundaries. Unsampled configs form
 * one whole-stream micro-trace and are always one sequential feed.
 */

/** Profile @p trace. Deterministic; no micro-architecture inputs. */
Profile profileTrace(const Trace &trace, const ProfilerConfig &cfg = {});

/** Knobs for the segment-parallel profiling drivers. */
struct ParallelProfileOptions {
    /** Worker count; 0 = the shared pool's full concurrency. */
    unsigned threads = 0;
    /**
     * Segment length in uops (rounded up to whole sampling windows);
     * 0 derives it — an even split across threads when the stream
     * length is known, 64 windows per segment otherwise.
     */
    size_t segmentUops = 0;
};

class TraceSource;

/**
 * Profile a uop stream without materializing it, sequentially: a
 * source whose spans die on the next read streams in 16-window chunks
 * (O(chunk) resident uops).
 */
Profile profileSource(TraceSource &source, const ProfilerConfig &cfg = {});

/** Segment-parallel profileSource (over a MaterializedTraceSource for
 *  an in-memory Trace); peak memory O(threads * segment) uops for a
 *  source whose spans are copied. */
Profile profileSourceParallel(TraceSource &source,
                              const ProfilerConfig &cfg = {},
                              const ParallelProfileOptions &opts = {});

/**
 * Profile a batch of workloads, parallel across traces on the shared
 * thread pool. @p cfgs must hold either one config (broadcast to every
 * trace) or exactly one per trace; empty means all-default configs.
 * Equivalent to calling profileTrace per trace, in order.
 */
std::vector<Profile> profileTraces(const std::vector<Trace> &traces,
                                   const std::vector<ProfilerConfig> &cfgs = {});

} // namespace mipp

#endif // MIPP_PROFILER_PROFILER_HH
