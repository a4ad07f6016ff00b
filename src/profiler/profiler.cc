#include "profiler/profiler.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/trace.hh"
#include "profiler/segment_profiler.hh"
#include "trace/trace_source.hh"
#include "util/thread_pool.hh"

namespace mipp {

namespace {

/** Requested (or derived) segment span, rounded up to whole windows;
 *  unsampled profiling is one whole-stream segment. */
size_t
segmentSpan(const TraceSource &src, const SamplingConfig &sampling,
            unsigned threads, size_t requested)
{
    if (!sampling.sampled())
        return SIZE_MAX;
    const uint64_t win = std::max<size_t>(1, sampling.windowSize);
    const uint64_t total = src.sizeHint();
    const bool known = total != TraceSource::kUnknownSize;
    // Parallel: an even split, or (length unknown) 64 windows — enough
    // to amortize boundary resolution, few enough to keep threads * span
    // uops in flight modest. Sequential: a span that outlives next() is
    // free to take whole; a decoded one streams in 16-window chunks,
    // O(chunk) resident uops at negligible feed() overhead.
    const uint64_t span =
        requested     ? requested
        : threads > 1 ? (known ? (total + threads - 1) / threads : 64 * win)
        : known && src.spansOutliveNext() ? total
                                          : 16 * win;
    return std::max<uint64_t>((span + win - 1) / win * win, win);
}

/**
 * The next segment of @p span uops (fewer only at the stream's tail).
 * A span the source yields whole is passed through; a short one in
 * mid-stream is accumulated in @p buf up to the full span, so every
 * segment but the last stays window-aligned however the source chunks.
 * With @p keep the segment always lands in @p buf, so it survives the
 * source's following next() call.
 */
TraceSegment
pull(TraceSource &src, size_t span, std::vector<MicroOp> &buf, bool keep)
{
    TraceSegment s = src.next(span);
    const uint64_t total = src.sizeHint();
    const bool whole = s.size == span || s.empty() ||
                       (total != TraceSource::kUnknownSize &&
                        s.baseUop + s.size >= total);
    if (whole && !keep)
        return s;
    buf.assign(s.data, s.data + s.size);
    while (!whole && buf.size() < span) {
        TraceSegment more = src.next(span - buf.size());
        if (more.empty())
            break;
        buf.insert(buf.end(), more.data, more.data + more.size);
    }
    return {buf.data(), buf.size(), s.baseUop};
}

/**
 * The driver behind every entry point (profiler.hh). Carry segments
 * profile against unknown prefix state and the head resolves their
 * boundary records, so the result is bit-identical to one sequential
 * feed for any window-aligned segmentation — the parity tests pin this.
 */
Profile
profileSegments(TraceSource &src, const ProfilerConfig &cfg,
                unsigned threads, size_t segmentUops)
{
    MIPP_SPAN("profiler.pass");
    if (!cfg.sampling.sampled())
        threads = 1; // one whole-stream micro-trace: one contiguous feed
    const size_t span = segmentSpan(src, cfg.sampling, threads, segmentUops);
    // A batch's segments must all live until the batch is profiled.
    const bool keep = threads > 1 && !src.spansOutliveNext();
    SegmentProfiler head(cfg);
    std::vector<std::vector<MicroOp>> bufs(threads);
    std::vector<TraceSegment> batch;
    std::vector<std::unique_ptr<SegmentProfiler>> segs(threads);
    for (;;) {
        batch.clear();
        while (batch.size() < threads) {
            TraceSegment s = pull(src, span, bufs[batch.size()], keep);
            if (s.empty())
                break;
            batch.push_back(s);
        }
        if (batch.empty())
            break;
        if (threads == 1 || (batch.size() == 1 && head.position() == 0)) {
            head.feed(batch[0].data, batch[0].size);
            continue;
        }
        const uint64_t base = head.position();
        parallelForShared(batch.size(), threads, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                segs[i] = std::make_unique<SegmentProfiler>(
                    cfg, SegmentProfiler::Role::Carry, base + i * span);
                segs[i]->feed(batch[i].data, batch[i].size);
                segs[i]->seal();
            }
        });
        for (size_t i = 0; i < batch.size(); ++i)
            head.absorb(std::move(*segs[i]));
    }
    return std::move(head).finalize();
}

} // namespace

Profile
profileTrace(const Trace &trace, const ProfilerConfig &cfg)
{
    MaterializedTraceSource src(trace);
    return profileSegments(src, cfg, 1, 0);
}

Profile
profileSource(TraceSource &source, const ProfilerConfig &cfg)
{
    return profileSegments(source, cfg, 1, 0);
}

Profile
profileSourceParallel(TraceSource &source, const ProfilerConfig &cfg,
                      const ParallelProfileOptions &opts)
{
    return profileSegments(
        source, cfg,
        opts.threads ? opts.threads : ThreadPool::shared().concurrency(),
        opts.segmentUops);
}

std::vector<Profile>
profileTraces(const std::vector<Trace> &traces,
              const std::vector<ProfilerConfig> &cfgs)
{
    if (!cfgs.empty() && cfgs.size() != 1 && cfgs.size() != traces.size())
        throw std::invalid_argument(
            "profileTraces: cfgs must hold 0, 1, or one config per trace");
    static const ProfilerConfig kDefault{};
    std::vector<Profile> out(traces.size());
    ThreadPool::shared().parallelFor(
        traces.size(), 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                out[i] = profileTrace(
                    traces[i], cfgs.empty() ? kDefault
                                            : cfgs[cfgs.size() == 1 ? 0 : i]);
        });
    return out;
}

} // namespace mipp
