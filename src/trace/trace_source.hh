/**
 * @file
 * Segment-cursor abstraction over uop streams.
 *
 * A TraceSource yields bounded, position-annotated segments of a uop
 * stream through the profiler's zero-copy span path. A fully
 * materialized Trace is one implementation; a streaming frontend (e.g.
 * a binary trace file reader) is another — the profiler consumes either
 * through the same interface at O(segment) memory.
 *
 * Segment contract: next(maxUops) yields at most @p maxUops uops and
 * may come back short anywhere; the profiler's driver requests
 * window-aligned sizes and accumulates short spans up to the full
 * request, so SegmentProfiler::feed's alignment contract holds however
 * a source chunks its stream.
 */

#ifndef MIPP_TRACE_TRACE_SOURCE_HH
#define MIPP_TRACE_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "trace/trace.hh"

namespace mipp {

/** One contiguous span of a uop stream. */
struct TraceSegment {
    const MicroOp *data = nullptr;
    size_t size = 0;
    /** Global index of data[0] in the stream. */
    uint64_t baseUop = 0;

    bool empty() const { return size == 0; }
};

/**
 * Sequential cursor over a uop stream. next() yields the following
 * segment of at most @p maxUops uops (empty only at end-of-stream;
 * @p maxUops may exceed the stream, so size nothing by it). The
 * returned span stays valid until the next call to next() or reset()
 * unless spansOutliveNext() says otherwise.
 */
class TraceSource
{
  public:
    /** sizeHint() value when the stream length is unknown up front. */
    static constexpr uint64_t kUnknownSize = ~0ULL;

    virtual ~TraceSource() = default;

    /** Total uops in the stream, or kUnknownSize for a pure stream. */
    virtual uint64_t sizeHint() const { return kUnknownSize; }

    virtual TraceSegment next(size_t maxUops) = 0;

    /** True when every span yielded stays valid for the source's whole
     *  lifetime (a materialized stream), so no driver needs to copy. */
    virtual bool spansOutliveNext() const { return false; }

    /** Rewind to the start of the stream. */
    virtual void reset() = 0;
};

/** Zero-copy TraceSource over a materialized Trace. */
class MaterializedTraceSource final : public TraceSource
{
  public:
    explicit MaterializedTraceSource(const Trace &trace) : trace_(&trace) {}

    uint64_t sizeHint() const override { return trace_->size(); }

    bool spansOutliveNext() const override { return true; }

    TraceSegment
    next(size_t maxUops) override
    {
        size_t n = std::min(maxUops, trace_->size() - pos_);
        TraceSegment seg{trace_->data() + pos_, n, pos_};
        pos_ += n;
        return seg;
    }

    void reset() override { pos_ = 0; }

  private:
    const Trace *trace_;
    size_t pos_ = 0;
};

} // namespace mipp

#endif // MIPP_TRACE_TRACE_SOURCE_HH
