/**
 * @file
 * Segment-parallel profiler parity: profileSourceParallel over an
 * in-memory trace and the other TraceSource streaming drivers must
 * produce Profiles *bit-identical* to the sequential profileTrace for
 * every workload, thread count and segment size — the carry/absorb
 * design resolves every cross-segment observation to exactly the
 * sequential value and replays every order-sensitive float
 * accumulation in stream order.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "profile_compare.hh"
#include "profiler/profiler.hh"
#include "profiler/segment_profiler.hh"
#include "trace/trace_source.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

// --------------------------------------------------------------------------
// profileSourceParallel parity over an in-memory trace
// --------------------------------------------------------------------------

TEST(ProfilerParallel, BitIdenticalAcrossWorkloads)
{
    for (const char *name :
         {"balanced_mix", "ptr_chase", "stream_add", "branchy",
          "bursty_mem"}) {
        Trace t = generateWorkload(suiteWorkload(name), 100000);
        ProfilerConfig cfg;
        cfg.name = name;
        Profile seq = profileTrace(t, cfg);
        MaterializedTraceSource src(t);
        Profile par = profileSourceParallel(src, cfg, {.threads = 4});
        SCOPED_TRACE(name);
        expectProfilesIdentical(par, seq);
    }
}

TEST(ProfilerParallel, BitIdenticalAcrossSegmentSizes)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 120000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);
    // One window per segment (maximum boundary resolution), a few
    // windows, an unaligned request (rounded up internally), and more
    // segments than uops allow.
    for (size_t segUops : {20000ul, 60000ul, 30001ul, 999999ul}) {
        MaterializedTraceSource src(t);
        Profile par = profileSourceParallel(
            src, cfg, {.threads = 4, .segmentUops = segUops});
        SCOPED_TRACE(segUops);
        expectProfilesIdentical(par, seq);
    }
}

TEST(ProfilerParallel, BitIdenticalAcrossThreadCounts)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);
    for (unsigned threads : {2u, 3u, 8u}) {
        MaterializedTraceSource src(t);
        Profile par = profileSourceParallel(src, cfg, {.threads = threads});
        SCOPED_TRACE(threads);
        expectProfilesIdentical(par, seq);
    }
}

TEST(ProfilerParallel, SparseBranchPathBitIdentical)
{
    // historyBits > 12 exercises the sparse (pc, history) branch tables
    // and a larger pending-branch budget in the carry segments.
    Trace t = generateWorkload(suiteWorkload("branchy"), 100000);
    ProfilerConfig cfg;
    cfg.historyBits = 14;
    Profile seq = profileTrace(t, cfg);
    MaterializedTraceSource src(t);
    Profile par = profileSourceParallel(src, cfg, {.threads = 4});
    expectProfilesIdentical(par, seq);
}

TEST(ProfilerParallel, UnsampledFallsBackToSequential)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 20000);
    ProfilerConfig cfg;
    cfg.sampling = SamplingConfig::full();
    Profile seq = profileTrace(t, cfg);
    MaterializedTraceSource src(t);
    Profile par = profileSourceParallel(src, cfg, {.threads = 4});
    expectProfilesIdentical(par, seq);
}

TEST(ProfilerParallel, TinyAndEmptyTraces)
{
    ProfilerConfig cfg;
    {
        Trace t;
        MaterializedTraceSource src(t);
        Profile par = profileSourceParallel(src, cfg, {.threads = 4});
        EXPECT_EQ(par.totalUops, 0u);
        EXPECT_TRUE(par.windows.empty());
    }
    {
        // Smaller than one sampling window: single segment, sequential.
        Trace t = generateWorkload(suiteWorkload("stream_add"), 5000);
        Profile seq = profileTrace(t, cfg);
        MaterializedTraceSource src(t);
        Profile par = profileSourceParallel(src, cfg, {.threads = 4});
        expectProfilesIdentical(par, seq);
    }
    {
        // Barely two windows: one boundary to carry across.
        Trace t = generateWorkload(suiteWorkload("stream_add"), 40001);
        Profile seq = profileTrace(t, cfg);
        MaterializedTraceSource src(t);
        Profile par = profileSourceParallel(
            src, cfg, {.threads = 4, .segmentUops = 20000});
        expectProfilesIdentical(par, seq);
    }
}

// --------------------------------------------------------------------------
// TraceSource streaming drivers
// --------------------------------------------------------------------------

/** Yields deliberately ragged spans to stress feed-alignment handling
 *  in the copy-accumulate driver loop. */
class RaggedSource final : public TraceSource
{
  public:
    explicit RaggedSource(const Trace &trace) : trace_(&trace) {}

    uint64_t sizeHint() const override { return kUnknownSize; }

    TraceSegment
    next(size_t maxUops) override
    {
        // Vary the yield size but never exceed the request.
        size_t want = 1 + (pos_ * 7919) % 4096;
        size_t n = std::min({want, maxUops, trace_->size() - pos_});
        TraceSegment seg{trace_->data() + pos_, n, pos_};
        pos_ += n;
        return seg;
    }

    void reset() override { pos_ = 0; }

  private:
    const Trace *trace_;
    size_t pos_ = 0;
};

TEST(ProfilerParallel, SourceMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    MaterializedTraceSource src(t);
    Profile streamed = profileSource(src, cfg);
    expectProfilesIdentical(streamed, seq);
}

TEST(ProfilerParallel, SourceUnsampledMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("ptr_chase"), 12000);
    ProfilerConfig cfg;
    cfg.sampling = SamplingConfig::full();
    Profile seq = profileTrace(t, cfg);

    MaterializedTraceSource src(t);
    Profile streamed = profileSource(src, cfg);
    expectProfilesIdentical(streamed, seq);
}

TEST(ProfilerParallel, SourceParallelMatchesTrace)
{
    Trace t = generateWorkload(suiteWorkload("bursty_mem"), 150000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    MaterializedTraceSource src(t);
    Profile par = profileSourceParallel(
        src, cfg, {.threads = 4, .segmentUops = 20000});
    expectProfilesIdentical(par, seq);
}

TEST(ProfilerParallel, SourceParallelHandlesRaggedSpans)
{
    Trace t = generateWorkload(suiteWorkload("branchy"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    // Every path accumulates short mid-stream spans: the parallel batch,
    // the sequential streaming pass and the one-thread fallback.
    {
        RaggedSource src(t);
        Profile par = profileSourceParallel(src, cfg, {.threads = 3});
        expectProfilesIdentical(par, seq);
    }
    {
        RaggedSource src(t);
        Profile streamed = profileSource(src, cfg);
        expectProfilesIdentical(streamed, seq);
    }
    {
        RaggedSource src(t);
        Profile one = profileSourceParallel(src, cfg, {.threads = 1});
        expectProfilesIdentical(one, seq);
    }
}

// --------------------------------------------------------------------------
// SegmentProfiler contract errors
// --------------------------------------------------------------------------

TEST(ProfilerParallel, SegmentContractViolationsThrow)
{
    ProfilerConfig cfg; // windowSize 20000
    // Carry segments must start window-aligned.
    EXPECT_THROW(
        SegmentProfiler(cfg, SegmentProfiler::Role::Carry, 12345),
        std::invalid_argument);
    // The head starts at uop 0.
    EXPECT_THROW(SegmentProfiler(cfg, SegmentProfiler::Role::Head, 20000),
                 std::invalid_argument);

    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 50000);
    // Absorbing out of stream order is rejected.
    SegmentProfiler head(cfg);
    SegmentProfiler seg(cfg, SegmentProfiler::Role::Carry, 20000);
    seg.feed(t.data() + 20000, 20000);
    EXPECT_THROW(head.absorb(std::move(seg)), std::logic_error);
    // A carry segment cannot finalize.
    SegmentProfiler carry(cfg, SegmentProfiler::Role::Carry, 0);
    carry.feed(t.data(), 20000);
    EXPECT_THROW(std::move(carry).finalize(), std::logic_error);
    // Non-final feeds must cover whole windows.
    SegmentProfiler head2(cfg);
    head2.feed(t.data(), 12345);
    EXPECT_THROW(head2.feed(t.data() + 12345, 20000), std::logic_error);
}

TEST(ProfilerParallel, MultiFeedMatchesSingleFeed)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 100000);
    ProfilerConfig cfg;
    Profile seq = profileTrace(t, cfg);

    // Window-aligned incremental feeds into one head == one-shot feed.
    SegmentProfiler head(cfg);
    head.feed(t.data(), 40000);
    head.feed(t.data() + 40000, 20000);
    head.feed(t.data() + 60000, 40000);
    Profile streamed = std::move(head).finalize();
    expectProfilesIdentical(streamed, seq);
}

} // namespace
} // namespace mipp
