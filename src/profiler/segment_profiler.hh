/**
 * @file
 * Per-segment profiling state with explicit carry-in/carry-out handling.
 *
 * The profiler's single-pass state splits cleanly into two kinds:
 * window-local statistics (chain walks, per-window mixes) that only
 * depend on the uops of one sampled micro-trace, and continuous state
 * (last-touch timestamps for reuse distances, the branch global-history
 * register, per-op stride/spacing run state) that crosses segment
 * boundaries. A SegmentProfiler profiles one contiguous, window-aligned
 * range of the uop stream in one of two roles:
 *
 * - Role::Head is the streaming accumulator: it profiles its uops
 *   exactly like the classic sequential profiler (every observation
 *   resolves immediately), absorbs finished Carry segments in stream
 *   order, and finalizes into a Profile. Feeding one Head the whole
 *   trace IS the sequential profiler.
 *
 * - Role::Carry profiles a segment whose prefix state is unknown. Every
 *   observation that depends on upstream state is deferred into an
 *   explicit boundary record: first-local-touch reuse distances, the
 *   first max(historyBits, windowHistoryBits) branches (their global
 *   history is incomplete), the boundary-crossing stride/gap of each
 *   static op, and the order-sensitive dependence-chain float sums
 *   (kept as per-window samples). absorb() resolves every deferral
 *   against the true carried-in state and replays order-sensitive
 *   accumulations in stream order.
 *
 * The result is *bit-identical* to the sequential pass for any
 * window-aligned segmentation: every deferred observation resolves to
 * exactly the value the sequential profiler would have computed, and
 * every floating-point accumulation happens in the sequential order.
 * Segments must start at a multiple of the sampling window size so
 * micro-traces never straddle a boundary (the profiling driver in
 * profiler.cc enforces this; unsampled configs are one whole-stream
 * feed of the head).
 */

#ifndef MIPP_PROFILER_SEGMENT_PROFILER_HH
#define MIPP_PROFILER_SEGMENT_PROFILER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "profiler/profile.hh"
#include "profiler/profiler.hh"
#include "util/flat_map.hh"

namespace mipp {

class SegmentProfiler
{
  public:
    enum class Role { Head, Carry };

    /** Taken/not-taken counts for one (branch, history) pair. */
    struct TakenCounts {
        uint32_t taken = 0;
        uint32_t total = 0;
    };

    /**
     * @param baseUop absolute index of the segment's first uop; must be
     *        a multiple of the sampling window size (0 for Head).
     */
    explicit SegmentProfiler(const ProfilerConfig &cfg,
                             Role role = Role::Head, uint64_t baseUop = 0);

    /**
     * Profile the next @p n uops of this segment. Every feed except the
     * last must cover a whole number of sampling windows (so the next
     * feed starts window-aligned); unsampled configs allow one feed
     * only, because the whole stream forms a single micro-trace whose
     * span must stay contiguous in one buffer.
     */
    void feed(const MicroOp *ops, size_t n);

    /**
     * Carry only: mark the segment finished. Runs the per-segment part
     * of the merge preparation (joining each pending first-touch record
     * with the segment's final last-touch index), which parallel
     * drivers call from the worker so the serial absorb does one map
     * probe per distinct line. Idempotent; absorb() seals lazily if the
     * driver did not.
     */
    void seal();

    /**
     * Head only: fold a finished Carry segment into this profiler.
     * Segments must be absorbed in stream order — @p seg's baseUop must
     * equal this profiler's current position().
     */
    void absorb(SegmentProfiler &&seg);

    /** Head only: finalize the derived statistics into a Profile. */
    Profile finalize() &&;

    uint64_t baseUop() const { return base_; }
    /** Absolute uop position: base + fed uops (+ absorbed segments). */
    uint64_t position() const { return pos_; }

  private:
    template <bool InMt>
    void observeRange(const MicroOp *buf, uint64_t begin, uint64_t end);
    void observeMemory(const MicroOp &op, uint64_t uopIndex, bool inMt);
    void observeBranch(const MicroOp &op, bool inMt);
    void addGlobalBranch(uint64_t pc, bool taken, uint64_t hist);
    TakenCounts *branchTableFor(uint64_t pc);
    uint32_t newBranchTable();
    void finishMicroTrace();
    void walkRobSize(const MicroOp *mt, size_t mtLen, size_t i,
                     size_t median, WindowProfile &wp);
    uint32_t memOpIndex(uint64_t pc, bool isStore);
    bool findMemOp(uint64_t pc, uint32_t &idx) const;
    uint32_t createMemOp(uint64_t pc, bool isStore);
    void addTypeAdjustBin(bool accessIsStore, bool nominalIsStore,
                          size_t bin);
    void addTypeAdjustInfinite(bool accessIsStore, bool nominalIsStore);

    /** Config by value: Carry profilers run on pool workers and must
     *  not reference a caller frame. */
    ProfilerConfig cfg_;
    Profile profile_;
    bool carry_ = false;
    uint64_t base_ = 0;
    uint64_t pos_ = 0;

    // --- current feed span ------------------------------------------------
    const MicroOp *buf_ = nullptr; ///< buffer of the feed in progress
    uint64_t bufBase_ = 0;         ///< absolute index of buf_[0]
    uint64_t feedEnd_ = 0;         ///< absolute end of the current feed
    bool fedAny_ = false;

    // --- continuous (whole-segment) state ---------------------------------
    FlatMap<uint64_t> lastAccess_; // line -> mem idx
    uint64_t memIndex_ = 0;
    FlatMap<uint64_t> lastILine_;  // iline -> idx
    uint64_t iLineIndex_ = 0;
    uint64_t prevILine_ = ~0ULL;
    /**
     * Global branch statistics as pc -> dense history table: one
     * direct-indexed (or, off-window, hashed) pc lookup plus one
     * direct-indexed store per branch, instead of hashing the whole
     * (pc, history) pair into one large map. Direct slots hold
     * table+1 (0 = empty), same windowing scheme as memOpDirect_.
     */
    std::vector<uint32_t> branchDirect_;
    uint64_t branchPcBase_ = ~0ULL;
    FlatMap<uint32_t> branchPc_; // fallback: pc -> table index
    std::vector<TakenCounts> branchTables_; // tables * (histMask_ + 1)
    uint32_t numBranchTables_ = 0;
    /** Long histories (> 12 bits) skip the dense tables and hash the
     *  whole (pc, history) pair, like the per-micro-trace stats. */
    bool denseBranchTables_ = true;
    FlatMap<TakenCounts> sparseBranchStats_;
    uint64_t ghist_ = 0;
    /** Hoisted (1 << historyBits) - 1 masks for the branch-key hot path. */
    uint64_t histMask_ = 0;
    uint64_t winHistMask_ = 0;
    /**
     * pc -> memOps index. Program counters cluster in a small static
     * code footprint, so a direct-indexed table over a 64 KiB pc window
     * (anchored at the first memory pc seen) resolves essentially every
     * lookup with one load; pcs outside the window fall back to the
     * hash map. Slot value is idx+1 (0 = empty).
     */
    static constexpr size_t kPcWindow = 1u << 16;
    std::vector<uint32_t> memOpDirect_;
    uint64_t memPcBase_ = ~0ULL;
    FlatMap<uint32_t> memOpIndex_; // fallback for out-of-window pcs
    /**
     * Per-static-op running state, kept separate from StaticMemProfile
     * so each memory access touches one compact struct (hot fields in
     * the leading cache line) instead of the profile's large output
     * record. Materialized into profile_.memOps at finalize.
     */
    struct OpRunning {
        static constexpr size_t kInlineStrides = 4;
        static constexpr size_t kMaxStrides = 64;

        // -- first cache line: touched on every access ------------------
        uint64_t lastAddr = 0;
        uint64_t lastUopIdx = 0;
        uint64_t count = 0;
        uint64_t gapSum = 0;
        uint64_t gapCount = 0;
        uint64_t selfDependent = 0;
        bool seen = false;
        bool isStore = false; // nominal type (first occurrence)
        uint8_t nInline = 0;

        // -- stride counts: inline entries cover the common stride
        //    classes (thesis Fig 4.7: most static loads have <= 4
        //    dominant strides); the flat map takes the overflow up to
        //    the 64-distinct cap.
        std::array<uint64_t, kInlineStrides> strideKey{};
        std::array<uint64_t, kInlineStrides> strideCount{};
        FlatMap<uint64_t> strideOverflow;
        /** Carry only: overflow strides in first-arrival order, so the
         *  head can replay the global 64-distinct admission rule. */
        std::vector<uint64_t> overflowOrder;

        /** Reuse distances of this op's accesses (combined stream). */
        LogHistogram reuse;

        void
        addStride(uint64_t stride)
        {
            for (size_t k = 0; k < nInline; ++k) {
                if (strideKey[k] == stride) {
                    strideCount[k]++;
                    return;
                }
            }
            if (nInline < kInlineStrides) {
                strideKey[nInline] = stride;
                strideCount[nInline] = 1;
                nInline++;
                return;
            }
            if (kInlineStrides + strideOverflow.size() < kMaxStrides) {
                if (strideOverflow.empty())
                    strideOverflow.reserve(kMaxStrides);
                strideOverflow[stride]++;
            } else if (uint64_t *c = strideOverflow.find(stride)) {
                (*c)++;
            }
        }

        /** Carry: no admission cap (the global cap is replayed at
         *  absorb), arrival order retained. */
        void
        addStrideUncapped(uint64_t stride)
        {
            for (size_t k = 0; k < nInline; ++k) {
                if (strideKey[k] == stride) {
                    strideCount[k]++;
                    return;
                }
            }
            if (nInline < kInlineStrides) {
                strideKey[nInline] = stride;
                strideCount[nInline] = 1;
                nInline++;
                return;
            }
            if (strideOverflow.empty())
                strideOverflow.reserve(kMaxStrides);
            auto [c, fresh] = strideOverflow.tryEmplace(stride, 0);
            if (fresh)
                overflowOrder.push_back(stride);
            c += 1;
        }

        /**
         * Head, during absorb: @p n occurrences of @p stride arriving
         * at this point of the stream. Admission matches the sequential
         * per-occurrence rule exactly: if the first occurrence is
         * admitted (inline, or under the 64-distinct cap) all @p n
         * count; a stride first seen at a full cap never enters, so
         * none of its occurrences would have counted sequentially
         * either.
         */
        void
        addStrideN(uint64_t stride, uint64_t n)
        {
            for (size_t k = 0; k < nInline; ++k) {
                if (strideKey[k] == stride) {
                    strideCount[k] += n;
                    return;
                }
            }
            if (nInline < kInlineStrides) {
                strideKey[nInline] = stride;
                strideCount[nInline] = n;
                nInline++;
                return;
            }
            if (kInlineStrides + strideOverflow.size() < kMaxStrides) {
                if (strideOverflow.empty())
                    strideOverflow.reserve(kMaxStrides);
                strideOverflow[stride] += n;
            } else if (uint64_t *c = strideOverflow.find(stride)) {
                *c += n;
            }
        }
    };
    std::vector<OpRunning> opRunning_;
    std::vector<uint64_t> coldLoadUopIdx_;
    /** Exact corrections for accesses whose type differs from their
     *  static op's nominal type ([0] loads, [1] stores). */
    struct TypeAdjust {
        LogHistogram add;
        LogHistogram sub;
    };
    std::array<TypeAdjust, 2> typeAdjust_;

    // --- per-micro-trace state --------------------------------------------
    // Micro-traces are contiguous runs of the feed buffer, so instead of
    // copying uops we keep a zero-copy [mtStart_, mtStart_ + mtLen_)
    // absolute-index span into the buffer being fed.
    uint64_t mtStart_ = 0;
    size_t mtLen_ = 0;
    FlatMap<TakenCounts> mtBranchStats_;
    /** Per-micro-trace occurrence counts / first positions, indexed
     *  directly by memOps index (dense small ints — no hashing). The
     *  touched list makes the end-of-micro-trace sweep and reset
     *  proportional to the ops actually seen. */
    std::vector<uint32_t> mtMemCount_;
    std::vector<uint32_t> mtFirstPos_;
    std::vector<uint32_t> mtTouched_;
    uint32_t mtColdMisses_ = 0;

    // --- carry-out boundary state (Role::Carry only) ----------------------
    static constexpr uint32_t kNoWindow = ~0u;
    /** First local touch of a data line: reuse distance unknowable
     *  until the upstream last-touch map arrives. Exactly one entry per
     *  distinct line touched by the segment; seal() fills in the
     *  segment's *last* touch of the line so absorb advances the global
     *  last-touch map in the same single probe that resolves the first
     *  touch. */
    struct PendingLine {
        uint64_t line;
        uint64_t localMemIdx;
        uint64_t lastLocalIdx = 0; ///< filled by seal()
        uint64_t uopIndex; ///< absolute, for cold-burstiness windows
        uint32_t op;       ///< local memOps index
        uint32_t window;   ///< local windows index or kNoWindow
        bool isStore;
    };
    /** First local touch of an instruction line. Entry 0 is the
     *  segment-start access, which is *tentative*: if the previous
     *  segment ends in the same i-line, the sequential pass would see
     *  no transition there at all. */
    struct PendingILine {
        uint64_t iline;
        uint64_t localIdx;
        uint64_t lastLocalIdx = 0; ///< filled by seal()
    };
    struct PendingBranch {
        uint64_t pc;
        bool taken;
    };
    /** A micro-trace whose first branch fell into the pending-history
     *  prefix: its (pc, windowed-history) stats are recomputed at
     *  absorb from the full ordered branch list. */
    struct AffectedWindow {
        uint32_t window;
        uint64_t firstBranchOrdinal;
        std::vector<PendingBranch> branches;
    };
    /** Boundary-crossing per-op state: the first access's stride/gap
     *  joins the previous segment's last access at absorb. */
    struct OpBoundary {
        uint64_t firstAddr = 0;
        uint64_t firstUop = 0;
        bool firstSelfDep = false;
        /** Locally-resolved accesses whose type differs from the LOCAL
         *  nominal type; re-attributed against the global nominal at
         *  absorb (integer bins, so the re-attribution is exact). */
        LogHistogram minorityReuse;
    };
    /** One chain-walk observation, deferred so the head can replay the
     *  order-sensitive double accumulation in stream order. */
    struct ChainSample {
        double ap, abp, cp;
        bool hasBranch;
    };

    std::vector<PendingLine> pendingLines_;
    std::vector<PendingILine> pendingILines_;
    std::vector<PendingBranch> pendingBranches_;
    std::vector<AffectedWindow> affectedWindows_;
    std::vector<OpBoundary> opBoundary_; ///< parallel to opRunning_
    std::vector<std::vector<ChainSample>> chainSamples_; ///< per rob idx
    uint64_t branchOrdinal_ = 0;
    /** Carry: number of leading branches whose global history is
     *  incomplete (max(historyBits, windowHistoryBits)); 0 for Head. */
    uint64_t pendingBranchBudget_ = 0;
    bool mtRecordBranches_ = false;
    bool sealed_ = false;
};

} // namespace mipp

#endif // MIPP_PROFILER_SEGMENT_PROFILER_HH
