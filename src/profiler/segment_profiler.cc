#include "profiler/segment_profiler.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hh"

namespace mipp {

namespace {

/** Linear branch entropy of a taken-probability (thesis Eq 3.14). */
double
linearEntropy(double p)
{
    return 2.0 * std::min(p, 1.0 - p);
}

using TakenCounts = SegmentProfiler::TakenCounts;

/**
 * Average linear entropy over a (pc, history) count map (Eq 3.15).
 * Entries are summed in key order so the floating-point result does not
 * depend on hash iteration order.
 */
double
entropyOf(const FlatMap<TakenCounts> &stats, uint64_t &branchesOut)
{
    std::vector<std::pair<uint64_t, TakenCounts>> entries;
    entries.reserve(stats.size());
    stats.forEach([&](uint64_t key, const TakenCounts &c) {
        entries.emplace_back(key, c);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    double sum = 0;
    uint64_t branches = 0;
    for (const auto &[key, c] : entries) {
        double p = static_cast<double>(c.taken) / c.total;
        sum += c.total * linearEntropy(p);
        branches += c.total;
    }
    branchesOut = branches;
    return branches ? sum / branches : 0.0;
}

/**
 * Dependence-depth walk over one window of uops (thesis Alg 3.1).
 *
 * depth[j]     = producing-chain length ending at uop j (>= 1)
 * loadDepth[j] = loads on the longest load-dependence path reaching j
 */
struct WindowChainStats {
    double ap = 0;
    double abp = 0;
    bool hasBranch = false;
    double cp = 0;
    /** Load-depth histogram (1-based, capped). */
    std::array<uint32_t, LoadDepProfile::kMaxDepth> loadHisto{};
    uint32_t loads = 0;
    uint32_t independentLoads = 0;
};

/** Reusable per-walk buffer so stepping windows do not allocate. */
struct WalkScratch {
    /** Packed per-uop state: chain depth in the low 16 bits, load depth
     *  in the high 16 — one load/store instead of two on the walk's
     *  inner dependence lookups. */
    std::vector<uint32_t> packedDepth;

    void resize(size_t n) { packedDepth.resize(n); }
};

WindowChainStats
walkWindow(const MicroOp *ops, size_t n, WalkScratch &scratch,
           std::vector<std::pair<uint32_t, uint32_t>> *loadDepthPerOp)
{
    WindowChainStats out;
    // Producer position per register within the window; -1 = outside.
    int prod[kNumRegs];
    std::fill(std::begin(prod), std::end(prod), -1);

    uint32_t *packed = scratch.packedDepth.data();
    // Integer accumulators (converted once at the end): the sums stay far
    // below 2^53, so the doubles produced are bit-identical to per-step
    // double accumulation.
    uint64_t depthSum = 0, branchDepthSum = 0;
    uint32_t branches = 0;
    uint32_t maxDepth = 0;

    for (size_t j = 0; j < n; ++j) {
        const MicroOp &op = ops[j];
        // Both source depths at once: max over packed halves is the pair
        // of maxes here, because the halves cannot borrow into each other
        // (depths stay far below 2^16 in a <= 2^16-uop window).
        uint32_t dpair = 0;
        auto consider = [&](int8_t reg) {
            if (reg == kNoReg)
                return;
            int p = prod[reg];
            if (p >= 0) {
                uint32_t v = packed[p];
                dpair = std::max(dpair & 0xffffu, v & 0xffffu) |
                        std::max(dpair & 0xffff0000u, v & 0xffff0000u);
            }
        };
        consider(op.src1);
        consider(op.src2);
        bool is_load = op.type == UopType::Load;
        uint32_t d = (dpair & 0xffffu) + 1;
        uint32_t ld = (dpair >> 16) + (is_load ? 1 : 0);
        packed[j] = d | (ld << 16);
        if (op.dst != kNoReg)
            prod[op.dst] = static_cast<int>(j);

        depthSum += d;
        maxDepth = std::max(maxDepth, d);
        if (op.type == UopType::Branch) {
            branchDepthSum += d;
            branches++;
        }
        if (is_load) {
            out.loads++;
            int bin = std::min<int>(static_cast<int>(ld),
                                    LoadDepProfile::kMaxDepth);
            out.loadHisto[bin - 1]++;
            if (ld == 1)
                out.independentLoads++;
            if (loadDepthPerOp)
                loadDepthPerOp->emplace_back(static_cast<uint32_t>(j),
                                             ld);
        }
    }
    out.ap = n ? static_cast<double>(depthSum) / n : 0;
    out.cp = maxDepth;
    out.hasBranch = branches > 0;
    out.abp =
        branches ? static_cast<double>(branchDepthSum) / branches : 0;
    return out;
}

} // namespace

SegmentProfiler::SegmentProfiler(const ProfilerConfig &cfg, Role role,
                                 uint64_t baseUop)
    : cfg_(cfg), carry_(role == Role::Carry), base_(baseUop), pos_(baseUop)
{
    profile_.name = cfg.name;
    profile_.sampling = cfg.sampling;
    profile_.robSizes = cfg.robSizes;
    profile_.chains = DependenceChains(cfg.robSizes);
    profile_.loadDeps.resize(cfg.robSizes.size());
    profile_.cold.resize(cfg.robSizes.size());
    profile_.branch.historyBits = kHistoryBits;
    if (carry_) {
        const size_t winSize =
            std::max<size_t>(1, cfg.sampling.windowSize);
        if (baseUop % winSize != 0)
            throw std::invalid_argument(
                "SegmentProfiler: carry segments must start on a "
                "sampling-window boundary");
        pendingBranchBudget_ = std::max(kHistoryBits, kWindowHistoryBits);
        chainSamples_.resize(cfg.robSizes.size());
    } else if (baseUop != 0) {
        throw std::invalid_argument(
            "SegmentProfiler: the head segment starts at uop 0");
    }
}

uint32_t
SegmentProfiler::memOpIndex(uint64_t pc, bool isStore)
{
    if (memPcBase_ == ~0ULL) {
        memPcBase_ = pc & ~(static_cast<uint64_t>(kPcWindow) - 1);
        memOpDirect_.assign(kPcWindow, 0);
    }
    uint64_t off = pc - memPcBase_;
    if (off < kPcWindow) {
        uint32_t slot = memOpDirect_[off];
        if (slot)
            return slot - 1;
        uint32_t idx = createMemOp(pc, isStore);
        memOpDirect_[off] = idx + 1;
        return idx;
    }
    auto [slot, inserted] = memOpIndex_.tryEmplace(pc);
    if (!inserted)
        return slot;
    uint32_t idx = createMemOp(pc, isStore);
    slot = idx;
    return idx;
}

/** memOpIndex without creating. @return whether @p pc has an op. */
bool
SegmentProfiler::findMemOp(uint64_t pc, uint32_t &idx) const
{
    if (memPcBase_ != ~0ULL && pc - memPcBase_ < kPcWindow) {
        uint32_t slot = memOpDirect_[pc - memPcBase_];
        if (!slot)
            return false;
        idx = slot - 1;
        return true;
    }
    const uint32_t *v = memOpIndex_.find(pc);
    if (!v)
        return false;
    idx = *v;
    return true;
}

uint32_t
SegmentProfiler::createMemOp(uint64_t pc, bool isStore)
{
    uint32_t idx = static_cast<uint32_t>(profile_.memOps.size());
    StaticMemProfile p;
    p.pc = pc;
    p.isStore = isStore;
    profile_.memOps.push_back(std::move(p));
    opRunning_.emplace_back();
    opRunning_.back().isStore = isStore;
    if (carry_)
        opBoundary_.emplace_back();
    return idx;
}

void
SegmentProfiler::addTypeAdjustBin(bool accessIsStore, bool nominalIsStore,
                                  size_t bin)
{
    typeAdjust_[accessIsStore ? 1 : 0].add.addAtBin(bin);
    typeAdjust_[nominalIsStore ? 1 : 0].sub.addAtBin(bin);
}

void
SegmentProfiler::addTypeAdjustInfinite(bool accessIsStore,
                                       bool nominalIsStore)
{
    typeAdjust_[accessIsStore ? 1 : 0].add.addInfinite();
    typeAdjust_[nominalIsStore ? 1 : 0].sub.addInfinite();
}

void
SegmentProfiler::observeMemory(const MicroOp &op, uint64_t uopIndex,
                               bool inMt)
{
    uint64_t line = op.lineAddr();
    bool is_store = op.type == UopType::Store;

    // Combined-stream reuse distance (thesis Fig 4.1).
    auto [last, cold] = lastAccess_.tryEmplace(line, memIndex_);
    uint64_t rd = 0;
    if (!cold) {
        rd = memIndex_ - last - 1;
        last = memIndex_;
    }
    uint64_t localMemIdx = memIndex_;
    memIndex_++;

    // The same distance lands in three histograms (combined, per-type,
    // per-op). Only the per-op one is touched here: reuseLoads /
    // reuseStores are assembled at finalize from the per-op histograms
    // (each static op is load or store), with the rare mixed-type pc
    // corrected exactly via typeAdjust_, and reuseAll is their merge.
    size_t reuseBin = cold ? 0 : LogHistogram::binIndex(rd);

    // Per-static-op statistics (strides tracked continuously; spacing
    // within micro-traces), accumulated on the compact running struct.
    uint32_t idx = memOpIndex(op.pc, is_store);
    OpRunning &run = opRunning_[idx];
    run.count++;
    if (cold) {
        if (carry_) {
            // First LOCAL touch: the true distance (or coldness) depends
            // on upstream state; defer the whole observation.
            pendingLines_.push_back(
                {line, localMemIdx, 0, uopIndex, idx,
                 inMt ? static_cast<uint32_t>(profile_.windows.size())
                      : kNoWindow,
                 is_store});
        } else {
            if (!is_store) {
                profile_.cold.coldLoadMisses++;
                coldLoadUopIdx_.push_back(uopIndex);
                if (inMt)
                    mtColdMisses_++;
            }
            run.reuse.addInfinite();
            if (is_store != run.isStore) [[unlikely]]
                addTypeAdjustInfinite(is_store, run.isStore);
        }
    } else {
        run.reuse.addAtBin(reuseBin);
        if (is_store != run.isStore) [[unlikely]] {
            // Access type differs from the op's nominal type: log the
            // exact correction moving this count between the derived
            // per-type histograms. In carry mode the GLOBAL nominal is
            // unknown, so the count parks in the per-op minority
            // histogram and absorb re-attributes it.
            if (carry_)
                opBoundary_[idx].minorityReuse.addAtBin(reuseBin);
            else
                addTypeAdjustBin(is_store, run.isStore, reuseBin);
        }
    }
    if (run.seen) {
        uint64_t stride = static_cast<uint64_t>(op.addr - run.lastAddr);
        if (carry_)
            run.addStrideUncapped(stride);
        else
            run.addStrideN(stride, 1);
        run.gapSum += uopIndex - run.lastUopIdx;
        run.gapCount++;
        if (!is_store && op.src1 == op.dst && op.dst != kNoReg)
            run.selfDependent++;
    } else if (carry_) {
        // The boundary-crossing stride/gap joins the previous segment's
        // last access of this op at absorb.
        OpBoundary &ob = opBoundary_[idx];
        ob.firstAddr = op.addr;
        ob.firstUop = uopIndex;
        ob.firstSelfDep =
            !is_store && op.src1 == op.dst && op.dst != kNoReg;
    }
    run.lastAddr = op.addr;
    run.lastUopIdx = uopIndex;
    run.seen = true;

    if (inMt) {
        if (idx >= mtMemCount_.size()) {
            mtMemCount_.resize(opRunning_.size(), 0);
            mtFirstPos_.resize(opRunning_.size(), 0);
        }
        if (mtMemCount_[idx]++ == 0) {
            // Position within the micro-trace (the span is contiguous).
            mtFirstPos_[idx] = static_cast<uint32_t>(uopIndex - mtStart_);
            mtTouched_.push_back(idx);
        }
    }
}

uint32_t
SegmentProfiler::newBranchTable()
{
    branchTables_.resize(branchTables_.size() + kBranchTableSize);
    return numBranchTables_++;
}

/** Dense-table base for @p pc, creating the table on first use. */
SegmentProfiler::TakenCounts *
SegmentProfiler::branchTableFor(uint64_t pc)
{
    uint32_t table;
    if (branchPcBase_ == ~0ULL) {
        branchPcBase_ = pc & ~(static_cast<uint64_t>(kPcWindow) - 1);
        branchDirect_.assign(kPcWindow, 0);
    }
    uint64_t off = pc - branchPcBase_;
    if (off < kPcWindow) {
        uint32_t slot = branchDirect_[off];
        if (slot) {
            table = slot - 1;
        } else {
            table = newBranchTable();
            branchDirect_[off] = table + 1;
        }
    } else {
        auto [slot, fresh] = branchPc_.tryEmplace(pc, 0);
        if (fresh)
            slot = newBranchTable();
        table = slot;
    }
    return branchTables_.data() +
           static_cast<size_t>(table) * kBranchTableSize;
}

/** Record one branch outcome in the global (pc, history) statistics. */
void
SegmentProfiler::addGlobalBranch(uint64_t pc, bool taken, uint64_t hist)
{
    TakenCounts &c = branchTableFor(pc)[hist & kHistMask];
    c.taken += taken ? 1 : 0;
    c.total++;
}

void
SegmentProfiler::observeBranch(const MicroOp &op, bool inMt)
{
    bool pending = false;
    if (branchOrdinal_ < pendingBranchBudget_) [[unlikely]] {
        // Carry: this branch's global history reaches into the previous
        // segment — defer it for replay with the true carried-in
        // history. (Head has budget 0 and never takes this path.)
        pending = true;
        pendingBranches_.push_back({op.pc, op.taken});
    } else {
        addGlobalBranch(op.pc, op.taken, ghist_);
    }

    if (inMt) {
        if (mtRecordBranches_) [[unlikely]] {
            affectedWindows_.back().branches.push_back(
                {op.pc, op.taken});
        } else if (pending) [[unlikely]] {
            // The micro-trace's first branch is history-incomplete, so
            // its whole per-window entropy table is: record the ordered
            // branch list and recompute the window stats at absorb.
            mtRecordBranches_ = true;
            affectedWindows_.push_back(
                {static_cast<uint32_t>(profile_.windows.size()),
                 branchOrdinal_,
                 {}});
            affectedWindows_.back().branches.push_back(
                {op.pc, op.taken});
        } else {
            uint64_t wkey = (op.pc << kWindowHistoryBits) |
                            (ghist_ & kWinHistMask);
            auto &wc = mtBranchStats_[wkey];
            wc.taken += op.taken ? 1 : 0;
            wc.total++;
        }
    }
    branchOrdinal_++;
    ghist_ = (ghist_ << 1) | (op.taken ? 1 : 0);
}

/**
 * Stepping-window chain walk for ROB-size index @p i over the current
 * micro-trace span. Writes only state owned by index i (chains row i,
 * loadDeps row i, wp.*[i]) plus, for the median size only, the per-op
 * load-depth attribution — safe to run concurrently across i.
 */
void
SegmentProfiler::walkRobSize(const MicroOp *mt, size_t mtLen, size_t i,
                             size_t median, WindowProfile &wp)
{
    size_t b = cfg_.robSizes[i];
    if (b > mtLen)
        b = mtLen;
    size_t nwin = mtLen / b;
    double apSum = 0, abpSum = 0, cpSum = 0;
    double abpWindows = 0;
    WalkScratch scratch;
    scratch.resize(b);
    std::vector<std::pair<uint32_t, uint32_t>> perLoad;
    for (size_t w = 0; w < nwin; ++w) {
        auto stats = walkWindow(mt + w * b, b, scratch,
                                i == median ? &perLoad : nullptr);
        apSum += stats.ap;
        cpSum += stats.cp;
        if (stats.hasBranch) {
            abpSum += stats.abp;
            abpWindows += 1;
        }
        auto &ld = profile_.loadDeps;
        for (int l = 0; l < LoadDepProfile::kMaxDepth; ++l)
            ld.histo[i][l] += stats.loadHisto[l];
        ld.loads[i] += stats.loads;
        ld.windows[i] += 1;
        ld.independentLoads[i] += stats.independentLoads;

        if (i == median) {
            // Attribute load depths to their static op for the
            // stride-MLP model's dependence imposition.
            for (auto &[posInWin, depthv] : perLoad) {
                size_t pos = w * b + posInWin;
                const MicroOp &op = mt[pos];
                uint32_t sidx = 0;
                if (findMemOp(op.pc, sidx)) {
                    auto &sp = profile_.memOps[sidx];
                    sp.loadDepthSum += depthv;
                    sp.loadDepthCount++;
                }
            }
            perLoad.clear();
        }
        if (carry_) {
            // The chains accumulators are order-sensitive double sums;
            // keep the raw samples so the head replays them in stream
            // order (bit-identical to the sequential accumulation).
            chainSamples_[i].push_back(
                {stats.ap, stats.abp, stats.cp, stats.hasBranch});
        } else {
            profile_.chains.addSample(i, stats.ap, stats.abp,
                                      stats.hasBranch, stats.cp);
        }
    }
    if (nwin > 0) {
        wp.ap[i] = static_cast<float>(apSum / nwin);
        wp.cp[i] = static_cast<float>(cpSum / nwin);
        wp.abp[i] = abpWindows ?
            static_cast<float>(abpSum / abpWindows) : 0.0f;
    }
}

void
SegmentProfiler::finishMicroTrace()
{
    if (mtLen_ == 0)
        return;
    const MicroOp *mt = buf_ + (mtStart_ - bufBase_);
    const size_t mtLen = mtLen_;

    WindowProfile wp;
    wp.ap.resize(cfg_.robSizes.size());
    wp.abp.resize(cfg_.robSizes.size());
    wp.cp.resize(cfg_.robSizes.size());

    for (size_t k = 0; k < mtLen; ++k) {
        const MicroOp &op = mt[k];
        wp.uopCounts[static_cast<int>(op.type)]++;
        wp.insts += op.instBoundary ? 1 : 0;
        if (op.type == UopType::Branch)
            wp.branches++;
        profile_.srcOperands +=
            (op.src1 != kNoReg) + (op.src2 != kNoReg);
        profile_.dstOperands += op.dst != kNoReg;
    }
    profile_.profiledUops += mtLen;
    profile_.profiledInsts += wp.insts;
    for (int t = 0; t < kNumUopTypes; ++t)
        profile_.uopCounts[t] += wp.uopCounts[t];

    // Dependence chains + load-dependence distributions, one pass of
    // stepping windows per profiled ROB size (thesis Alg 3.1, sampled).
    // The per-size walks are independent (each writes disjoint state);
    // fan them out when the span is big enough to amortize the dispatch.
    const size_t nSizes = cfg_.robSizes.size();
    const size_t median = nSizes / 2;
    ThreadPool &pool = ThreadPool::shared();
    if (pool.concurrency() > 1 && mtLen * nSizes >= (1u << 14)) {
        pool.parallelFor(nSizes, 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                walkRobSize(mt, mtLen, i, median, wp);
        });
    } else {
        for (size_t i = 0; i < nSizes; ++i)
            walkRobSize(mt, mtLen, i, median, wp);
    }

    // Per-window branch entropy. For affected carry windows the map is
    // empty and absorb overwrites the value after replay.
    uint64_t nb = 0;
    wp.branchEntropy = static_cast<float>(entropyOf(mtBranchStats_, nb));

    // Per-window memory-op occurrence counts + spacing updates.
    wp.memCounts.reserve(mtTouched_.size());
    for (uint32_t idx : mtTouched_) {
        wp.memCounts.emplace_back(idx, mtMemCount_[idx]);
        profile_.memOps[idx].firstPosSum += mtFirstPos_[idx];
        profile_.memOps[idx].microTraces++;
        mtMemCount_[idx] = 0;
    }
    std::sort(wp.memCounts.begin(), wp.memCounts.end());
    mtTouched_.clear();
    wp.coldMisses = mtColdMisses_;

    profile_.windows.push_back(std::move(wp));
    mtLen_ = 0;
    mtBranchStats_.clear();
    mtColdMisses_ = 0;
    mtRecordBranches_ = false;
}

template <bool InMt>
void
SegmentProfiler::observeRange(const MicroOp *buf, uint64_t begin,
                              uint64_t end)
{
    // The line-reuse probe is the loop's dominant memory stall; its slot
    // for a memory access 64 uops ahead is prefetched here, far enough
    // out to cover the round-trip.
    constexpr uint64_t kLookahead = 64;
    const uint64_t n = feedEnd_;
    const uint64_t base = bufBase_;
    // I-line locality state lives in a register across the loop instead
    // of a member load/store per uop.
    uint64_t prevILine = prevILine_;
    for (uint64_t i = begin; i < end; ++i) {
        const MicroOp &op = buf[i - base];
        if (i + kLookahead < n) {
            const MicroOp &ahead = buf[i + kLookahead - base];
            if (isMemory(ahead.type))
                lastAccess_.prefetch(ahead.lineAddr());
        }
        // Instruction-stream reuse (observeIfetch, inlined on the iline
        // transition only).
        uint64_t iline = op.pc / kLineSize;
        if (iline != prevILine) {
            prevILine = iline;
            auto [last, cold] = lastILine_.tryEmplace(iline, iLineIndex_);
            if (cold) {
                if (carry_)
                    pendingILines_.push_back({iline, iLineIndex_, 0});
                else
                    profile_.reuseInsts.addInfinite();
            } else {
                profile_.reuseInsts.add(iLineIndex_ - last - 1);
                last = iLineIndex_;
            }
            iLineIndex_++;
        }
        if (isMemory(op.type))
            observeMemory(op, i, InMt);
        if (op.type == UopType::Branch)
            observeBranch(op, InMt);
    }
    prevILine_ = prevILine;
}

void
SegmentProfiler::feed(const MicroOp *ops, size_t n)
{
    if (n == 0)
        return;
    const size_t winSize = std::max<size_t>(1, cfg_.sampling.windowSize);
    if (fedAny_) {
        if (!cfg_.sampling.sampled())
            throw std::logic_error(
                "SegmentProfiler::feed: unsampled profiling forms one "
                "whole-stream micro-trace and takes a single feed");
        if (pos_ % winSize != 0)
            throw std::logic_error(
                "SegmentProfiler::feed: the previous feed ended "
                "mid-window; only the final feed may");
    } else {
        // Pre-size the hot maps so the innermost loop does not stall on
        // rehashes (the line-reuse map moves its whole payload on
        // growth).
        lastAccess_.reserve(std::min<size_t>(n / 8 + 64, 1u << 22));
        lastILine_.reserve(1024);
        branchTables_.reserve(64 * kBranchTableSize);
        // The per-micro-trace map keeps its capacity across clear();
        // size it once instead of growing through rehashes on the first
        // micro-trace.
        mtBranchStats_.reserve(512);
        fedAny_ = true;
    }
    buf_ = ops;
    bufBase_ = pos_;
    feedEnd_ = pos_ + n;

    // Walk whole in-/out-of-micro-trace segments instead of testing
    // inMicroTrace(i) per uop: the sampling flag becomes a compile-time
    // constant inside observeRange, so the 95 % fast-forward path
    // carries no micro-trace bookkeeping at all.
    const size_t mtSize = cfg_.sampling.microTraceSize;
    const uint64_t end = pos_ + n;
    if (mtSize >= winSize) {
        // No sampling: the whole stream is one micro-trace.
        mtStart_ = pos_;
        observeRange<true>(ops, pos_, end);
        mtLen_ = n;
        finishMicroTrace();
    } else {
        for (uint64_t winStart = pos_; winStart < end;
             winStart += winSize) {
            uint64_t mtEnd = std::min<uint64_t>(winStart + mtSize, end);
            mtStart_ = winStart;
            observeRange<true>(ops, winStart, mtEnd);
            mtLen_ = static_cast<size_t>(mtEnd - winStart);
            finishMicroTrace();
            observeRange<false>(
                ops, mtEnd, std::min<uint64_t>(winStart + winSize, end));
        }
    }
    pos_ = end;
    buf_ = nullptr;
}

void
SegmentProfiler::seal()
{
    if (!carry_ || sealed_)
        return;
    sealed_ = true;
    // Join each pending first-touch record with the segment's final
    // last-touch index so absorb needs a single global-map probe per
    // distinct line. The probes here hit segment-local maps and run on
    // the worker that profiled the segment.
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < pendingLines_.size(); ++i) {
        if (i + kAhead < pendingLines_.size())
            lastAccess_.prefetch(pendingLines_[i + kAhead].line);
        pendingLines_[i].lastLocalIdx =
            *lastAccess_.find(pendingLines_[i].line);
    }
    for (auto &e : pendingILines_)
        e.lastLocalIdx = *lastILine_.find(e.iline);
}

void
SegmentProfiler::absorb(SegmentProfiler &&seg)
{
    if (carry_ || !seg.carry_)
        throw std::logic_error(
            "SegmentProfiler::absorb: a head absorbs carry segments");
    if (seg.base_ != pos_)
        throw std::logic_error(
            "SegmentProfiler::absorb: segments must merge in stream "
            "order");
    if (seg.pos_ == seg.base_)
        return;
    seg.seal();

    // --- static-op identity: global creation order is first-appearance
    //     order across the whole stream, which is exactly head order
    //     followed by the segment's local creation order.
    std::vector<uint32_t> remap(seg.opRunning_.size());
    for (size_t l = 0; l < seg.opRunning_.size(); ++l)
        remap[l] = memOpIndex(seg.profile_.memOps[l].pc,
                              seg.profile_.memOps[l].isStore);

    // --- data-line reuse: resolve every pending first touch against the
    //     pre-segment last-touch map, then advance the map to the
    //     segment's final state — one probe per distinct line, with the
    //     same lookahead prefetch as the profiling loop.
    const uint64_t memBase = memIndex_;
    lastAccess_.reserve(lastAccess_.size() + seg.pendingLines_.size());
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < seg.pendingLines_.size(); ++i) {
        if (i + kAhead < seg.pendingLines_.size())
            lastAccess_.prefetch(seg.pendingLines_[i + kAhead].line);
        const PendingLine &e = seg.pendingLines_[i];
        OpRunning &gr = opRunning_[remap[e.op]];
        auto [slot, fresh] =
            lastAccess_.tryEmplace(e.line, memBase + e.lastLocalIdx);
        if (!fresh) {
            uint64_t rd = memBase + e.localMemIdx - slot - 1;
            slot = memBase + e.lastLocalIdx;
            size_t bin = LogHistogram::binIndex(rd);
            gr.reuse.addAtBin(bin);
            if (e.isStore != gr.isStore) [[unlikely]]
                addTypeAdjustBin(e.isStore, gr.isStore, bin);
        } else {
            gr.reuse.addInfinite();
            if (e.isStore != gr.isStore) [[unlikely]]
                addTypeAdjustInfinite(e.isStore, gr.isStore);
            if (!e.isStore) {
                profile_.cold.coldLoadMisses++;
                coldLoadUopIdx_.push_back(e.uopIndex);
                if (e.window != kNoWindow)
                    seg.profile_.windows[e.window].coldMisses++;
            }
        }
    }
    memIndex_ += seg.memIndex_;

    // --- instruction-line reuse. The segment's first i-line access is
    //     tentative: when the previous segment ends in the same i-line
    //     the sequential pass sees no transition there, so the access
    //     is dropped and every later local index shifts down by one
    //     (intra-segment distances are index-difference invariant).
    const uint64_t ilineBase = iLineIndex_;
    uint64_t shift = 0;
    lastILine_.reserve(lastILine_.size() + seg.pendingILines_.size());
    for (size_t k = 0; k < seg.pendingILines_.size(); ++k) {
        const PendingILine &e = seg.pendingILines_[k];
        bool spurious = k == 0 && e.iline == prevILine_;
        if (spurious)
            shift = 1;
        uint64_t gidx = ilineBase + e.localIdx - shift;
        auto [slot, fresh] =
            lastILine_.tryEmplace(e.iline,
                                  ilineBase + e.lastLocalIdx - shift);
        if (!fresh) {
            if (!spurious)
                profile_.reuseInsts.add(gidx - slot - 1);
            slot = ilineBase + e.lastLocalIdx - shift;
        } else {
            profile_.reuseInsts.addInfinite();
        }
    }
    iLineIndex_ += seg.iLineIndex_ - shift;
    prevILine_ = seg.prevILine_;
    // Locally-resolved i-line reuses are index differences, invariant
    // under the global renumbering (including the spurious-entry shift).
    profile_.reuseInsts.merge(seg.profile_.reuseInsts);

    // --- branch statistics: replay the history-incomplete prefix with
    //     the true carried-in global history, fold the settled tables,
    //     recompute affected windows, and compose the history register.
    std::vector<uint64_t> ghistAt(seg.pendingBranches_.size());
    {
        uint64_t g = ghist_;
        for (size_t k = 0; k < seg.pendingBranches_.size(); ++k) {
            const PendingBranch &pb = seg.pendingBranches_[k];
            ghistAt[k] = g;
            addGlobalBranch(pb.pc, pb.taken, g);
            g = (g << 1) | (pb.taken ? 1 : 0);
        }
    }
    auto foldTable = [&](uint64_t pc, uint32_t table) {
        const TakenCounts *src =
            seg.branchTables_.data() +
            static_cast<size_t>(table) * kBranchTableSize;
        TakenCounts *dst = branchTableFor(pc);
        for (size_t h = 0; h < kBranchTableSize; ++h) {
            dst[h].taken += src[h].taken;
            dst[h].total += src[h].total;
        }
    };
    if (seg.branchPcBase_ != ~0ULL)
        for (size_t off = 0; off < kPcWindow; ++off)
            if (uint32_t slot = seg.branchDirect_[off])
                foldTable(seg.branchPcBase_ + off, slot - 1);
    seg.branchPc_.forEach([&](uint64_t pc, const uint32_t &table) {
        foldTable(pc, table);
    });
    for (const AffectedWindow &aw : seg.affectedWindows_) {
        uint64_t g = ghistAt[aw.firstBranchOrdinal];
        FlatMap<TakenCounts> stats;
        stats.reserve(aw.branches.size());
        for (const PendingBranch &pb : aw.branches) {
            uint64_t wkey = (pb.pc << kWindowHistoryBits) |
                            (g & kWinHistMask);
            auto &c = stats[wkey];
            c.taken += pb.taken ? 1 : 0;
            c.total++;
            g = (g << 1) | (pb.taken ? 1 : 0);
        }
        uint64_t nb = 0;
        seg.profile_.windows[aw.window].branchEntropy =
            static_cast<float>(entropyOf(stats, nb));
    }
    ghist_ = seg.branchOrdinal_ >= 64
                 ? seg.ghist_
                 : (ghist_ << seg.branchOrdinal_) | seg.ghist_;

    // --- per-op running state: boundary stride/gap first (it happens
    //     at the segment's first access of the op), then the local
    //     stride arrivals replayed through the global 64-distinct
    //     admission rule in stream order.
    for (size_t l = 0; l < seg.opRunning_.size(); ++l) {
        OpRunning &gr = opRunning_[remap[l]];
        OpRunning &lr = seg.opRunning_[l];
        const OpBoundary &ob = seg.opBoundary_[l];
        if (gr.seen) {
            gr.addStrideN(
                static_cast<uint64_t>(ob.firstAddr - gr.lastAddr), 1);
            gr.gapSum += ob.firstUop - gr.lastUopIdx;
            gr.gapCount++;
            gr.selfDependent += ob.firstSelfDep ? 1 : 0;
        }
        for (size_t k = 0; k < lr.nInline; ++k)
            gr.addStrideN(lr.strideKey[k], lr.strideCount[k]);
        for (uint64_t s : lr.overflowOrder)
            gr.addStrideN(s, *lr.strideOverflow.find(s));
        gr.count += lr.count;
        gr.gapSum += lr.gapSum;
        gr.gapCount += lr.gapCount;
        gr.selfDependent += lr.selfDependent;
        gr.reuse.merge(lr.reuse);
        const bool gn = gr.isStore, ln = lr.isStore;
        if (ln == gn) {
            if (ob.minorityReuse.total()) {
                typeAdjust_[gn ? 0 : 1].add.merge(ob.minorityReuse);
                typeAdjust_[gn ? 1 : 0].sub.merge(ob.minorityReuse);
            }
        } else {
            // The segment guessed the wrong nominal type: its majority
            // accesses (type ln) mismatch the global nominal, while the
            // minority part (type gn) matches and needs no correction.
            LogHistogram majority = lr.reuse;
            majority.subtract(ob.minorityReuse);
            if (majority.total()) {
                typeAdjust_[ln ? 1 : 0].add.merge(majority);
                typeAdjust_[gn ? 1 : 0].sub.merge(majority);
            }
        }
        gr.lastAddr = lr.lastAddr;
        gr.lastUopIdx = lr.lastUopIdx;
        gr.seen = true;

        StaticMemProfile &gsp = profile_.memOps[remap[l]];
        const StaticMemProfile &lsp = seg.profile_.memOps[l];
        gsp.firstPosSum += lsp.firstPosSum;
        gsp.microTraces += lsp.microTraces;
        gsp.loadDepthSum += lsp.loadDepthSum;
        gsp.loadDepthCount += lsp.loadDepthCount;
    }

    // --- dependence chains (sample replay, stream order) + integer rows
    for (size_t i = 0; i < cfg_.robSizes.size(); ++i) {
        for (const ChainSample &cs : seg.chainSamples_[i])
            profile_.chains.addSample(i, cs.ap, cs.abp, cs.hasBranch,
                                      cs.cp);
        auto &ld = profile_.loadDeps;
        const auto &sld = seg.profile_.loadDeps;
        for (int l = 0; l < LoadDepProfile::kMaxDepth; ++l)
            ld.histo[i][l] += sld.histo[i][l];
        ld.loads[i] += sld.loads[i];
        ld.windows[i] += sld.windows[i];
        ld.independentLoads[i] += sld.independentLoads[i];
    }

    profile_.profiledUops += seg.profile_.profiledUops;
    profile_.profiledInsts += seg.profile_.profiledInsts;
    for (int t = 0; t < kNumUopTypes; ++t)
        profile_.uopCounts[t] += seg.profile_.uopCounts[t];
    profile_.srcOperands += seg.profile_.srcOperands;
    profile_.dstOperands += seg.profile_.dstOperands;

    // --- windows: append in stream order with memCounts re-indexed to
    //     the global static-op identities.
    profile_.windows.reserve(profile_.windows.size() +
                             seg.profile_.windows.size());
    for (WindowProfile &w : seg.profile_.windows) {
        for (auto &[idx, cnt] : w.memCounts)
            idx = remap[idx];
        std::sort(w.memCounts.begin(), w.memCounts.end());
        profile_.windows.push_back(std::move(w));
    }

    pos_ = seg.pos_;
}

Profile
SegmentProfiler::finalize() &&
{
    if (carry_)
        throw std::logic_error(
            "SegmentProfiler::finalize: carry segments are absorbed, "
            "not finalized");
    profile_.totalUops = pos_;

    // Finalize branch entropy, iterating in (pc, history) order so the
    // floating-point sum is identical to a sorted-key reference.
    std::vector<std::pair<uint64_t, uint32_t>> pcs;
    pcs.reserve(numBranchTables_);
    if (branchPcBase_ != ~0ULL)
        for (size_t off = 0; off < kPcWindow; ++off)
            if (uint32_t slot = branchDirect_[off])
                pcs.emplace_back(branchPcBase_ + off, slot - 1);
    branchPc_.forEach([&](uint64_t pc, const uint32_t &table) {
        pcs.emplace_back(pc, table);
    });
    std::sort(pcs.begin(), pcs.end());
    double sum = 0;
    uint64_t branches = 0;
    for (const auto &[pc, table] : pcs) {
        const TakenCounts *tc = branchTables_.data() +
                                static_cast<size_t>(table) * kBranchTableSize;
        for (size_t h = 0; h < kBranchTableSize; ++h) {
            const TakenCounts &c = tc[h];
            if (!c.total)
                continue;
            double p = static_cast<double>(c.taken) / c.total;
            sum += c.total * linearEntropy(p);
            branches += c.total;
        }
    }
    profile_.branch.staticBranches = pcs.size();
    profile_.branch.branches = branches;
    profile_.branch.entropySum = sum;

    // Materialize the per-op running state into the profile's output
    // records (sorted stride maps are the serialized representation),
    // assembling the per-type reuse distributions along the way.
    for (size_t idx = 0; idx < opRunning_.size(); ++idx) {
        OpRunning &run = opRunning_[idx];
        StaticMemProfile &sp = profile_.memOps[idx];
        sp.count = run.count;
        sp.gapSum = run.gapSum;
        sp.gapCount = run.gapCount;
        sp.selfDependent = run.selfDependent;
        sp.reuse = std::move(run.reuse);
        (sp.isStore ? profile_.reuseStores : profile_.reuseLoads)
            .merge(sp.reuse);
        sp.strides.reserve(run.nInline + run.strideOverflow.size());
        for (size_t k = 0; k < run.nInline; ++k)
            sp.strides.emplace_back(
                static_cast<int64_t>(run.strideKey[k]),
                run.strideCount[k]);
        run.strideOverflow.forEach(
            [&](uint64_t stride, const uint64_t &count) {
                sp.strides.emplace_back(static_cast<int64_t>(stride),
                                        count);
            });
        std::sort(sp.strides.begin(), sp.strides.end());
    }

    // Apply the mixed-type corrections, then derive the combined
    // distribution (every access is exactly one of load/store).
    profile_.reuseLoads.merge(typeAdjust_[0].add);
    profile_.reuseLoads.subtract(typeAdjust_[0].sub);
    profile_.reuseStores.merge(typeAdjust_[1].add);
    profile_.reuseStores.subtract(typeAdjust_[1].sub);
    profile_.reuseAll.merge(profile_.reuseLoads);
    profile_.reuseAll.merge(profile_.reuseStores);

    // Cold-miss burstiness per ROB size (thesis §4.4): step ROB-sized
    // windows over the uop stream and count cold loads per window.
    for (size_t i = 0; i < cfg_.robSizes.size(); ++i) {
        uint64_t b = cfg_.robSizes[i];
        uint64_t curWindow = ~0ULL;
        uint64_t inWindow = 0;
        auto &cold = profile_.cold;
        cold.totalWindows[i] = pos_ / b;
        for (uint64_t idx : coldLoadUopIdx_) {
            uint64_t w = idx / b;
            if (w != curWindow) {
                if (curWindow != ~0ULL) {
                    cold.windowsWithCold[i]++;
                    cold.coldInWindows[i] += inWindow;
                }
                curWindow = w;
                inWindow = 0;
            }
            inWindow++;
        }
        if (curWindow != ~0ULL) {
            cold.windowsWithCold[i]++;
            cold.coldInWindows[i] += inWindow;
        }
    }

    return std::move(profile_);
}

} // namespace mipp
