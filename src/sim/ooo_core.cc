#include "sim/ooo_core.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <stdexcept>

#include "sim/branch_predictor.hh"

namespace mipp {

namespace {

/** End of a consumer list. */
constexpr uint64_t kNoDep = ~0ULL;

/** A run without a commit for this many cycles is a deadlock. */
constexpr uint64_t kDeadlockCycles = 1000000;

/**
 * One in-flight instruction in the reorder buffer.
 *
 * Consumers waiting on this entry's result form an intrusive list: a
 * link is consumer seq * 2 + source slot, firstDep is the head, and the
 * consumer's nextDep[slot] continues the list.
 */
struct RobEntry {
    MicroOp op;
    uint64_t seq = 0;
    uint64_t doneCycle = 0;
    uint64_t firstDep = kNoDep;
    uint64_t nextDep[2] = {kNoDep, kNoDep};
    uint8_t pending = 0;      ///< sources whose producer is not done
    bool issued = false;
    bool done = false;
    bool blockingMispredict = false;   ///< fetch waits on this branch
    HitLevel level = HitLevel::L1;     ///< loads: where data came from
};

/** A fetched uop travelling down the front-end pipeline. */
struct PendingUop {
    MicroOp op;
    uint64_t readyCycle = 0;
    bool mispredicted = false;
};

/** An outstanding L1D miss. */
struct InFlightLine {
    uint64_t line;
    uint64_t doneCycle;   ///< data-ready cycle
    bool dram;            ///< served from DRAM
};

/** Why instruction delivery is currently stalled. */
enum class FetchStall { None, Branch, ICache };

size_t
ringCapacity(uint32_t robSize)
{
    size_t cap = 64;
    while (cap < robSize)
        cap *= 2;
    return cap;
}

class Core
{
  public:
    Core(const CoreConfig &cfg, const SimOptions &opts)
        : cfg_(cfg), opts_(opts), mem_(cfg),
          bp_(BranchPredictor::create(cfg.predictor, cfg.predictorBytes)),
          feBufferCap_(cfg.fetchWidth * (cfg.frontendDepth + 2)),
          rob_(ringCapacity(cfg.robSize)), robMask_(rob_.size() - 1),
          ready_(rob_.size() / 64, 0)
    {
        for (int t = 0; t < kNumUopTypes; ++t) {
            if (!cfg_.fus[t].pipelined)
                fuBusyUntil_[t].assign(cfg_.fus[t].count, 0);
        }
        inFlightLines_.reserve(cfg_.mshrs);
    }

    SimResult run(const Trace &trace);

  private:
    // Pipeline stages, called once per cycle.
    void complete();
    uint32_t commit();
    void issue();
    void dispatch();
    void fetch(const Trace &trace);
    double &account(uint32_t commits);

    uint64_t nextEvent(uint64_t limit) const;
    bool issueSlots(size_t lo, size_t hi, uint32_t &issued);
    bool tryIssueOne(RobEntry &e);
    void startLoad(RobEntry &e);
    InFlightLine *findInFlight(uint64_t line);

    RobEntry &entry(uint64_t seq) { return rob_[seq & robMask_]; }
    size_t robOccupancy() const { return nextSeq_ - headSeq_; }
    void setReady(uint64_t seq)
    {
        size_t slot = seq & robMask_;
        ready_[slot / 64] |= 1ULL << (slot % 64);
    }

    const CoreConfig &cfg_;
    const SimOptions opts_;
    MemoryHierarchy mem_;
    std::unique_ptr<BranchPredictor> bp_;

    uint64_t now_ = 0;
    /** Set by any stage that changes state this cycle. */
    bool active_ = false;
    size_t fetchIndex_ = 0;
    size_t traceSize_ = 0;

    std::deque<PendingUop> feBuffer_;
    const size_t feBufferCap_;
    uint32_t iqOccupancy_ = 0;
    uint32_t lsqOccupancy_ = 0;

    /** ROB ring indexed by seq & robMask_, holding [headSeq_, nextSeq_). */
    std::vector<RobEntry> rob_;
    const size_t robMask_;
    uint64_t headSeq_ = 0;
    uint64_t nextSeq_ = 0;
    /** One bit per ring slot: dispatched, not issued, sources ready. */
    std::vector<uint64_t> ready_;
    /** Min-heap of (doneCycle, seq) over issued, not yet done entries. */
    std::vector<std::pair<uint64_t, uint64_t>> doneHeap_;

    /** Rename map: architectural register -> producing seq (-1 = ready). */
    int64_t renameMap_[kNumRegs] = {};

    // Front-end stall machinery.
    uint64_t fetchStallUntil_ = 0;
    FetchStall stallReason_ = FetchStall::None;
    bool fetchBlocked_ = false;     ///< waiting on a mispredicted branch
    uint64_t lastFetchLine_ = ~0ULL;

    // Issue-stage per-cycle resources.
    std::vector<bool> portUsed_;
    uint32_t fuIssued_[kNumUopTypes] = {};
    /** Non-pipelined pools: cycle each unit is free again. */
    std::array<std::vector<uint64_t>, kNumUopTypes> fuBusyUntil_;

    /** Outstanding L1D misses, one per line (about mshrs of them). */
    std::vector<InFlightLine> inFlightLines_;
    uint32_t outstandingDram_ = 0;

    SimResult res_;
    uint64_t committedUops_ = 0;
    uint64_t committedInsts_ = 0;
    uint64_t lastWindowCycle_ = 0;
    uint64_t lastWindowUops_ = 0;
    uint64_t mlpSum_ = 0;
};

InFlightLine *
Core::findInFlight(uint64_t line)
{
    for (InFlightLine &l : inFlightLines_)
        if (l.line == line)
            return &l;
    return nullptr;
}

void
Core::complete()
{
    // Prune resolved outstanding misses.
    for (size_t i = 0; i < inFlightLines_.size();) {
        if (inFlightLines_[i].doneCycle <= now_) {
            outstandingDram_ -= inFlightLines_[i].dram;
            inFlightLines_[i] = inFlightLines_.back();
            inFlightLines_.pop_back();
            active_ = true;
        } else {
            ++i;
        }
    }
    while (!doneHeap_.empty() && doneHeap_.front().first <= now_) {
        uint64_t seq = doneHeap_.front().second;
        std::pop_heap(doneHeap_.begin(), doneHeap_.end(), std::greater<>());
        doneHeap_.pop_back();
        active_ = true;

        RobEntry &e = entry(seq);
        e.done = true;
        if (e.blockingMispredict) {
            fetchBlocked_ = false;
            fetchStallUntil_ = e.doneCycle + cfg_.frontendDepth;
            stallReason_ = FetchStall::Branch;
        }
        // Wake the consumers.
        for (uint64_t link = e.firstDep; link != kNoDep;) {
            RobEntry &c = entry(link / 2);
            if (--c.pending == 0)
                setReady(link / 2);
            link = c.nextDep[link % 2];
        }
    }
}

uint32_t
Core::commit()
{
    uint32_t commits = 0;
    while (robOccupancy() > 0 && commits < cfg_.commitWidth) {
        RobEntry &head = entry(headSeq_);
        if (!head.done)
            break;
        if (head.op.type == UopType::Store) {
            // Write-back at retirement; the core does not wait for it.
            mem_.access(head.op.addr, head.op.pc, AccessKind::Store, now_);
            lsqOccupancy_--;
        } else if (head.op.type == UopType::Load) {
            lsqOccupancy_--;
        }
        res_.activity.robReads++;
        if (head.op.dst != kNoReg) {
            res_.activity.rfWrites++;
            // Clear the rename entry if this uop is still the last writer.
            if (renameMap_[head.op.dst] ==
                static_cast<int64_t>(head.seq))
                renameMap_[head.op.dst] = -1;
        }
        committedUops_++;
        committedInsts_ += head.op.instBoundary ? 1 : 0;
        headSeq_++;
        commits++;

        // Per-window CPI series for phase analysis.
        if (opts_.cpiWindowUops &&
            committedUops_ - lastWindowUops_ >= opts_.cpiWindowUops) {
            double cycles = static_cast<double>(now_ - lastWindowCycle_);
            double uops =
                static_cast<double>(committedUops_ - lastWindowUops_);
            res_.windowCpi.push_back(cycles / uops);
            lastWindowCycle_ = now_;
            lastWindowUops_ = committedUops_;
        }
    }
    if (commits)
        active_ = true;
    return commits;
}

void
Core::startLoad(RobEntry &e)
{
    if (opts_.perfectDCache) {
        e.level = HitLevel::L1;
        e.doneCycle = now_ + cfg_.l1d.latency;
        return;
    }
    uint64_t line = e.op.lineAddr();
    if (const InFlightLine *l = findInFlight(line)) {
        // Coalesce with an outstanding miss to the same line.
        e.level = l->dram ? HitLevel::Dram : HitLevel::L2;
        e.doneCycle = std::max<uint64_t>(l->doneCycle,
                                         now_ + cfg_.l1d.latency);
        return;
    }
    AccessResult r = mem_.access(e.op.addr, e.op.pc, AccessKind::Load, now_);
    e.level = r.level;
    e.doneCycle = now_ + r.latency;
    if (r.level != HitLevel::L1) {
        bool dram = r.level == HitLevel::Dram;
        inFlightLines_.push_back({line, e.doneCycle, dram});
        outstandingDram_ += dram;
    }
}

bool
Core::tryIssueOne(RobEntry &e)
{
    int t = static_cast<int>(e.op.type);

    // Structural check: MSHRs for loads that will miss in L1D.
    if (e.op.type == UopType::Load && !opts_.perfectDCache) {
        HitLevel lvl = mem_.peekLevel(e.op.addr);
        bool coalesced = findInFlight(e.op.lineAddr()) != nullptr;
        if (lvl != HitLevel::L1 && !coalesced &&
            inFlightLines_.size() >= cfg_.mshrs)
            return false;
    }

    // A free issue port that feeds this uop type.
    int port = -1;
    for (size_t p = 0; p < cfg_.ports.size(); ++p) {
        if (!portUsed_[p] && cfg_.ports[p].canIssue(e.op.type)) {
            port = static_cast<int>(p);
            break;
        }
    }
    if (port < 0)
        return false;

    // A free functional unit.
    const FuPool &pool = cfg_.fus[t];
    if (pool.pipelined) {
        if (fuIssued_[t] >= pool.count)
            return false;
    } else {
        auto &busy = fuBusyUntil_[t];
        size_t unit = busy.size();
        for (size_t u = 0; u < busy.size(); ++u) {
            if (busy[u] <= now_) {
                unit = u;
                break;
            }
        }
        if (unit == busy.size())
            return false;
        busy[unit] = now_ + cfg_.lat.of(e.op.type);
    }

    portUsed_[port] = true;
    fuIssued_[t]++;
    e.issued = true;
    iqOccupancy_--;

    res_.activity.iqWakeups++;
    res_.activity.fuOps[t]++;
    res_.activity.rfReads +=
        (e.op.src1 != kNoReg) + (e.op.src2 != kNoReg);

    if (e.op.type == UopType::Load)
        startLoad(e);
    else
        e.doneCycle = now_ + cfg_.lat.of(e.op.type);
    doneHeap_.push_back({e.doneCycle, e.seq});
    std::push_heap(doneHeap_.begin(), doneHeap_.end(), std::greater<>());
    return true;
}

/** Try the ready entries in ring slots [lo, hi) in slot order.
 *  @return false once the issue width is used up. */
bool
Core::issueSlots(size_t lo, size_t hi, uint32_t &issued)
{
    const uint32_t issue_width = cfg_.numPorts();
    for (size_t w = lo / 64; w * 64 < hi; ++w) {
        uint64_t bits = ready_[w];
        if (w == lo / 64)
            bits &= ~0ULL << (lo % 64);
        if (hi - w * 64 < 64)
            bits &= (1ULL << (hi - w * 64)) - 1;
        for (; bits; bits &= bits - 1) {
            if (issued >= issue_width)
                return false;
            int b = __builtin_ctzll(bits);
            if (tryIssueOne(rob_[w * 64 + b])) {
                ready_[w] &= ~(1ULL << b);
                issued++;
            }
        }
    }
    return true;
}

void
Core::issue()
{
    portUsed_.assign(cfg_.ports.size(), false);
    for (int t = 0; t < kNumUopTypes; ++t)
        fuIssued_[t] = 0;

    // Oldest first: from the head's slot to the end of the ring, then
    // from slot 0 up to the head.
    uint32_t issued = 0;
    size_t head = headSeq_ & robMask_;
    if (issueSlots(head, rob_.size(), issued))
        issueSlots(0, head, issued);
    if (issued)
        active_ = true;
}

void
Core::dispatch()
{
    uint32_t dispatched = 0;
    while (dispatched < cfg_.dispatchWidth && !feBuffer_.empty()) {
        PendingUop &p = feBuffer_.front();
        if (p.readyCycle > now_)
            break;
        if (robOccupancy() >= cfg_.robSize || iqOccupancy_ >= cfg_.iqSize)
            break;
        if (isMemory(p.op.type) && lsqOccupancy_ >= cfg_.lsqSize)
            break;

        uint64_t seq = nextSeq_++;
        RobEntry &e = entry(seq);
        e = RobEntry{};
        e.op = p.op;
        e.seq = seq;
        e.blockingMispredict = p.mispredicted;
        const int8_t srcs[2] = {p.op.src1, p.op.src2};
        for (int slot = 0; slot < 2; ++slot) {
            if (srcs[slot] == kNoReg)
                continue;
            int64_t producer = renameMap_[srcs[slot]];
            if (producer < 0)
                continue;
            RobEntry &prod = entry(producer);
            if (prod.done)
                continue;
            e.pending++;
            e.nextDep[slot] = prod.firstDep;
            prod.firstDep = seq * 2 + slot;
        }
        if (e.pending == 0)
            setReady(seq);
        if (p.op.dst != kNoReg)
            renameMap_[p.op.dst] = static_cast<int64_t>(seq);
        if (isMemory(p.op.type))
            lsqOccupancy_++;
        iqOccupancy_++;
        feBuffer_.pop_front();
        dispatched++;

        res_.activity.robWrites++;
        res_.activity.iqWrites++;
        res_.activity.uops++;
        res_.activity.instructions += e.op.instBoundary ? 1 : 0;
    }
    if (dispatched)
        active_ = true;
}

void
Core::fetch(const Trace &trace)
{
    if (fetchBlocked_ || now_ < fetchStallUntil_)
        return;
    stallReason_ = FetchStall::None;

    uint32_t fetched = 0;
    while (fetched < cfg_.fetchWidth && fetchIndex_ < traceSize_ &&
           feBuffer_.size() < feBufferCap_) {
        const MicroOp &op = trace[fetchIndex_];
        active_ = true;

        // Instruction-cache lookup on line crossings.
        uint64_t line = op.pc / kLineSize;
        if (line != lastFetchLine_ && !opts_.perfectICache) {
            AccessResult r =
                mem_.access(op.pc, op.pc, AccessKind::Ifetch, now_);
            lastFetchLine_ = line;
            if (r.level != HitLevel::L1) {
                fetchStallUntil_ = now_ + r.latency;
                stallReason_ = FetchStall::ICache;
                return;
            }
        }
        lastFetchLine_ = line;

        PendingUop p;
        p.op = op;
        p.readyCycle = now_ + cfg_.frontendDepth;
        if (op.type == UopType::Branch) {
            res_.branches++;
            res_.activity.bpLookups++;
            bool correct = bp_->predictAndUpdate(op.pc, op.taken);
            if (!correct && !opts_.perfectBranch) {
                res_.branchMispredicts++;
                p.mispredicted = true;
                fetchBlocked_ = true;
                stallReason_ = FetchStall::Branch;
                feBuffer_.push_back(p);
                fetchIndex_++;
                return;
            }
        }
        feBuffer_.push_back(p);
        fetchIndex_++;
        fetched++;
    }
}

/** Charge this cycle; @return the CPI component it was charged to. */
double &
Core::account(uint32_t commits)
{
    // Memory-level parallelism bookkeeping.
    if (outstandingDram_ > 0) {
        res_.dramCycles++;
        mlpSum_ += outstandingDram_;
    }

    // CPI-stack attribution (one component per cycle).
    CpiStack &s = res_.stack;
    double *c = &s.base;
    if (commits == 0 && robOccupancy() > 0) {
        const RobEntry &head = entry(headSeq_);
        if (head.issued && !head.done && head.op.type == UopType::Load) {
            switch (head.level) {
              case HitLevel::Dram: c = &s.dram; break;
              case HitLevel::L3: c = &s.llcHit; break;
              case HitLevel::L2: c = &s.l2hit; break;
              default: break;
            }
        }
    } else if (commits == 0) {
        // Empty ROB: the front end is the bottleneck.
        if (fetchBlocked_ || stallReason_ == FetchStall::Branch)
            c = &s.branch;
        else if (stallReason_ == FetchStall::ICache)
            c = &s.icache;
    }
    *c += 1;
    return *c;
}

/**
 * First cycle after now_ at which an idle core can act again: an issued
 * uop or an outstanding miss completes, fetch resumes, the front-end
 * buffer's head reaches dispatch or a non-pipelined unit frees up.
 * Never later than @p limit.
 */
uint64_t
Core::nextEvent(uint64_t limit) const
{
    uint64_t next = limit;
    auto consider = [&](uint64_t cycle) {
        if (cycle > now_ && cycle < next)
            next = cycle;
    };
    if (!doneHeap_.empty())
        consider(doneHeap_.front().first);
    for (const InFlightLine &l : inFlightLines_)
        consider(l.doneCycle);
    if (!fetchBlocked_)
        consider(fetchStallUntil_);
    if (!feBuffer_.empty())
        consider(feBuffer_.front().readyCycle);
    for (const auto &busy : fuBusyUntil_)
        for (uint64_t b : busy)
            consider(b);
    return next;
}

SimResult
Core::run(const Trace &trace)
{
    traceSize_ = trace.size();
    res_ = SimResult{};
    for (auto &r : renameMap_)
        r = -1;

    uint64_t last_progress_cycle = 0;
    uint64_t last_committed = 0;
    while (committedUops_ < traceSize_) {
        active_ = false;
        const FetchStall stall_before = stallReason_;
        complete();
        uint32_t commits = commit();
        issue();
        dispatch();
        fetch(trace);
        double &charged = account(commits);

        if (committedUops_ != last_committed) {
            last_committed = committedUops_;
            last_progress_cycle = now_;
        } else if (now_ - last_progress_cycle > kDeadlockCycles) {
            throw std::logic_error("simulator deadlock at cycle " +
                                   std::to_string(now_));
        }

        // An idle cycle repeats until the next event: charge the cycles
        // in between as this one was charged, without simulating them.
        uint64_t next = now_ + 1;
        if (!active_ && stallReason_ == stall_before) {
            next = nextEvent(last_progress_cycle + kDeadlockCycles + 1);
            uint64_t skipped = next - now_ - 1;
            charged += static_cast<double>(skipped);
            if (outstandingDram_ > 0) {
                res_.dramCycles += skipped;
                mlpSum_ += skipped * outstandingDram_;
            }
        }
        now_ = next;
    }

    res_.cycles = now_;
    res_.uops = committedUops_;
    res_.instructions = committedInsts_;
    res_.mem = mem_.stats();
    res_.avgMlp = res_.dramCycles ?
        static_cast<double>(mlpSum_) / res_.dramCycles : 1.0;

    ActivityCounts &a = res_.activity;
    a.cycles = now_;
    a.l1iAccesses = res_.mem.l1i.accesses();
    a.l1dAccesses = res_.mem.l1d.accesses();
    a.l2Accesses = res_.mem.l2.accesses();
    a.l3Accesses = res_.mem.l3.accesses();
    a.dramAccesses = res_.mem.dramAccesses;
    return res_;
}

} // namespace

SimResult
simulate(const Trace &trace, const CoreConfig &cfg, const SimOptions &opts)
{
    Core core(cfg, opts);
    return core.run(trace);
}

} // namespace mipp
