/**
 * @file
 * Profiler parity test: the optimized profiler (flat-hash state,
 * zero-copy micro-trace spans, derived per-type reuse histograms,
 * segmented sampling loop) must produce a Profile identical to a
 * straightforward reference implementation — the pre-optimization
 * algorithm, written here with std::map state and a copying micro-trace
 * buffer. Every statistic is compared exactly, including floating-point
 * accumulators (both implementations sum in deterministic orders that
 * are arithmetically identical).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "profile_compare.hh"
#include "profiler/profiler.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

// --------------------------------------------------------------------------
// Reference profiler: direct, std::map-based implementation of the same
// definitions (thesis Alg 3.1, Fig 4.1, Eq 3.13-3.15).
// --------------------------------------------------------------------------

double
refLinearEntropy(double p)
{
    return 2.0 * std::min(p, 1.0 - p);
}

struct RefTakenCounts {
    uint32_t taken = 0;
    uint32_t total = 0;
};

/** Entropy over (key -> counts), summed in sorted key order. */
double
refEntropyOf(const std::map<uint64_t, RefTakenCounts> &stats,
             uint64_t &branchesOut)
{
    double sum = 0;
    uint64_t branches = 0;
    for (const auto &[key, c] : stats) {
        double p = static_cast<double>(c.taken) / c.total;
        sum += c.total * refLinearEntropy(p);
        branches += c.total;
    }
    branchesOut = branches;
    return branches ? sum / branches : 0.0;
}

struct RefWindowStats {
    double ap = 0;
    double abp = 0;
    bool hasBranch = false;
    double cp = 0;
    std::array<uint32_t, LoadDepProfile::kMaxDepth> loadHisto{};
    uint32_t loads = 0;
    uint32_t independentLoads = 0;
};

RefWindowStats
refWalkWindow(const MicroOp *ops, size_t n,
              std::vector<std::pair<uint32_t, uint32_t>> *loadDepthPerOp)
{
    RefWindowStats out;
    int prod[kNumRegs];
    std::fill(std::begin(prod), std::end(prod), -1);

    std::vector<uint16_t> depth(n), loadDepth(n);
    double depthSum = 0, branchDepthSum = 0;
    uint32_t branches = 0;
    uint16_t maxDepth = 0;

    for (size_t j = 0; j < n; ++j) {
        const MicroOp &op = ops[j];
        uint16_t d = 0, ld = 0;
        auto consider = [&](int8_t reg) {
            if (reg == kNoReg)
                return;
            int p = prod[reg];
            if (p >= 0) {
                d = std::max(d, depth[p]);
                ld = std::max(ld, loadDepth[p]);
            }
        };
        consider(op.src1);
        consider(op.src2);
        depth[j] = d + 1;
        bool is_load = op.type == UopType::Load;
        loadDepth[j] = ld + (is_load ? 1 : 0);
        if (op.dst != kNoReg)
            prod[op.dst] = static_cast<int>(j);

        depthSum += depth[j];
        maxDepth = std::max(maxDepth, depth[j]);
        if (op.type == UopType::Branch) {
            branchDepthSum += depth[j];
            branches++;
        }
        if (is_load) {
            out.loads++;
            int bin = std::min<int>(loadDepth[j],
                                    LoadDepProfile::kMaxDepth);
            out.loadHisto[bin - 1]++;
            if (loadDepth[j] == 1)
                out.independentLoads++;
            if (loadDepthPerOp)
                loadDepthPerOp->emplace_back(static_cast<uint32_t>(j),
                                             loadDepth[j]);
        }
    }
    out.ap = n ? depthSum / n : 0;
    out.cp = maxDepth;
    out.hasBranch = branches > 0;
    out.abp = branches ? branchDepthSum / branches : 0;
    return out;
}

class RefProfiler
{
  public:
    explicit RefProfiler(const ProfilerConfig &cfg) : cfg_(cfg)
    {
        profile_.name = cfg.name;
        profile_.sampling = cfg.sampling;
        profile_.robSizes = cfg.robSizes;
        profile_.chains = DependenceChains(cfg.robSizes);
        profile_.loadDeps.resize(cfg.robSizes.size());
        profile_.cold.resize(cfg.robSizes.size());
        profile_.branch.historyBits = kHistoryBits;
    }

    Profile
    run(const Trace &trace)
    {
        profile_.totalUops = trace.size();

        bool prevInMt = false;
        for (size_t i = 0; i < trace.size(); ++i) {
            const MicroOp &op = trace[i];
            bool in_mt = cfg_.sampling.inMicroTrace(i);
            if (prevInMt && !in_mt)
                finishMicroTrace();
            prevInMt = in_mt;

            observeIfetch(op);
            if (isMemory(op.type))
                observeMemory(op, i, in_mt);
            if (op.type == UopType::Branch)
                observeBranch(op, in_mt);

            if (in_mt)
                mtBuf_.push_back(op);
        }
        finishMicroTrace();

        {
            std::map<uint64_t, bool> seen;
            for (const auto &[key, c] : branchStats_)
                seen[key >> kHistoryBits] = true;
            profile_.branch.staticBranches = seen.size();
        }
        uint64_t nb = 0;
        double e = refEntropyOf(branchStats_, nb);
        profile_.branch.branches = nb;
        profile_.branch.entropySum = e * nb;

        for (size_t i = 0; i < cfg_.robSizes.size(); ++i) {
            uint64_t b = cfg_.robSizes[i];
            uint64_t curWindow = ~0ULL;
            uint64_t inWindow = 0;
            auto &cold = profile_.cold;
            cold.totalWindows[i] = trace.size() / b;
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

        // Materialize the std::map stride counts into the profile's
        // sorted-vector representation.
        for (size_t idx = 0; idx < opStrides_.size(); ++idx)
            profile_.memOps[idx].strides.assign(opStrides_[idx].begin(),
                                                opStrides_[idx].end());

        return std::move(profile_);
    }

  private:
    uint32_t
    memOpIndex(uint64_t pc, bool isStore)
    {
        auto it = memOpIndex_.find(pc);
        if (it != memOpIndex_.end())
            return it->second;
        uint32_t idx = static_cast<uint32_t>(profile_.memOps.size());
        memOpIndex_[pc] = idx;
        StaticMemProfile p;
        p.pc = pc;
        p.isStore = isStore;
        profile_.memOps.push_back(std::move(p));
        opStrides_.emplace_back();
        opRunning_.emplace_back();
        return idx;
    }

    void
    observeMemory(const MicroOp &op, size_t uopIndex, bool inMt)
    {
        uint64_t line = op.lineAddr();
        bool is_store = op.type == UopType::Store;

        auto [it, cold] = lastAccess_.try_emplace(line, memIndex_);
        uint64_t rd = 0;
        if (!cold) {
            rd = memIndex_ - it->second - 1;
            it->second = memIndex_;
        }
        memIndex_++;

        auto addReuse = [&](LogHistogram &h) {
            if (cold)
                h.addInfinite();
            else
                h.add(rd);
        };
        addReuse(profile_.reuseAll);
        addReuse(is_store ? profile_.reuseStores : profile_.reuseLoads);

        if (cold && !is_store) {
            profile_.cold.coldLoadMisses++;
            coldLoadUopIdx_.push_back(uopIndex);
            if (inMt)
                mtColdMisses_++;
        }

        uint32_t idx = memOpIndex(op.pc, is_store);
        StaticMemProfile &sp = profile_.memOps[idx];
        OpRunning &run = opRunning_[idx];
        sp.count++;
        addReuse(sp.reuse);
        if (run.seen) {
            int64_t stride = static_cast<int64_t>(op.addr) -
                             static_cast<int64_t>(run.lastAddr);
            auto &strides = opStrides_[idx];
            if (strides.size() < 64 || strides.count(stride))
                strides[stride]++;
            sp.gapSum += uopIndex - run.lastUopIdx;
            sp.gapCount++;
            if (!is_store && op.src1 == op.dst && op.dst != kNoReg)
                sp.selfDependent++;
        }
        run.lastAddr = op.addr;
        run.lastUopIdx = uopIndex;
        run.seen = true;

        if (inMt) {
            mtMemCounts_[idx]++;
            mtFirstPos_.try_emplace(idx,
                                    static_cast<uint32_t>(mtBuf_.size()));
        }
    }

    void
    observeBranch(const MicroOp &op, bool inMt)
    {
        uint64_t mask = (1ULL << kHistoryBits) - 1;
        uint64_t key = (op.pc << kHistoryBits) | (ghist_ & mask);
        auto &c = branchStats_[key];
        c.taken += op.taken ? 1 : 0;
        c.total++;

        if (inMt) {
            uint64_t wmask = (1ULL << kWindowHistoryBits) - 1;
            uint64_t wkey = (op.pc << kWindowHistoryBits) | (ghist_ & wmask);
            auto &wc = mtBranchStats_[wkey];
            wc.taken += op.taken ? 1 : 0;
            wc.total++;
        }
        ghist_ = (ghist_ << 1) | (op.taken ? 1 : 0);
    }

    void
    observeIfetch(const MicroOp &op)
    {
        uint64_t iline = op.pc / kLineSize;
        if (iline == prevILine_)
            return;
        prevILine_ = iline;
        auto [it, cold] = lastILine_.try_emplace(iline, iLineIndex_);
        if (cold) {
            profile_.reuseInsts.addInfinite();
        } else {
            profile_.reuseInsts.add(iLineIndex_ - it->second - 1);
            it->second = iLineIndex_;
        }
        iLineIndex_++;
    }

    void
    finishMicroTrace()
    {
        if (mtBuf_.empty())
            return;

        WindowProfile wp;
        wp.ap.resize(cfg_.robSizes.size());
        wp.abp.resize(cfg_.robSizes.size());
        wp.cp.resize(cfg_.robSizes.size());

        for (const auto &op : mtBuf_) {
            wp.uopCounts[static_cast<int>(op.type)]++;
            wp.insts += op.instBoundary ? 1 : 0;
            if (op.type == UopType::Branch)
                wp.branches++;
            profile_.srcOperands +=
                (op.src1 != kNoReg) + (op.src2 != kNoReg);
            profile_.dstOperands += op.dst != kNoReg;
        }
        profile_.profiledUops += mtBuf_.size();
        profile_.profiledInsts += wp.insts;
        for (int t = 0; t < kNumUopTypes; ++t)
            profile_.uopCounts[t] += wp.uopCounts[t];

        const size_t median = cfg_.robSizes.size() / 2;
        for (size_t i = 0; i < cfg_.robSizes.size(); ++i) {
            size_t b = cfg_.robSizes[i];
            if (b > mtBuf_.size())
                b = mtBuf_.size();
            size_t nwin = mtBuf_.size() / b;
            double apSum = 0, abpSum = 0, cpSum = 0;
            double abpWindows = 0;
            std::vector<std::pair<uint32_t, uint32_t>> perLoad;
            for (size_t w = 0; w < nwin; ++w) {
                auto stats = refWalkWindow(
                    mtBuf_.data() + w * b, b,
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
                    for (auto &[posInWin, depthv] : perLoad) {
                        size_t pos = w * b + posInWin;
                        const MicroOp &op = mtBuf_[pos];
                        auto it = memOpIndex_.find(op.pc);
                        if (it != memOpIndex_.end()) {
                            auto &sp = profile_.memOps[it->second];
                            sp.loadDepthSum += depthv;
                            sp.loadDepthCount++;
                        }
                    }
                    perLoad.clear();
                }
                profile_.chains.addSample(i, stats.ap, stats.abp,
                                          stats.hasBranch, stats.cp);
            }
            if (nwin > 0) {
                wp.ap[i] = static_cast<float>(apSum / nwin);
                wp.cp[i] = static_cast<float>(cpSum / nwin);
                wp.abp[i] = abpWindows ?
                    static_cast<float>(abpSum / abpWindows) : 0.0f;
            }
        }

        uint64_t nb = 0;
        wp.branchEntropy = static_cast<float>(refEntropyOf(mtBranchStats_,
                                                           nb));

        wp.memCounts.assign(mtMemCounts_.begin(), mtMemCounts_.end());
        std::sort(wp.memCounts.begin(), wp.memCounts.end());
        for (const auto &[idx, firstPos] : mtFirstPos_) {
            profile_.memOps[idx].firstPosSum += firstPos;
            profile_.memOps[idx].microTraces++;
        }
        wp.coldMisses = mtColdMisses_;

        profile_.windows.push_back(std::move(wp));
        mtBuf_.clear();
        mtBranchStats_.clear();
        mtMemCounts_.clear();
        mtFirstPos_.clear();
        mtColdMisses_ = 0;
    }

    const ProfilerConfig &cfg_;
    Profile profile_;

    std::map<uint64_t, uint64_t> lastAccess_;
    uint64_t memIndex_ = 0;
    std::map<uint64_t, uint64_t> lastILine_;
    uint64_t iLineIndex_ = 0;
    uint64_t prevILine_ = ~0ULL;
    std::map<uint64_t, RefTakenCounts> branchStats_;
    uint64_t ghist_ = 0;
    std::map<uint64_t, uint32_t> memOpIndex_;
    struct OpRunning {
        uint64_t lastAddr = 0;
        uint64_t lastUopIdx = 0;
        bool seen = false;
    };
    std::vector<OpRunning> opRunning_;
    std::vector<std::map<int64_t, uint64_t>> opStrides_;
    std::vector<uint64_t> coldLoadUopIdx_;

    std::vector<MicroOp> mtBuf_;
    std::map<uint64_t, RefTakenCounts> mtBranchStats_;
    std::map<uint32_t, uint32_t> mtMemCounts_;
    std::map<uint32_t, uint32_t> mtFirstPos_;
    uint32_t mtColdMisses_ = 0;
};

Profile
referenceProfile(const Trace &trace, const ProfilerConfig &cfg)
{
    RefProfiler p(cfg);
    return p.run(trace);
}

// Exact comparison helpers live in profile_compare.hh (shared with the
// parallel parity suite).

// --------------------------------------------------------------------------
// Tests
// --------------------------------------------------------------------------

TEST(ProfilerParity, Identical50kUopWorkload)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 50000);
    ProfilerConfig cfg;
    cfg.name = "parity";

    Profile opt = profileTrace(t, cfg);
    Profile ref = referenceProfile(t, cfg);

    expectProfilesIdentical(opt, ref);
}

TEST(ProfilerParity, IdenticalAcrossSeveralWorkloads)
{
    for (const char *name : {"ptr_chase", "stream_add", "branchy"}) {
        Trace t = generateWorkload(suiteWorkload(name), 20000);
        ProfilerConfig cfg;
        cfg.name = name;
        Profile opt = profileTrace(t, cfg);
        Profile ref = referenceProfile(t, cfg);
        SCOPED_TRACE(name);
        expectProfilesIdentical(opt, ref);
    }
}

TEST(ProfilerParity, IdenticalWithoutSampling)
{
    Trace t = generateWorkload(suiteWorkload("balanced_mix"), 20000);
    ProfilerConfig cfg;
    cfg.sampling = SamplingConfig::full();
    Profile opt = profileTrace(t, cfg);
    Profile ref = referenceProfile(t, cfg);
    expectProfilesIdentical(opt, ref);
}

TEST(ProfilerParity, BatchRejectsMismatchedConfigCount)
{
    std::vector<Trace> traces;
    traces.push_back(generateWorkload(suiteWorkload("balanced_mix"), 5000));
    traces.push_back(generateWorkload(suiteWorkload("stream_add"), 5000));
    traces.push_back(generateWorkload(suiteWorkload("branchy"), 5000));
    std::vector<ProfilerConfig> cfgs(2); // neither 0, 1 nor 3
    EXPECT_THROW(profileTraces(traces, cfgs), std::invalid_argument);
}

TEST(ProfilerParity, BatchMatchesSequential)
{
    std::vector<Trace> traces;
    traces.push_back(generateWorkload(suiteWorkload("balanced_mix"), 20000));
    traces.push_back(generateWorkload(suiteWorkload("stream_add"), 20000));

    auto batch = profileTraces(traces);
    ASSERT_EQ(batch.size(), traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
        Profile solo = profileTrace(traces[i], {});
        SCOPED_TRACE(i);
        expectProfilesIdentical(batch[i], solo);
    }
}

} // namespace
} // namespace mipp
