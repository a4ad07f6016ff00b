/**
 * @file
 * Micro-architecture independent application profile.
 *
 * A Profile is the single output of one profiling run (thesis Fig 2.6) and
 * the only input, besides a CoreConfig, the analytical model needs. Nothing
 * in here depends on any micro-architecture parameter: dependence chains are
 * profiled for a *set* of ROB sizes and interpolated (thesis §5.2), cache
 * behaviour is captured as reuse-distance distributions (§4.2), branch
 * behaviour as linear branch entropy (§3.5), and memory parallelism inputs
 * as cold-miss / stride / spacing / inter-load-dependence distributions
 * (§4.4, §4.5).
 */

#ifndef MIPP_PROFILER_PROFILE_HH
#define MIPP_PROFILER_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "profiler/histogram.hh"
#include "trace/trace.hh"

namespace mipp {

/** Default set of ROB sizes for which dependence chains are profiled. */
std::vector<uint32_t> defaultRobSizes();

/**
 * Dependence-chain statistics per profiled ROB size (thesis §3.3):
 * average path (AP), average branch path (ABP) and critical path (CP),
 * with logarithmic-fit interpolation to arbitrary sizes (Eq 5.2-5.4).
 */
class DependenceChains
{
  public:
    DependenceChains() = default;
    explicit DependenceChains(std::vector<uint32_t> robSizes)
        : robSizes_(std::move(robSizes)),
          ap_(robSizes_.size(), 0), abp_(robSizes_.size(), 0),
          cp_(robSizes_.size(), 0), weight_(robSizes_.size(), 0),
          abpWeight_(robSizes_.size(), 0)
    {
    }

    const std::vector<uint32_t> &robSizes() const { return robSizes_; }

    /** Accumulate one window observation at profiled size index @p i. */
    void
    addSample(size_t i, double ap, double abp, bool hasBranch, double cp)
    {
        ap_[i] += ap;
        cp_[i] += cp;
        weight_[i] += 1;
        if (hasBranch) {
            abp_[i] += abp;
            abpWeight_[i] += 1;
        }
    }

    /** Profiled mean at size index @p i. */
    double apAt(size_t i) const
    {
        return weight_[i] ? ap_[i] / weight_[i] : 0;
    }
    double abpAt(size_t i) const
    {
        return abpWeight_[i] ? abp_[i] / abpWeight_[i] : 0;
    }
    double cpAt(size_t i) const
    {
        return weight_[i] ? cp_[i] / weight_[i] : 0;
    }

    /**
     * Chain length at an arbitrary ROB size via the piecewise logarithmic
     * fit `len = a log(rob) + b` between neighbouring profiled sizes.
     */
    double ap(double rob) const { return interpolate(rob, Metric::Ap); }
    double abp(double rob) const { return interpolate(rob, Metric::Abp); }
    double cp(double rob) const { return interpolate(rob, Metric::Cp); }

    /** Raw accumulator row for serialization (profile_io). */
    struct Row {
        double apSum, abpSum, cpSum, weight, abpWeight;
    };

    Row
    exportRow(size_t i) const
    {
        return {ap_[i], abp_[i], cp_[i], weight_[i], abpWeight_[i]};
    }

    void
    importRow(size_t i, const Row &r)
    {
        ap_[i] = r.apSum;
        abp_[i] = r.abpSum;
        cp_[i] = r.cpSum;
        weight_[i] = r.weight;
        abpWeight_[i] = r.abpWeight;
    }

  private:
    enum class Metric { Ap, Abp, Cp };
    double valueAt(size_t i, Metric m) const;
    double interpolate(double rob, Metric m) const;

    std::vector<uint32_t> robSizes_;
    std::vector<double> ap_, abp_, cp_;
    std::vector<double> weight_, abpWeight_;
};

/**
 * Inter-load dependence distribution f(l) per ROB size (thesis Fig 4.5):
 * f(l) is the fraction of loads that are the l-th load on a load
 * dependence path, plus the statistics derived from the same walk that
 * the MLP and LLC-chaining models need.
 */
struct LoadDepProfile {
    static constexpr int kMaxDepth = 16;

    /** histo[i][l-1] = # loads at depth l for ROB-size index i. */
    std::vector<std::array<uint64_t, kMaxDepth>> histo;
    /** Total loads observed per ROB-size index. */
    std::vector<uint64_t> loads;
    /** Windows observed per ROB-size index. */
    std::vector<uint64_t> windows;
    /** Independent loads (depth 1) per ROB-size index. */
    std::vector<uint64_t> independentLoads;

    void resize(size_t n)
    {
        histo.resize(n);
        loads.assign(n, 0);
        windows.assign(n, 0);
        independentLoads.assign(n, 0);
    }

    /** f(l) for size index @p i; l in [1, kMaxDepth]. */
    double
    f(size_t i, int l) const
    {
        if (loads[i] == 0 || l < 1 || l > kMaxDepth)
            return 0.0;
        return static_cast<double>(histo[i][l - 1]) / loads[i];
    }

    /** Average loads per ROB window. */
    double
    loadsPerWindow(size_t i) const
    {
        return windows[i] ? static_cast<double>(loads[i]) / windows[i] : 0;
    }

    /** Average independent loads (load-path heads) per ROB window. */
    double
    pathsPerWindow(size_t i) const
    {
        return windows[i] ?
            static_cast<double>(independentLoads[i]) / windows[i] : 0;
    }
};

/** Linear-branch-entropy profile (thesis §3.5, Eq 3.13-3.15). */
struct BranchProfile {
    /** Dynamic branches observed. */
    uint64_t branches = 0;
    /** Sum of per-occurrence linear entropy (computed at finalize). */
    double entropySum = 0;
    /** Number of distinct static branches. */
    uint64_t staticBranches = 0;
    /** History length (bits) used during profiling; the profiler
     *  always writes kHistoryBits (profiler/profiler.hh). */
    uint32_t historyBits = 8;

    /** Average linear branch entropy E in [0, 1]. */
    double
    entropy() const
    {
        return branches ? entropySum / branches : 0.0;
    }
};

/** Cold-miss burstiness per ROB size (thesis §4.4). */
struct ColdMissProfile {
    /** Total cold (first-touch) load misses. */
    uint64_t coldLoadMisses = 0;
    /** Per ROB-size index: windows containing at least one cold miss. */
    std::vector<uint64_t> windowsWithCold;
    /** Per ROB-size index: cold misses inside those windows (== total). */
    std::vector<uint64_t> coldInWindows;
    /** Per ROB-size index: total windows. */
    std::vector<uint64_t> totalWindows;

    void resize(size_t n)
    {
        windowsWithCold.assign(n, 0);
        coldInWindows.assign(n, 0);
        totalWindows.assign(n, 0);
    }

    /** Average cold misses per ROB window that has at least one. */
    double
    coldPerDirtyWindow(size_t i) const
    {
        return windowsWithCold[i] ?
            static_cast<double>(coldInWindows[i]) / windowsWithCold[i] : 0;
    }
};

/** Stride classification of a static load (thesis §4.5, Fig 4.7). */
enum class StrideClass : uint8_t {
    SingleStride,  ///< one stride covers >= 60 % of recurrences
    TwoStride,     ///< two strides cover >= 70 %
    ThreeStride,   ///< three strides cover >= 80 %
    FourStride,    ///< four strides cover >= 90 %
    RandomStride,  ///< no small stride set dominates
    Unique,        ///< seen only once per micro-trace
};

std::string_view strideClassName(StrideClass c);

/**
 * Stride -> occurrence counts of one static op, sorted by stride. A flat
 * sorted vector instead of std::map: the set is small (bounded at 64
 * entries during profiling) and profiles are created, copied and
 * destroyed wholesale in DSE sweeps, where per-node heap traffic of
 * hundreds of little trees dominated the cost.
 */
using StrideMap = std::vector<std::pair<int64_t, uint64_t>>;

/** Profile of one static load (or store) instruction. */
struct StaticMemProfile {
    uint64_t pc = 0;
    bool isStore = false;
    uint64_t count = 0;

    /** Reuse distances of this op's accesses in the *combined* memory
     *  stream; feeds per-op miss-rate prediction via StatStack. */
    LogHistogram reuse;

    /** Observed stride -> occurrences (bounded set, sorted by stride). */
    StrideMap strides;

    /** Load-spacing statistics within micro-traces (thesis Fig 4.6). */
    double firstPosSum = 0;
    uint64_t gapSum = 0;
    uint64_t gapCount = 0;
    uint64_t microTraces = 0;

    /** Loads only: average depth on load dependence paths. */
    double loadDepthSum = 0;
    uint64_t loadDepthCount = 0;
    /** Loads only: address depends on this op's own previous instance. */
    uint64_t selfDependent = 0;

    double avgGap() const
    {
        return gapCount ? static_cast<double>(gapSum) / gapCount : 0;
    }
    double avgFirstPos() const
    {
        return microTraces ? firstPosSum / microTraces : 0;
    }
    double avgLoadDepth() const
    {
        return loadDepthCount ? loadDepthSum / loadDepthCount : 1.0;
    }
    bool isPointerChase() const
    {
        return count && static_cast<double>(selfDependent) / count > 0.5;
    }

    /** Classify the stride behaviour with the thesis cutoffs. */
    StrideClass strideClass() const;
    /** Dominant strides (up to 4), most frequent first. */
    std::vector<int64_t> dominantStrides() const;
};

/** Compact per-window (micro-trace) statistics for phase-level evaluation. */
struct WindowProfile {
    std::array<uint32_t, kNumUopTypes> uopCounts{};
    uint32_t insts = 0;
    /** Chain lengths at each profiled ROB size (AP, ABP, CP). */
    std::vector<float> ap, abp, cp;
    /** Local branch entropy measured within this window. */
    float branchEntropy = 0;
    uint32_t branches = 0;
    /** Occurrences per static memory op inside this window:
     *  (index into Profile::memOps, count). */
    std::vector<std::pair<uint32_t, uint32_t>> memCounts;
    /** Cold (first-touch) load misses in this window. */
    uint32_t coldMisses = 0;

    uint32_t
    uops() const
    {
        uint32_t n = 0;
        for (auto c : uopCounts)
            n += c;
        return n;
    }
};

/** The complete micro-architecture independent application profile. */
struct Profile {
    std::string name;
    /** Length of the profiled program (uops), before sampling. */
    uint64_t totalUops = 0;
    /** Uops actually inspected (inside micro-traces). */
    uint64_t profiledUops = 0;
    /** Macro-instructions inside micro-traces. */
    uint64_t profiledInsts = 0;
    SamplingConfig sampling;

    /** Sampled uop mix (counts over profiled uops). */
    std::array<uint64_t, kNumUopTypes> uopCounts{};
    /** Source / destination register operands over profiled uops
     *  (register-file activity factors for the power model). */
    uint64_t srcOperands = 0;
    uint64_t dstOperands = 0;

    std::vector<uint32_t> robSizes;
    DependenceChains chains;
    LoadDepProfile loadDeps;
    BranchProfile branch;
    ColdMissProfile cold;

    /** Combined / per-type reuse-distance distributions (line granular). */
    LogHistogram reuseLoads;
    LogHistogram reuseStores;
    LogHistogram reuseAll;
    /** Instruction-stream reuse distances (I-cache modeling). */
    LogHistogram reuseInsts;

    /** Every static memory op observed inside micro-traces. */
    std::vector<StaticMemProfile> memOps;

    /** Per-micro-trace statistics in program order. */
    std::vector<WindowProfile> windows;

    /** Scale factor from profiled counts to whole-program counts. */
    double
    scale() const
    {
        return profiledUops ?
            static_cast<double>(totalUops) / profiledUops : 1.0;
    }

    /** Fraction of profiled uops of type @p t. */
    double
    uopFraction(UopType t) const
    {
        return profiledUops ? static_cast<double>(
            uopCounts[static_cast<int>(t)]) / profiledUops : 0.0;
    }

    /** Uops per macro-instruction (Fig 3.1). */
    double
    uopsPerInst() const
    {
        return profiledInsts ?
            static_cast<double>(profiledUops) / profiledInsts : 1.0;
    }

    /** Index of the profiled ROB size nearest to (>=) @p rob. */
    size_t robIndex(uint32_t rob) const;
};

} // namespace mipp

#endif // MIPP_PROFILER_PROFILE_HH
