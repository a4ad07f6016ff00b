/**
 * @file
 * Per-workload evaluation engine: the profile-once / evaluate-many contract.
 *
 * The paper's central economics (thesis Ch. 6): a micro-architecture
 * independent profile is collected *once* per workload and then amortized
 * over an entire design-space exploration of thousands to millions of
 * design points. Almost all of an evaluation's work depends only on the
 * profile plus a *few discrete levels* of the configuration (cache sizes,
 * ROB sizes, the port layout), not on the full design point, so across a
 * sweep it would be recomputed hundreds of times with identical inputs.
 *
 * An EvalContext pins one Profile and owns the whole evaluation state for
 * it: the StatStack pair, the configuration-independent per-window
 * statistics, and one memo table per model component —
 *
 *  - the nine miss ratios of a cache hierarchy, keyed on its line counts;
 *  - global + per-window dispatch limits, keyed on every input of the
 *    computation (ablation level, width, ROB, truncated window, L1D miss
 *    ratio, latencies, issue ports, FU pools), with the port-scheduling
 *    walk, the FU rate fold and the per-window chain lengths shared
 *    across keys in their own sub-memos;
 *  - MLP estimates, keyed on exactly the configuration fields and options
 *    the MLP models read; the stride model replays only the miss walk
 *    through a StrideMlpCache, fed the per-op miss ratios below;
 *  - per-op miss ratios per cache size, and the serialized-LLC-hit chain
 *    weights per (L2, L3) size pair combined from them;
 *  - branch resolution times (thesis Alg 3.2) with the chain
 *    interpolations replayed from precomputed bracket fits;
 *  - branch miss rates, keyed on the values of the BranchMissModel's
 *    coefficients.
 *
 * Every table is a Memo (util/memo.hh), and every accessor has one shape:
 * pack the inputs the component reads into the memo's key words, then
 * find the entry or insert the computed value. Keys never hold pinned
 * options or object addresses, so one context serves any ModelOptions,
 * and a hit returns the exact double the plain function would have
 * produced. `evaluateModel(ctx, cfg, opts)` therefore equals
 * `evaluateModel(ctx.profile(), cfg, opts)` (which builds a throwaway
 * context) bit for bit, however warm @p ctx is; tests/test_eval_cache.cc
 * checks each memo against the plain function it replays and a cold
 * context against a warm one.
 *
 * Contract and lifetime rules:
 *  - The Profile must outlive the EvalContext and must not be mutated
 *    while the context exists (histograms are referenced, not copied).
 *  - An EvalContext is NOT thread-safe; use one instance per thread.
 *    Sweeps build one per (workload, shard), or borrow a warm one from a
 *    dse::ModelEvalPool.
 *  - References returned by the memo accessors stay valid for the
 *    context's lifetime.
 *  - Memory is bounded by the number of *distinct* levels queried, not by
 *    the number of design points evaluated.
 */

#ifndef MIPP_MODEL_EVAL_CACHE_HH
#define MIPP_MODEL_EVAL_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/interval_model.hh"
#include "statstack/statstack.hh"
#include "util/memo.hh"

namespace mipp {

/**
 * Pretrained BranchMissModel interned per predictor kind: one immutable
 * process-wide instance per kind instead of a fresh construction per
 * model evaluation.
 */
const BranchMissModel &internedBranchModel(BranchPredictorKind kind);

/**
 * Average uop latency for a type-fraction mix, with the load latency
 * blended over the L1D hit/miss split (thesis §3.3).
 */
double mixAvgLatency(const std::array<double, kNumUopTypes> &frac,
                     const CoreConfig &cfg, double mrL1);

/** Dispatch limits honoring the base-component ablation level
 *  (thesis Fig 3.7). @p window truncates the dependence-limit window
 *  (0 = cfg.robSize); @p cp must be the chain length at that window. */
DispatchLimits ablatedLimits(
    const std::array<double, kNumUopTypes> &typeCounts, double cp,
    double avgLat, const CoreConfig &cfg, ModelOptions::BaseLevel level,
    double window = 0);

/** Critical-path length of one profiled window interpolated to @p rob
 *  from its per-ROB-size samples (thesis Eq 5.2). */
double windowChainLength(const std::vector<float> &cp,
                         const std::vector<uint32_t> &robSizes, double rob);

class StrideMlpCache;

/** Memoized per-workload evaluation engine (see file comment). */
class EvalContext
{
  public:
    /** @param p profile to pin; must outlive the context, unmutated. */
    explicit EvalContext(const Profile &p);
    ~EvalContext();

    EvalContext(const EvalContext &) = delete;
    EvalContext &operator=(const EvalContext &) = delete;

    const Profile &profile() const { return p_; }

    /** StatStack over the combined load+store reuse stream. */
    const StatStack &stats() const { return ss_; }

    /**
     * Configuration-independent per-window statistics hoisted out of the
     * evaluation loop (structure-of-arrays over Profile::windows). Every
     * value is exactly the double the per-point computation would have
     * produced — pure functions of the pinned profile, computed once.
     */
    struct WindowStatics {
        std::vector<double> uops;        ///< w.uops() per window
        std::vector<double> maxUops;     ///< max(uops, 1.0)
        std::vector<double> insts;       ///< w.insts per window
        std::vector<double> entropyEff;  ///< min(1, branchEntropy * eNorm)
        std::vector<double> uopShare;    ///< uops / profiledUops (else 0)
        std::vector<double> loadCounts;  ///< uopCounts[Load] per window
        std::vector<double> loadFrac;    ///< loadCounts / uops (else 0)
        /** Per-window uop counts / fractions by type. */
        std::vector<std::array<double, kNumUopTypes>> counts, fracs;
        double eNorm = 1.0;  ///< global / mean per-window branch entropy
        std::array<double, kNumUopTypes> globalFrac{}, globalCounts{};
        double totalUops = 0, totalInsts = 0;
        double loads = 0, stores = 0, iAccesses = 0;
        double globalBranches = 0, globalEntropy = 0;
    };
    const WindowStatics &windowStatics() const { return statics_; }

    // --- memoized model components -------------------------------------
    // Each is a bitwise-exact replay of the plain function named in its
    // comment.

    /** The nine miss ratios of a design point's cache hierarchy:
     *  StatStack::missRatio of each stream at each level. */
    struct Ratios {
        double l1, l2, l3;  ///< data-load stream
        double s1, s2, s3;  ///< store stream
        double i1, i2, i3;  ///< instruction stream
    };
    const Ratios &ratios(const CoreConfig &cfg);

    /**
     * ablatedLimits at @p level for the whole program (chain length
     * profile().chains.cp(depWindow)) and per profiled window (chain
     * length windowChainLength at min(depWindow, ROB); windows without
     * uops get default limits), with the average latency mixAvgLatency
     * at the L1D miss ratio @p mrL1.
     */
    struct LimitsEntry {
        DispatchLimits global;
        std::vector<DispatchLimits> windows;
    };
    const LimitsEntry &limits(const CoreConfig &cfg,
                              ModelOptions::BaseLevel level, double mrL1,
                              uint32_t depWindow);

    /**
     * strideMlp / coldMissMlp (per opts.mlpMode; MLP 1 for None) with
     * the options' MSHR, prefetcher and cold-injection settings and the
     * truncated overlap window @p windowUops (0 = full ROB).
     */
    const MlpEstimate &mlpEstimate(const CoreConfig &cfg,
                                   const ModelOptions &opts,
                                   uint32_t windowUops);

    /**
     * Serialized-LLC-hit chain weights for one (L2, L3) size pair
     * (thesis §4.8 extension): per static load, its LLC-hit probability
     * times its load-dependence depth clamp; plus the per-window weighted
     * sums and the global per-load expectation the model consumes.
     */
    struct ChainWeights {
        /** Per Profile::memOps entry (stores stay 0). */
        std::vector<double> opWeight;
        /** Per Profile::windows entry: sum of opWeight * window count. */
        std::vector<double> windowSerial;
        /** Expected chained LLC hits per load, whole program. */
        double globalSerialHits = 0;
    };
    const ChainWeights &chainWeights(double l2Lines, double l3Lines);

    /** branchResolutionTime(profile().chains, cfg, avgLat, ...). */
    double branchResolution(const CoreConfig &cfg, double avgLat,
                            double uopsBetweenMispredicts);

    /** bm.missRate at the global entropy, and bm.missRate(entropyEff)
     *  times the branch count per window. */
    struct BranchRates {
        double global = 0;
        std::vector<double> windowMisses;
    };
    const BranchRates &branchRates(const BranchMissModel &bm);

  private:
    /**
     * Bitwise-exact replay of DependenceChains::interpolate with the
     * per-bracket fit constants precomputed: a and b are pure functions
     * of the profiled nodes, leaving one log() per evaluation. Feeds the
     * branch-resolution leaky-bucket walk, whose inner loop otherwise
     * dominates cold resolution lookups.
     */
    struct ChainInterp {
        bool empty = true;
        bool single = false;
        double singleValue = 0;
        std::vector<double> hiSizes;  ///< robSizes[hi] per bracket
        struct Seg {
            double a = 0, b = 0;
            bool zero = false;  ///< y0 == 0 && y1 == 0 fallback
        };
        std::vector<Seg> segs;

        void build(const DependenceChains &chains, bool useAbp);
        double eval(double rob) const;
    };
    /** Port-scheduling walk results, keyed on the issue-port masks: the
     *  walk reads only the per-window uop counts (profile) and the
     *  eligible-port sets, so one entry serves every width/ROB/cache
     *  variation sharing a port layout. */
    struct PortsEntry {
        double globalMaxAct = 0;
        std::vector<double> windowMaxAct;
    };
    /** FU rate folds keyed on the (FU pools, latency table) signature. */
    struct FuEntry {
        double globalMinRate = 0;
        std::vector<double> windowMinRate;
    };

    LimitsEntry buildLimits(const CoreConfig &cfg,
                            ModelOptions::BaseLevel level, double mrL1,
                            uint32_t depWindow);
    const PortsEntry &portsEntry(const CoreConfig &cfg);
    const FuEntry &fuEntry(const CoreConfig &cfg);
    const std::vector<double> &windowCp(uint32_t robSize);
    const std::vector<double> &opRatios(double lines);
    double resolutionTime(const CoreConfig &cfg, double avgLat,
                          double uopsBetweenMispredicts) const;

    const Profile &p_;
    StatStack ss_;
    StatStack ssI_;
    WindowStatics statics_;
    ChainInterp cpInterp_, abpInterp_;
    std::vector<double> depClamp_;  ///< per static op, profile-only
    double loadsSeen_ = 0;
    std::unique_ptr<StrideMlpCache> strideCache_;

    // One memo per component, each keyed on exactly the words it reads.
    Memo<Ratios> ratios_;
    Memo<LimitsEntry> limits_;
    Memo<PortsEntry> ports_;
    Memo<FuEntry> fus_;
    Memo<std::vector<double>> windowCps_;  ///< per-window chain length
    Memo<MlpEstimate> mlps_;
    Memo<ChainWeights> chainWeights_;
    /** Per-(cache lines) miss ratio across static ops, load ops only. */
    Memo<std::vector<double>> opRatios_;
    Memo<BranchRates> branchRates_;
    Memo<double> resolutions_;
};

/**
 * Evaluate the interval model through a per-workload engine. Bitwise
 * identical to evaluateModel(ctx.profile(), cfg, opts); the repeated-
 * evaluation cost across a design-space sweep drops by the memo hit rate
 * (see bench/bench_dse_sweep.cc).
 */
ModelResult evaluateModel(EvalContext &ctx, const CoreConfig &cfg,
                          const ModelOptions &opts = {});

/**
 * evaluateModel filling @p res in place (clearing reused buffers), so
 * batch loops can recycle one ModelResult. Every evaluation enters here;
 * a config with robSize == 0 throws StatusError(InvalidArgument).
 */
void evaluateModelInto(EvalContext &ctx, const CoreConfig &cfg,
                       const ModelOptions &opts, ModelResult &res);

} // namespace mipp

#endif // MIPP_MODEL_EVAL_CACHE_HH
