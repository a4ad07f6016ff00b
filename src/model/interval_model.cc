#include "model/interval_model.hh"

#include <algorithm>
#include <cmath>

#include "model/eval_cache.hh"

namespace mipp {

namespace {

/**
 * Everything shared between global and per-window evaluation. Heavy
 * intermediates (StatStacks, chain weights, MLP walks, resolution times)
 * come memoized out of the EvalContext; this struct only holds the
 * per-design-point scalars derived from them.
 */
struct Scratch {
    const Profile &p;
    const CoreConfig &cfg;
    const ModelOptions &opts;

    double mrL1 = 0, mrL2 = 0, mrL3 = 0;       // load miss ratios
    double mrS1 = 0, mrS2 = 0, mrS3 = 0;       // store miss ratios
    double mrI1 = 0, mrI2 = 0, mrI3 = 0;       // ifetch miss ratios

    double loads = 0, stores = 0, iAccesses = 0;
    double totalUops = 0, totalInsts = 0;

    const BranchMissModel &bm;
    double cres = 0;
    double cbus = 0;
    double mlp = 1.0;
    double prefetchFactor = 1.0;
    const MlpEstimate *mlpEst = nullptr;
    size_t ri = 0;
    /** Mispredict-interval-truncated window (== robSize uncalibrated):
     *  bounds the work available to drain in any stall shadow. */
    double window = 0;

    // Per-design-point constants hoisted out of the window loop by
    // finalizePoint(); each is the identical subexpression the penalty
    // methods previously rebuilt per call, precomputed once (values are
    // bitwise-unchanged: same operations on the same operands).
    double dW = 0;           ///< dispatch width as double
    double invD = 0;         ///< 1.0 / dW
    double fullBranch = 0;   ///< penaltyScale * (cres + frontendDepth)
    double branchFloor = 0;  ///< 0.2 * fullBranch under truncation
    double halfWindow = 0;   ///< window / 2.0
    double shadowWindow = 0; ///< shadowScale * window
    double dramFull = 0;     ///< memLatency + cbus
    double dramFloor = 0;    ///< 0.2 * dramFull
    double hitRatio = 0;     ///< max(0, mrL2 - mrL3)
    double paths = 0.25;     ///< max(pathsPerWindow(ri), 0.25)
    double lop = 0;          ///< max(loadsPerWindow(ri), paths) / paths

    Scratch(EvalContext &ec, const CoreConfig &config,
            const ModelOptions &options)
        : p(ec.profile()), cfg(config), opts(options),
          bm(options.branchModel ? *options.branchModel
                                 : internedBranchModel(config.predictor))
    {
    }

    /** Freeze the per-point constants; call after cres, cbus, window and
     *  the miss ratios are known. */
    void
    finalizePoint()
    {
        dW = cfg.dispatchWidth;
        invD = 1.0 / dW;
        fullBranch = opts.cal.penaltyScale * (cres + cfg.frontendDepth);
        branchFloor =
            opts.cal.baseWindowFrac > 0 ? 0.2 * fullBranch : 0.0;
        halfWindow = window / 2.0;
        shadowWindow = opts.cal.shadowScale * window;
        dramFull = cfg.memLatency + cbus;
        dramFloor = 0.2 * dramFull;
        hitRatio = std::max(0.0, mrL2 - mrL3);
        paths = std::max(p.loadDeps.pathsPerWindow(ri), 0.25);
        lop = std::max(p.loadDeps.loadsPerWindow(ri), paths) / paths;
    }

    /** Average uop latency for a given type-fraction mix (short misses
     *  included, thesis §3.3). */
    double
    avgLatency(const std::array<double, kNumUopTypes> &frac) const
    {
        return mixAvgLatency(frac, cfg, mrL1);
    }

    /**
     * Visible per-miss branch penalty. The naive penalty is the
     * resolution time plus the front-end refill; two mechanisms hide
     * part of it, both charged elsewhere by the simulator's
     * one-component-per-cycle attribution:
     *  - resolution overlapping older long-latency work is charged to
     *    that work (cal.penaltyScale < 1);
     *  - when the back end is contention limited (Deff < D) the front
     *    end runs ahead and buffers work that keeps draining during
     *    resolution — the slack is the extra time the buffered
     *    half-ROB takes to drain at Deff compared to D.
     */
    double
    visibleBranchPenalty(double deff) const
    {
        if (deff >= dW)
            return fullBranch;
        // The drainable in-flight work at a mispredict is bounded by the
        // truncated window: the front end never filled past the previous
        // mispredicted branch. Under truncation the penalty is floored
        // (mirroring the DRAM path's floor): a collapsing Deff at tiny
        // windows would otherwise zero the penalty and make the branch
        // component non-monotone in the miss rate, and the refetch
        // pipeline delay after resolution always stalls dispatch for a
        // little while anyway. With truncation off (uncalibrated), the
        // floor is off too, recovering the thesis formulation exactly.
        double slack = halfWindow * (1.0 / deff - invD);
        return std::max(fullBranch - slack, branchFloor);
    }

    /**
     * Effective DRAM latency per miss: under a long-latency miss the
     * window keeps executing; when execution is contention limited
     * (Deff < D) that shadow hides more of the miss than the balanced
     * interval assumption, so subtract the extra drain time.
     * cal.shadowScale scales the subtraction: in bandwidth-limited
     * windows the work in the shadow is itself memory-bound, so only a
     * fraction of the nominal slack is really hidden (the rest of the
     * "shadow" is just the next miss's latency).
     */
    double
    dramLatencyPerMiss(const DispatchLimits &lim) const
    {
        // Only *structural* contention (ports, functional units) keeps
        // producing useful work in the shadow of a miss; a dependence
        // limited window has nothing extra to run.
        double deffC = std::min({lim.width, lim.ports, lim.fus});
        if (deffC >= dW)
            return dramFull;
        double slack = shadowWindow * (1.0 / deffC - invD);
        return std::max(dramFull - slack, dramFloor);
    }

    /**
     * Chained-LLC-hit penalty per ROB window (thesis Eq 4.7-4.11),
     * extended with a lower bound from dependent (pointer-chasing) loads
     * whose LLC hits serialize outright: @p serialHits is the expected
     * number of chained LLC hits in the window.
     */
    double
    chainPenalty(double loadsPerRob, double deff, double serialHits) const
    {
        double h = hitRatio * loadsPerRob;
        double lhcExp = 0;
        if (h > 0) {
            double lhcAvg = h / paths;
            double lhcMax = std::min(h, lop);
            lhcExp = lhcAvg + std::max(lhcMax - lhcAvg, 0.0) / paths;
        }
        double chained = std::max(lhcExp, serialHits);
        if (chained <= 0)
            return 0;
        double pPrime = cfg.l3.latency * chained;
        return std::max(0.0, pPrime - cfg.robSize / deff);
    }
};

/**
 * Mispredict-interval-truncated instruction window (recalibration): the
 * front end stops at a mispredicted branch, so on average the window
 * holds min(ROB, frac * N_i) uops, N_i being the predicted interval
 * between mispredicts. Quantized to whole uops so the memoized
 * per-window computations key on a small set of values; floor of 16
 * matches the smallest profiled chain size.
 */
uint32_t
truncatedWindow(double frac, double uopsPerMispredict, uint32_t rob)
{
    if (frac <= 0 || uopsPerMispredict <= 0)
        return rob;
    double w = frac * uopsPerMispredict;
    if (w >= rob)
        return rob;
    return static_cast<uint32_t>(std::max(w, 16.0));
}

} // namespace

void
evaluateModelInto(EvalContext &ec, const CoreConfig &cfg,
                  const ModelOptions &opts, ModelResult &res)
{
    const Profile &p = ec.profile();
    res.windowCpi.clear();
    Scratch ctx(ec, cfg, opts);
    ctx.ri = p.robIndex(cfg.robSize);
    const EvalContext::WindowStatics &ws = ec.windowStatics();

    // --- Cache miss rates from StatStack (thesis §4.2) -------------------
    const double l2L = cfg.l2.numLines();
    const double l3L = cfg.l3.numLines();
    const EvalContext::Ratios &r = ec.ratios(cfg);
    ctx.mrL1 = r.l1;
    ctx.mrL2 = r.l2;
    ctx.mrL3 = r.l3;
    ctx.mrS1 = r.s1;
    ctx.mrS2 = r.s2;
    ctx.mrS3 = r.s3;
    ctx.mrI1 = r.i1;
    ctx.mrI2 = r.i2;
    ctx.mrI3 = r.i3;

    ctx.loads = ws.loads;
    ctx.stores = ws.stores;
    ctx.iAccesses = ws.iAccesses;
    ctx.totalUops = ws.totalUops;
    ctx.totalInsts = ws.totalInsts;

    res.loadMissesL1 = ctx.mrL1 * ctx.loads;
    res.loadMissesL2 = ctx.mrL2 * ctx.loads;
    res.loadMissesL3 = ctx.mrL3 * ctx.loads;
    res.storeMissesL1 = ctx.mrS1 * ctx.stores;
    res.storeMissesL2 = ctx.mrS2 * ctx.stores;
    res.storeMissesL3 = ctx.mrS3 * ctx.stores;
    res.ifetchMissesL1 = ctx.mrI1 * ctx.iAccesses;
    res.ifetchMissesL2 = ctx.mrI2 * ctx.iAccesses;
    res.ifetchMissesL3 = ctx.mrI3 * ctx.iAccesses;
    res.uops = ctx.totalUops;
    res.instructions = ctx.totalInsts;

    // --- Global mix / latency ----------------------------------------------
    const std::array<double, kNumUopTypes> &globalFrac = ws.globalFrac;
    const std::array<double, kNumUopTypes> &globalCounts =
        ws.globalCounts;
    const double avgLat = ctx.avgLatency(globalFrac);
    res.avgLatency = avgLat;

    // --- Branch misses first (thesis §3.5): the predicted mispredict
    // interval truncates the instruction window for both the dependence
    // limit and the MLP overlap walk (recalibration). ---------------------
    const EvalContext::BranchRates &br = ec.branchRates(ctx.bm);
    res.branchMissRate = br.global;
    res.branchMisses = res.branchMissRate * ws.globalBranches;
    const double uopsPerMiss = res.branchMisses > 0.5 ?
        ctx.totalUops / res.branchMisses : 0;
    const uint32_t depWindow = truncatedWindow(
        opts.cal.baseWindowFrac, uopsPerMiss, cfg.robSize);
    const uint32_t mlpWindow = truncatedWindow(
        opts.cal.mlpWindowFrac, uopsPerMiss, cfg.robSize);
    ctx.window = depWindow;

    // --- Dispatch limits (Eq 3.10) at the truncated window -----------------
    const EvalContext::LimitsEntry &lim =
        ec.limits(cfg, opts.baseLevel, ctx.mrL1, depWindow);
    res.limits = lim.global;
    res.deff = res.limits.effective();

    if (res.branchMisses > 0.5)
        ctx.cres = ec.branchResolution(cfg, avgLat, uopsPerMiss);
    res.branchResolution = ctx.cres;

    // --- MLP (thesis Ch. 4) -------------------------------------------------
    ctx.mlpEst = &ec.mlpEstimate(cfg, opts, mlpWindow);
    ctx.mlp = ctx.mlpEst->mlp;
    ctx.prefetchFactor = ctx.mlpEst->dramMisses > 0 ?
        ctx.mlpEst->latWeighted / ctx.mlpEst->dramMisses : 1.0;
    res.mlp = ctx.mlp;

    // Per-op serial-chain weights for the chained-LLC-hit bound (memoized
    // per (L2, L3) level pair): an LLC hit on a load that depends on other
    // loads cannot be overlapped.
    const EvalContext::ChainWeights &cw = ec.chainWeights(l2L, l3L);

    const double llcLoadMisses = res.loadMissesL3;
    const double llcStoreMisses = res.storeMissesL3;
    if (opts.modelBus) {
        // Thesis Eq 4.5 queueing, with the *excess* over the single
        // transfer scaled by cal.busQueueScale: measured bus waits grow
        // slower with MLP' than the (MLP'+1)/2 arrival model because
        // transfers pipeline behind the leading access.
        double naive = busCycles(
            busMlp(ctx.mlp, llcLoadMisses, llcStoreMisses),
            cfg.busTransferCycles);
        ctx.cbus = cfg.busTransferCycles +
                   opts.cal.busQueueScale *
                       (naive - cfg.busTransferCycles);
    } else {
        ctx.cbus = cfg.busTransferCycles;
    }
    res.busCyclesPerMiss = ctx.cbus;

    // --- I-cache component ---------------------------------------------------
    const double icacheCycles =
        res.ifetchMissesL1 * cfg.l2.latency +
        res.ifetchMissesL2 * cfg.l3.latency +
        res.ifetchMissesL3 * (cfg.memLatency + cfg.busTransferCycles);

    const bool useInsts =
        opts.baseLevel == ModelOptions::BaseLevel::Instructions;

    ctx.finalizePoint();

    // =========================================================================
    // Per-window evaluation (TC'16): evaluate each micro-trace separately
    // and scale the profiled total to the whole program.
    // =========================================================================
    const bool perWindow = opts.perWindow && !p.windows.empty();
    if (perWindow) {
        // Window entropies come pre-normalized from the statics: their
        // branch-weighted mean matches the (longer-history) global
        // entropy (ws.eNorm).
        const double icacheScaled =
            p.profiledUops ? icacheCycles / p.scale() : 0.0;

        CpiStack stack;
        double profiledCycles = 0, profiledUops = 0;
        for (size_t wi = 0; wi < p.windows.size(); ++wi) {
            double uopsW = ws.uops[wi];
            if (uopsW <= 0)
                continue;

            const DispatchLimits &limW = lim.windows[wi];
            double deffW = limW.effective();
            double nW = useInsts ? ws.insts[wi] : uopsW;
            double baseW = nW / deffW;

            // Branch component with window-local entropy.
            double branchW =
                br.windowMisses[wi] * ctx.visibleBranchPenalty(deffW);

            // I-cache cycles distributed by uop share.
            double icacheW = icacheScaled * ws.uopShare[wi];

            // DRAM component.
            double dramLat = ctx.dramLatencyPerMiss(limW);
            double dramW = 0;
            if (opts.mlpMode == ModelOptions::MlpMode::Stride &&
                wi < ctx.mlpEst->windows.size()) {
                const WindowMlp &wm = ctx.mlpEst->windows[wi];
                double mlpW = std::max(wm.mlp, 1.0);
                dramW = wm.latWeighted * dramLat / mlpW;
            } else {
                double loadsW = ws.loadCounts[wi];
                dramW = loadsW * ctx.mrL3 * ctx.prefetchFactor * dramLat /
                        ctx.mlp;
            }

            // Chained LLC hits, with the per-window serialized-hit count
            // from this window's static-load population.
            double chainW = 0;
            if (opts.modelLlcChaining) {
                double serialW =
                    cw.windowSerial[wi] *
                    (static_cast<double>(cfg.robSize) / ws.maxUops[wi]);
                double loadFracW = ws.loadFrac[wi];
                chainW = ctx.chainPenalty(loadFracW * cfg.robSize, deffW,
                                          serialW) *
                         (uopsW / cfg.robSize);
            }

            double cyclesW = baseW + branchW + icacheW + dramW + chainW;
            stack.base += baseW;
            stack.branch += branchW;
            stack.icache += icacheW;
            stack.dram += dramW;
            stack.llcHit += chainW;
            profiledCycles += cyclesW;
            profiledUops += uopsW;
            res.windowCpi.push_back(cyclesW / uopsW);
        }

        double s = p.scale();
        res.cycles = profiledCycles * s;
        res.stack = stack.scaled(s);
        res.llcChainPenalty = res.stack.llcHit;
    } else {
        // =====================================================================
        // Global evaluation (ISPASS'15): averaged whole-program profile.
        // =====================================================================
        double n = useInsts ? ctx.totalInsts : ctx.totalUops;
        double base = n / res.deff;
        double branch =
            res.branchMisses * ctx.visibleBranchPenalty(res.deff);
        double dram = llcLoadMisses * ctx.prefetchFactor *
                      ctx.dramLatencyPerMiss(res.limits) / ctx.mlp;
        double chain = 0;
        if (opts.modelLlcChaining) {
            double loadFrac = globalFrac[static_cast<int>(UopType::Load)];
            double serial = cw.globalSerialHits * loadFrac * cfg.robSize;
            chain = ctx.chainPenalty(loadFrac * cfg.robSize, res.deff,
                                     serial) *
                    (ctx.totalUops / cfg.robSize);
        }
        res.stack = {base, branch, icacheCycles, 0, chain, dram};
        res.cycles = res.stack.total();
        res.llcChainPenalty = chain;
    }

    // --- Activity factors for the power model (thesis §3.6, §4.10) ---------
    ActivityCounts &a = res.activity;
    a.cycles = static_cast<uint64_t>(res.cycles);
    a.uops = static_cast<uint64_t>(ctx.totalUops);
    a.instructions = static_cast<uint64_t>(ctx.totalInsts);
    for (int t = 0; t < kNumUopTypes; ++t)
        a.fuOps[t] = static_cast<uint64_t>(globalCounts[t]);
    a.robWrites = a.uops;
    a.robReads = a.uops;
    a.iqWrites = a.uops;
    a.iqWakeups = a.uops;
    double srcPerUop = p.profiledUops ?
        static_cast<double>(p.srcOperands) / p.profiledUops : 1.5;
    double dstPerUop = p.profiledUops ?
        static_cast<double>(p.dstOperands) / p.profiledUops : 0.7;
    a.rfReads = static_cast<uint64_t>(srcPerUop * ctx.totalUops);
    a.rfWrites = static_cast<uint64_t>(dstPerUop * ctx.totalUops);
    a.bpLookups = p.branch.branches;
    a.l1iAccesses = static_cast<uint64_t>(ctx.iAccesses);
    a.l1dAccesses = static_cast<uint64_t>(ctx.loads + ctx.stores);
    a.l2Accesses = static_cast<uint64_t>(
        res.loadMissesL1 + res.storeMissesL1 + res.ifetchMissesL1);
    a.l3Accesses = static_cast<uint64_t>(
        res.loadMissesL2 + res.storeMissesL2 + res.ifetchMissesL2);
    a.dramAccesses = static_cast<uint64_t>(
        res.loadMissesL3 + res.storeMissesL3 + res.ifetchMissesL3);
}

ModelResult
evaluateModel(EvalContext &ec, const CoreConfig &cfg,
              const ModelOptions &opts)
{
    ModelResult res;
    evaluateModelInto(ec, cfg, opts, res);
    return res;
}

ModelResult
evaluateModel(const Profile &p, const CoreConfig &cfg,
              const ModelOptions &opts)
{
    // A throwaway context: use an EvalContext directly when evaluating
    // many design points against one profile (the DSE sweep does).
    EvalContext ctx(p);
    return evaluateModel(ctx, cfg, opts);
}

} // namespace mipp
