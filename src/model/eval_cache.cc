#include "model/eval_cache.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "model/branch_model.hh"
#include "model/mlp_model.hh"

namespace mipp {

namespace {

using Level = ModelOptions::BaseLevel;

/** Replace the limiters the ablation level leaves out by the width. */
void
applyBaseLevel(DispatchLimits &lim, Level level)
{
    switch (level) {
      case Level::Instructions:
      case Level::MicroOps:
        lim.dependences = lim.width;
        lim.ports = lim.width;
        lim.fus = lim.width;
        break;
      case Level::CriticalPath:
        lim.ports = lim.width;
        lim.fus = lim.width;
        break;
      case Level::Functional:
        break;
    }
}

/** Bit-per-supported-type mask of a port, as canIssue() would probe it
 *  (bit 0 distinguishes "port with no types" from an absent port). */
uint64_t
portMask(const IssuePort &port)
{
    uint64_t mask = 1;
    for (UopType s : port.supports)
        mask |= uint64_t{2} << static_cast<int>(s);
    return mask;
}

uint64_t
fuWord(const FuPool &pool)
{
    return pool.count | (uint64_t{pool.pipelined} << 32);
}

} // namespace

double
windowChainLength(const std::vector<float> &cp,
                  const std::vector<uint32_t> &robSizes, double rob)
{
    if (cp.empty())
        return 1.0;
    if (cp.size() == 1)
        return cp[0];
    size_t hi = 1;
    while (hi + 1 < robSizes.size() && robSizes[hi] < rob)
        ++hi;
    size_t lo = hi - 1;
    double x0 = std::log(static_cast<double>(robSizes[lo]));
    double x1 = std::log(static_cast<double>(robSizes[hi]));
    double y0 = cp[lo], y1 = cp[hi];
    double a = (y1 - y0) / (x1 - x0);
    double v = a * (std::log(std::max(rob, 2.0)) - x0) + y0;
    return std::max(v, 1.0);
}

double
mixAvgLatency(const std::array<double, kNumUopTypes> &frac,
              const CoreConfig &cfg, double mrL1)
{
    double lat = 0;
    for (int t = 0; t < kNumUopTypes; ++t) {
        auto type = static_cast<UopType>(t);
        double l = cfg.lat.of(type);
        if (type == UopType::Load)
            l = (1.0 - mrL1) * cfg.l1d.latency + mrL1 * cfg.l2.latency;
        lat += frac[t] * l;
    }
    return std::max(lat, 0.5);
}

DispatchLimits
ablatedLimits(const std::array<double, kNumUopTypes> &typeCounts,
              double cp, double avgLat, const CoreConfig &cfg,
              ModelOptions::BaseLevel level, double window)
{
    DispatchLimits lim = dispatchLimits(typeCounts, cp, avgLat, cfg,
                                        window);
    applyBaseLevel(lim, level);
    return lim;
}

const BranchMissModel &
internedBranchModel(BranchPredictorKind kind)
{
    static const auto table = [] {
        constexpr size_t n =
            static_cast<size_t>(BranchPredictorKind::NumKinds);
        std::array<BranchMissModel, n> t{};
        for (size_t k = 0; k < n; ++k)
            t[k] = BranchMissModel::pretrained(
                static_cast<BranchPredictorKind>(k));
        return t;
    }();
    size_t idx = static_cast<size_t>(kind);
    return table[idx < table.size() ? idx : 0];
}

void
EvalContext::ChainInterp::build(const DependenceChains &chains, bool useAbp)
{
    const std::vector<uint32_t> &sizes = chains.robSizes();
    empty = sizes.empty();
    if (empty)
        return;
    if (sizes.size() == 1) {
        single = true;
        singleValue = useAbp ? chains.abpAt(0) : chains.cpAt(0);
        return;
    }
    hiSizes.reserve(sizes.size() - 1);
    segs.reserve(sizes.size() - 1);
    for (size_t hi = 1; hi < sizes.size(); ++hi) {
        size_t lo = hi - 1;
        double x0 = std::log(static_cast<double>(sizes[lo]));
        double x1 = std::log(static_cast<double>(sizes[hi]));
        double y0 = useAbp ? chains.abpAt(lo) : chains.cpAt(lo);
        double y1 = useAbp ? chains.abpAt(hi) : chains.cpAt(hi);
        Seg s;
        s.zero = y0 == 0 && y1 == 0;
        s.a = (y1 - y0) / (x1 - x0);
        s.b = y0 - s.a * x0;
        hiSizes.push_back(static_cast<double>(sizes[hi]));
        segs.push_back(s);
    }
}

double
EvalContext::ChainInterp::eval(double rob) const
{
    if (empty)
        return 0;
    if (single)
        return singleValue;
    rob = std::max(rob, 2.0);
    const size_t n = hiSizes.size() + 1;
    size_t hi = 1;
    while (hi + 1 < n && hiSizes[hi - 1] < rob)
        ++hi;
    const Seg &s = segs[hi - 1];
    if (s.zero)
        return 0;
    double v = s.a * std::log(rob) + s.b;
    return std::max(v, 1.0);
}

EvalContext::EvalContext(const Profile &p)
    : p_(p), ss_(p.reuseAll), ssI_(p.reuseInsts)
{
    WindowStatics &ws = statics_;
    const size_t nw = p_.windows.size();
    ws.uops.reserve(nw);
    ws.maxUops.reserve(nw);
    ws.insts.reserve(nw);
    ws.entropyEff.reserve(nw);
    ws.uopShare.reserve(nw);
    ws.loadCounts.reserve(nw);
    ws.loadFrac.reserve(nw);
    ws.counts.reserve(nw);
    ws.fracs.reserve(nw);

    double eSum = 0, bSum = 0;
    for (const WindowProfile &w : p_.windows) {
        eSum += static_cast<double>(w.branches) * w.branchEntropy;
        bSum += w.branches;
    }
    double eMean = bSum > 0 ? eSum / bSum : 0;
    ws.eNorm = eMean > 1e-9 ? p_.branch.entropy() / eMean : 1.0;

    for (const WindowProfile &w : p_.windows) {
        double uopsW = w.uops();
        ws.uops.push_back(uopsW);
        ws.maxUops.push_back(std::max(uopsW, 1.0));
        ws.insts.push_back(static_cast<double>(w.insts));
        ws.entropyEff.push_back(std::min(1.0, w.branchEntropy * ws.eNorm));
        ws.uopShare.push_back(
            p_.profiledUops ? uopsW / p_.profiledUops : 0.0);
        std::array<double, kNumUopTypes> fracW{}, countsW{};
        if (uopsW > 0) {
            for (int t = 0; t < kNumUopTypes; ++t) {
                countsW[t] = w.uopCounts[t];
                fracW[t] = w.uopCounts[t] / uopsW;
            }
        }
        ws.loadCounts.push_back(countsW[static_cast<int>(UopType::Load)]);
        ws.loadFrac.push_back(fracW[static_cast<int>(UopType::Load)]);
        ws.counts.push_back(countsW);
        ws.fracs.push_back(fracW);
    }

    ws.totalUops = static_cast<double>(p_.totalUops);
    ws.totalInsts = ws.totalUops / std::max(p_.uopsPerInst(), 1.0);
    for (int t = 0; t < kNumUopTypes; ++t) {
        ws.globalFrac[t] = p_.uopFraction(static_cast<UopType>(t));
        ws.globalCounts[t] = ws.globalFrac[t] * ws.totalUops;
    }
    ws.loads = static_cast<double>(p_.reuseLoads.total());
    ws.stores = static_cast<double>(p_.reuseStores.total());
    ws.iAccesses = static_cast<double>(p_.reuseInsts.total());
    ws.globalBranches = static_cast<double>(p_.branch.branches);
    ws.globalEntropy = p_.branch.entropy();

    cpInterp_.build(p_.chains, false);
    abpInterp_.build(p_.chains, true);

    depClamp_.reserve(p_.memOps.size());
    for (const StaticMemProfile &sp : p_.memOps) {
        depClamp_.push_back(std::clamp(sp.avgLoadDepth() - 1.0, 0.0, 1.0));
        if (!sp.isStore)
            loadsSeen_ += sp.count;
    }
}

EvalContext::~EvalContext() = default;

const EvalContext::Ratios &
EvalContext::ratios(const CoreConfig &cfg)
{
    ratios_.key() = {uint64_t{cfg.l1d.numLines()} << 32 | cfg.l2.numLines(),
                     uint64_t{cfg.l3.numLines()} << 32 | cfg.l1i.numLines()};
    return ratios_.get([&] {
        const double l1L = cfg.l1d.numLines();
        const double l2L = cfg.l2.numLines();
        const double l3L = cfg.l3.numLines();
        Ratios r;
        r.l1 = ss_.missRatio(p_.reuseLoads, l1L);
        r.l2 = ss_.missRatio(p_.reuseLoads, l2L);
        r.l3 = ss_.missRatio(p_.reuseLoads, l3L);
        r.s1 = ss_.missRatio(p_.reuseStores, l1L);
        r.s2 = ss_.missRatio(p_.reuseStores, l2L);
        r.s3 = ss_.missRatio(p_.reuseStores, l3L);
        r.i1 = ssI_.missRatio(p_.reuseInsts, cfg.l1i.numLines());
        r.i2 = ssI_.missRatio(p_.reuseInsts, l2L);
        r.i3 = ssI_.missRatio(p_.reuseInsts, l3L);
        return r;
    });
}

const EvalContext::PortsEntry &
EvalContext::portsEntry(const CoreConfig &cfg)
{
    std::vector<uint64_t> &key = ports_.key();
    for (const IssuePort &port : cfg.ports)
        key.push_back(portMask(port));
    return ports_.get([&] {
        const WindowStatics &ws = statics_;
        PortsEntry e;
        e.windowMaxAct.reserve(ws.uops.size());
        for (size_t wi = 0; wi < ws.uops.size(); ++wi) {
            double maxAct = 0;
            if (ws.uops[wi] > 0) {
                auto activity = schedulePorts(ws.counts[wi], cfg);
                for (double a : activity)
                    maxAct = std::max(maxAct, a);
            }
            e.windowMaxAct.push_back(maxAct);
        }
        auto activity = schedulePorts(ws.globalCounts, cfg);
        for (double a : activity)
            e.globalMaxAct = std::max(e.globalMaxAct, a);
        return e;
    });
}

const EvalContext::FuEntry &
EvalContext::fuEntry(const CoreConfig &cfg)
{
    std::vector<uint64_t> &key = fus_.key();
    for (int t = 0; t < kNumUopTypes; ++t)
        key.push_back(fuWord(cfg.fus[t]));
    for (int t = 0; t < kNumUopTypes; ++t)
        key.push_back(cfg.lat.cycles[t]);
    return fus_.get([&] {
        const WindowStatics &ws = statics_;
        // The per-type rate n*u/count (or /count*lat) is width
        // independent, so the min over types memoizes; the final min
        // against width*4 happens at combine time (min is exact either
        // way).
        auto minRate = [&cfg](const std::array<double, kNumUopTypes> &counts,
                              double n) {
            double best = std::numeric_limits<double>::infinity();
            for (int t = 0; t < kNumUopTypes; ++t) {
                if (counts[t] <= 0)
                    continue;
                const FuPool &pool = cfg.fus[t];
                double u = std::max<double>(pool.count, 1);
                double rate = pool.pipelined ?
                    n * u / counts[t] :
                    n * u /
                        (counts[t] * cfg.lat.of(static_cast<UopType>(t)));
                best = std::min(best, rate);
            }
            return best;
        };
        FuEntry e;
        e.windowMinRate.reserve(ws.uops.size());
        for (size_t wi = 0; wi < ws.uops.size(); ++wi)
            e.windowMinRate.push_back(ws.uops[wi] > 0 ?
                minRate(ws.counts[wi], ws.uops[wi]) : 0.0);
        double nGlobal = 0;
        for (double c : ws.globalCounts)
            nGlobal += c;
        e.globalMinRate = minRate(ws.globalCounts, nGlobal);
        return e;
    });
}

const std::vector<double> &
EvalContext::windowCp(uint32_t robSize)
{
    windowCps_.key() = {robSize};
    return windowCps_.get([&] {
        std::vector<double> cps;
        cps.reserve(p_.windows.size());
        for (const WindowProfile &w : p_.windows)
            cps.push_back(windowChainLength(w.cp, p_.robSizes, robSize));
        return cps;
    });
}

EvalContext::LimitsEntry
EvalContext::buildLimits(const CoreConfig &cfg, Level level, double mrL1,
                         uint32_t depWindow)
{
    const WindowStatics &ws = statics_;
    const PortsEntry &pe = portsEntry(cfg);
    const FuEntry &fe = fuEntry(cfg);
    const uint32_t w0 = depWindow > 0 ?
        std::min(depWindow, cfg.robSize) : cfg.robSize;
    const std::vector<double> &cps = windowCp(w0);

    LimitsEntry le;
    le.windows.reserve(p_.windows.size());
    const double w0d = static_cast<double>(w0);
    for (size_t wi = 0; wi < p_.windows.size(); ++wi) {
        double uopsW = ws.uops[wi];
        if (uopsW <= 0) {
            le.windows.push_back({});
            continue;
        }
        // Exactly dispatchLimits() with the port/FU folds replayed from
        // the memo: n equals the fold over counts (integer-exact sums).
        double latW = mixAvgLatency(ws.fracs[wi], cfg, mrL1);
        DispatchLimits lim;
        lim.width = cfg.dispatchWidth;
        lim.dependences = cps[wi] > 0 && latW > 0 ?
            w0d / (latW * cps[wi]) : lim.width;
        double maxAct = pe.windowMaxAct[wi];
        lim.ports = maxAct > 0 ? uopsW / maxAct : lim.width;
        lim.fus = std::min(lim.width * 4, fe.windowMinRate[wi]);
        applyBaseLevel(lim, level);
        le.windows.push_back(lim);
    }

    // Global limits: same inputs (counts and chain length are pure
    // profile/depWindow functions; the count fold is replayed verbatim
    // because the global counts are not integers).
    double n = 0;
    for (double c : ws.globalCounts)
        n += c;
    DispatchLimits g;
    g.width = cfg.dispatchWidth;
    if (n <= 0) {
        g.dependences = g.ports = g.fus = g.width;
    } else {
        double latG = mixAvgLatency(ws.globalFrac, cfg, mrL1);
        double cpG = p_.chains.cp(depWindow);
        double w = depWindow > 0 ?
            static_cast<double>(depWindow) :
            static_cast<double>(cfg.robSize);
        g.dependences = cpG > 0 && latG > 0 ? w / (latG * cpG) : g.width;
        g.ports = pe.globalMaxAct > 0 ? n / pe.globalMaxAct : g.width;
        g.fus = std::min(g.width * 4, fe.globalMinRate);
    }
    applyBaseLevel(g, level);
    le.global = g;
    return le;
}

const EvalContext::LimitsEntry &
EvalContext::limits(const CoreConfig &cfg, Level level, double mrL1,
                    uint32_t depWindow)
{
    // The complete input material of a LimitsEntry: ablation level,
    // width, ROB, the truncated dependence window, the L1D miss ratio
    // entering the average latency, the latency-relevant cache levels,
    // the execution-latency table, the per-port issue capabilities and
    // the FU pools. The global limits add no inputs beyond it — their
    // counts and chain length are profile + depWindow functions.
    std::vector<uint64_t> &key = limits_.key();
    key = {static_cast<uint64_t>(level), cfg.dispatchWidth, cfg.robSize,
           depWindow, std::bit_cast<uint64_t>(mrL1), cfg.l1d.latency,
           cfg.l2.latency};
    for (int t = 0; t < kNumUopTypes; ++t)
        key.push_back(cfg.lat.cycles[t]);
    for (const IssuePort &port : cfg.ports)
        key.push_back(portMask(port));
    for (int t = 0; t < kNumUopTypes; ++t)
        key.push_back(fuWord(cfg.fus[t]));
    return limits_.get(
        [&] { return buildLimits(cfg, level, mrL1, depWindow); });
}

const MlpEstimate &
EvalContext::mlpEstimate(const CoreConfig &cfg, const ModelOptions &opts,
                         uint32_t windowUops)
{
    // Keyed on exactly the fields the MLP models read. Width, memory
    // latency and the prefetch-table size are only read on the
    // prefetcher path (thesis Eq 4.13 timeliness); keying them at 0
    // otherwise lets e.g. a pure width sweep share one entry.
    const bool prefetchActive =
        opts.modelPrefetcher && cfg.prefetcherEnabled;
    mlps_.key() = {
        static_cast<uint64_t>(opts.mlpMode) |
            uint64_t{opts.modelMshrs} << 8 |
            uint64_t{opts.modelPrefetcher} << 9,
        uint64_t{cfg.l3.numLines()} << 32 | cfg.robSize,
        uint64_t{cfg.mshrs} << 32 | windowUops,
        prefetchActive ?
            uint64_t{cfg.prefetcherEntries} << 32 | cfg.dispatchWidth : 0,
        prefetchActive ? cfg.memLatency : 0u,
        std::bit_cast<uint64_t>(opts.cal.coldInject)};
    return mlps_.get([&] {
        MlpOptions mo{opts.modelMshrs, opts.modelPrefetcher};
        mo.windowUops = windowUops;
        mo.coldInject = opts.cal.coldInject;
        MlpEstimate est;
        switch (opts.mlpMode) {
          case ModelOptions::MlpMode::ColdMiss:
            est = coldMissMlp(p_, cfg, ss_, mo);
            break;
          case ModelOptions::MlpMode::Stride:
            if (!strideCache_)
                strideCache_ = std::make_unique<StrideMlpCache>(p_, ss_);
            est = strideCache_->estimate(cfg, mo,
                                         opRatios(cfg.l3.numLines()));
            break;
          case ModelOptions::MlpMode::None:
            est.mlp = 1.0;
            break;
        }
        return est;
    });
}

const std::vector<double> &
EvalContext::opRatios(double lines)
{
    opRatios_.key() = {std::bit_cast<uint64_t>(lines)};
    return opRatios_.get([&] {
        std::vector<double> v(p_.memOps.size(), 0.0);
        for (size_t i = 0; i < p_.memOps.size(); ++i)
            if (!p_.memOps[i].isStore)
                v[i] = ss_.missRatio(p_.memOps[i].reuse, lines);
        return v;
    });
}

const EvalContext::ChainWeights &
EvalContext::chainWeights(double l2Lines, double l3Lines)
{
    chainWeights_.key() = {std::bit_cast<uint64_t>(l2Lines),
                           std::bit_cast<uint64_t>(l3Lines)};
    return chainWeights_.get([&] {
        // Combine per-lines ratio vectors: one missRatio pass per
        // distinct cache size instead of two per (L2, L3) pair. An LLC
        // hit on a load that depends on other loads cannot be
        // overlapped, so it serializes.
        const std::vector<double> &r2 = opRatios(l2Lines);
        const std::vector<double> &r3 = opRatios(l3Lines);
        ChainWeights cw;
        cw.opWeight.assign(p_.memOps.size(), 0.0);
        for (size_t i = 0; i < p_.memOps.size(); ++i) {
            const StaticMemProfile &sp = p_.memOps[i];
            if (sp.isStore)
                continue;
            double hit3 = std::max(0.0, r2[i] - r3[i]);
            cw.opWeight[i] = hit3 * depClamp_[i];
            cw.globalSerialHits += cw.opWeight[i] * sp.count;
        }
        if (loadsSeen_ > 0)
            cw.globalSerialHits /= loadsSeen_; // per load

        cw.windowSerial.assign(p_.windows.size(), 0.0);
        for (size_t wi = 0; wi < p_.windows.size(); ++wi) {
            double serialW = 0;
            for (const auto &[opIdx, cnt] : p_.windows[wi].memCounts)
                serialW += cw.opWeight[opIdx] * cnt;
            cw.windowSerial[wi] = serialW;
        }
        return cw;
    });
}

double
EvalContext::resolutionTime(const CoreConfig &cfg, double avgLat,
                            double uopsBetweenMispredicts) const
{
    // branchResolutionTime (thesis Alg 3.2) verbatim, with the chain
    // interpolations replayed from the precomputed bracket fits.
    const double d = cfg.dispatchWidth;
    const double rob = cfg.robSize;
    double ni = std::max(uopsBetweenMispredicts, 1.0);
    double occupancy = 0;

    int guard = 0;
    while (ni > d && guard++ < 100000) {
        double enter = std::min(d, rob - occupancy);
        ni -= enter;
        occupancy += enter;
        double cp = std::max(cpInterp_.eval(std::max(occupancy, 2.0)), 1.0);
        double leave = std::min(occupancy / (avgLat * cp), d);
        occupancy = std::max(occupancy - leave, 0.0);
    }
    occupancy = std::min(occupancy + ni, rob);
    double abp =
        std::max(abpInterp_.eval(std::max(occupancy, 2.0)), 1.0);
    return avgLat * abp;
}

double
EvalContext::branchResolution(const CoreConfig &cfg, double avgLat,
                              double uopsBetweenMispredicts)
{
    resolutions_.key() = {
        uint64_t{cfg.dispatchWidth} << 32 | cfg.robSize,
        std::bit_cast<uint64_t>(avgLat),
        std::bit_cast<uint64_t>(uopsBetweenMispredicts)};
    return resolutions_.get([&] {
        return resolutionTime(cfg, avgLat, uopsBetweenMispredicts);
    });
}

const EvalContext::BranchRates &
EvalContext::branchRates(const BranchMissModel &bm)
{
    // Keyed on the coefficient values — everything missRate reads — not
    // the model's address: callers pass fresh ModelOptions copies, whose
    // models may reuse an address with different coefficients.
    branchRates_.key() = {std::bit_cast<uint64_t>(bm.slope),
                          std::bit_cast<uint64_t>(bm.intercept),
                          std::bit_cast<uint64_t>(bm.knee),
                          std::bit_cast<uint64_t>(bm.kneeSlope)};
    return branchRates_.get([&] {
        const WindowStatics &ws = statics_;
        BranchRates rates;
        rates.global = bm.missRate(ws.globalEntropy);
        rates.windowMisses.reserve(p_.windows.size());
        for (size_t wi = 0; wi < p_.windows.size(); ++wi)
            rates.windowMisses.push_back(
                bm.missRate(ws.entropyEff[wi]) * p_.windows[wi].branches);
        return rates;
    });
}

} // namespace mipp
