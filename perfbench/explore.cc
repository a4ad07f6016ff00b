/**
 * explore: profiles → StatStack + batched interval model + power → DSE.
 *
 * Suite workloads with different memory behaviour are generated from
 * the seed and profiled during setup (the only profiler work here).
 * Each round sweeps every profile through a generated 2^17-point design
 * space with the streaming batched engine (sweepGenerated,
 * ModelOnlyPareto, shared thread pool, no evaluator pool), so every
 * sweep builds its StatStacks and evaluators afresh. No simulation and
 * no serving run in this workload.
 *
 * Check: no sweep is degraded, and every front point equals, bit for
 * bit, the scalar evaluateModel + computePower result for its config.
 */
#include <algorithm>
#include <bit>
#include <cmath>

#include "dse/explorer.hh"
#include "harness.hh"
#include "model/eval_cache.hh"
#include "power/power_model.hh"
#include "uarch/design_space.hh"

namespace perfbench {
namespace {

using namespace mipp;

constexpr const char *kWorkloads[] = {"balanced_mix", "ptr_chase",
                                      "stream_wide"};
constexpr size_t kProfileUops = 150000;
constexpr size_t kDvfs = 8;
/** 8 widths x 8 ROB x 8 L1D x 8 L2 x 4 L3 x 8 DVFS steps. */
constexpr size_t kPoints = 8 * 8 * 8 * 8 * 4 * kDvfs;
static_assert(kPoints == size_t(1) << 17);

/** Decode design point @p ci (DVFS innermost, so model work repeats
 *  across the ladder and only power changes). */
void
generatePoint(size_t ci, CoreConfig &out)
{
    static const CoreConfig base = CoreConfig::nehalemReference();
    if (out.ports.empty())
        out = base; // first use of this scratch slot
    size_t v = ci % kDvfs;
    ci /= kDvfs;
    size_t l3 = ci % 4;
    ci /= 4;
    size_t l2 = ci % 8;
    ci /= 8;
    size_t l1 = ci % 8;
    ci /= 8;
    size_t rob = ci % 8;
    ci /= 8;
    uint32_t width = static_cast<uint32_t>(ci) + 1; // 1..8
    if (out.dispatchWidth != width)
        out.setWidth(width);
    scaleBackEnd(out, 32 + 32 * static_cast<uint32_t>(rob));
    out.l1d.sizeBytes = (8u << l1) * 1024;
    out.l2.sizeBytes = (128u << l2) * 1024;
    out.l3.sizeBytes = (2u << (2 * l3)) * 1024 * 1024; // 2..128 MB
    scaleCacheLatencies(out);
    out.freqGHz = 1.2 + 0.25 * static_cast<double>(v);
    out.vdd = 0.85 + 0.04 * static_cast<double>(v);
}

struct State {
    /** One single-profile vector per workload: each sweep takes one. */
    std::vector<std::vector<Profile>> profiles;
    /** Scalar-path contexts for the front checks. */
    std::vector<std::unique_ptr<EvalContext>> ctx;
    double profileSeconds = 0, genSeconds = 0;
    uint64_t uops = 0;
};

std::unique_ptr<State>
build(uint64_t seed)
{
    auto st = std::make_unique<State>();
    st->profiles.reserve(std::size(kWorkloads));
    for (const char *name : kWorkloads) {
        Generated g = generateScreened(name, seed, kProfileUops);
        st->profiles.push_back({std::move(g.profile)});
        st->genSeconds += g.genSeconds;
        st->profileSeconds += g.profileSeconds;
        st->uops += g.uops;
    }
    for (const auto &one : st->profiles)
        st->ctx.push_back(std::make_unique<EvalContext>(one[0]));
    return st;
}

struct Tally {
    double seconds = 0;
    double cpuSeconds = 0; ///< process CPU time, the pool workers' too
    uint64_t points = 0;
    uint64_t sweeps = 0;
};

/** Sweep workload @p wi; returns its front size. */
size_t
sweepOne(State &st, size_t wi, Checks &checks, Tally &tally)
{
    static const ConfigGenerator gen = generatePoint;
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    auto t0 = Clock::now();
    const double c0 = processCpuSeconds();
    SweepResult r = sweepGenerated(st.profiles[wi], kPoints, gen, {}, so);
    tally.seconds += since(t0);
    tally.cpuSeconds += processCpuSeconds() - c0;
    tally.points += kPoints;
    tally.sweeps++;

    bool ok = r.status.isOk() && !r.degraded && r.frontPoints.size() == 1 &&
              !r.frontPoints[0].empty();
    std::string why = std::string(kWorkloads[wi]) + ": sweep failed or "
                                                    "degraded";
    if (ok) {
        std::vector<SweepPoint> front = r.frontPoints[0];
        if (checks.corruptNext())
            front[0].modelWatts = std::nextafter(front[0].modelWatts, 1e300);
        for (const SweepPoint &pt : front) {
            CoreConfig cfg;
            generatePoint(pt.configIdx, cfg);
            ModelResult mr = evaluateModel(*st.ctx[wi], cfg, {});
            double watts = computePower(mr.activity, cfg).total();
            if (std::bit_cast<uint64_t>(mr.cpiPerUop()) !=
                    std::bit_cast<uint64_t>(pt.modelCpi) ||
                std::bit_cast<uint64_t>(watts) !=
                    std::bit_cast<uint64_t>(pt.modelWatts)) {
                ok = false;
                why = std::string(kWorkloads[wi]) + ": front point " +
                      std::to_string(pt.configIdx) +
                      " differs from the scalar model";
                break;
            }
        }
    }
    checks.record(ok, why);
    return r.frontPoints.empty() ? 0 : r.frontPoints[0].size();
}

/** Model-only sweepEx over the 243-point space for all profiles, checked
 *  against the streaming engine's fronts. Returns points per second. */
double
modelOnlyRate(const State &st, double seconds, Checks &checks)
{
    std::vector<Profile> all;
    for (const auto &one : st.profiles)
        all.push_back(one[0]);
    DesignSpace space;
    SweepOptions streaming;
    streaming.mode = SweepMode::ModelOnlyPareto;
    SweepResult want = sweepEx({}, all, space.configs(), {}, streaming);

    SweepOptions so;
    so.mode = SweepMode::ModelOnly;
    double busy = 0;
    uint64_t points = 0;
    auto t0 = Clock::now();
    do {
        auto t1 = Clock::now();
        SweepResult r = sweepEx({}, all, space.configs(), {}, so);
        busy += since(t1);
        points += all.size() * space.size();
        checks.record(r.status.isOk() && !r.degraded &&
                          r.modelFronts == want.modelFronts,
                      "ModelOnly fronts differ from ModelOnlyPareto");
    } while (since(t0) < seconds);
    return points / busy;
}

} // namespace

void
runExplore(const Args &args, Checks &checks, Metrics &m)
{
    double setupS = 0;
    auto st = timedSetup<State>([&] { return build(args.seed); }, setupS);
    const size_t nw = st->profiles.size();

    Tally warm;
    size_t frontSize = 0;
    for (size_t wi = 0; wi < nw; ++wi)
        frontSize += sweepOne(*st, wi, checks, warm);
    resetPeakRss();

    Tally tally[2];
    SliceRates rate[2]; // per round
    std::map<std::string, SpanAgg> spans;
    uint64_t dropped = 0;
    for (const Phase &ph : phasesFor(args)) {
        Tally &t = tally[ph.traced];
        std::unique_ptr<TraceSession> session;
        if (ph.traced) {
            // Per sweep, per shard: a chunk and two StatStack builds.
            double sweepsPerS = tally[0].sweeps / std::max(1e-9, tally[0].seconds);
            session = std::make_unique<TraceSession>(
                ringCapacity(32 * sweepsPerS * ph.seconds));
        }
        auto t0 = Clock::now();
        do {
            Tally round;
            for (size_t wi = 0; wi < nw; ++wi)
                sweepOne(*st, wi, checks, round);
            t.seconds += round.seconds;
            t.cpuSeconds += round.cpuSeconds;
            t.points += round.points;
            t.sweeps += round.sweeps;
            rate[ph.traced].add(double(round.points), round.seconds,
                                round.cpuSeconds);
        } while (since(t0) < ph.seconds);
        if (session) {
            spans = session->finish();
            dropped = session->dropped();
        }
    }

    if (!args.trace) {
        m.set("setup_s", setupS, "s");
        m.set("peak_rss_mb", rate[0].peakRssMedian(), "MB");
        m.set("work_per_cpu_s", rate[0].cpuMedian(), "1/cpu_s");
        return;
    }

    auto agg = [&](const char *key) {
        auto it = spans.find(key);
        return it == spans.end() ? SpanAgg{} : it->second;
    };
    const SpanAgg ss = agg("statstack.build"), chunk = agg("dse.chunk");
    m.set("workloads.gen_uops_per_s", st->uops / st->genSeconds, "1/s");
    m.set("profiler.setup_uops_per_s", st->uops / st->profileSeconds, "1/s");
    m.set("statstack.build_ms", ss.count ? ss.totalNs / ss.count / 1e6 : 0,
          "ms");
    // Chunk self time: batched model evaluation, power and the front
    // fold, without the StatStack builds nested in the chunk.
    m.set("model.ns_per_point",
          tally[1].points ? chunk.selfNs / tally[1].points : 0, "ns");
    m.set("dse.chunk_self_ms",
          chunk.count ? chunk.selfNs / chunk.count / 1e6 : 0, "ms");
    m.set("dse.front_size", double(frontSize), "count");
    m.set("dse.points_per_s", rate[0].median(), "1/s");
    m.set("obs.trace_overhead_pct",
          overheadPct(rate[0].cpuMedian(), rate[1].cpuMedian()), "%");
    m.set("obs.dropped_spans", double(dropped), "count");
    m.set("dse.modelonly_points_per_s",
          modelOnlyRate(*st, std::min(1.0, args.seconds / 10), checks),
          "1/s");
}

} // namespace perfbench
