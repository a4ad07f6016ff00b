#include "dse/explorer.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "dse/pareto.hh"
#include "model/eval_cache.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "util/failpoint.hh"
#include "util/thread_pool.hh"

namespace mipp {

ModelEvalPool::ModelEvalPool() = default;
ModelEvalPool::~ModelEvalPool() = default;

void
ModelEvalPool::reserve(size_t nWorkloads)
{
    if (slots_.size() < nWorkloads)
        slots_.resize(nWorkloads);
}

EvalContext &
ModelEvalPool::get(size_t wi, const Profile &profile)
{
    reserve(wi + 1);
    std::unique_ptr<EvalContext> &ctx = slots_[wi];
    if (!ctx || &ctx->profile() != &profile)
        ctx = std::make_unique<EvalContext>(profile);
    return *ctx;
}

void
ModelEvalPool::clear()
{
    slots_.clear();
}

PairEval
evaluatePair(const Trace &trace, const Profile &profile,
             const CoreConfig &cfg, const ModelOptions &mopts,
             const SimOptions &sopts)
{
    PairEval e;
    e.sim = simulate(trace, cfg, sopts);
    e.model = evaluateModel(profile, cfg, mopts);
    e.simPower = computePower(e.sim.activity, cfg);
    e.modelPower = computePower(e.model.activity, cfg);
    return e;
}

namespace {

/** One contiguous run of configs for a single workload. */
struct Span {
    size_t wi, c0, c1;
};

unsigned
streamCount(unsigned threads)
{
    unsigned streams = ThreadPool::shared().concurrency();
    if (threads != 0)
        streams = std::min(streams, threads);
    return streams;
}

/** Detail-simulate the selected (workload, config) pairs. Checks the
 *  token before every simulate() call — one detailed simulation is the
 *  coarsest unit of work a deadline can wait out. */
void
simPass(const std::vector<Trace> &traces,
        const std::vector<CoreConfig> &configs,
        const std::vector<std::pair<size_t, size_t>> &pairs,
        SweepResult &res, unsigned threads, const CancelToken &cancel)
{
    std::atomic<size_t> invoked{0};
    parallelForShared(pairs.size(), threads, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            if (cancel.cancelled())
                return;
            auto [wi, ci] = pairs[i];
            MIPP_SPAN("dse.sim");
            SimResult sim = simulate(traces[wi], configs[ci]);
            SweepPoint &pt = res.points[wi * res.nConfigs + ci];
            pt.simCpi = sim.cpiPerUop();
            pt.simWatts = computePower(sim.activity, configs[ci]).total();
            pt.simulated = true;
            invoked.fetch_add(1, std::memory_order_relaxed);
        }
    });
    res.simInvocations += invoked.load(std::memory_order_relaxed);
}

/**
 * Shards of the model pass: one per workload unless extra streams are
 * idle (or a pool pins each workload to its one warm context). Model
 * points cost near-uniform time, so grains finer than the stream count
 * only multiply cold context builds.
 */
std::vector<Span>
modelChunks(size_t nw, size_t nc, unsigned streams)
{
    std::vector<Span> spans;
    if (nw == 0 || nc == 0)
        return spans;
    size_t target = std::max<size_t>(1, streams);
    size_t perWorkload = std::max<size_t>(1, (target + nw - 1) / nw);
    perWorkload = std::min(perWorkload, nc);
    size_t grain = (nc + perWorkload - 1) / perWorkload;
    for (size_t wi = 0; wi < nw; ++wi)
        for (size_t c0 = 0; c0 < nc; c0 += grain)
            spans.push_back({wi, c0, std::min(nc, c0 + grain)});
    return spans;
}

/**
 * The model pass of every sweep mode: evaluate every point through its
 * shard's EvalContext and fold the (CPI, watts) objectives straight into
 * per-shard Pareto accumulators. When the grid is materialized
 * (res.points pre-sized) each point is also written in place. Shard
 * accumulators merge per workload at the end into the fronts, which
 * equal paretoFront() over the evaluated points exactly. Stops starting
 * new work once the cancel token fires; points never reached keep
 * evaluated == false and stay out of the fronts.
 *
 * Exactly one of @p configs / @p gen is non-null: explicit configs are
 * evaluated in place, generated ones through one scratch slot per shard.
 */
void
streamingModelPass(const std::vector<Profile> &profiles,
                   const std::vector<CoreConfig> *configs,
                   const ConfigGenerator *gen, SweepResult &res,
                   const ModelOptions &mopts, const SweepOptions &sopts)
{
    const size_t nw = res.nWorkloads;
    const size_t nc = res.nConfigs;
    const bool materialize = !res.points.empty();
    auto spans = modelChunks(nw, nc,
                             sopts.evalPool ? 1 : streamCount(sopts.threads));
    // Concurrent shards then touch disjoint, pre-reserved pool slots.
    if (sopts.evalPool)
        sopts.evalPool->reserve(nw);

    // Power parameters are workload-independent; precompute them once
    // for explicit multi-workload spaces so every workload shares the
    // voltage/leakage pow() chain. Generated spaces derive them per
    // point — materializing per-config state is what a generator avoids.
    std::vector<PowerParams> pp;
    if (configs && nw > 1) {
        pp.reserve(nc);
        for (const CoreConfig &cfg : *configs)
            pp.push_back(powerParams(cfg));
    }

    std::vector<ParetoAccumulator> accs(spans.size());
    parallelForShared(
        spans.size(), sopts.threads, [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s) {
                if (sopts.cancel.cancelled())
                    return;
                // Test hook: stretch shard execution so a deadline can
                // be made to expire mid-sweep deterministically. The
                // injected delay waits on the sweep's token, so a
                // cancelled request is not held hostage by its own
                // fault injection.
                (void)MIPP_FAILPOINT_C("dse.chunk_delay",
                                       &sopts.cancel);
                MIPP_SPAN("dse.chunk");
                const Span &sp = spans[s];
                std::unique_ptr<EvalContext> local;
                EvalContext *ctx;
                if (sopts.evalPool) {
                    ctx = &sopts.evalPool->get(sp.wi, profiles[sp.wi]);
                } else {
                    local = std::make_unique<EvalContext>(profiles[sp.wi]);
                    ctx = local.get();
                }

                constexpr size_t kCancelGrain = 256;
                ModelResult m;
                CoreConfig genCfg;
                ParetoAccumulator &acc = accs[s];
                for (size_t ci = sp.c0; ci < sp.c1; ++ci) {
                    if ((ci - sp.c0) % kCancelGrain == 0 &&
                        sopts.cancel.cancelled())
                        return;
                    const CoreConfig *cfg = &genCfg;
                    if (gen)
                        (*gen)(ci, genCfg);
                    else
                        cfg = &(*configs)[ci];
                    evaluateModelInto(*ctx, *cfg, mopts, m);
                    const double cpi = m.cpiPerUop();
                    const double watts = pp.empty() ?
                        computePower(m.activity, *cfg).total() :
                        computePower(m.activity, *cfg, pp[ci]).total();
                    acc.insert({cpi, watts}, ci);
                    if (materialize) {
                        SweepPoint &pt = res.points[sp.wi * nc + ci];
                        pt.configIdx = ci;
                        pt.workloadIdx = sp.wi;
                        pt.modelCpi = cpi;
                        pt.modelWatts = watts;
                        pt.evaluated = true;
                    }
                }
            }
        });

    // Merge shard accumulators per workload; expose the surviving fronts
    // in ascending config order (paretoFront()'s order).
    res.modelFronts.assign(nw, {});
    res.frontPoints.assign(nw, {});
    for (size_t s = 0; s < spans.size(); ++s) {
        // Chunks of one workload are contiguous in spans.
        size_t e = s;
        while (e + 1 < spans.size() && spans[e + 1].wi == spans[s].wi)
            ++e;
        ParetoAccumulator &merged = accs[s];
        for (size_t t = s + 1; t <= e; ++t)
            merged.merge(accs[t]);
        const size_t wi = spans[s].wi;
        res.modelFronts[wi] = merged.indices();
        std::vector<SweepPoint> &fps = res.frontPoints[wi];
        fps.reserve(merged.size());
        for (const ParetoAccumulator::Entry &en : merged.entries()) {
            SweepPoint pt;
            pt.configIdx = en.idx;
            pt.workloadIdx = wi;
            pt.modelCpi = en.obj.first;
            pt.modelWatts = en.obj.second;
            pt.evaluated = true;
            fps.push_back(pt);
        }
        std::sort(fps.begin(), fps.end(),
                  [](const SweepPoint &a, const SweepPoint &b) {
                      return a.configIdx < b.configIdx;
                  });
        s = e;
    }
}

/**
 * Simulation budget of ModelThenSimPareto: every model-front config plus
 * an evenly spaced sample of the remaining configs per workload.
 */
std::vector<std::pair<size_t, size_t>>
selectValidationPairs(const SweepResult &res, size_t validationSamples)
{
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t wi = 0; wi < res.nWorkloads; ++wi) {
        std::vector<bool> onFront(res.nConfigs, false);
        for (size_t ci : res.modelFronts[wi]) {
            onFront[ci] = true;
            pairs.push_back({wi, ci});
        }
        if (validationSamples == 0)
            continue;
        std::vector<size_t> rest;
        for (size_t ci = 0; ci < res.nConfigs; ++ci)
            if (!onFront[ci])
                rest.push_back(ci);
        size_t take = std::min(validationSamples, rest.size());
        for (size_t k = 0; k < take; ++k)
            pairs.push_back({wi, rest[k * rest.size() / take]});
    }
    return pairs;
}

} // namespace

namespace {

/** Shared input validation: an empty sweep is a caller mistake, not a
 *  trivially-empty result that sails through downstream consumers. */
Status
validateSweepInputs(size_t nTraces, size_t nProfiles, size_t nConfigs,
                    SweepMode mode)
{
    if (nProfiles == 0)
        return invalidArgument("sweep: no workloads (empty profile list)");
    if (nConfigs == 0)
        return invalidArgument("sweep: empty design space");
    const bool needsTraces =
        mode == SweepMode::Paired || mode == SweepMode::ModelThenSimPareto;
    if (needsTraces && nTraces != nProfiles)
        return invalidArgument(
            "sweep: simulation mode needs one trace per profile (" +
            std::to_string(nTraces) + " traces, " +
            std::to_string(nProfiles) + " profiles)");
    return Status::ok();
}

} // namespace

SweepResult
sweepEx(const std::vector<Trace> &traces,
        const std::vector<Profile> &profiles,
        const std::vector<CoreConfig> &configs, const ModelOptions &mopts,
        const SweepOptions &sopts)
{
    MIPP_SPAN("dse.sweep");
    SweepResult res;
    res.nWorkloads = profiles.size();
    res.nConfigs = configs.size();
    res.status = validateSweepInputs(traces.size(), profiles.size(),
                                     configs.size(), sopts.mode);
    if (!res.status.isOk())
        return res;

    // ModelOnlyPareto never materializes the point grid (O(front)); the
    // other modes pre-size it for index-addressed writes (see
    // SweepResult::points).
    if (sopts.mode != SweepMode::ModelOnlyPareto)
        res.points.assign(res.nWorkloads * res.nConfigs, {});
    streamingModelPass(profiles, &configs, nullptr, res, mopts, sopts);

    std::vector<std::pair<size_t, size_t>> sims;
    if (sopts.mode == SweepMode::Paired) {
        sims.reserve(res.points.size());
        for (size_t wi = 0; wi < res.nWorkloads; ++wi)
            for (size_t ci = 0; ci < res.nConfigs; ++ci)
                sims.push_back({wi, ci});
    } else if (sopts.mode == SweepMode::ModelThenSimPareto) {
        // Graceful degradation: when the deadline already fired (or
        // fires between sims), the remaining simulation budget is
        // dropped and the response is the model-only front — strictly
        // less validated, never wrong.
        sims = selectValidationPairs(res, sopts.validationSamples);
    }
    if (!sims.empty())
        simPass(traces, configs, sims, res, sopts.threads, sopts.cancel);
    res.degraded = sopts.cancel.cancelled();
    return res;
}

SweepResult
sweepGenerated(const std::vector<Profile> &profiles, size_t nConfigs,
               const ConfigGenerator &gen, const ModelOptions &mopts,
               const SweepOptions &sopts)
{
    MIPP_SPAN("dse.sweep");
    SweepResult res;
    res.nWorkloads = profiles.size();
    res.nConfigs = nConfigs;
    res.status = validateSweepInputs(0, profiles.size(), nConfigs,
                                     SweepMode::ModelOnlyPareto);
    if (!res.status.isOk())
        return res;
    streamingModelPass(profiles, nullptr, &gen, res, mopts, sopts);
    res.degraded = sopts.cancel.cancelled();
    return res;
}

} // namespace mipp
