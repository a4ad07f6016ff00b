/**
 * validate: cycle-level simulation against the interval model.
 *
 * Suite workloads are generated with seeds derived from the benchmark
 * seed, so they differ from the traces the model coefficients were
 * fitted on (held-back data), and profiled. Each round runs every
 * workload through simulate() and the scalar evaluateModel() at every
 * point of the "default" accuracy grid and scores the pair. The
 * simulator does most of the work; without this workload neither its
 * speed nor the model's accuracy would be measured.
 *
 * Simulation speed depends on the generated program, which the seed
 * changes: one workload's speed varies by 5-35% across seeds. So every
 * round simulates freshly generated traces (seeded by benchmark seed
 * and round; generated and profiled outside the timing), and the rate
 * is the median over rounds. The set-up builds round 0's inputs. A
 * round spreads its workloads over kThreads threads, so the rate is
 * taken on every vCPU rather than the one a single thread lands on. The
 * end-to-end rate is simulated uops per CPU-second of the simulating
 * threads; sim.uops_per_s is the same over their host time.
 * Pointer-chasing workloads are left out: they simulate at a third of
 * the others' speed with the widest spread, and would set the rate
 * alone.
 *
 * Check: checkSimConsistency and checkModelConsistency report no
 * violation for any pair. The model error (MAPE over the first round)
 * is deterministic for a seed.
 */

#include <thread>

#include "harness.hh"
#include "model/eval_cache.hh"
#include "power/power_model.hh"
#include "sim/ooo_core.hh"
#include "validate/accuracy.hh"

namespace perfbench {
namespace {

using namespace mipp;

constexpr const char *kWorkloads[] = {
    "stream_add",  "dense_compute", "branchy",   "matrix_tile",
    "hash_build",  "scatter_store", "div_heavy", "balanced_mix"};
constexpr size_t kUops = 20000;
constexpr double kStackTolerance = 0.01; // runAccuracy's default
constexpr unsigned kThreads = 4;

struct State {
    std::vector<CoreConfig> grid = accuracyGrid("default");
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
    std::vector<std::unique_ptr<EvalContext>> ctx;
    double genSeconds = 0, profileSeconds = 0;
    uint64_t uops = 0;
};

/** The inputs of round @p round. */
std::unique_ptr<State>
build(uint64_t seed, uint64_t round)
{
    auto st = std::make_unique<State>();
    st->traces.reserve(std::size(kWorkloads));
    st->profiles.reserve(std::size(kWorkloads));
    for (const char *name : kWorkloads) {
        Generated g = generateScreened(name, mixSeed(seed, round), kUops);
        st->traces.push_back(std::move(g.trace));
        st->profiles.push_back(std::move(g.profile));
        st->genSeconds += g.genSeconds;
        st->profileSeconds += g.profileSeconds;
        st->uops += g.uops;
    }
    for (const Profile &p : st->profiles)
        st->ctx.push_back(std::make_unique<EvalContext>(p));
    return st;
}

struct Tally {
    double simSeconds = 0;
    double simCpuSeconds = 0; ///< CPU time of the simulating threads
    uint64_t simUops = 0;
    uint64_t points = 0;
    uint64_t violations = 0;
    double watts = 0; ///< keeps the power calls observable
};

/** One workload at one grid point. */
struct PointRun {
    Tally tally;
    PointAccuracy scored;
};

PointRun
runPoint(State &st, size_t w, const CoreConfig &cfg, Checks &checks)
{
    PointRun out;
    Tally &tally = out.tally;
    auto t0 = Clock::now();
    const double c0 = threadCpuSeconds();
    SimResult sim;
    {
        obs::ScopedSpan span("bench.simulate");
        sim = simulate(st.traces[w], cfg);
    }
    tally.simSeconds = since(t0);
    tally.simCpuSeconds = threadCpuSeconds() - c0;
    tally.simUops = sim.uops;
    ModelResult mod;
    {
        obs::ScopedSpan span("bench.evaluate");
        mod = evaluateModel(*st.ctx[w], cfg, {});
    }
    {
        obs::ScopedSpan span("bench.power");
        tally.watts = computePower(sim.activity, cfg).total() +
                      computePower(mod.activity, cfg).total();
    }
    {
        obs::ScopedSpan span("bench.score");
        out.scored = scoreAccuracyPoint(sim, mod, cfg, st.profiles[w],
                                        kWorkloads[w]);
    }
    tally.points = 1;

    auto viol = checkSimConsistency(sim, kStackTolerance);
    for (auto &v : checkModelConsistency(mod, kStackTolerance))
        viol.push_back(std::move(v));
    if (checks.corruptNext())
        viol.push_back("injected");
    tally.violations = viol.size();
    checks.record(viol.empty(), std::string(kWorkloads[w]) + "/" + cfg.name +
                                    ": " + (viol.empty() ? "" : viol[0]));
    return out;
}

/**
 * Every workload at every grid point, workload w on thread w % kThreads
 * (an EvalContext serves one thread at a time, and a fixed assignment
 * keeps each thread's memory the same from round to round); scored
 * points go to @p scored in workload-major order. The rates are summed
 * simulated uops over summed simulate() time, host and CPU, the mean
 * speed of one simulating thread: taken on every vCPU, they do not hang
 * on the one vCPU a single thread happens to land on.
 */
void
runRound(State &st, Checks &checks, Tally &tally,
         std::vector<PointAccuracy> *scored)
{
    const size_t nw = st.traces.size(), ng = st.grid.size();
    std::vector<PointRun> runs(nw * ng);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                for (size_t w = t; w < nw; w += kThreads)
                    for (size_t g = 0; g < ng; ++g)
                        runs[w * ng + g] = runPoint(st, w, st.grid[g], checks);
            });
    }
    for (PointRun &r : runs) {
        tally.simSeconds += r.tally.simSeconds;
        tally.simCpuSeconds += r.tally.simCpuSeconds;
        tally.simUops += r.tally.simUops;
        tally.points += r.tally.points;
        tally.violations += r.tally.violations;
        tally.watts += r.tally.watts;
        if (scored)
            scored->push_back(std::move(r.scored));
    }
}

} // namespace

void
runValidate(const Args &args, Checks &checks, Metrics &m)
{
    double setupS = 0;
    auto st = timedSetup<State>([&] { return build(args.seed, 0); }, setupS);

    Tally warm;
    std::vector<PointAccuracy> scored;
    runRound(*st, checks, warm, &scored);
    auto summary = summarizeAccuracy(scored);
    resetPeakRss();

    uint64_t round = 1;
    Tally tally[2];
    SliceRates rate[2]; // per round
    std::map<std::string, SpanAgg> spans;
    uint64_t dropped = 0;
    for (const Phase &ph : phasesFor(args)) {
        Tally &t = tally[ph.traced];
        std::unique_ptr<TraceSession> session;
        if (ph.traced)
            session = std::make_unique<TraceSession>(ringCapacity(0));
        auto t0 = Clock::now();
        do {
            auto in = build(args.seed, round++);
            Tally r;
            runRound(*in, checks, r, nullptr);
            t.simSeconds += r.simSeconds;
            t.simCpuSeconds += r.simCpuSeconds;
            t.simUops += r.simUops;
            t.points += r.points;
            t.violations += r.violations;
            rate[ph.traced].add(double(r.simUops), r.simSeconds,
                                r.simCpuSeconds);
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

    auto total = [&](const char *key) {
        auto it = spans.find(key);
        return it == spans.end() ? 0.0 : it->second.totalNs;
    };
    const double pts = double(tally[1].points);
    m.set("workloads.gen_uops_per_s", st->uops / st->genSeconds, "1/s");
    m.set("profiler.setup_uops_per_s", st->uops / st->profileSeconds, "1/s");
    m.set("sim.uops_per_s", rate[0].median(), "1/s");
    m.set("sim.ns_per_uop",
          tally[1].simUops ? total("bench.simulate") / tally[1].simUops : 0,
          "ns");
    m.set("model.scalar_us_per_point",
          pts ? total("bench.evaluate") / pts / 1e3 : 0, "us");
    m.set("power.ns_per_call", pts ? total("bench.power") / (2 * pts) : 0,
          "ns");
    m.set("validate.score_us_per_point",
          pts ? total("bench.score") / pts / 1e3 : 0, "us");
    m.set("validate.violations",
          double(warm.violations + tally[0].violations + tally[1].violations),
          "count");
    m.set("validate.cpi_mape_pct", summary[size_t(AccuracyMetric::Cpi)].mape,
          "%");
    m.set("validate.power_mape_pct",
          summary[size_t(AccuracyMetric::Power)].mape, "%");
    m.set("validate.points", double(scored.size()), "count");
    m.set("obs.trace_overhead_pct",
          overheadPct(rate[0].cpuMedian(), rate[1].cpuMedian()), "%");
    m.set("obs.dropped_spans", double(dropped), "count");
}

} // namespace perfbench
