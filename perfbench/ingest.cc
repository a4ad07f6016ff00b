/**
 * ingest: recorded traces → `.mtf` open/validate → profiler.
 *
 * Six suite traces with different footprints (a streaming cold sweep,
 * DRAM scatter stores, a random-access hash build, an L1-resident
 * compute kernel, a serial FP chain and a branch-heavy loop) are
 * generated from the seed and encoded to `.mtf` bytes held in memory;
 * the generated traces are dropped once encoded. The six were picked
 * for profiling cost that varies little across seeds (stream_add's
 * varies by a third), so a change of seed does not move the rates. Each round opens every trace with
 * full validation and profiles it twice: sequential profileSource (the
 * CLI default) and profileSourceParallel at kThreads threads, the two
 * in alternating order. The parallel half exercises the segment-parallel
 * profiler; the sequential half bypasses it.
 *
 * Check: both profiles serialize to exactly the bytes of the in-memory
 * profileTrace of the generated trace.
 */
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "harness.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "workloads/workload.hh"

namespace perfbench {
namespace {

using namespace mipp;

constexpr const char *kTraces[] = {"cold_sweep", "scatter_store",
                                   "hash_build", "dense_compute",
                                   "fp_serial",  "branchy"};
constexpr size_t kUops = 500000;
constexpr unsigned kThreads = 4;

struct Input {
    std::string name;
    std::string mtf;       ///< encoded trace
    std::string reference; ///< writeProfile of the in-memory profile
    uint64_t uops = 0;
};

struct State {
    std::vector<Input> inputs;
    double genSeconds = 0;
    uint64_t genUops = 0;
};

std::string
profileBytes(const Profile &p)
{
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

std::unique_ptr<State>
build(uint64_t seed)
{
    auto st = std::make_unique<State>();
    for (const char *name : kTraces) {
        WorkloadSpec spec = suiteWorkload(name);
        spec.seed = mixSeed(seed, nameSalt(name));
        Input in;
        in.name = name;
        auto t0 = Clock::now();
        Trace t = generateWorkload(spec, kUops);
        st->genSeconds += since(t0);
        st->genUops += t.size();
        std::ostringstream os;
        Status s = writeMtf(t, os);
        if (!s.isOk())
            throw std::runtime_error("encode " + in.name + ": " +
                                     s.toString());
        in.mtf = std::move(os).str();
        in.reference = profileBytes(profileTrace(t, {.name = name}));
        in.uops = t.size();
        st->inputs.push_back(std::move(in));
    }
    return st;
}

/** TraceSource decorator: every decode runs under a benchmark span. */
class TimedSource final : public TraceSource
{
  public:
    explicit TimedSource(TraceSource &inner) : inner_(inner) {}
    uint64_t sizeHint() const override { return inner_.sizeHint(); }
    TraceSegment
    next(size_t maxUops) override
    {
        obs::ScopedSpan span("bench.decode");
        return inner_.next(maxUops);
    }
    void reset() override { inner_.reset(); }

  private:
    TraceSource &inner_;
};

struct Tally {
    double seconds = 0;
    double cpuSeconds = 0; ///< process CPU time, the parallel workers' too
    uint64_t uops = 0;
    uint64_t ops = 0;
};

/** Open + validate + profile one trace; check it outside the timing. */
void
runOp(const Input &in, bool par, Checks &checks, Tally &tally)
{
    std::string bytes = in.mtf; // the reader takes ownership of a buffer
    auto t0 = Clock::now();
    const double c0 = processCpuSeconds();
    MtfReader reader;
    Status st;
    {
        obs::ScopedSpan span("bench.open");
        st = MtfReader::parse(std::move(bytes), reader);
    }
    Profile p;
    if (st.isOk()) {
        MtfTraceSource src(std::move(reader));
        TimedSource timed(src);
        ProfilerConfig cfg;
        cfg.name = in.name;
        if (par) {
            obs::ScopedSpan span("bench.profile_par");
            p = profileSourceParallel(timed, cfg, {.threads = kThreads});
        } else {
            obs::ScopedSpan span("bench.profile_seq");
            p = profileSource(timed, cfg);
        }
    }
    tally.seconds += since(t0);
    tally.cpuSeconds += processCpuSeconds() - c0;
    tally.uops += in.uops;
    tally.ops++;

    std::string got = st.isOk() ? profileBytes(p) : std::string();
    if (checks.corruptNext() && !got.empty())
        got[got.size() / 2] ^= 1;
    checks.record(got == in.reference,
                  in.name + (par ? " parallel" : " sequential") +
                      " profile of the .mtf differs from the in-memory "
                      "profile" +
                      (st.isOk() ? "" : " (open: " + st.toString() + ")"));
}

/** Totals and per-round rates of one phase. */
struct PhaseTally {
    Tally seq, par;
    SliceRates seqRate, parRate, rate;
};

/** One round: every trace, sequential and parallel, order alternating. */
void
runRound(const State &st, size_t round, Checks &checks, PhaseTally &pt)
{
    Tally seq, par;
    for (size_t i = 0; i < st.inputs.size(); ++i) {
        bool parFirst = (round + i) % 2 == 1;
        runOp(st.inputs[i], parFirst, checks, parFirst ? par : seq);
        runOp(st.inputs[i], !parFirst, checks, parFirst ? seq : par);
    }
    auto accumulate = [](Tally &into, const Tally &from) {
        into.seconds += from.seconds;
        into.cpuSeconds += from.cpuSeconds;
        into.uops += from.uops;
        into.ops += from.ops;
    };
    accumulate(pt.seq, seq);
    accumulate(pt.par, par);
    pt.seqRate.add(double(seq.uops), seq.seconds, seq.cpuSeconds);
    pt.parRate.add(double(par.uops), par.seconds, par.cpuSeconds);
    pt.rate.add(double(seq.uops + par.uops), seq.seconds + par.seconds,
                seq.cpuSeconds + par.cpuSeconds);
}

} // namespace

void
runIngest(const Args &args, Checks &checks, Metrics &m)
{
    double setupS = 0;
    auto st = timedSetup<State>([&] { return build(args.seed); }, setupS);

    PhaseTally warm;
    runRound(*st, 0, checks, warm);

    size_t round = 1;
    PhaseTally pt[2];
    std::map<std::string, SpanAgg> spans;
    uint64_t dropped = 0;
    for (const Phase &ph : phasesFor(args)) {
        std::unique_ptr<TraceSession> session;
        if (ph.traced) {
            // ~12 spans per op: open, call, pass and the decodes.
            const PhaseTally &u = pt[0];
            double opsPerS = (u.seq.ops + u.par.ops) /
                             std::max(1e-9, u.rate.seconds());
            session = std::make_unique<TraceSession>(
                ringCapacity(12 * opsPerS * ph.seconds));
        }
        auto t0 = Clock::now();
        do
            runRound(*st, round++, checks, pt[ph.traced]);
        while (since(t0) < ph.seconds);
        if (session) {
            spans = session->finish();
            dropped = session->dropped();
        }
    }

    if (!args.trace) {
        m.set("setup_s", setupS, "s");
        m.set("peak_rss_mb", pt[0].rate.peakRssMedian(), "MB");
        m.set("work_per_cpu_s", pt[0].rate.cpuMedian(), "1/cpu_s");
        return;
    }

    const Tally &ts = pt[1].seq, &tp = pt[1].par;
    const double nOps = double(ts.ops + tp.ops);
    auto meanMs = [&](const char *key, double n) {
        auto it = spans.find(key);
        return it == spans.end() || n == 0 ? 0.0 : it->second.totalNs / n / 1e6;
    };
    auto selfMs = [&](const char *key, double n) {
        auto it = spans.find(key);
        return it == spans.end() || n == 0 ? 0.0 : it->second.selfNs / n / 1e6;
    };
    double bytes = 0, uops = 0;
    for (const Input &in : st->inputs) {
        bytes += double(in.mtf.size());
        uops += double(in.uops);
    }
    const double tSeq = meanMs("bench.profile_seq", double(ts.ops));
    const double tPar = meanMs("bench.profile_par", double(tp.ops));

    m.set("workloads.gen_uops_per_s", st->genUops / st->genSeconds, "1/s");
    m.set("trace.open_ms", meanMs("bench.open", nOps), "ms");
    m.set("trace.decode_ms", meanMs("bench.decode", nOps), "ms");
    m.set("trace.bytes_per_uop", bytes / uops, "B");
    m.set("profiler.seq_uops_per_s", pt[0].seqRate.median(), "1/s");
    m.set("profiler.par_uops_per_s", pt[0].parRate.median(), "1/s");
    // profiler.pass minus the decodes nested in it: the profiler's own
    // time on the calling thread.
    m.set("profiler.seq_busy_ms",
          selfMs("bench.profile_seq>profiler.pass", double(ts.ops)), "ms");
    m.set("profiler.par_busy_ms",
          selfMs("bench.profile_par>profiler.pass", double(tp.ops)), "ms");
    m.set("profiler.par_efficiency",
          tPar > 0 ? tSeq / (kThreads * tPar) : 0, "ratio");
    // README ceiling t_par = t_seq/N + t_absorb, solved for the serial
    // share t_absorb / t_seq.
    m.set("profiler.serial_share",
          tSeq > 0 ? (tPar - tSeq / kThreads) / tSeq : 0, "ratio");
    m.set("obs.trace_overhead_pct",
          overheadPct(pt[0].rate.cpuMedian(), pt[1].rate.cpuMedian()), "%");
    m.set("obs.dropped_spans", double(dropped), "count");
}

} // namespace perfbench
