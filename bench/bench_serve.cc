/**
 * Benchmarks for the DSE-as-a-service daemon (google-benchmark;
 * recorded alongside the sweep benchmarks by bench/run_benchmarks.sh).
 *
 * BM_ServeThroughput measures end-to-end request throughput against a
 * warm server: N concurrent clients (benchmark threads), each with its
 * own connection, issuing model-only 27-point sweeps against a profile
 * already resident in the server's LRU. The measured path is the full
 * service stack — socket round-trip, JSON parse, queue, executor,
 * sweep on the entry's warm EvalContext, response serialization — so
 * the number is comparable to BM_DseSweepBatched to
 * read off the serving overhead on top of the bare sweep.
 *
 * BM_ServeEvaluate is the cheapest query (single-config evaluation
 * against the warm EvalContext), bounding the per-request fixed cost.
 *
 * Both are smoke-safe: small profile, small space, server torn down at
 * process exit.
 */
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <sstream>
#include <string>

#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

/** Start the daemon once, upload one profile, return the socket path.
 *  The static Server stops itself (joining all threads) at exit. */
const std::string &
warmServerSocket()
{
    static const std::string path = [] {
        std::ostringstream os;
        os << "/tmp/mipp_bench_serve_" << ::getpid() << ".sock";
        return os.str();
    }();
    static serve::Server server([] {
        serve::ServerOptions opts;
        opts.socketPath = path;
        opts.workers = 2;
        opts.maxQueue = 64;
        return opts;
    }());
    static const bool ready = [] {
        Status st = server.start();
        if (!st.ok()) {
            std::fprintf(stderr, "bench_serve: %s\n",
                         st.toString().c_str());
            std::abort();
        }
        Trace t = generateWorkload(suiteWorkload("balanced_mix"), 50000);
        Profile p = profileTrace(t, {.name = "balanced_mix"});
        std::stringstream ss;
        writeProfile(p, ss);
        std::string req = "{\"op\":\"load-profile\",\"name\":\"w\","
                          "\"data\":" +
                          json::quote(ss.str()) + "}";
        serve::Client cli;
        std::string resp;
        if (!cli.connect(path).ok() || !cli.call(req, resp).ok() ||
            resp.find("\"ok\":true") == std::string::npos) {
            std::fprintf(stderr, "bench_serve: profile upload failed\n");
            std::abort();
        }
        return true;
    }();
    (void)ready;
    return path;
}

void
BM_ServeThroughput(benchmark::State &state)
{
    // One connection per benchmark thread; the sweep hits the warm LRU
    // entry's EvalContext, so the steady state is serving overhead +
    // warm model evaluation.
    serve::Client cli;
    if (!cli.connect(warmServerSocket()).ok()) {
        state.SkipWithError("connect failed");
        return;
    }
    const std::string req =
        "{\"op\":\"sweep\",\"profile\":\"w\",\"space\":\"small\"}";
    for (auto _ : state) {
        std::string resp;
        Status st = cli.call(req, resp);
        if (!st.ok() || resp.find("\"ok\":true") == std::string::npos) {
            state.SkipWithError("sweep request failed");
            return;
        }
    }
    // 27 design points per request (the "small" 3x3x3 space).
    state.SetItemsProcessed(state.iterations() * 27);
}
BENCHMARK(BM_ServeThroughput)
    ->Unit(benchmark::kMillisecond)
    ->Threads(1)
    ->Threads(4);

void
BM_ServeEvaluate(benchmark::State &state)
{
    serve::Client cli;
    if (!cli.connect(warmServerSocket()).ok()) {
        state.SkipWithError("connect failed");
        return;
    }
    const std::string req = "{\"op\":\"evaluate\",\"profile\":\"w\","
                            "\"config\":{\"width\":4,\"rob\":128}}";
    for (auto _ : state) {
        std::string resp;
        Status st = cli.call(req, resp);
        if (!st.ok() || resp.find("\"ok\":true") == std::string::npos) {
            state.SkipWithError("evaluate request failed");
            return;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeEvaluate)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
