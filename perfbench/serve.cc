/**
 * serve: the DSE daemon under a closed-loop request mix.
 *
 * An in-process serve::Server (kWorkers executors, the default 8-entry
 * profile LRU) is driven by one client connection in a closed loop: it
 * keeps kInFlight requests outstanding and sends the next only when a
 * reply arrives, as a DSE client that pipelines its queries does. The
 * queue stays full enough that the executors never wait for the client,
 * and the load comes from one thread, so client, connection reader and
 * executors fit on four vCPUs. The mix, in every 64 requests:
 *
 *  - 2 load-profile uploads. Uploads cycle through kCold profiles, more
 *    than the LRU holds beside the two hot ones, so writes land beside
 *    reads and every upload evicts a profile that must be rebuilt cold
 *    when it returns;
 *  - 1 sweep of the 27-point space, alternately of a hot profile (warm
 *    evaluator pool) and of the latest upload (cold pool);
 *  - the rest evaluates (the scalar EvalContext path) against the hot
 *    profiles, and every eighth against the latest upload.
 *
 * The only uploader is the client that names the uploads, so a profile
 * it names cannot be evicted under it. It names the newest upload whose
 * reply has arrived (newest in the order sent), and sends no upload more
 * than kUploadsAhead past the oldest one a request still out names, so
 * fewer uploads than the LRU's six cold slots land after it. Without
 * that bound an executor that lost its vCPU for a few milliseconds let
 * six uploads through, and a named upload was gone ("unknown profile",
 * about one run in forty).
 *
 * The end-to-end rate is requests per CPU-second of the process (client
 * and daemon threads together). Requests per second followed the
 * hypervisor: in runs with 20-24% steal it was half to a third of the
 * rate at no steal, since every request crosses three threads and each
 * hand-off waits for a vCPU the hypervisor may have taken away. CPU time
 * leaves out both the stolen time and the waiting. Requests per second
 * stays a per-layer figure (serve.req_per_s).
 *
 * Checks: every response is ok:true, no sweep is degraded, and every
 * evaluate against a hot profile prints exactly the cpi and watts that
 * evaluating the same uploaded profile in-process prints.
 */
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "harness.hh"
#include "model/eval_cache.hh"
#include "power/power_model.hh"
#include "profiler/profile_io.hh"
#include "serve/server.hh"
#include "uarch/design_space.hh"
#include "util/json.hh"

namespace perfbench {
namespace {

using namespace mipp;

constexpr const char *kHot[] = {"balanced_mix", "branchy"};
constexpr const char *kCold[] = {
    "stream_add", "ptr_chase",   "rand_gather",  "dense_compute",
    "int_crunch", "div_heavy",   "matrix_tile",  "stencil",
    "hash_build", "list_walk_l3", "stream_wide", "scatter_store"};
constexpr size_t kHotUops = 100000;
constexpr size_t kColdUops = 40000;
constexpr unsigned kWorkers = 2;
constexpr size_t kConfigs = 32;
/** Requests the client keeps outstanding; the queue holds them all. */
constexpr size_t kInFlight = 32;
/** Uploads that may be sent past the oldest one a request still out
 *  names. With at most one older upload stored late (two executors),
 *  the named one stays among the six newest cold profiles. */
constexpr uint64_t kUploadsAhead = 3;

/** One evaluate config, as sent and as the server builds it. */
struct EvalConfig {
    std::string json;
    CoreConfig cfg;
};

/** The server's config construction (server.cc parseConfigJson). */
CoreConfig
buildConfig(uint32_t width, uint32_t rob, uint32_t l1dKb, uint32_t l2Kb,
            uint32_t l3Mb, double freq)
{
    CoreConfig c = CoreConfig::nehalemReference();
    c.setWidth(width);
    scaleBackEnd(c, rob);
    c.l1d.sizeBytes = l1dKb * 1024;
    c.l2.sizeBytes = l2Kb * 1024;
    c.l3.sizeBytes = l3Mb * 1024 * 1024;
    c.freqGHz = freq;
    scaleCacheLatencies(c);
    return c;
}

/** The server's number format. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
profileText(const char *name, uint64_t seed, size_t uops)
{
    std::ostringstream os;
    writeProfile(generateScreened(name, seed, uops).profile, os);
    return os.str();
}

std::string
uploadRequest(const std::string &name, const std::string &text)
{
    return "{\"op\":\"load-profile\",\"name\":" + json::quote(name) +
           ",\"data\":" + json::quote(text) + "}";
}

struct State {
    std::string socket;
    std::vector<std::string> coldUploads; ///< load-profile request lines
    std::vector<EvalConfig> configs;
    /** expected[h][j]: the `"cpi":..,"watts":..,` text for hot h. */
    std::vector<std::vector<std::string>> expected;
    std::unique_ptr<serve::Server> server;
};

void
callOrThrow(serve::Client &cli, const std::string &req)
{
    std::string resp;
    Status st = cli.call(req, resp);
    if (!st.isOk() || resp.find("\"ok\":true") == std::string::npos)
        throw std::runtime_error("serve setup request failed: " +
                                 (st.isOk() ? resp : st.toString()));
}

std::unique_ptr<State>
build(const Args &args)
{
    auto st = std::make_unique<State>();
    // Beside the build, inside the checkout; relative, so the path fits
    // sockaddr_un wherever the checkout lives.
    std::filesystem::create_directories(".bench_build");
    st->socket = ".bench_build/perfbench-" + std::to_string(::getpid()) +
                 ".sock";

    uint64_t r = mixSeed(args.seed, nameSalt("configs"));
    auto pick = [&](size_t n) {
        r = mixSeed(r, 1);
        return r % n;
    };
    static const uint32_t widths[] = {2, 3, 4, 6}, robs[] = {64, 128, 192, 256},
                          l1s[] = {16, 32, 64}, l2s[] = {128, 256, 512},
                          l3s[] = {2, 4, 8};
    static const double freqs[] = {2.0, 2.66, 3.2};
    for (size_t j = 0; j < kConfigs; ++j) {
        uint32_t w = widths[pick(4)], rob = robs[pick(4)], l1 = l1s[pick(3)],
                 l2 = l2s[pick(3)], l3 = l3s[pick(3)];
        double f = freqs[pick(3)];
        st->configs.push_back(
            {"{\"width\":" + std::to_string(w) +
                 ",\"rob\":" + std::to_string(rob) +
                 ",\"l1d_kb\":" + std::to_string(l1) +
                 ",\"l2_kb\":" + std::to_string(l2) +
                 ",\"l3_mb\":" + std::to_string(l3) + ",\"freq_ghz\":" +
                 num(f) + "}",
             buildConfig(w, rob, l1, l2, l3, f)});
    }

    serve::ServerOptions so;
    so.socketPath = st->socket;
    so.workers = kWorkers;
    so.maxQueue = 2 * kInFlight;
    st->server = std::make_unique<serve::Server>(so);
    Status s = st->server->start();
    if (!s.isOk())
        throw std::runtime_error("serve start: " + s.toString());
    serve::Client cli;
    if (!(s = cli.connect(st->socket)).isOk())
        throw std::runtime_error("serve connect: " + s.toString());

    for (const char *name : kHot) {
        std::string text = profileText(name, args.seed, kHotUops);
        callOrThrow(cli, uploadRequest(std::string("hot_") + name, text));
        // In-process reference over the same uploaded bytes.
        Profile p;
        if (!(s = parseProfile(text, p)).isOk())
            throw std::runtime_error("profile round trip: " + s.toString());
        EvalContext ctx(p);
        std::vector<std::string> want;
        for (const EvalConfig &ec : st->configs) {
            ModelResult mr = evaluateModel(ctx, ec.cfg, {});
            want.push_back("\"cpi\":" + num(mr.cpiPerUop()) + ",\"watts\":" +
                           num(computePower(mr.activity, ec.cfg).total()) +
                           ",");
        }
        st->expected.push_back(std::move(want));
    }
    for (size_t i = 0; i < std::size(kCold); ++i)
        st->coldUploads.push_back(uploadRequest(
            "cold_" + std::to_string(i),
            profileText(kCold[i], args.seed, kColdUops)));
    // The client starts with one upload resident.
    callOrThrow(cli, st->coldUploads[0]);
    return st;
}

enum Kind { kEvaluate, kSweep, kLoad, kKinds };

/** A request sent and not yet answered. */
struct Pending {
    Kind kind = kEvaluate;
    const std::string *want = nullptr; ///< exact cpi/watts text, if known
    size_t cold = 0;                   ///< upload: the cold profile index
    uint64_t upload = 0;               ///< upload: its number, in send order
    bool names = false;                ///< names upload number `upload`
    Clock::time_point sent;
};

/** The client's closed loop; state carries over between phases. */
struct ClientLoop {
    serve::Client cli;
    uint64_t rng = 0;
    uint64_t next = 0;    ///< request index, sent as the request id
    uint64_t uploads = 1;  ///< uploads sent (setup made number 0)
    uint64_t newest = 0;   ///< newest upload whose reply has arrived
    size_t resident = 0;   ///< its cold profile index
    /** Keep every latency (the traced run's per-layer percentiles).
     *  Off in the end-to-end run: a vector growing by 20k samples a
     *  second set that run's peak RSS, by how fast the host ran. */
    bool keepLatencies = false;
    std::map<uint64_t, Pending> inflight;
    std::vector<double> latMs[kKinds];
    uint64_t completed = 0;

    /** Whether the next upload stays within kUploadsAhead of every
     *  upload that a request still out names. */
    bool
    mayUpload() const
    {
        for (const auto &[id, q] : inflight)
            if (q.names && uploads > q.upload + kUploadsAhead)
                return false;
        return true;
    }

    bool
    send(const State &st)
    {
        uint64_t i = next++;
        rng = mixSeed(rng, i);
        Pending p;
        std::string req = "{\"id\":" + std::to_string(i) + ",";
        // Requests name only uploads whose reply has arrived: requests
        // of one connection may execute out of order.
        std::string cold = "cold_" + std::to_string(resident);
        auto nameCold = [&] {
            p.names = true;
            p.upload = newest;
            return cold;
        };
        // An upload held back by mayUpload() becomes a hot evaluate.
        if (i % 32 == 31 && mayUpload()) {
            p.kind = kLoad;
            p.upload = uploads++;
            p.cold = p.upload % std::size(kCold);
            req += st.coldUploads[p.cold].substr(1);
        } else if (i % 64 == 32) {
            p.kind = kSweep;
            std::string prof = (i / 64) % 2 ? nameCold()
                                            : std::string("hot_") +
                                                  kHot[rng % std::size(kHot)];
            req += "\"op\":\"sweep\",\"profile\":\"" + prof +
                   "\",\"space\":\"small\"}";
        } else {
            size_t j = rng % kConfigs;
            std::string prof;
            if (i % 8 == 3) {
                prof = nameCold();
            } else {
                size_t h = (rng >> 32) % std::size(kHot);
                prof = std::string("hot_") + kHot[h];
                p.want = &st.expected[h][j];
            }
            req += "\"op\":\"evaluate\",\"profile\":\"" + prof +
                   "\",\"config\":" + st.configs[j].json + "}";
        }
        p.sent = Clock::now();
        inflight.emplace(i, p);
        return cli.sendLine(req).isOk();
    }

    /** Receive and check one reply; false when the connection is gone. */
    bool
    receive(Checks &checks)
    {
        std::string resp;
        Status s = cli.recvLine(resp);
        if (!s.isOk())
            return false;
        uint64_t rid = 0;
        auto it = inflight.end();
        if (resp.rfind("{\"id\":", 0) == 0) {
            rid = std::strtoull(resp.c_str() + 6, nullptr, 10);
            it = inflight.find(rid);
        }
        if (it == inflight.end()) {
            checks.record(false, "reply matches no request: " +
                                     resp.substr(0, 200));
            return true;
        }
        const Pending p = it->second;
        inflight.erase(it);
        if (keepLatencies)
            latMs[p.kind].push_back(since(p.sent) * 1e3);
        completed++;

        if (checks.corruptNext())
            resp = "{\"ok\":false,\"code\":\"Injected\"}";
        bool ok = resp.find("\"ok\":true") != std::string::npos;
        if (ok && p.kind == kSweep)
            ok = resp.find("\"degraded\":false") != std::string::npos &&
                 resp.find("\"front\":[{") != std::string::npos;
        if (ok && p.want)
            ok = resp.find(*p.want) != std::string::npos;
        if (ok && p.kind == kLoad && p.upload > newest) {
            newest = p.upload;
            resident = p.cold;
        }
        checks.record(ok, "request " + std::to_string(rid) + ": " +
                              resp.substr(0, 200));
        return true;
    }

    /** Keep kInFlight requests outstanding for @p seconds, then drain. */
    void
    run(const State &st, double seconds, Checks &checks)
    {
        auto t0 = Clock::now();
        bool live = true;
        while (live) {
            while (live && inflight.size() < kInFlight &&
                   since(t0) < seconds)
                live = send(st);
            if (!live || inflight.empty())
                break;
            live = receive(checks);
        }
        if (!live) {
            for (auto &[rid, p] : inflight)
                checks.record(false, "request " + std::to_string(rid) +
                                         ": connection lost");
            inflight.clear();
        }
    }
};

struct PhaseResult {
    SliceRates rate; ///< completed requests per second and per CPU-second
    std::vector<double> latMs;
};

/** The closed loop for @p seconds, in slices of at most a second. */
PhaseResult
runPhase(const State &st, ClientLoop &client, double seconds, Checks &checks)
{
    PhaseResult pr;
    size_t mark[kKinds];
    for (int k = 0; k < kKinds; ++k)
        mark[k] = client.latMs[k].size();
    auto t0 = Clock::now();
    // A remainder under half a second is dropped, not measured as a
    // slice of its own.
    for (double left = seconds; left > 0 && (pr.rate.slices() == 0 || left >= 0.5);
         left = seconds - since(t0)) {
        uint64_t before = client.completed;
        auto t1 = Clock::now();
        const double c1 = processCpuSeconds();
        client.run(st, std::min(1.0, left), checks);
        pr.rate.add(double(client.completed - before), since(t1),
                    processCpuSeconds() - c1);
    }
    for (int k = 0; k < kKinds; ++k)
        pr.latMs.insert(pr.latMs.end(), client.latMs[k].begin() + mark[k],
                        client.latMs[k].end());
    return pr;
}

/** Value of the server registry entry @p name (optionally labelled). */
double
registryValue(const json::Value &metrics, const char *name,
              const char *labels, const char *field)
{
    for (const json::Value &e : metrics.array())
        if (e.stringOr("name", "") == name &&
            (!labels || e.stringOr("labels", "") == labels))
            return e.numberOr(field, 0);
    return 0;
}

} // namespace

void
runServe(const Args &args, Checks &checks, Metrics &m)
{
    // Declared first so it is destroyed last: server threads may still
    // hold an open span when the phases end.
    std::unique_ptr<TraceSession> session;
    double setupS = 0;
    auto st = timedSetup<State>([&] { return build(args); }, setupS);

    ClientLoop client;
    client.rng = mixSeed(args.seed, 1000);
    client.keepLatencies = args.trace;
    Status s = client.cli.connect(st->socket);
    if (!s.isOk())
        throw std::runtime_error("serve connect: " + s.toString());
    // Warm-up: several full cycles of the mix.
    runPhase(*st, client, 0.25, checks);

    PhaseResult pr[2];
    std::map<std::string, SpanAgg> spans;
    uint64_t dropped = 0;
    for (const Phase &ph : phasesFor(args)) {
        if (ph.traced)
            session = std::make_unique<TraceSession>(
                ringCapacity(8 * pr[0].rate.median() * ph.seconds));
        pr[ph.traced] = runPhase(*st, client, ph.seconds, checks);
        if (session) {
            spans = session->finish();
            dropped = session->dropped();
        }
    }

    std::string resp;
    json::Value doc;
    s = client.cli.call("{\"op\":\"metrics\",\"format\":\"json\"}", resp);
    if (s.isOk())
        s = json::parse(resp, doc);
    if (!s.isOk() || !doc.boolOr("ok", false))
        throw std::runtime_error("serve metrics request failed");
    client.cli.close();
    st->server->stop();

    if (!args.trace) {
        m.set("setup_s", setupS, "s");
        m.set("peak_rss_mb", pr[0].rate.peakRssMedian(), "MB");
        m.set("work_per_cpu_s", pr[0].rate.cpuMedian(), "1/cpu_s");
        return;
    }

    const json::Value &reg = doc["metrics"];
    auto opP50 = [&](const char *op) {
        return registryValue(reg, "serve_op_latency_ns", op, "p50") / 1e6;
    };
    auto selfMs = [&](const char *key) {
        auto it = spans.find(key);
        return it == spans.end() || it->second.count == 0
                   ? 0.0
                   : it->second.selfNs / it->second.count / 1e6;
    };
    double hits = registryValue(reg, "serve_profile_lru_hits_total", nullptr,
                                "value");
    double misses = registryValue(reg, "serve_profile_lru_misses_total",
                                  nullptr, "value");
    const SpanAgg ss = spans.count("statstack.build")
                           ? spans.at("statstack.build")
                           : SpanAgg{};

    m.set("serve.client_p50_ms", percentile(pr[0].latMs, 0.50), "ms");
    m.set("serve.client_p99_ms", percentile(pr[0].latMs, 0.99), "ms");
    m.set("serve.client_samples", double(pr[0].latMs.size()), "count");
    m.set("serve.req_per_s", pr[0].rate.median(), "1/s");
    m.set("serve.evaluate_p50_ms", opP50("op=\"evaluate\""), "ms");
    m.set("serve.sweep_p50_ms", opP50("op=\"sweep\""), "ms");
    m.set("serve.load_p50_ms", opP50("op=\"load-profile\""), "ms");
    m.set("serve.queue_wait_p99_ms",
          registryValue(reg, "serve_queue_wait_ns", nullptr, "p99") / 1e6,
          "ms");
    m.set("serve.parse_self_ms", selfMs("serve.parse"), "ms");
    m.set("serve.exec_self_ms", selfMs("serve.exec"), "ms");
    m.set("serve.respond_self_ms", selfMs("serve.respond"), "ms");
    m.set("serve.lru_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");
    m.set("serve.lru_lookups", hits + misses, "count");
    m.set("serve.evictions",
          registryValue(reg, "serve_evictions_total", nullptr, "value"),
          "count");
    m.set("statstack.build_ms", ss.count ? ss.totalNs / ss.count / 1e6 : 0,
          "ms");
    m.set("obs.trace_overhead_pct",
          overheadPct(pr[0].rate.cpuMedian(), pr[1].rate.cpuMedian()),
          "%");
    m.set("obs.dropped_spans", double(dropped), "count");
}

} // namespace perfbench
