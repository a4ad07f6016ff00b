#include "serve/server.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dse/explorer.hh"
#include "model/eval_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "profiler/profiler.hh"
#include "trace/mtf.hh"
#include "uarch/design_space.hh"
#include "util/cancel.hh"
#include "util/failpoint.hh"
#include "util/json.hh"
#include "validate/accuracy.hh"
#include "workloads/workload.hh"

namespace mipp::serve {

namespace {

bool
writeAll(int fd, const char *p, size_t n)
{
    while (n > 0) {
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w <= 0) {
            if (w < 0 && errno == EINTR)
                continue;
            return false; // peer gone; response dropped
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Significant digits of model values on the wire (cpi, watts, cycles,
 *  stack, front points): clients compare that text byte for byte. */
constexpr int kModelDigits = 10;

/** Append `"key":` to a response under construction. */
void
key(std::string &out, std::string_view k)
{
    out += '"';
    out += k;
    out += "\":";
}

/** A response's opening: `{` plus the request's echoed `"id":...,`. */
std::string
replyStart(const json::Value &id)
{
    std::string out = "{";
    if (id.isNumber()) {
        key(out, "id");
        out += json::number(id.number()) + ",";
    } else if (id.isString()) {
        key(out, "id");
        out += json::quote(id.str()) + ",";
    }
    return out;
}

std::string
errorLine(const Status &st, const json::Value &id)
{
    std::string out = replyStart(id);
    out += "\"ok\":false,";
    key(out, "code");
    out += json::quote(statusCodeName(st.code())) + ",";
    key(out, "error");
    out += json::quote(st.message()) + "}";
    return out;
}

/**
 * A `profile` request's trace length and profiler options: `uops` in
 * [1e3, 5e7] (default 200000), `threads` in [0, 64] (default 1) and
 * `segment_uops` in [0, 5e7] (default 0); InvalidArgument otherwise.
 */
Status
parseProfileJson(const json::Value &v, size_t &uops,
                 ParallelProfileOptions &opts)
{
    const double n = v.numberOr("uops", 200000);
    if (!(n >= 1000 && n <= 5e7))
        return invalidArgument("profile: 'uops' out of range [1e3, 5e7]");
    const double threads = v.numberOr("threads", 1);
    if (!(threads >= 0 && threads <= 64))
        return invalidArgument("profile: 'threads' out of range [0, 64]");
    const double segUops = v.numberOr("segment_uops", 0);
    if (!(segUops >= 0 && segUops <= 5e7))
        return invalidArgument(
            "profile: 'segment_uops' out of range [0, 5e7]");
    uops = static_cast<size_t>(n);
    opts.threads = static_cast<unsigned>(threads);
    opts.segmentUops = static_cast<size_t>(segUops);
    return Status();
}

} // namespace

Status
parseConfigJson(const json::Value &v, CoreConfig &cfg)
{
    cfg = CoreConfig::nehalemReference();
    if (v.isNull())
        return Status();
    if (!v.isObject())
        return invalidArgument("config must be an object");

    struct Knob {
        std::string_view key;
        double lo, hi, fallback;
    };
    const Knob knobs[] = {
        {"width", 1, 16, double(cfg.dispatchWidth)},
        {"rob", 16, 4096, double(cfg.robSize)},
        {"l1d_kb", 1, 1024, cfg.l1d.sizeBytes / 1024.0},
        {"l2_kb", 16, 16384, cfg.l2.sizeBytes / 1024.0},
        {"l3_mb", 1, 256, cfg.l3.sizeBytes / 1024.0 / 1024.0},
        {"freq_ghz", 0.1, 10, cfg.freqGHz},
    };
    double val[std::size(knobs)];
    for (size_t i = 0; i < std::size(knobs); ++i) {
        const Knob &k = knobs[i];
        val[i] = v.numberOr(k.key, k.fallback);
        if (!(val[i] >= k.lo && val[i] <= k.hi))
            return invalidArgument("config." + std::string(k.key) +
                                   " out of range [" +
                                   json::number(k.lo) + ", " +
                                   json::number(k.hi) + "]");
    }

    cfg.setWidth(static_cast<uint32_t>(val[0]));
    scaleBackEnd(cfg, static_cast<uint32_t>(val[1]));
    cfg.l1d.sizeBytes = static_cast<uint32_t>(val[2]) * 1024;
    cfg.l2.sizeBytes = static_cast<uint32_t>(val[3]) * 1024;
    cfg.l3.sizeBytes = static_cast<uint32_t>(val[4]) * 1024 * 1024;
    cfg.freqGHz = val[5];
    cfg.prefetcherEnabled = v.boolOr("prefetcher", cfg.prefetcherEnabled);
    scaleCacheLatencies(cfg);
    return Status();
}

struct Server::Impl {
    ServerOptions opts;

    // ---- connection bookkeeping ------------------------------------
    struct Connection {
        int fd = -1;
        std::mutex writeMu;             // one response line at a time
        std::mutex mu;                  // guards tokens/open
        std::vector<CancelToken> tokens; // queued + in-flight requests
        bool open = true;

        void
        registerToken(const CancelToken &t)
        {
            std::lock_guard<std::mutex> lk(mu);
            tokens.push_back(t);
            if (!open)
                t.cancel(); // raced with disconnect
        }

        void
        unregisterToken(const CancelToken &t)
        {
            std::lock_guard<std::mutex> lk(mu);
            std::erase_if(tokens, [&](const CancelToken &u) {
                return u.id() == t.id();
            });
        }

        void
        unregisterAll()
        {
            std::lock_guard<std::mutex> lk(mu);
            open = false;
            for (auto &t : tokens)
                t.cancel();
            tokens.clear();
        }
    };

    struct Request {
        std::shared_ptr<Connection> conn;
        std::string line;
        CancelToken cancel;
        uint64_t traceId = 0;   // ties this request's spans together
        uint64_t enqueueNs = 0; // queue-wait measurement start
    };

    // ---- profile LRU ------------------------------------------------
    struct ProfileEntry {
        // Stored inside a 1-element vector so sweepEx can borrow it
        // without copying (the pool is keyed on profile identity; a copy
        // would defeat it).
        std::vector<Profile> profile;
        // The profile's one evaluation engine, slot 0: evaluate and
        // sweep both warm it.
        ModelEvalPool pool;
        std::mutex mu; // serializes model state (not thread-safe)
    };

    std::mutex lruMu;
    std::list<std::string> lruOrder; // front = most recent
    std::unordered_map<std::string,
                       std::pair<std::list<std::string>::iterator,
                                 std::shared_ptr<ProfileEntry>>>
        profiles;

    // ---- queue + threads -------------------------------------------
    std::mutex qMu;
    std::condition_variable qCv;
    std::deque<Request> queue;
    std::atomic<bool> stopping{false};
    std::atomic<bool> started{false};

    int listenFd = -1;
    std::thread acceptThread;
    std::vector<std::thread> executors;
    std::mutex connMu;
    std::vector<std::thread> readers;
    std::vector<std::shared_ptr<Connection>> conns;

    // ---- metrics ----------------------------------------------------
    // Per-server registry (not a process-wide one) so in-process test
    // servers and restarted daemons count from zero.
    // Handles are resolved once here; the request path only touches
    // relaxed atomics. See server.hh for the snapshot-consistency
    // contract on the stats/metrics ops.
    struct Metrics {
        obs::Registry reg;
        obs::Counter &connections =
            reg.counter("serve_connections_total");
        obs::Counter &requests = reg.counter("serve_requests_total");
        obs::Counter &served = reg.counter("serve_served_total");
        obs::Counter &shed = reg.counter("serve_shed_total");
        obs::Counter &errors = reg.counter("serve_errors_total");
        obs::Counter &cancelled = reg.counter("serve_cancelled_total");
        obs::Counter &degraded = reg.counter("serve_degraded_total");
        obs::Counter &evictions = reg.counter("serve_evictions_total");
        obs::Counter &lruHits =
            reg.counter("serve_profile_lru_hits_total");
        obs::Counter &lruMisses =
            reg.counter("serve_profile_lru_misses_total");
        obs::Counter &bytesIn = reg.counter("serve_bytes_read_total");
        obs::Counter &bytesOut =
            reg.counter("serve_bytes_written_total");
        obs::Gauge &queueDepth = reg.gauge("serve_queue_depth");
        obs::LatencyHistogram &queueWait =
            reg.histogram("serve_queue_wait_ns");
    };
    Metrics met;

    /** A wire op: its name, span site and handler. */
    struct Op {
        const char *name;
        const char *span;
        Status (Impl::*run)(const json::Value &, const CancelToken &,
                            std::string &);
    };

    /** Every op execute() dispatches, in the order their
     *  serve_op_latency_ns{op="..."} histograms register; the unknown-op
     *  error lists them. A request naming none times as op "other". */
    static std::span<const Op>
    ops()
    {
        static constexpr Op kOps[] = {
            {"ping", "serve.op.ping", &Impl::opPing},
            {"load-profile", "serve.op.load_profile", &Impl::opLoadProfile},
            {"profile", "serve.op.profile", &Impl::opProfileWorkload},
            {"evaluate", "serve.op.evaluate", &Impl::opEvaluate},
            {"sweep", "serve.op.sweep", &Impl::opSweep},
            {"accuracy", "serve.op.accuracy", &Impl::opAccuracy},
            {"stats", "serve.op.stats", &Impl::opStats},
            {"metrics", "serve.op.metrics", &Impl::opMetrics},
            {"failpoint", "serve.op.failpoint", &Impl::opFailpoint},
        };
        return kOps;
    }
    /** opLatency[i] times ops()[i]; the last entry times unknown ops. */
    std::vector<obs::LatencyHistogram *> opLatency;

    std::atomic<uint64_t> startNs{0}; // obs::nowNs() at start()

    std::thread statsThread; // periodic stats log line (statsIntervalMs)
    std::mutex stopMu;
    std::condition_variable stopCv;

    explicit Impl(ServerOptions o) : opts(std::move(o))
    {
        auto latency = [&](const char *op) {
            return &met.reg.histogram("serve_op_latency_ns",
                                      std::string("op=\"") + op + "\"");
        };
        for (const Op &op : ops())
            opLatency.push_back(latency(op.name));
        opLatency.push_back(latency("other"));
    }

    double
    uptimeMsNow() const
    {
        uint64_t s = startNs.load(std::memory_order_relaxed);
        return s ? static_cast<double>(obs::nowNs() - s) / 1e6 : 0.0;
    }

    ServerStats
    snapshotStats() const
    {
        ServerStats s;
        s.connections = met.connections.value();
        s.requests = met.requests.value();
        s.served = met.served.value();
        s.shed = met.shed.value();
        s.errors = met.errors.value();
        s.cancelled = met.cancelled.value();
        s.degraded = met.degraded.value();
        s.evictions = met.evictions.value();
        s.lruHits = met.lruHits.value();
        s.lruMisses = met.lruMisses.value();
        s.bytesIn = met.bytesIn.value();
        s.bytesOut = met.bytesOut.value();
        s.uptimeMs = uptimeMsNow();
        return s;
    }

    void
    respond(const std::shared_ptr<Connection> &conn, std::string line)
    {
        MIPP_SPAN("serve.respond");
        line += '\n';
        met.bytesOut.add(line.size());
        std::lock_guard<std::mutex> lk(conn->writeMu);
        writeAll(conn->fd, line.data(), line.size());
    }

    // ---- lifecycle -------------------------------------------------
    Status
    start()
    {
        if (opts.socketPath.empty())
            return invalidArgument("serve: socket path required");
        if (opts.socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
            return invalidArgument("serve: socket path too long");
        if (started)
            return internalError("serve: already started");
        if (opts.workers == 0)
            opts.workers = 1;
        if (opts.maxQueue == 0)
            opts.maxQueue = 1;

        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            return internalError("serve: socket() failed");
        ::unlink(opts.socketPath.c_str());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0 ||
            ::listen(listenFd, 64) < 0) {
            ::close(listenFd);
            listenFd = -1;
            return internalError("serve: cannot bind " + opts.socketPath);
        }

        started = true;
        stopping.store(false);
        startNs.store(obs::nowNs(), std::memory_order_relaxed);
        for (unsigned i = 0; i < opts.workers; ++i)
            executors.emplace_back([this] { executorLoop(); });
        acceptThread = std::thread([this] { acceptLoop(); });
        if (opts.statsIntervalMs > 0)
            statsThread = std::thread([this] { statsLogLoop(); });
        return Status();
    }

    void
    stop()
    {
        if (!started)
            return;
        stopping.store(true);

        // Unblock the accept loop and every reader.
        ::shutdown(listenFd, SHUT_RDWR);
        {
            std::lock_guard<std::mutex> lk(connMu);
            for (auto &c : conns) {
                c->unregisterAll();
                ::shutdown(c->fd, SHUT_RDWR);
            }
        }
        // Cancel queued work and wake executors.
        {
            std::lock_guard<std::mutex> lk(qMu);
            for (auto &r : queue)
                r.cancel.cancel();
            queue.clear();
        }
        qCv.notify_all();
        {
            std::lock_guard<std::mutex> lk(stopMu);
        }
        stopCv.notify_all();

        if (statsThread.joinable())
            statsThread.join();
        if (acceptThread.joinable())
            acceptThread.join();
        for (auto &t : executors)
            t.join();
        executors.clear();
        {
            std::lock_guard<std::mutex> lk(connMu);
            for (auto &t : readers)
                t.join();
            readers.clear();
            for (auto &c : conns)
                ::close(c->fd);
            conns.clear();
        }
        ::close(listenFd);
        listenFd = -1;
        ::unlink(opts.socketPath.c_str());
        started = false;
    }

    void
    acceptLoop()
    {
        while (!stopping.load()) {
            int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                break; // listener shut down
            }
            auto conn = std::make_shared<Connection>();
            conn->fd = fd;
            met.connections.add();
            std::lock_guard<std::mutex> lk(connMu);
            if (stopping.load()) {
                ::close(fd);
                break;
            }
            conns.push_back(conn);
            readers.emplace_back([this, conn] { readerLoop(conn); });
        }
    }

    void
    readerLoop(const std::shared_ptr<Connection> &conn)
    {
        std::string buf;
        char chunk[4096];
        bool overflow = false;
        while (!stopping.load()) {
            ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break; // EOF or error: disconnect
            }
            buf.append(chunk, static_cast<size_t>(n));
            met.bytesIn.add(static_cast<uint64_t>(n));
            size_t pos;
            while ((pos = buf.find('\n')) != std::string::npos) {
                std::string line = buf.substr(0, pos);
                buf.erase(0, pos + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (!line.empty())
                    enqueue(conn, std::move(line));
            }
            if (buf.size() > opts.maxRequestBytes) {
                // A line that can never complete within the limit:
                // shed and drop the connection rather than buffer on.
                met.shed.add();
                respond(conn,
                        errorLine(resourceExhausted(
                                      "request line exceeds " +
                                      std::to_string(
                                          opts.maxRequestBytes) +
                                      " bytes"),
                                  json::Value()));
                overflow = true;
                break;
            }
        }
        if (overflow)
            ::shutdown(conn->fd, SHUT_RDWR);
        // Disconnect: cancel everything this connection still has
        // queued or running.
        conn->unregisterAll();
    }

    void
    enqueue(const std::shared_ptr<Connection> &conn, std::string line)
    {
        met.requests.add();
        Request req;
        req.conn = conn;
        req.line = std::move(line);
        req.traceId = obs::newTraceId();
        req.enqueueNs = obs::nowNs();
        // The token exists from enqueue time so a disconnect cancels
        // queued requests too, not just the one being executed.
        req.cancel = opts.defaultDeadlineMs > 0
                         ? CancelToken::withDeadlineMs(
                               opts.defaultDeadlineMs)
                         : CancelToken::manual();
        bool full = false;
        {
            std::lock_guard<std::mutex> lk(qMu);
            if (queue.size() >= opts.maxQueue) {
                full = true;
            } else {
                conn->registerToken(req.cancel);
                queue.push_back(std::move(req));
                met.queueDepth.set(
                    static_cast<int64_t>(queue.size()));
            }
        }
        if (full) {
            // Shed outside the queue lock: the response write can
            // block on a slow client and must not stall executors.
            met.shed.add();
            respond(conn, errorLine(
                              resourceExhausted(
                                  "request queue full (depth " +
                                  std::to_string(opts.maxQueue) +
                                  "); retry later"),
                              json::Value()));
            return;
        }
        qCv.notify_one();
    }

    void
    executorLoop()
    {
        while (true) {
            Request req;
            {
                std::unique_lock<std::mutex> lk(qMu);
                qCv.wait(lk, [&] {
                    return stopping.load() || !queue.empty();
                });
                if (stopping.load())
                    return;
                req = std::move(queue.front());
                queue.pop_front();
                met.queueDepth.set(
                    static_cast<int64_t>(queue.size()));
            }
            uint64_t wait = obs::nowNs() - req.enqueueNs;
            met.queueWait.record(wait);
            obs::recordSpan("serve.queue_wait", req.traceId,
                            req.enqueueNs, wait);
            obs::TraceIdScope tscope(req.traceId);
            (void)MIPP_FAILPOINT_C("serve.exec_delay", &req.cancel);
            if (req.cancel.cancelled()) {
                // Client left (or the default deadline lapsed) while
                // the request sat in the queue: drop it unexecuted.
                met.cancelled.add();
                req.conn->unregisterToken(req.cancel);
                continue;
            }
            run(req);
            req.conn->unregisterToken(req.cancel);
        }
    }

    // ---- request execution -----------------------------------------
    void
    run(const Request &req)
    {
        MIPP_SPAN("serve.exec");
        json::Value doc;
        Status st;
        {
            MIPP_SPAN("serve.parse");
            st = json::parse(req.line, doc,
                             {.maxBytes = opts.maxRequestBytes});
        }
        const json::Value id = doc["id"];
        std::string body;
        if (st.isOk()) {
            // Per-request deadline overrides the server default.
            CancelToken tok = req.cancel;
            bool extraTok = false;
            double dl = doc.numberOr("deadline_ms", 0);
            if (dl > 0) {
                tok = CancelToken::withDeadlineMs(dl);
                req.conn->registerToken(tok);
                extraTok = true;
            }
            try {
                st = execute(doc, tok, body);
            } catch (const StatusError &e) {
                st = e.status();
            } catch (const std::exception &e) {
                // The survivability guarantee: an unexpected throw in a
                // handler answers *this* request with Internal and the
                // daemon keeps serving.
                st = internalError(std::string("unhandled: ") + e.what());
            }
            if (tok.cancelled())
                met.cancelled.add();
            if (extraTok)
                req.conn->unregisterToken(tok);
        }
        std::string out;
        if (st.isOk()) {
            out = replyStart(id) + "\"ok\":true";
            if (!body.empty())
                out += ',' + body;
            out += '}';
        } else {
            met.errors.add();
            out = errorLine(st, id);
        }
        met.served.add();
        respond(req.conn, std::move(out));
    }

    Status
    execute(const json::Value &doc, const CancelToken &tok,
            std::string &body)
    {
        const std::string name = doc.stringOr("op", "");
        const std::span<const Op> all = ops();
        size_t i = 0;
        while (i < all.size() && name != all[i].name)
            ++i;
        if (i < all.size()) {
            obs::ScopedSpan opSpan(all[i].span, opLatency[i]);
            return (this->*all[i].run)(doc, tok, body);
        }
        obs::ScopedSpan opSpan("serve.op.other", opLatency[i]);
        std::string names;
        for (const Op &op : all)
            names += (names.empty() ? "" : "|") + std::string(op.name);
        return invalidArgument("unknown op '" + name + "' (" + names + ")");
    }

    Status
    opPing(const json::Value &, const CancelToken &, std::string &)
    {
        return Status();
    }

    Status
    opFailpoint(const json::Value &doc, const CancelToken &, std::string &)
    {
        if (!opts.allowFailpoints)
            return invalidArgument("failpoints are not enabled on this "
                                   "server (--failpoints)");
        const std::string spec = doc.stringOr("spec", "");
        if (spec == "reset")
            failpoint::reset();
        else if (!failpoint::armFromString(spec))
            return invalidArgument("bad failpoint spec '" + spec +
                                   "' (name[=fires[:sleepMs]])");
        return Status();
    }

    Status
    opLoadProfile(const json::Value &doc, const CancelToken &,
                  std::string &body)
    {
        const std::string name = doc.stringOr("name", "");
        if (name.empty())
            return invalidArgument("load-profile: missing 'name'");
        Profile p;
        if (doc["data"].isString()) {
            Status st = parseProfile(doc["data"].str(), p,
                                     opts.profileLimits);
            if (!st.isOk())
                return st;
        } else if (doc["path"].isString()) {
            Status st = loadProfileChecked(doc["path"].str(), p,
                                           opts.profileLimits);
            if (!st.isOk())
                return st;
        } else {
            return invalidArgument(
                "load-profile: need 'data' (inline text) or 'path'");
        }
        storeProfile(name, std::move(p), body);
        return Status();
    }

    /** Insert (or replace) @p p under @p name in the LRU store, evicting
     *  the coldest entries past the capacity limit, and append the
     *  `profile`, `uops` and `workload` reply members. */
    void
    storeProfile(const std::string &name, Profile p, std::string &body)
    {
        key(body, "profile");
        body += json::quote(name) + ",";
        key(body, "uops");
        body += json::number(static_cast<double>(p.totalUops)) + ",";
        key(body, "workload");
        body += json::quote(p.name);

        auto entry = std::make_shared<ProfileEntry>();
        entry->profile.push_back(std::move(p));
        entry->pool.reserve(1);
        std::lock_guard<std::mutex> lk(lruMu);
        auto it = profiles.find(name);
        if (it != profiles.end()) {
            lruOrder.erase(it->second.first);
            profiles.erase(it);
        }
        lruOrder.push_front(name);
        profiles.emplace(name,
                         std::make_pair(lruOrder.begin(), entry));
        while (profiles.size() > opts.maxProfiles) {
            profiles.erase(lruOrder.back());
            lruOrder.pop_back();
            met.evictions.add();
        }
    }

    /**
     * Profile a suite workload (or a server-side `.mtf` trace file)
     * server-side: produce the micro-op stream, run the segment-parallel
     * profiler, and park the result in the LRU store so follow-up
     * evaluate/sweep requests can use it without the client ever
     * serializing a profile.
     */
    Status
    opProfileWorkload(const json::Value &doc, const CancelToken &cancel,
                      std::string &body)
    {
        const std::string workload = doc.stringOr("workload", "");
        const std::string tracePath = doc.stringOr("trace", "");
        if (workload.empty() && tracePath.empty())
            return invalidArgument(
                "profile: need 'workload' or 'trace' (server-side .mtf "
                "path)");
        if (!workload.empty() && !tracePath.empty())
            return invalidArgument(
                "profile: 'workload' and 'trace' are exclusive");
        WorkloadSpec spec;
        if (!workload.empty()) {
            try {
                spec = suiteWorkload(workload);
            } catch (const std::out_of_range &) {
                return invalidArgument("profile: unknown workload '" +
                                       workload + "'");
            }
        }

        size_t uops = 0;
        ParallelProfileOptions popts;
        if (Status st = parseProfileJson(doc, uops, popts); !st.isOk())
            return st;
        const std::string name = doc.stringOr(
            "name", workload.empty() ? tracePath : workload);

        ProfilerConfig cfg;
        cfg.name = name;
        Trace generated;
        std::unique_ptr<TraceSource> source;
        if (!tracePath.empty()) {
            // Streamed at bounded memory; the open fully validates the
            // file, so malformed bytes come back as a structured error
            // rather than touching the profiler.
            std::unique_ptr<MtfTraceSource> mtf;
            Status st = MtfTraceSource::open(tracePath, mtf);
            if (!st.isOk())
                return st;
            source = std::move(mtf);
        } else {
            generated = generateWorkload(spec, uops, cancel);
            source = std::make_unique<MaterializedTraceSource>(generated);
        }
        // A profile of part of the trace would be wrong, not partial:
        // once the token fires, answer without storing anything.
        auto expired = [&] {
            return deadlineExceeded("profile: '" + name +
                                    "' cancelled before it was built; "
                                    "nothing stored");
        };
        if (cancel.cancelled())
            return expired();
        Profile profile = profileSourceParallel(*source, cfg, popts);
        if (cancel.cancelled())
            return expired();
        storeProfile(name, std::move(profile), body);
        return Status();
    }

    /** LRU lookup; null when absent. In-flight holders keep an evicted
     *  entry alive via the shared_ptr. */
    std::shared_ptr<ProfileEntry>
    findProfile(const std::string &name)
    {
        std::lock_guard<std::mutex> lk(lruMu);
        auto it = profiles.find(name);
        if (it == profiles.end()) {
            met.lruMisses.add();
            return nullptr;
        }
        met.lruHits.add();
        lruOrder.splice(lruOrder.begin(), lruOrder, it->second.first);
        return it->second.second;
    }

    Status
    opEvaluate(const json::Value &doc, const CancelToken &,
               std::string &body)
    {
        const std::string name = doc.stringOr("profile", "");
        auto entry = findProfile(name);
        if (!entry)
            return invalidArgument("unknown profile '" + name +
                                   "' (load-profile first)");
        CoreConfig cfg;
        Status st = parseConfigJson(doc["config"], cfg);
        if (!st.isOk())
            return st;

        std::lock_guard<std::mutex> lk(entry->mu);
        ModelResult m =
            evaluateModel(entry->pool.get(0, entry->profile[0]), cfg, {});
        PowerBreakdown pw = computePower(m.activity, cfg);
        EnergyMetrics em = energyMetrics(m.cycles, pw, cfg);
        auto number = [&](std::string_view k, double v) {
            body += ',';
            key(body, k);
            body += json::number(v, kModelDigits);
        };

        key(body, "cpi");
        body += json::number(m.cpiPerUop(), kModelDigits) + ",";
        key(body, "watts");
        body += json::number(pw.total(), kModelDigits) + ",";
        key(body, "cycles");
        body += json::number(m.cycles, kModelDigits) + ",";
        double n = m.uops > 0 ? m.uops : 1;
        key(body, "stack");
        body += "{\"base\":" + json::number(m.stack.base / n, kModelDigits) +
                ",\"branch\":" +
                json::number(m.stack.branch / n, kModelDigits) +
                ",\"icache\":" +
                json::number(m.stack.icache / n, kModelDigits) +
                ",\"llc\":" +
                json::number(m.stack.llcHit / n, kModelDigits) +
                ",\"dram\":" + json::number(m.stack.dram / n, kModelDigits) +
                "}";
        number("deff", m.deff);
        body += ',';
        key(body, "limit");
        body += json::quote(m.limits.binding());
        number("mlp", m.mlp);
        number("dynamic_watts", pw.dynamicPower());
        number("static_watts", pw.staticPower);
        number("seconds", em.seconds);
        number("energy_j", em.energy);
        return Status();
    }

    Status
    opSweep(const json::Value &doc, const CancelToken &tok,
            std::string &body)
    {
        const std::string name = doc.stringOr("profile", "");
        auto entry = findProfile(name);
        if (!entry)
            return invalidArgument("unknown profile '" + name +
                                   "' (load-profile first)");
        const std::string spaceName = doc.stringOr("space", "small");
        DesignSpace space;
        if (spaceName == "small")
            space = DesignSpace::small();
        else if (spaceName == "full")
            space = DesignSpace();
        else
            return invalidArgument("sweep: unknown space '" + spaceName +
                                   "' (small|full)");

        SweepOptions sopts;
        const std::string mode = doc.stringOr("mode", "model");
        if (mode == "model")
            sopts.mode = SweepMode::ModelOnlyPareto;
        else if (mode == "pareto")
            sopts.mode = SweepMode::ModelThenSimPareto;
        else if (mode == "paired")
            sopts.mode = SweepMode::Paired;
        else
            return invalidArgument("sweep: unknown mode '" + mode +
                                   "' (model|pareto|paired)");
        const double validate = doc.numberOr("validate", 2);
        if (!(validate >= 0 && validate <= 4096))
            return invalidArgument(
                "sweep: 'validate' out of range [0, 4096]");
        sopts.validationSamples = static_cast<size_t>(validate);
        sopts.cancel = tok;
        sopts.evalPool = &entry->pool;

        // Simulation needs the instruction stream: regenerate the suite
        // workload the profile names, at the profiled length (another
        // length would skew the model-vs-sim comparison through
        // cold-miss fractions).
        const Profile &prof = entry->profile[0];
        std::vector<Trace> traces(1);
        if (sopts.mode != SweepMode::ModelOnlyPareto) {
            if (prof.totalUops > 50000000)
                return invalidArgument(
                    "sweep: simulating a profile of over 5e7 uops");
            WorkloadSpec spec;
            try {
                spec = suiteWorkload(prof.name);
            } catch (const std::out_of_range &) {
                return invalidArgument("sweep: mode '" + mode +
                                       "' needs a suite workload profile, "
                                       "not '" + prof.name + "'");
            }
            // Under the request's token: a trace cut short is never
            // simulated, since sweepEx starts no work once it fired.
            traces[0] = generateWorkload(
                spec, static_cast<size_t>(prof.totalUops), tok);
        }

        // The sweep runs on the entry's warm context; the entry lock
        // keeps evaluates and other sweeps off it meanwhile, simulations
        // included.
        std::unique_lock<std::mutex> lk(entry->mu);
        SweepResult r = sweepEx(traces, entry->profile, space.configs(),
                                {}, sopts);
        lk.unlock();
        if (!r.status.isOk())
            return r.status;
        if (r.degraded)
            met.degraded.add();

        key(body, "space");
        body += json::number(static_cast<double>(space.size())) + ",";
        key(body, "degraded");
        body += r.degraded ? "true," : "false,";
        key(body, "front");
        body += '[';
        for (const SweepPoint &fp : r.frontPoints[0]) {
            if (body.back() != '[')
                body += ',';
            body += "{\"config\":" +
                    json::number(static_cast<double>(fp.configIdx)) +
                    ",\"name\":" + json::quote(space[fp.configIdx].name) +
                    ",\"cpi\":" + json::number(fp.modelCpi, kModelDigits) +
                    ",\"watts\":" +
                    json::number(fp.modelWatts, kModelDigits);
            // Front points carry model fields only; the simulation
            // results live in the point grid.
            if (!r.points.empty() && r.at(0, fp.configIdx).simulated) {
                const SweepPoint &pt = r.at(0, fp.configIdx);
                body += ",\"sim_cpi\":" +
                        json::number(pt.simCpi, kModelDigits) +
                        ",\"sim_watts\":" +
                        json::number(pt.simWatts, kModelDigits);
            }
            body += '}';
        }
        body += "],";
        key(body, "simulations");
        body += json::number(static_cast<double>(r.simInvocations));
        return Status();
    }

    Status
    opAccuracy(const json::Value &doc, const CancelToken &tok,
               std::string &body)
    {
        AccuracyOptions aopts;
        aopts.grid = accuracyGrid(doc.stringOr("grid", "ci"));
        double uops = doc.numberOr("uops", 2000);
        if (!(uops >= 100 && uops <= 1e7))
            return invalidArgument(
                "accuracy: uops out of range [100, 1e7]");
        aopts.uops = static_cast<size_t>(uops);
        aopts.includePhased = doc.boolOr("phased", false);
        for (const json::Value &w : doc["workloads"].array())
            aopts.workloads.push_back(w.str());
        aopts.cancel = tok;
        AccuracyReport rep = runAccuracy(aopts);
        if (rep.degraded)
            met.degraded.add();

        key(body, "degraded");
        body += rep.degraded ? "true," : "false,";
        key(body, "points");
        body += json::number(static_cast<double>(rep.points.size())) +
                ",";
        key(body, "violations");
        body +=
            json::number(static_cast<double>(rep.violations.size())) + ",";
        key(body, "mape");
        body += '{';
        for (size_t m = 0; m < kNumAccuracyMetrics; ++m) {
            if (m)
                body += ',';
            body += json::quote(std::string(accuracyMetricName(
                        static_cast<AccuracyMetric>(m)))) +
                    ":" + json::number(rep.summary[m].mape);
        }
        body += '}';
        return Status();
    }

    Status
    opStats(const json::Value &, const CancelToken &, std::string &body)
    {
        ServerStats s = snapshotStats();
        std::vector<std::string> names;
        {
            std::lock_guard<std::mutex> lk(lruMu);
            names.assign(lruOrder.begin(), lruOrder.end());
        }
        auto field = [&](std::string_view k, uint64_t v, bool comma) {
            key(body, k);
            body += json::number(static_cast<double>(v));
            if (comma)
                body += ',';
        };
        key(body, "uptime_ms");
        body += json::number(s.uptimeMs) + ",";
        field("connections", s.connections, true);
        field("requests", s.requests, true);
        field("served", s.served, true);
        field("shed", s.shed, true);
        field("errors", s.errors, true);
        field("cancelled", s.cancelled, true);
        field("degraded", s.degraded, true);
        field("evictions", s.evictions, true);
        field("lru_hits", s.lruHits, true);
        field("lru_misses", s.lruMisses, true);
        field("bytes_in", s.bytesIn, true);
        field("bytes_out", s.bytesOut, true);
        key(body, "queue_depth");
        body +=
            json::number(static_cast<double>(met.queueDepth.value())) + ",";
        key(body, "profiles");
        body += '[';
        for (size_t i = 0; i < names.size(); ++i) {
            if (i)
                body += ',';
            body += json::quote(names[i]);
        }
        body += ']';
        return Status();
    }

    Status
    opMetrics(const json::Value &doc, const CancelToken &,
              std::string &body)
    {
        const std::string format = doc.stringOr("format", "json");
        if (format != "json" && format != "prometheus" &&
            format != "both")
            return invalidArgument("metrics: unknown format '" +
                                   format +
                                   "' (json|prometheus|both)");
        key(body, "uptime_ms");
        body += json::number(uptimeMsNow());
        if (format == "json" || format == "both") {
            body += ',';
            key(body, "metrics");
            body += met.reg.renderJsonArray();
        }
        if (format == "prometheus" || format == "both") {
            body += ',';
            key(body, "prometheus");
            body += json::quote(met.reg.renderPrometheus());
        }
        return Status();
    }

    // ---- periodic stats log ----------------------------------------
    void
    statsLogLoop()
    {
        const auto interval = std::chrono::duration<double, std::milli>(
            opts.statsIntervalMs);
        std::unique_lock<std::mutex> lk(stopMu);
        while (!stopping.load()) {
            if (stopCv.wait_for(lk, interval,
                                [&] { return stopping.load(); }))
                break;
            ServerStats s = snapshotStats();
            obs::HistogramSnapshot q = met.queueWait.snapshot();
            uint64_t lookups = s.lruHits + s.lruMisses;
            std::fprintf(
                stderr,
                "[mipp_serve] uptime_ms=%.0f requests=%llu "
                "served=%llu shed=%llu errors=%llu cancelled=%llu "
                "degraded=%llu queue_depth=%lld "
                "queue_wait_p99_ns=%.0f lru_hit_ratio=%.3f\n",
                s.uptimeMs,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.served),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.cancelled),
                static_cast<unsigned long long>(s.degraded),
                static_cast<long long>(met.queueDepth.value()),
                q.quantile(0.99),
                lookups ? static_cast<double>(s.lruHits) / lookups
                        : 0.0);
        }
    }
};

Server::Server(ServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{
}

Server::~Server() { stop(); }

Status
Server::start()
{
    return impl_->start();
}

void
Server::stop()
{
    impl_->stop();
}

bool
Server::running() const
{
    return impl_->started;
}

ServerStats
Server::stats() const
{
    return impl_->snapshotStats();
}

const ServerOptions &
Server::options() const
{
    return impl_->opts;
}

Status
Server::execute(const json::Value &request, const CancelToken &cancel,
                std::string &body)
{
    return impl_->execute(request, cancel, body);
}

std::shared_ptr<const Profile>
Server::profile(const std::string &name)
{
    auto entry = impl_->findProfile(name);
    if (!entry)
        return nullptr;
    return {entry, &entry->profile[0]};
}

// ---- Client ---------------------------------------------------------

Client::~Client() { close(); }

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

Status
Client::connect(const std::string &socketPath)
{
    close();
    if (socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
        return invalidArgument("client: socket path too long");
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        return internalError("client: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        close();
        return internalError("client: cannot connect " + socketPath);
    }
    return Status();
}

Status
Client::sendLine(const std::string &request)
{
    if (fd_ < 0)
        return internalError("client: not connected");
    std::string line = request;
    line += '\n';
    if (!writeAll(fd_, line.data(), line.size()))
        return internalError("client: send failed (server gone?)");
    return Status();
}

Status
Client::recvLine(std::string &response)
{
    if (fd_ < 0)
        return internalError("client: not connected");
    size_t pos;
    while ((pos = buf_.find('\n')) == std::string::npos) {
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return internalError("client: connection closed");
        buf_.append(chunk, static_cast<size_t>(n));
    }
    response = buf_.substr(0, pos);
    buf_.erase(0, pos + 1);
    return Status();
}

Status
Client::call(const std::string &request, std::string &response)
{
    Status st = sendLine(request);
    if (!st.isOk())
        return st;
    return recvLine(response);
}

} // namespace mipp::serve
