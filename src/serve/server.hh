/**
 * @file
 * DSE-as-a-service: a persistent daemon over a JSON-lines socket.
 *
 * The paper's profile-once / evaluate-everywhere split is a server shape:
 * profiles are immutable hot state uploaded once, model evaluations are
 * cheap pure queries against them. The daemon listens on a Unix-domain
 * stream socket; the protocol is one JSON object per line in each
 * direction. Requests carry an `op` plus op-specific fields and an
 * optional `id` that is echoed back; responses always carry `"ok"` and,
 * on failure, a structured `"code"` from the Status taxonomy plus a
 * human-readable `"error"`:
 *
 *   {"op":"ping"}
 *   {"op":"load-profile","name":"w0","data":"<mipp-profile text>"}
 *   {"op":"profile","workload":"mix_mid","uops":200000,"name":"w1"}
 *   {"op":"evaluate","profile":"w0","config":{"width":4,"rob":128}}
 *   {"op":"sweep","profile":"w0","space":"small","mode":"pareto",
 *    "deadline_ms":50}
 *   {"op":"accuracy","grid":"ci","uops":2000}
 *   {"op":"stats"}            {"op":"failpoint","spec":"name=1:10"}
 *   {"op":"metrics","format":"json"|"prometheus"|"both"}
 *
 * Robustness is the design driver, in layers:
 *
 *  - *Hardened input*: request lines are length-capped; JSON parsing is
 *    the strict, depth/size-limited util/json parser; profile uploads go
 *    through the checksummed, bounds-checked profile_io path. Bad bytes
 *    produce a structured error response, never a crash, and never stop
 *    the daemon from serving the next request.
 *  - *Deadlines + cancellation*: each request gets a CancelToken (from
 *    `deadline_ms` or the server default). Sweeps and accuracy runs
 *    degrade gracefully on expiry — partial results flagged
 *    `"degraded":true` — instead of failing. A client disconnect cancels
 *    that connection's queued and in-flight work.
 *  - *Backpressure*: a bounded request queue feeds a fixed executor
 *    pool; when the queue is full the reader sheds load immediately with
 *    a ResourceExhausted response rather than buffering unboundedly.
 *  - *Warm state*: deserialized profiles live in a bounded LRU; each
 *    entry keeps one memoized EvalContext (a ModelEvalPool slot) that
 *    evaluations and sweeps against the profile share, instead of
 *    rebuilding StatStacks and memo tables per request.
 *  - *Fault injection*: with ServerOptions::allowFailpoints the
 *    `failpoint` op arms util/failpoint sites remotely, which is how the
 *    recovery-path tests drive corrupt-upload, mid-sweep-deadline and
 *    queue-overflow scenarios end to end.
 *  - *Observability*: every counter the daemon keeps lives in a
 *    per-server obs::Registry (src/obs/metrics.hh). The `stats` op is a
 *    compact view (the PR 7 counters plus uptime_ms, queue depth, LRU
 *    hit/miss, bytes in/out); the `metrics` op is the full registry —
 *    per-op latency histograms with p50/p90/p99, the queue-wait
 *    histogram — as JSON and/or Prometheus text exposition. Each
 *    request carries an obs trace id through its whole lifecycle
 *    (parse → queue wait → executor → op → respond), so an installed
 *    SpanRecorder (`mipp_cli serve --trace-json`) yields a Chrome
 *    trace attributing every microsecond of every request.
 *
 *    Snapshot consistency, for both ops: every value is a relaxed-
 *    atomic read of a monotonic counter (histogram snapshots are
 *    per-bin exact). No lock stops the request path while a snapshot
 *    is taken, so related counters may disagree by whatever was in
 *    flight at that instant (e.g. `requests` can transiently exceed
 *    `served + shed + cancelled` by the queue contents). Counters
 *    never reset while the server runs — there is deliberately no
 *    reset op; rate and delta math belongs to the scraper, anchored
 *    on `uptime_ms` (milliseconds since Server::start()).
 *
 * One dispatcher, Server::execute, runs every op from one table of
 * {op, span, handler} rows, which also names each op's latency
 * histogram and the unknown-op error's list. The executors call it
 * for requests read off the socket; `mipp_cli profile`, `evaluate` and
 * `sweep` call it in process on a server that is never started, so the
 * CLI and the daemon validate, compute and print the same values.
 *
 * Responses to one connection's pipelined requests may complete out of
 * order (executors run them concurrently); clients that pipeline should
 * match on `id`. The load-shed response is emitted before parsing, so it
 * carries no `id`.
 */

#ifndef MIPP_SERVE_SERVER_HH
#define MIPP_SERVE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "uarch/core_config.hh"
#include "util/cancel.hh"
#include "util/json.hh"
#include "util/status.hh"

namespace mipp::serve {

struct ServerOptions {
    /** Unix-domain socket path (required; unlinked on bind and stop). */
    std::string socketPath;
    /** Executor threads draining the request queue. */
    unsigned workers = 2;
    /** Bounded queue depth; a full queue sheds load (ResourceExhausted). */
    size_t maxQueue = 16;
    /** Profile-LRU capacity; least-recently-used entries are evicted. */
    size_t maxProfiles = 8;
    /** Default per-request deadline when the request names none;
     *  0 = unlimited. */
    double defaultDeadlineMs = 0;
    /** Longest accepted request line; longer input is shed and the
     *  connection closed (resync after a flood is not worth it). */
    size_t maxRequestBytes = 64u << 20;
    /** Bounds applied to uploaded profiles. */
    ProfileLimits profileLimits;
    /** Allow the `failpoint` op (fault-injection; tests/bench only). */
    bool allowFailpoints = false;
    /** Period of the stats log line written to stderr (served/shed/
     *  queue depth/p99 latency); 0 = no periodic logging. */
    double statsIntervalMs = 0;
};

/** Monotonic counters exposed by the `stats` op (and for tests). A
 *  compact projection of the server's obs::Registry; see the snapshot-
 *  consistency note above. */
struct ServerStats {
    uint64_t connections = 0;  ///< accepted connections
    uint64_t requests = 0;     ///< request lines enqueued
    uint64_t served = 0;       ///< responses written for executed requests
    uint64_t shed = 0;         ///< load-shed (queue full / oversized line)
    uint64_t errors = 0;       ///< executed requests answered with ok=false
    uint64_t cancelled = 0;    ///< requests cancelled (disconnect/deadline)
    uint64_t degraded = 0;     ///< requests that returned partial results
    uint64_t evictions = 0;    ///< profile-LRU evictions
    uint64_t lruHits = 0;      ///< profile lookups served from the LRU
    uint64_t lruMisses = 0;    ///< profile lookups that found no entry
    uint64_t bytesIn = 0;      ///< bytes read off client sockets
    uint64_t bytesOut = 0;     ///< response bytes written
    double uptimeMs = 0;       ///< monotonic ms since Server::start()
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server(); ///< stop()s.

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + spawn the accept/executor threads. Fails with
     *  InvalidArgument (no socket path) or Internal (socket errors). */
    Status start();

    /** Stop serving: cancels in-flight work, closes every connection,
     *  joins all threads, unlinks the socket. Idempotent. */
    void stop();

    bool running() const;
    ServerStats stats() const;
    const ServerOptions &options() const;

    /**
     * Run one parsed request, the one dispatcher behind every op: on
     * success append the reply members (`"key":value,...`, without
     * braces, `ok` or `id`) to @p body; on failure return the error the
     * daemon would answer with. Works on a server that was never
     * started, which is how `mipp_cli` runs its requests in process. A
     * handler may throw; the daemon answers that with Internal.
     */
    Status execute(const json::Value &request, const CancelToken &cancel,
                   std::string &body);

    /** The profile stored under @p name (an aliasing pointer that keeps
     *  its LRU entry alive); null when absent. */
    std::shared_ptr<const Profile> profile(const std::string &name);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The design point a request's `config` member names: the Nehalem
 * reference with `width`, `rob`, `l1d_kb`, `l2_kb`, `l3_mb`, `freq_ghz`
 * and `prefetcher` applied, every number checked against its range
 * (InvalidArgument otherwise). A null @p v is the reference itself.
 */
Status parseConfigJson(const json::Value &v, CoreConfig &cfg);

/**
 * Minimal blocking JSON-lines client (tests, bench, tooling). Not
 * thread-safe; use one per thread.
 */
class Client
{
  public:
    Client() = default;
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept
        : fd_(other.fd_), buf_(std::move(other.buf_))
    {
        other.fd_ = -1;
    }
    Client &
    operator=(Client &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            buf_ = std::move(other.buf_);
            other.fd_ = -1;
        }
        return *this;
    }

    Status connect(const std::string &socketPath);

    /** Send one request line and block for one response line (the
     *  newline is appended/stripped here). */
    Status call(const std::string &request, std::string &response);

    /** Send without waiting — pair with recvLine() to pipeline. */
    Status sendLine(const std::string &request);
    Status recvLine(std::string &response);

    void close();
    bool connected() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    std::string buf_;
};

} // namespace mipp::serve

#endif // MIPP_SERVE_SERVER_HH
