/**
 * @file
 * Recovery-path tests for the DSE daemon (src/serve): the fault-injection
 * suite the robustness guarantees are proven by. Each scenario drives the
 * real server over a real Unix-domain socket:
 *
 *  - a corrupt profile upload is rejected with Corrupt while the daemon
 *    keeps serving the next request;
 *  - deadline expiry mid-sweep yields a degraded-but-valid response;
 *  - queue overflow sheds load with ResourceExhausted, no deadlock;
 *  - a client disconnect mid-request cancels the queued/in-flight work;
 *  - oversized request lines are shed and the connection dropped;
 *  - an upload line that arrives in many small writes is one request;
 *  - the profile LRU evicts and the stats op reports it all.
 *
 * Responses are checked with the same strict JSON parser the server uses
 * for requests, which doubles as an end-to-end parser exercise.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/explorer.hh"
#include "model/eval_cache.hh"
#include "obs/trace.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "serve/server.hh"
#include "uarch/design_space.hh"
#include "util/failpoint.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace mipp {
namespace {

using serve::Client;
using serve::Server;
using serve::ServerOptions;
using serve::ServerStats;

std::string
uniqueSocketPath(const char *tag)
{
    static std::atomic<int> seq{0};
    std::ostringstream os;
    os << "/tmp/mipp_serve_" << tag << "_" << ::getpid() << "_"
       << seq.fetch_add(1) << ".sock";
    return os.str();
}

/** Serialize a small suite profile to the wire text format. */
std::string
profileText(const char *workload = "mix_mid", size_t uops = 20000)
{
    Trace t = generateWorkload(suiteWorkload(workload), uops);
    Profile p = profileTrace(t, {.name = workload});
    std::ostringstream os;
    writeProfile(p, os);
    return os.str();
}

json::Value
parsed(const std::string &line)
{
    json::Value v;
    Status st = json::parse(line, v);
    EXPECT_TRUE(st.isOk()) << st.toString() << " in: " << line;
    return v;
}

class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        failpoint::reset();
        opts_.socketPath = uniqueSocketPath("t");
        opts_.workers = 2;
        opts_.maxQueue = 8;
        opts_.maxProfiles = 8;
        opts_.allowFailpoints = true;
    }

    void
    TearDown() override
    {
        if (server_)
            server_->stop();
        failpoint::reset();
    }

    void
    startServer()
    {
        server_ = std::make_unique<Server>(opts_);
        Status st = server_->start();
        ASSERT_TRUE(st.isOk()) << st.toString();
    }

    Client
    client()
    {
        Client c;
        // stop()/start() races in tests are impossible here (the server
        // is up before any client call), so a failure is a real bug.
        Status st = c.connect(opts_.socketPath);
        EXPECT_TRUE(st.isOk()) << st.toString();
        return c;
    }

    json::Value
    call(Client &c, const std::string &req)
    {
        std::string resp;
        Status st = c.call(req, resp);
        EXPECT_TRUE(st.isOk()) << st.toString();
        return parsed(resp);
    }

    ServerOptions opts_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingEchoesIdAndRejectsUnknownOps)
{
    startServer();
    Client c = client();

    json::Value r = call(c, R"({"op":"ping","id":42})");
    EXPECT_TRUE(r["ok"].boolean());
    EXPECT_EQ(r["id"].number(), 42);

    r = call(c, R"({"op":"frobnicate","id":"x"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
    EXPECT_EQ(r["id"].str(), "x");

    // Pipelined clients match replies on id, so ok and error replies
    // echo the same number: 11 digits, and 2^53 - 1.
    for (const char *id : {"12345678901", "9007199254740991"}) {
        std::string resp;
        ASSERT_TRUE(c.call(std::string(R"({"op":"ping","id":)") + id + "}",
                           resp)
                        .isOk());
        EXPECT_EQ(resp, std::string(R"({"id":)") + id + R"(,"ok":true})");
        ASSERT_TRUE(c.call(std::string(R"({"op":"frobnicate","id":)") +
                               id + "}",
                           resp)
                        .isOk());
        EXPECT_EQ(resp.rfind(std::string(R"({"id":)") + id + ",", 0), 0u)
            << resp;
    }
}

TEST(ServeConfig, ParseConfigJsonChecksEveryKnob)
{
    CoreConfig cfg;
    ASSERT_TRUE(serve::parseConfigJson(json::Value(), cfg).isOk());
    EXPECT_EQ(cfg.robSize, CoreConfig::nehalemReference().robSize);

    json::Value v;
    ASSERT_TRUE(json::parse(R"({"width":2,"rob":64,"l1d_kb":16,)"
                            R"("l2_kb":128,"l3_mb":2,"freq_ghz":1.5,)"
                            R"("prefetcher":true})",
                            v)
                    .isOk());
    ASSERT_TRUE(serve::parseConfigJson(v, cfg).isOk());
    EXPECT_EQ(cfg.dispatchWidth, 2u);
    EXPECT_EQ(cfg.robSize, 64u);
    EXPECT_EQ(cfg.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.l2.sizeBytes, 128u * 1024);
    EXPECT_EQ(cfg.l3.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.freqGHz, 1.5);
    EXPECT_TRUE(cfg.prefetcherEnabled);

    // The values that used to hang or blow up `mipp_cli evaluate`, and
    // one past each end of every range.
    for (const char *bad :
         {R"({"rob":0})", R"({"width":0})", R"({"freq_ghz":0})",
          R"({"width":17})", R"({"rob":15})", R"({"rob":4097})",
          R"({"l1d_kb":0})", R"({"l1d_kb":1025})", R"({"l2_kb":15})",
          R"({"l2_kb":16385})", R"({"l3_mb":0})", R"({"l3_mb":257})",
          R"({"freq_ghz":10.5})", R"([])"}) {
        ASSERT_TRUE(json::parse(bad, v).isOk()) << bad;
        Status st = serve::parseConfigJson(v, cfg);
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << bad;
    }
}

TEST_F(ServeTest, MalformedJsonGetsStructuredErrorNotDisconnect)
{
    startServer();
    Client c = client();

    json::Value r = call(c, "{\"op\":\"ping\",,}");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "Corrupt");

    // The connection survives bad bytes.
    r = call(c, R"({"op":"ping"})");
    EXPECT_TRUE(r["ok"].boolean());
}

TEST_F(ServeTest, LoadEvaluateSweepHappyPath)
{
    startServer();
    Client c = client();

    json::Value r =
        call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                    "\"data\":" + json::quote(profileText()) + "}");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_GT(r["uops"].number(), 0);

    r = call(c, R"({"op":"evaluate","profile":"w0",)"
                R"("config":{"width":4,"rob":128}})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_GT(r["cpi"].number(), 0);
    EXPECT_GT(r["watts"].number(), 0);

    r = call(c, R"({"op":"sweep","profile":"w0","space":"small"})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_FALSE(r["degraded"].boolean());
    EXPECT_EQ(r["space"].number(), 27);
    ASSERT_FALSE(r["front"].array().empty());
    for (const json::Value &pt : r["front"].array()) {
        EXPECT_GT(pt["cpi"].number(), 0);
        EXPECT_GT(pt["watts"].number(), 0);
    }

    // Warm pool: a second sweep against the same profile must agree.
    json::Value again =
        call(c, R"({"op":"sweep","profile":"w0","space":"small"})");
    ASSERT_TRUE(again["ok"].boolean());
    ASSERT_EQ(again["front"].array().size(), r["front"].array().size());
    for (size_t i = 0; i < r["front"].array().size(); ++i)
        EXPECT_EQ(again["front"].array()[i]["cpi"].number(),
                  r["front"].array()[i]["cpi"].number());
}

/** A reply number as the server prints it (%.10g). */
std::string
printed(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

TEST_F(ServeTest, EvaluateAndSweepShareOneEngineBitExactly)
{
    // One uploaded profile, one warm engine: evaluates before and after a
    // sweep (with different configs each time) must print exactly what a
    // fresh in-process evaluation gives, and the sweep front must equal
    // an in-process streaming sweep.
    startServer();
    Client c = client();
    const std::string text = profileText("balanced_mix");
    Profile p;
    ASSERT_TRUE(parseProfile(text, p).isOk());

    json::Value r =
        call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                    "\"data\":" + json::quote(text) + "}");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();

    auto evaluate = [&](uint32_t width, uint32_t rob, uint32_t l3Mb) {
        json::Value e = call(
            c, R"({"op":"evaluate","profile":"w0","config":{"width":)" +
                   std::to_string(width) + ",\"rob\":" +
                   std::to_string(rob) + ",\"l3_mb\":" +
                   std::to_string(l3Mb) + "}}");
        ASSERT_TRUE(e["ok"].boolean()) << e["error"].str();
        CoreConfig cfg = CoreConfig::nehalemReference();
        cfg.setWidth(width);
        scaleBackEnd(cfg, rob);
        cfg.l3.sizeBytes = l3Mb * 1024 * 1024;
        scaleCacheLatencies(cfg);
        ModelResult m = evaluateModel(p, cfg);
        EXPECT_EQ(printed(e["cpi"].number()), printed(m.cpiPerUop()));
        EXPECT_EQ(printed(e["watts"].number()),
                  printed(computePower(m.activity, cfg).total()));
    };

    evaluate(4, 128, 8);

    r = call(c, R"({"op":"sweep","profile":"w0","space":"small"})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_FALSE(r["degraded"].boolean());
    SweepOptions so;
    so.mode = SweepMode::ModelOnlyPareto;
    DesignSpace space = DesignSpace::small();
    SweepResult want = sweepEx({}, {p}, space.configs(), {}, so);
    ASSERT_TRUE(want.status.isOk());
    const auto &front = r["front"].array();
    ASSERT_EQ(front.size(), want.frontPoints[0].size());
    for (size_t i = 0; i < front.size(); ++i) {
        const SweepPoint &pt = want.frontPoints[0][i];
        EXPECT_EQ(front[i]["config"].number(), pt.configIdx);
        EXPECT_EQ(printed(front[i]["cpi"].number()), printed(pt.modelCpi));
        EXPECT_EQ(printed(front[i]["watts"].number()),
                  printed(pt.modelWatts));
    }

    evaluate(2, 64, 2);
    evaluate(6, 256, 32);
}

TEST_F(ServeTest, ProfileOpGeneratesServerSideAndValidates)
{
    startServer();
    Client c = client();

    // Server-side profiling parks the result in the LRU under 'name';
    // a follow-up evaluate works without any client-side upload.
    json::Value r = call(c, R"({"op":"profile","workload":"balanced_mix",)"
                            R"("uops":20000,"threads":2,"name":"bm"})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_EQ(r["profile"].str(), "bm");
    EXPECT_EQ(r["uops"].number(), 20000);

    r = call(c, R"({"op":"evaluate","profile":"bm",)"
                R"("config":{"width":4,"rob":128}})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_GT(r["cpi"].number(), 0);

    r = call(c, R"({"op":"profile","workload":"no_such_workload"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");

    r = call(c, R"({"op":"profile","workload":"balanced_mix","uops":1})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");

    r = call(c, R"({"op":"profile"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
}

TEST(ServeProfile, FiredTokenAnswersDeadlineExceededAndStoresNothing)
{
    // In process, as mipp_cli runs it: the token fired before the op
    // began, so the trace ends short and no profile may be stored.
    Server server(ServerOptions{});
    json::Value req;
    ASSERT_TRUE(json::parse(R"({"op":"profile","workload":"balanced_mix",)"
                            R"("uops":20000,"name":"late"})",
                            req)
                    .isOk());
    CancelToken fired = CancelToken::manual();
    fired.cancel();
    std::string body;
    Status st = server.execute(req, fired, body);
    EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded) << st.toString();
    EXPECT_TRUE(body.empty()) << body;
    EXPECT_EQ(server.profile("late"), nullptr);

    json::Value eval;
    ASSERT_TRUE(json::parse(R"({"op":"evaluate","profile":"late",)"
                            R"("config":{"width":4,"rob":128}})",
                            eval)
                    .isOk());
    st = server.execute(eval, CancelToken(), body);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("unknown profile 'late'"),
              std::string::npos)
        << st.toString();
}

TEST_F(ServeTest, EvaluateValidatesConfigAndProfileName)
{
    startServer();
    Client c = client();

    json::Value r = call(c, R"({"op":"evaluate","profile":"ghost"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");

    call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                "\"data\":" + json::quote(profileText()) + "}");
    r = call(c, R"({"op":"evaluate","profile":"w0",)"
                R"("config":{"width":99}})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
}

TEST_F(ServeTest, CorruptUploadSurvivedAndServingContinues)
{
    startServer();
    Client c = client();

    const std::string good = profileText();
    json::Value r =
        call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                    "\"data\":" + json::quote(good) + "}");
    ASSERT_TRUE(r["ok"].boolean());

    // Bit-flipped payload: checksum must catch it.
    std::string flipped = good;
    flipped[good.size() / 2] ^= 0x20;
    r = call(c, std::string(R"({"op":"load-profile","name":"bad",)") +
                    "\"data\":" + json::quote(flipped) + "}");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "Corrupt");

    // Injected corruption via the failpoint op, exercising the remote
    // arming path the README documents.
    r = call(c, R"({"op":"failpoint","spec":"profile_io.corrupt=1"})");
    ASSERT_TRUE(r["ok"].boolean());
    r = call(c, std::string(R"({"op":"load-profile","name":"w1",)") +
                    "\"data\":" + json::quote(good) + "}");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "Corrupt");

    // The daemon keeps serving: the good profile still evaluates and
    // the failed uploads never entered the LRU.
    r = call(c, R"({"op":"sweep","profile":"w0","space":"small"})");
    EXPECT_TRUE(r["ok"].boolean());
    r = call(c, R"({"op":"evaluate","profile":"bad"})");
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
}

TEST_F(ServeTest, UploadSentInSmallWritesIsOneRequest)
{
    opts_.workers = 1; // replies in request order
    startServer();
    // A raw connection, so the test decides where the writes split.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  opts_.socketPath.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    // A missed newline leaves the server silent: fail, don't hang.
    timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);

    // One upload line ending in CRLF, then a ping whose first bytes
    // share the upload's last write: the server must split exactly at
    // the two newlines however the bytes arrive.
    const std::string stream =
        std::string(R"({"op":"load-profile","name":"w0","data":)") +
        json::quote(profileText()) + "}\r\n" + R"({"op":"ping","id":7})" +
        "\n";
    const size_t piece = 97;
    for (size_t at = 0; at < stream.size(); at += piece) {
        size_t n = std::min(piece, stream.size() - at);
        ASSERT_EQ(::send(fd, stream.data() + at, n, MSG_NOSIGNAL),
                  static_cast<ssize_t>(n));
        // Give the reader time to take each piece on its own recv.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    std::string replies;
    while (std::count(replies.begin(), replies.end(), '\n') < 2) {
        char chunk[4096];
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        ASSERT_GT(n, 0) << "no second reply within 10 s";
        replies.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    size_t nl = replies.find('\n');
    json::Value load = parsed(replies.substr(0, nl));
    EXPECT_TRUE(load["ok"].boolean()) << load["error"].str();
    EXPECT_EQ(load["profile"].str(), "w0");
    json::Value ping = parsed(replies.substr(nl + 1, replies.size() - nl - 2));
    EXPECT_TRUE(ping["ok"].boolean());
    EXPECT_EQ(ping["id"].number(), 7);
    EXPECT_EQ(server_->stats().requests, 2u);
}

TEST_F(ServeTest, DeadlineMidSweepReturnsDegradedFront)
{
    startServer();
    Client c = client();
    call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                "\"data\":" + json::quote(profileText()) + "}");

    // Stretch every sweep chunk so a short deadline expires mid-sweep.
    failpoint::arm("dse.chunk_delay", {.fires = 0, .sleepMs = 30});
    json::Value r = call(
        c, R"({"op":"sweep","profile":"w0","deadline_ms":5,"id":7})");
    failpoint::reset();

    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_TRUE(r["degraded"].boolean());
    EXPECT_EQ(r["id"].number(), 7);

    // Undelayed, the same request completes fully.
    r = call(c, R"({"op":"sweep","profile":"w0","deadline_ms":60000})");
    ASSERT_TRUE(r["ok"].boolean());
    EXPECT_FALSE(r["degraded"].boolean());
    EXPECT_FALSE(r["front"].array().empty());
    EXPECT_GE(server_->stats().degraded, 1u);
}

TEST_F(ServeTest, QueueOverflowShedsLoadAndRecovers)
{
    opts_.workers = 1;
    opts_.maxQueue = 1;
    startServer();
    Client c = client();

    // Stall the lone executor so pipelined requests pile into the
    // 1-deep queue and overflow.
    failpoint::arm("serve.exec_delay", {.fires = 0, .sleepMs = 100});
    const int kRequests = 6;
    for (int i = 0; i < kRequests; ++i)
        ASSERT_TRUE(c.sendLine(R"({"op":"ping"})").isOk());

    int ok = 0, shed = 0;
    for (int i = 0; i < kRequests; ++i) {
        std::string line;
        ASSERT_TRUE(c.recvLine(line).isOk()) << "response " << i;
        json::Value r = parsed(line);
        if (r["ok"].boolean())
            ++ok;
        else if (r["code"].str() == "ResourceExhausted")
            ++shed;
    }
    failpoint::reset();

    EXPECT_EQ(ok + shed, kRequests);
    EXPECT_GE(shed, 1);
    EXPECT_GE(ok, 1);
    EXPECT_GE(server_->stats().shed, static_cast<uint64_t>(shed));

    // Backpressure, not breakage: the next request sails through.
    json::Value r = call(c, R"({"op":"ping","id":1})");
    EXPECT_TRUE(r["ok"].boolean());
}

TEST_F(ServeTest, ClientDisconnectCancelsOutstandingWork)
{
    startServer();
    {
        Client c = client();
        call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                    "\"data\":" + json::quote(profileText()) + "}");
        // Slow sweep, then vanish: the reader must cancel the token.
        failpoint::arm("dse.chunk_delay", {.fires = 0, .sleepMs = 40});
        ASSERT_TRUE(
            c.sendLine(R"({"op":"sweep","profile":"w0"})").isOk());
        // Client goes away without reading the response.
    }

    // The cancel is observed at the next chunk/queue boundary.
    bool cancelled = false;
    for (int i = 0; i < 100 && !cancelled; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancelled = server_->stats().cancelled >= 1;
    }
    failpoint::reset();
    EXPECT_TRUE(cancelled);

    // And the daemon is still healthy for the next client.
    Client c2 = client();
    json::Value r = call(c2, R"({"op":"ping"})");
    EXPECT_TRUE(r["ok"].boolean());
}

TEST_F(ServeTest, OversizedRequestLineIsShedAndConnectionDropped)
{
    opts_.maxRequestBytes = 1024;
    startServer();
    Client c = client();

    std::string huge(4096, 'a'); // no newline: can never complete
    ASSERT_TRUE(c.sendLine(huge).isOk());
    std::string line;
    ASSERT_TRUE(c.recvLine(line).isOk());
    json::Value r = parsed(line);
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "ResourceExhausted");

    // The server closed this connection; a fresh one still works.
    EXPECT_FALSE(c.recvLine(line).isOk());
    Client c2 = client();
    r = call(c2, R"({"op":"ping"})");
    EXPECT_TRUE(r["ok"].boolean());
}

TEST_F(ServeTest, ProfileLruEvictsLeastRecentlyUsed)
{
    opts_.maxProfiles = 2;
    startServer();
    Client c = client();

    const std::string data = json::quote(profileText());
    for (const char *name : {"p1", "p2", "p3"}) {
        json::Value r = call(
            c, std::string(R"({"op":"load-profile","name":")") + name +
                   "\",\"data\":" + data + "}");
        ASSERT_TRUE(r["ok"].boolean());
    }

    // p1 was evicted; p2/p3 still resolve.
    json::Value r = call(c, R"({"op":"evaluate","profile":"p1"})");
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
    r = call(c, R"({"op":"evaluate","profile":"p3"})");
    EXPECT_TRUE(r["ok"].boolean());

    r = call(c, R"({"op":"stats"})");
    ASSERT_TRUE(r["ok"].boolean());
    EXPECT_GE(r["evictions"].number(), 1);
    EXPECT_EQ(r["profiles"].array().size(), 2u);
    EXPECT_GE(r["requests"].number(), 5);
}

TEST_F(ServeTest, FailpointOpIsGatedByOptions)
{
    opts_.allowFailpoints = false;
    startServer();
    Client c = client();

    json::Value r =
        call(c, R"({"op":"failpoint","spec":"profile_io.corrupt"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
    EXPECT_EQ(failpoint::armedCount(), 0);
}

TEST_F(ServeTest, AccuracyOpRunsTinyGridAndHonorsDeadline)
{
    startServer();
    Client c = client();

    json::Value r = call(
        c,
        R"({"op":"accuracy","grid":"ci","uops":500,)"
        R"("workloads":["stream_add"],"deadline_ms":120000})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_FALSE(r["degraded"].boolean());
    EXPECT_EQ(r["points"].number(), 2); // 1 workload x 2 ci configs
    EXPECT_TRUE(r["mape"].isObject());

    // An immediate deadline degrades instead of failing.
    r = call(c, R"({"op":"accuracy","grid":"ci","uops":500,)"
                R"("workloads":["stream_add"],"deadline_ms":0.001})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_TRUE(r["degraded"].boolean());

    // A bad grid preset comes back structured, not as a crash.
    r = call(c, R"({"op":"accuracy","grid":"nope"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
}

/** Find a metric object by name (+labels substring) in a metrics-op
 *  response; null Value when absent. */
json::Value
findMetric(const json::Value &resp, const std::string &name,
           const std::string &labels = "")
{
    for (const json::Value &m : resp["metrics"].array())
        if (m.stringOr("name", "") == name &&
            (labels.empty() || m.stringOr("labels", "") == labels))
            return m;
    return json::Value();
}

TEST_F(ServeTest, MetricsOpReportsScriptedCounts)
{
    startServer();
    Client c = client();

    // Scripted sequence with known per-op counts: 2 pings, 1 upload,
    // 3 evaluates, 1 stats. The metrics request itself is the 8th
    // enqueued request; its own op-latency closes only after the
    // render, so it is visible in requests/queue-wait but not in
    // serve_op_latency_ns{op="metrics"}.
    EXPECT_TRUE(call(c, R"({"op":"ping"})")["ok"].boolean());
    EXPECT_TRUE(call(c, R"({"op":"ping"})")["ok"].boolean());
    json::Value r =
        call(c, std::string(R"({"op":"load-profile","name":"w0",)") +
                    "\"data\":" + json::quote(profileText()) + "}");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    for (int i = 0; i < 3; ++i) {
        r = call(c, R"({"op":"evaluate","profile":"w0",)"
                    R"("config":{"width":4,"rob":128}})");
        ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    }
    EXPECT_TRUE(call(c, R"({"op":"stats"})")["ok"].boolean());

    r = call(c, R"({"op":"metrics","format":"json"})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    EXPECT_GE(r["uptime_ms"].number(), 0.0);

    EXPECT_EQ(findMetric(r, "serve_requests_total").numberOr("value", -1),
              8.0);
    EXPECT_EQ(findMetric(r, "serve_served_total").numberOr("value", -1),
              7.0); // the metrics response is not yet written
    EXPECT_EQ(findMetric(r, "serve_connections_total")
                  .numberOr("value", -1),
              1.0);
    EXPECT_EQ(findMetric(r, "serve_profile_lru_hits_total")
                  .numberOr("value", -1),
              3.0);
    EXPECT_GT(findMetric(r, "serve_bytes_read_total")
                  .numberOr("value", -1),
              0.0);

    // Queue-wait histogram counts every executed request so far,
    // including this one (recorded before dispatch).
    json::Value qw = findMetric(r, "serve_queue_wait_ns");
    EXPECT_EQ(qw.stringOr("type", ""), "histogram");
    EXPECT_EQ(qw.numberOr("count", -1), 8.0);

    // Per-op evaluate latency: exactly the 3 evaluates.
    json::Value ev =
        findMetric(r, "serve_op_latency_ns", "op=\"evaluate\"");
    EXPECT_EQ(ev.numberOr("count", -1), 3.0);
    EXPECT_GT(ev.numberOr("p99", 0), 0.0);
    EXPECT_EQ(findMetric(r, "serve_op_latency_ns", "op=\"ping\"")
                  .numberOr("count", -1),
              2.0);
}

TEST_F(ServeTest, MetricsOpPrometheusAndFormatValidation)
{
    startServer();
    Client c = client();
    EXPECT_TRUE(call(c, R"({"op":"ping"})")["ok"].boolean());

    json::Value r = call(c, R"({"op":"metrics","format":"prometheus"})");
    ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    const std::string text = r["prometheus"].str();
    EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_queue_wait_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("serve_queue_wait_ns_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("serve_op_latency_ns_count{op=\"ping\"} 1"),
              std::string::npos);

    // "both" carries the JSON array and the text exposition.
    r = call(c, R"({"op":"metrics","format":"both"})");
    ASSERT_TRUE(r["ok"].boolean());
    EXPECT_FALSE(r["metrics"].array().empty());
    EXPECT_FALSE(r["prometheus"].str().empty());

    r = call(c, R"({"op":"metrics","format":"xml"})");
    EXPECT_FALSE(r["ok"].boolean());
    EXPECT_EQ(r["code"].str(), "InvalidArgument");
}

TEST_F(ServeTest, StatsOpCarriesUptimeQueueDepthAndByteCounters)
{
    startServer();
    Client c = client();

    json::Value r1 = call(c, R"({"op":"stats"})");
    ASSERT_TRUE(r1["ok"].boolean());
    EXPECT_GE(r1["uptime_ms"].number(), 0.0);
    EXPECT_EQ(r1["queue_depth"].number(), 0); // idle at snapshot time
    EXPECT_GT(r1["bytes_in"].number(), 0);

    // A miss on an unknown profile shows up in the LRU counters.
    call(c, R"({"op":"evaluate","profile":"ghost"})");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    json::Value r2 = call(c, R"({"op":"stats"})");
    EXPECT_GE(r2["lru_misses"].number(), 1);
    // Uptime is monotonic, counters never reset while running.
    EXPECT_GT(r2["uptime_ms"].number(), r1["uptime_ms"].number());
    EXPECT_GE(r2["bytes_out"].number(), r1["bytes_out"].number());

    // The ServerStats projection and the metrics op agree in kind.
    ServerStats st = server_->stats();
    EXPECT_GT(st.uptimeMs, 0.0);
    EXPECT_GE(st.lruMisses, 1u);
    EXPECT_GT(st.bytesIn, 0u);
    json::Value m = call(c, R"({"op":"metrics","format":"both"})");
    ASSERT_TRUE(m["ok"].boolean()) << m["error"].str();
    EXPECT_FALSE(m["metrics"].array().empty());
    EXPECT_NE(m["prometheus"].str().find("serve_requests_total"),
              std::string::npos);
}

TEST_F(ServeTest, TraceSpansCoverServeLifecycle)
{
    obs::SpanRecorder rec;
    rec.install();
    startServer();
    {
        Client c = client();
        json::Value r = call(
            c, std::string(R"({"op":"load-profile","name":"w0",)") +
                   "\"data\":" + json::quote(profileText()) + "}");
        ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
        r = call(c, R"({"op":"evaluate","profile":"w0",)"
                    R"("config":{"width":4,"rob":128}})");
        ASSERT_TRUE(r["ok"].boolean()) << r["error"].str();
    }
    server_->stop();
    obs::SpanRecorder::uninstall();

    std::vector<obs::SpanEvent> evs = rec.snapshot();
    auto count = [&](const char *name) {
        size_t n = 0;
        for (const obs::SpanEvent &e : evs)
            if (e.name && std::string(e.name) == name)
                ++n;
        return n;
    };
    // Every lifecycle stage shows up: queue wait, executor, parse,
    // the op itself, the response write.
    EXPECT_GE(count("serve.queue_wait"), 2u);
    EXPECT_GE(count("serve.exec"), 2u);
    EXPECT_GE(count("serve.parse"), 2u);
    EXPECT_EQ(count("serve.op.load_profile"), 1u);
    EXPECT_EQ(count("serve.op.evaluate"), 1u);
    EXPECT_GE(count("serve.respond"), 2u);

    // The same nonzero trace id ties one request's queue wait to its
    // executor span.
    for (const obs::SpanEvent &qw : evs) {
        if (!qw.name || std::string(qw.name) != "serve.queue_wait")
            continue;
        EXPECT_NE(qw.traceId, 0u);
        bool matched = false;
        for (const obs::SpanEvent &ex : evs)
            if (ex.name && std::string(ex.name) == "serve.exec" &&
                ex.traceId == qw.traceId)
                matched = true;
        EXPECT_TRUE(matched) << "unmatched trace id " << qw.traceId;
    }
}

TEST_F(ServeTest, StopIsIdempotentAndRestartable)
{
    startServer();
    {
        Client c = client();
        EXPECT_TRUE(call(c, R"({"op":"ping"})")["ok"].boolean());
    }
    server_->stop();
    server_->stop(); // idempotent
    EXPECT_FALSE(server_->running());

    // Same path can be bound again by a fresh server.
    Server second(opts_);
    ASSERT_TRUE(second.start().isOk());
    Client c;
    ASSERT_TRUE(c.connect(opts_.socketPath).isOk());
    std::string resp;
    ASSERT_TRUE(c.call(R"({"op":"ping"})", resp).isOk());
    EXPECT_TRUE(parsed(resp)["ok"].boolean());
    second.stop();
}

} // namespace
} // namespace mipp
