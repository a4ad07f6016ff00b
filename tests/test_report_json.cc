/**
 * @file
 * The one JSON implementation (src/util/json) as the report format:
 * json::number round-trips every double exactly, and the accuracy
 * baseline gate survives every truncation and seeded single-byte
 * corruption of a written report — each input either loads or throws
 * std::runtime_error, never crashes (this suite also runs under
 * ASan+UBSan).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <random>

#include "util/json.hh"
#include "validate/accuracy.hh"

namespace mipp {
namespace {

double
reparse(const std::string &text)
{
    json::Value v;
    Status st = json::parse(text, v);
    EXPECT_TRUE(st.isOk()) << st.toString() << " in: " << text;
    EXPECT_TRUE(v.isNumber()) << text;
    return v.number();
}

TEST(JsonNumber, ShortestTextRoundTripsExactly)
{
    EXPECT_EQ(json::number(0), "0");
    EXPECT_EQ(json::number(42), "42");
    EXPECT_EQ(json::number(-1.5), "-1.5");
    EXPECT_EQ(json::number(0.1), "0.1");
    EXPECT_EQ(json::number(200000), "200000");
    EXPECT_EQ(json::number(12345678901.0), "12345678901");
    EXPECT_EQ(json::number(9007199254740991.0), "9007199254740991");
    EXPECT_EQ(json::number(1e21), "1e+21");
    EXPECT_EQ(json::number(1.5e-7), "1.5e-07");
    EXPECT_EQ(json::number(std::nan("")), "null");
    EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()),
              "null");

    // Doubles across the whole exponent range, and integers up to 2^53.
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> mant(-1.0, 1.0);
    std::uniform_int_distribution<int> exp(-1070, 1023);
    for (int i = 0; i < 20000; ++i) {
        double v = i % 2 ? std::ldexp(mant(rng), exp(rng))
                         : static_cast<double>(rng() >> (11 + i % 40));
        std::string text = json::number(v);
        EXPECT_EQ(reparse(text), v) << text;
    }
    EXPECT_EQ(reparse(json::number(std::numeric_limits<double>::max())),
              std::numeric_limits<double>::max());
    EXPECT_EQ(reparse(json::number(std::numeric_limits<double>::denorm_min())),
              std::numeric_limits<double>::denorm_min());
}

TEST(JsonNumber, FixedPrecisionMatchesPrintf)
{
    for (double v : {0.0, 1.0, 0.1, 1.0 / 3, 12345.678912345, 1e21, -2.5e-9,
                     12345678901.0}) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.10g", v);
        EXPECT_EQ(json::number(v, 10), buf);
    }
    EXPECT_EQ(json::number(std::nan(""), 10), "null");
}

TEST(JsonValue, StringLiteralIsAString)
{
    EXPECT_TRUE(json::Value("x").isString());
}

TEST(JsonString, RunsAndEscapesDecode)
{
    json::Value v;
    ASSERT_TRUE(json::parse(R"("plain run \"q\" \\ \/ \b\f\n\r\t end")", v)
                    .isOk());
    EXPECT_EQ(v.str(), "plain run \"q\" \\ / \b\f\n\r\t end");
    ASSERT_TRUE(json::parse(R"("\u0041\u00e9\u20AC\u0000x")", v).isOk());
    EXPECT_EQ(v.str(), std::string("A\xc3\xa9\xe2\x82\xac", 6) +
                           std::string(1, '\0') + "x");
    ASSERT_TRUE(json::parse(R"("")", v).isOk());
    EXPECT_EQ(v.str(), "");
    // Bytes >= 0x80 are plain bytes, copied as they are.
    ASSERT_TRUE(json::parse("\"\xff\xfe\"", v).isOk());
    EXPECT_EQ(v.str(), "\xff\xfe");
    // quote() and parse() are inverse on every byte value.
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    ASSERT_TRUE(json::parse(json::quote(all), v).isOk());
    EXPECT_EQ(v.str(), all);
}

TEST(JsonString, MalformedStringsNameTheirFault)
{
    const std::pair<std::string, const char *> cases[] = {
        {"\"a\tb\"", "json: raw control character in string"},
        {"\"ab\\", "json: dangling escape"},
        {R"("a\qb")", "json: unknown escape"},
        {R"("\u12")", "json: truncated \\u escape"},
        {R"("\u12g4")", "json: bad hex digit in \\u escape"},
        {R"("\ud800")", "json: surrogate \\u escape unsupported"},
        {R"("abc)", "json: unterminated string"},
        {"\"", "json: unterminated string"},
    };
    for (const auto &[text, message] : cases) {
        json::Value v;
        Status st = json::parse(text, v);
        EXPECT_EQ(st.code(), StatusCode::Corrupt) << text;
        EXPECT_EQ(st.message(), message) << text;
    }
}

// --- Report readers under truncation and corruption -----------------------

/** An accuracy report with every section populated. */
AccuracyReport
accuracyReport()
{
    AccuracyReport r;
    r.uops = 60000;
    r.gridNames = {"nehalem", "little"};
    r.workloadNames = {"stream_add", "trace \"q\" [2]"};
    r.violations = {"stream_add/little: sim: L2 accesses 3 != L1 misses 4"};
    for (const std::string &w : r.workloadNames) {
        for (const std::string &c : r.gridNames) {
            PointAccuracy p;
            p.workload = w;
            p.config = c;
            p.simCpi = 1.0 / 3;
            p.modelCpi = 0.37;
            p.simWatts = 21.5;
            p.modelWatts = 20.125;
            p.simStack = {0.2, 0.01, 0.02, 0.03, 0.04, 1.0 / 30};
            p.modelStack = {0.21, 0.011, 0.019, 0.031, 0.041, 0.068};
            p.simMr = {0.1, 0.01, 0.001};
            p.modelMr = {0.11, 0.009, 0.0012};
            for (size_t k = 0; k < kNumAccuracyMetrics; ++k)
                p.err[k] = (k % 2 ? -1.0 : 1.0) * (k + 0.1) / 7;
            r.points.push_back(p);
        }
    }
    r.summary = summarizeAccuracy(r.points);
    return r;
}

/** Write @p text to @p path and run @p load on it: it must return or
 *  throw std::runtime_error (any other exception fails the test, a
 *  crash fails the run). @return whether it loaded. */
bool
loadsOrThrows(const std::string &text, const std::string &path,
              const std::function<void(const std::string &)> &load)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    try {
        load(path);
        return true;
    } catch (const std::runtime_error &) {
        return false;
    }
}

/** Every prefix of @p text, then seeded single-byte replacements. */
void
sweepCorruptions(const std::string &text, const std::string &path,
                 const std::function<void(const std::string &)> &load)
{
    ASSERT_TRUE(loadsOrThrows(text, path, load));
    for (size_t len = 0; len < text.size(); ++len)
        loadsOrThrows(text.substr(0, len), path, load);
    // Truncation only ever drops a closing bracket, so the last prefix
    // with content is malformed.
    EXPECT_FALSE(loadsOrThrows(text.substr(0, text.size() - 2), path, load));

    std::mt19937 rng(20261017);
    std::uniform_int_distribution<size_t> pos(0, text.size() - 1);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int i = 0; i < 3000; ++i) {
        std::string flipped = text;
        flipped[pos(rng)] = static_cast<char>(byte(rng));
        loadsOrThrows(flipped, path, load);
    }
    std::remove(path.c_str());
}

TEST(ReportReaders, AccuracyReportPrefixesAndByteFlipsLoadOrThrow)
{
    const AccuracyReport rep = accuracyReport();
    sweepCorruptions(accuracyJson(rep),
                     ::testing::TempDir() + "mipp_report_acc.json",
                     [&](const std::string &path) {
                         compareToBaseline(rep, path, 0.0);
                     });
}

} // namespace
} // namespace mipp
