/**
 * @file
 * mipp_cli — command-line front end mirroring the paper's released
 * AIP (profiler) + PMT (modeling tool) pair. Its commands, flags and
 * usage text are documented once, in the help table of
 * src/cli/cli_help.cc (`mipp_cli help [command]`).
 *
 * Every subcommand declares its flags in one FlagRule table that
 * mapFlags parses. `profile`, `evaluate` and `sweep` map them onto
 * serve requests that an in-process serve::Server (never started)
 * checks and runs; the other commands read the mapped values into
 * their option structs. Input-shaped failures (bad profile bytes,
 * unknown workload, unknown flag, missing value, out-of-range count)
 * print their Status code and exit 2; anything else exits 1.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_help.hh"
#include "obs/trace.hh"
#include "profiler/profile_io.hh"
#include "serve/server.hh"
#include "trace/mtf.hh"
#include "trace/mtf_text.hh"
#include "util/json.hh"
#include "util/status.hh"
#include "validate/accuracy.hh"
#include "validate/calibrate.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

/**
 * A usage error: print @p command's help entry (the overview when
 * none is named) to stderr and return exit status 2. Rendered from the
 * one help table (src/cli/cli_help.{hh,cc}) so the CLI, `help`,
 * `--help` and docs/ cannot diverge.
 */
int
usage(std::string_view command = {})
{
    const std::string text =
        command.empty() ? cli::overviewHelp() : cli::detailedHelp(command);
    std::fputs(text.c_str(), stderr);
    return 2;
}

int
cmdHelp(int argc, char **argv)
{
    if (argc < 1) {
        std::fputs(cli::overviewHelp().c_str(), stdout);
        return 0;
    }
    std::string topic = argv[0];
    if (argc >= 2)
        topic += std::string(" ") + argv[1]; // "report accuracy" etc.
    std::string text = cli::detailedHelp(topic);
    if (text.empty() && argc >= 2)
        text = cli::detailedHelp(argv[0]); // fall back to the group
    if (text.empty()) {
        std::fprintf(stderr, "no help for '%s'\n\n", topic.c_str());
        return usage();
    }
    std::fputs(text.c_str(), stdout);
    return 0;
}

/** True when any argument asks for help (--help/-h). */
bool
wantsHelp(int argc, char **argv)
{
    return std::any_of(argv, argv + argc, [](std::string_view a) {
        return a == "--help" || a == "-h";
    });
}

int
cmdList()
{
    for (const auto &s : workloadSuite())
        std::printf("%s\n", s.name.c_str());
    return 0;
}

/** The error for a flag the command does not know. */
StatusError
unknownFlag(const char *flag)
{
    return StatusError(invalidArgument(std::string("unknown flag ") + flag));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/** @p text as a number in [@p lo, @p hi]; StatusError(InvalidArgument)
 *  naming @p what when it is missing (null), not a number or out of
 *  range. */
double
numberArg(const char *what, const char *text, double lo = -kInf,
          double hi = kInf)
{
    char *end = nullptr;
    double v = text ? std::strtod(text, &end) : 0;
    if (!end || end == text || *end)
        throw StatusError(
            invalidArgument(std::string(what) + " expects a number"));
    if (!(v >= lo && v <= hi))
        throw StatusError(invalidArgument(
            std::string(what) + " out of range [" + json::number(lo) +
            ", " + json::number(hi) + "]"));
    return v;
}

/** How one flag becomes a member of the mapped object. */
struct FlagRule {
    const char *flag;
    const char *member;
    /** Number and Text take the next argument as the member's value;
     *  Repeated appends it, as text, to an array member; Fixed takes
     *  no argument and sets the member to `fixed`. */
    enum As { Number, Text, Repeated, Fixed } as;
    json::Value fixed = {};
    /** The range a Number accepts. The serve-backed commands leave it
     *  open: the dispatcher checks their values. */
    double lo = -kInf, hi = kInf;
};

/**
 * Map @p argv onto members by @p rules (see FlagRule). Other arguments
 * are appended to @p positional; a command that takes none passes
 * null, and such an argument is an unknown flag. An unknown flag, a
 * missing value or a Number outside its range throws
 * StatusError(InvalidArgument); a value that is one of @p rules' flags
 * is missing.
 */
json::Object
mapFlags(int argc, char **argv, std::span<const FlagRule> rules,
         std::vector<std::string> *positional = nullptr)
{
    auto ruleFor = [&](const char *arg) {
        return std::find_if(
            rules.begin(), rules.end(),
            [&](const FlagRule &r) { return !std::strcmp(r.flag, arg); });
    };
    json::Object members;
    for (int i = 0; i < argc; ++i) {
        if (positional && argv[i][0] != '-') {
            positional->push_back(argv[i]);
            continue;
        }
        auto rule = ruleFor(argv[i]);
        if (rule == rules.end())
            throw unknownFlag(argv[i]);
        json::Value &member = members[rule->member];
        if (rule->as == FlagRule::Fixed) {
            member = rule->fixed;
            continue;
        }
        const char *value =
            i + 1 < argc && ruleFor(argv[i + 1]) == rules.end() ? argv[++i]
                                                                : nullptr;
        if (rule->as == FlagRule::Number) {
            member = numberArg(rule->flag, value, rule->lo, rule->hi);
        } else if (!value) {
            throw StatusError(invalidArgument(std::string(rule->flag) +
                                              " requires a value"));
        } else if (rule->as == FlagRule::Text) {
            member = std::string(value);
        } else {
            json::Array values = member.array();
            values.emplace_back(std::string(value));
            member = std::move(values);
        }
    }
    return members;
}

/** The strings a Repeated flag collected into @p values. */
std::vector<std::string>
strings(const json::Value &values)
{
    std::vector<std::string> out;
    for (const json::Value &v : values.array())
        out.push_back(v.str());
    return out;
}

const FlagRule kProfileFlags[] = {
    {"--threads", "threads", FlagRule::Number},
    {"--segment-uops", "segment_uops", FlagRule::Number},
    {"--trace", "trace", FlagRule::Text},
    {"--name", "name", FlagRule::Text},
};

const FlagRule kConfigFlags[] = {
    {"--width", "width", FlagRule::Number},
    {"--rob", "rob", FlagRule::Number},
    {"--l1d", "l1d_kb", FlagRule::Number},
    {"--l2", "l2_kb", FlagRule::Number},
    {"--l3", "l3_mb", FlagRule::Number},
    {"--freq", "freq_ghz", FlagRule::Number},
    {"--prefetcher", "prefetcher", FlagRule::Fixed, true},
};

const FlagRule kSweepFlags[] = {
    {"--mode", "mode", FlagRule::Text},
    {"--validate", "validate", FlagRule::Number},
    {"--full", "space", FlagRule::Fixed, "full"},
};

/**
 * Run one request on @p server, in process (the server is never
 * started), and return the reply's members. A failed request throws
 * StatusError, so it exits like any other input error.
 */
json::Value
request(serve::Server &server, json::Object members)
{
    std::string body;
    throwIfError(server.execute(json::Value(std::move(members)),
                                CancelToken(), body));
    json::Value reply;
    throwIfError(json::parse("{" + body + "}", reply));
    return reply;
}

/** load-profile the file @p path into @p server as "p"; the reply. */
json::Value
loadInto(serve::Server &server, const std::string &path)
{
    return request(server,
                   {{"op", "load-profile"}, {"name", "p"}, {"path", path}});
}

int
cmdProfile(int argc, char **argv)
{
    std::vector<std::string> positional;
    json::Object req = mapFlags(argc, argv, kProfileFlags, &positional);
    const bool fromTrace = req.count("trace") > 0;
    // With --trace the positionals are <out> [uops], the count ignored
    // (the trace has its own length); otherwise <workload> <out> [uops].
    const size_t need = fromTrace ? 1 : 2;
    if (positional.size() < need)
        return usage("profile");
    if (!fromTrace) {
        req["workload"] = positional[0];
        if (positional.size() > need)
            req["uops"] = numberArg("uops", positional[need].c_str());
    }
    std::string name = req["name"].str();
    if (name.empty())
        name = fromTrace ? traceBaseName(req["trace"].str()) : positional[0];
    req["name"] = name;
    req["op"] = "profile";

    // The daemon checks the counts. --threads defaults to one there
    // (reproducible timing); any thread count profiles bit-identically.
    serve::Server server({});
    json::Value r = request(server, std::move(req));
    const std::string &outPath = positional[need - 1];
    if (!saveProfile(*server.profile(name), outPath)) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("profiled %s (%zu uops) -> %s\n",
                r["workload"].str().c_str(),
                static_cast<size_t>(r["uops"].number()), outPath.c_str());
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    if (argc < 1)
        return usage("trace");
    std::string sub = argv[0];
    if (sub == "record") {
        if (argc < 3)
            return usage("trace record");
        size_t uops =
            argc >= 4 ? static_cast<size_t>(numberArg("uops", argv[3], 0, 5e7))
                      : 200000;
        WorkloadSpec spec = suiteWorkload(argv[1]);
        Trace t = generateWorkload(spec, uops);
        throwIfError(saveMtf(t, argv[2]));
        std::printf("recorded %s (%zu uops) -> %s\n", spec.name.c_str(),
                    t.size(), argv[2]);
        return 0;
    }
    if (sub == "convert") {
        if (argc < 3)
            return usage("trace convert");
        uint64_t uops = 0;
        throwIfError(convertTextFileToMtf(argv[1], argv[2], uops));
        std::printf("converted %s (%llu uops) -> %s\n", argv[1],
                    static_cast<unsigned long long>(uops), argv[2]);
        return 0;
    }
    if (sub == "dump") {
        if (argc < 2)
            return usage("trace dump");
        if (argc >= 3) {
            std::ofstream os(argv[2], std::ios::binary);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n", argv[2]);
                return 1;
            }
            throwIfError(dumpMtfToText(argv[1], os));
        } else {
            throwIfError(dumpMtfToText(argv[1], std::cout));
        }
        return 0;
    }
    if (sub == "info") {
        if (argc < 2)
            return usage("trace info");
        MtfReader reader;
        throwIfError(MtfReader::open(argv[1], reader));
        const MtfInfo &info = reader.info();
        std::printf("mtf      %s\n", argv[1]);
        std::printf("version  %u\n", info.version);
        std::printf("uops     %llu\n",
                    static_cast<unsigned long long>(info.uopCount));
        std::printf("bytes    %llu (%.2f B/uop encoded)\n",
                    static_cast<unsigned long long>(info.fileBytes),
                    info.bytesPerUop());
        std::printf("checksum ok\n");
        return 0;
    }
    std::fprintf(stderr, "unknown trace subcommand '%s'\n", sub.c_str());
    return usage("trace");
}

int
cmdEvaluate(int argc, char **argv)
{
    std::vector<std::string> positional;
    json::Object config = mapFlags(argc, argv, kConfigFlags, &positional);
    if (positional.size() != 1)
        return usage("evaluate");
    serve::Server server({});
    json::Value p = loadInto(server, positional[0]);
    json::Value r = request(
        server, {{"op", "evaluate"}, {"profile", "p"}, {"config", config}});
    CoreConfig cfg;
    throwIfError(serve::parseConfigJson(json::Value(std::move(config)), cfg));

    std::printf("profile   %s (%lu uops)\n", p["workload"].str().c_str(),
                static_cast<unsigned long>(p["uops"].number()));
    std::printf("design    width %u, ROB %u, L1D %u KB, L2 %u KB, "
                "L3 %u MB, %.2f GHz\n",
                cfg.dispatchWidth, cfg.robSize,
                cfg.l1d.sizeBytes / 1024, cfg.l2.sizeBytes / 1024,
                cfg.l3.sizeBytes / 1024 / 1024, cfg.freqGHz);
    std::printf("CPI       %.3f   (Deff %.2f limited by %s, MLP %.2f)\n",
                r["cpi"].number(), r["deff"].number(),
                r["limit"].str().c_str(), r["mlp"].number());
    const json::Value &st = r["stack"];
    std::printf("stack     base %.3f | branch %.3f | icache %.3f | "
                "LLC %.3f | DRAM %.3f\n",
                st["base"].number(), st["branch"].number(),
                st["icache"].number(), st["llc"].number(),
                st["dram"].number());
    std::printf("power     %.2f W (dynamic %.2f, static %.2f)\n",
                r["watts"].number(), r["dynamic_watts"].number(),
                r["static_watts"].number());
    std::printf("runtime   %.3f ms, energy %.3f mJ\n",
                r["seconds"].number() * 1e3, r["energy_j"].number() * 1e3);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    std::vector<std::string> positional;
    json::Object req = mapFlags(argc, argv, kSweepFlags, &positional);
    if (positional.size() != 1)
        return usage("sweep");
    serve::Server server({});
    json::Value p = loadInto(server, positional[0]);
    req["op"] = "sweep";
    req["profile"] = "p";
    json::Value r = request(server, std::move(req));

    const json::Array &front = r["front"].array();
    std::printf("predicted Pareto frontier for %s (%zu of %zu designs, "
                "%zu simulations spent):\n",
                p["workload"].str().c_str(), front.size(),
                static_cast<size_t>(r["space"].number()),
                static_cast<size_t>(r["simulations"].number()));
    for (const json::Value &pt : front) {
        const double cpi = pt["cpi"].number();
        std::printf("  %-30s CPI %7.3f  W %6.2f", pt["name"].str().c_str(),
                    cpi, pt["watts"].number());
        if (pt["sim_cpi"].isNumber()) {
            const double sim = pt["sim_cpi"].number();
            std::printf("   (sim: %7.3f, err %+.1f%%)", sim,
                        sim > 0 ? 100 * ((cpi - sim) / sim) : 0.0);
        }
        std::printf("\n");
    }
    return 0;
}

const FlagRule kCalibrateFlags[] = {
    {"--grid", "grid", FlagRule::Text},
    {"--uops", "uops", FlagRule::Number, {}, 100, 1e7},
    {"--threads", "threads", FlagRule::Number, {}, 0, 64},
    {"--no-phased", "phased", FlagRule::Fixed, false},
    {"--no-branch-fit", "branch_fit", FlagRule::Fixed, false},
    // 0 would skip the whole coefficient fit yet still print "fitted"
    // values.
    {"--rounds", "rounds", FlagRule::Number, {}, 1, 1000},
    {"--workload", "workloads", FlagRule::Repeated},
    {"--trace", "traces", FlagRule::Repeated},
    {"--check-grid", "check_grids", FlagRule::Repeated},
    {"--json", "json", FlagRule::Text},
};

int
cmdCalibrate(int argc, char **argv)
{
    const json::Value f(mapFlags(argc, argv, kCalibrateFlags));
    CalibrationOptions copts;
    const std::string gridName = f.stringOr("grid", "ci");
    const std::string jsonPath = f.stringOr("json", "");
    copts.grid = accuracyGrid(gridName);
    copts.uops = static_cast<size_t>(f.numberOr("uops", copts.uops));
    copts.threads =
        static_cast<unsigned>(f.numberOr("threads", copts.threads));
    copts.includePhased = f.boolOr("phased", copts.includePhased);
    copts.fitBranch = f.boolOr("branch_fit", copts.fitBranch);
    copts.rounds = static_cast<int>(f.numberOr("rounds", copts.rounds));
    copts.workloads = strings(f["workloads"]);
    copts.traceFiles = strings(f["traces"]);
    copts.checkGrids = strings(f["check_grids"]);

    CalibrationReport rep = runCalibration(copts);

    std::printf("calibration: %zu workloads x %zu design points "
                "(%zu uops, grid '%s')\n",
                rep.workloadNames.size(), rep.gridNames.size(), rep.uops,
                gridName.c_str());
    if (!rep.branchFits.empty()) {
        std::printf("piecewise entropy fits "
                    "(missRate = a*E + b + a2*max(0, E - knee)):\n");
        for (size_t i = 0; i < rep.branchFits.size(); ++i) {
            const BranchMissModel &m = rep.branchFits[i];
            std::printf("  %-10s a %.4f  b %+.4f  knee %.4f  "
                        "a2 %.4f  (r2 %.3f)\n",
                        std::string(branchPredictorName(m.kind)).c_str(),
                        m.slope, m.intercept, m.knee, m.kneeSlope,
                        i < rep.branchR2.size() ? rep.branchR2[i] : 0.0);
        }
    }
    std::printf("fitted coefficients (ModelCalibration::fitted()):\n"
                "  penaltyScale %.4f  baseWindowFrac %.4f  "
                "mlpWindowFrac %.4f\n"
                "  shadowScale %.4f  busQueueScale %.4f  "
                "coldInject %.4f\n",
                rep.cal.penaltyScale, rep.cal.baseWindowFrac,
                rep.cal.mlpWindowFrac, rep.cal.shadowScale,
                rep.cal.busQueueScale, rep.cal.coldInject);
    std::printf("%-8s %18s %18s\n", "metric", "before MAPE (bias)",
                "after MAPE (bias)");
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        auto m = static_cast<AccuracyMetric>(k);
        std::printf("%-8s %10.2f (%+6.2f) %10.2f (%+6.2f)\n",
                    std::string(accuracyMetricName(m)).c_str(),
                    rep.beforeOf(m).mape, rep.beforeOf(m).meanSigned,
                    rep.afterOf(m).mape, rep.afterOf(m).meanSigned);
    }
    std::printf("worst signed CPI error: before %.1f%%, after %.1f%%\n",
                rep.beforeOf(AccuracyMetric::Cpi).minSigned,
                rep.afterOf(AccuracyMetric::Cpi).minSigned);
    for (const CalibrationReport::GridCheck &gc : rep.gridChecks) {
        std::printf("cross-check on grid '%s' (fitted coefficients, "
                    "no refit):\n", gc.grid.c_str());
        for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
            auto m = static_cast<AccuracyMetric>(k);
            const MetricSummary &s = gc.summary[k];
            std::printf("  %-8s %10.2f (%+6.2f)\n",
                        std::string(accuracyMetricName(m)).c_str(),
                        s.mape, s.meanSigned);
        }
    }

    if (!jsonPath.empty()) {
        if (!writeCalibrationJson(rep, jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("report written to %s\n", jsonPath.c_str());
    }
    return 0;
}

const FlagRule kMetricsFlags[] = {
    {"--socket", "socket", FlagRule::Text},
    {"--prometheus", "format", FlagRule::Fixed, "prometheus"},
    {"--out", "out", FlagRule::Text},
};

int
cmdReportMetrics(int argc, char **argv)
{
    const json::Value f(mapFlags(argc, argv, kMetricsFlags));
    const std::string socketPath = f.stringOr("socket", "");
    const std::string outPath = f.stringOr("out", "");
    const std::string format = f.stringOr("format", "json");
    if (socketPath.empty())
        return usage("report metrics");

    serve::Client cli;
    throwIfError(cli.connect(socketPath));
    std::string resp;
    throwIfError(cli.call(
        "{\"op\":\"metrics\",\"format\":\"" + format + "\"}", resp));
    json::Value doc;
    throwIfError(json::parse(resp, doc, {}));
    if (!doc.boolOr("ok", false)) {
        std::fprintf(stderr, "server error: %s\n",
                     doc.stringOr("error", "malformed response").c_str());
        return 1;
    }
    // JSON output is the response line itself (already a complete
    // document); Prometheus text arrives JSON-escaped and is unwrapped.
    std::string text =
        format == "prometheus" ? doc.stringOr("prometheus", "") : resp;
    if (!outPath.empty()) {
        std::ofstream os(outPath);
        os << text << '\n';
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
        std::printf("metrics written to %s\n", outPath.c_str());
    } else {
        std::printf("%s\n", text.c_str());
    }
    return 0;
}

const FlagRule kAccuracyFlags[] = {
    {"--grid", "grid", FlagRule::Text},
    {"--uops", "uops", FlagRule::Number, {}, 100, 1e7},
    {"--threads", "threads", FlagRule::Number, {}, 0, 64},
    {"--full", "full", FlagRule::Fixed, true},
    {"--no-phased", "phased", FlagRule::Fixed, false},
    {"--workload", "workloads", FlagRule::Repeated},
    {"--trace", "traces", FlagRule::Repeated},
    {"--json", "json", FlagRule::Text},
    {"--baseline", "baseline", FlagRule::Text},
    {"--margin", "margin", FlagRule::Number, {}, 0, 100},
};

int
cmdAccuracy(int argc, char **argv)
{
    const json::Value f(mapFlags(argc, argv, kAccuracyFlags));
    AccuracyOptions aopts;
    std::string gridName = f.stringOr("grid", "default");
    const std::string jsonPath = f.stringOr("json", "");
    const std::string baselinePath = f.stringOr("baseline", "");
    const double margin = f.numberOr("margin", 2.0);
    aopts.uops = static_cast<size_t>(f.numberOr("uops", aopts.uops));
    aopts.threads =
        static_cast<unsigned>(f.numberOr("threads", aopts.threads));
    aopts.includePhased = f.boolOr("phased", aopts.includePhased);
    aopts.workloads = strings(f["workloads"]);
    aopts.traceFiles = strings(f["traces"]);
    if (f.boolOr("full", false)) {
        if (f["grid"].isString() && gridName != "wide") {
            std::fprintf(stderr,
                         "--full conflicts with --grid %s (it selects "
                         "the wide grid)\n",
                         gridName.c_str());
            return 2;
        }
        gridName = "wide";
    }
    aopts.grid = accuracyGrid(gridName);

    AccuracyReport rep = runAccuracy(aopts);

    std::printf("accuracy: %zu workloads x %zu design points "
                "(%zu uops, grid '%s')\n",
                rep.workloadNames.size(), rep.gridNames.size(), rep.uops,
                gridName.c_str());
    std::printf("%-18s %8s %8s %7s   %s\n", "workload", "simCPI",
                "modelCPI", "err%", "mean|err|% across grid");
    const size_t nc = rep.gridNames.size();
    for (size_t wi = 0; wi < rep.workloadNames.size(); ++wi) {
        const PointAccuracy &ref = rep.points[wi * nc];
        double meanAbs = 0;
        for (size_t ci = 0; ci < nc; ++ci)
            meanAbs += std::abs(
                rep.points[wi * nc + ci]
                    .err[static_cast<size_t>(AccuracyMetric::Cpi)]);
        meanAbs /= nc ? nc : 1;
        std::printf("%-18s %8.3f %8.3f %+6.1f%%   %6.1f%%\n",
                    ref.workload.c_str(), ref.simCpi, ref.modelCpi,
                    ref.err[static_cast<size_t>(AccuracyMetric::Cpi)],
                    meanAbs);
    }
    std::printf("suite MAPE (signed bias):");
    for (size_t k = 0; k < kNumAccuracyMetrics; ++k) {
        auto m = static_cast<AccuracyMetric>(k);
        std::printf(" %s %.1f (%+.1f)%s",
                    std::string(accuracyMetricName(m)).c_str(),
                    rep.of(m).mape, rep.of(m).meanSigned,
                    k + 1 < kNumAccuracyMetrics ? " |" : "\n");
    }

    if (!jsonPath.empty()) {
        if (!writeAccuracyJson(rep, jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("report written to %s\n", jsonPath.c_str());
    }

    int rc = 0;
    if (!rep.consistent()) {
        std::fprintf(stderr,
                     "%zu internal-consistency violations:\n",
                     rep.violations.size());
        for (const auto &v : rep.violations)
            std::fprintf(stderr, "  %s\n", v.c_str());
        rc = 1;
    }
    if (!baselinePath.empty()) {
        auto regressions = compareToBaseline(rep, baselinePath, margin);
        if (!regressions.empty()) {
            std::fprintf(stderr, "MAPE regressions vs %s:\n",
                         baselinePath.c_str());
            for (const auto &r : regressions)
                std::fprintf(stderr, "  %s\n", r.c_str());
            rc = 1;
        } else {
            std::printf("baseline gate passed (%s, margin %.1f)\n",
                        baselinePath.c_str(), margin);
        }
    }
    return rc;
}

int
cmdReport(int argc, char **argv)
{
    const std::string_view sub = argc >= 1 ? argv[0] : "";
    if (sub == "accuracy")
        return cmdAccuracy(argc - 1, argv + 1);
    if (sub == "calibrate")
        return cmdCalibrate(argc - 1, argv + 1);
    if (sub == "metrics")
        return cmdReportMetrics(argc - 1, argv + 1);
    return usage("report");
}

std::atomic<bool> gServeStop{false};

void
onServeSignal(int)
{
    gServeStop.store(true);
}

const FlagRule kServeFlags[] = {
    {"--socket", "socket", FlagRule::Text},
    {"--workers", "workers", FlagRule::Number, {}, 1, 64},
    {"--queue", "queue", FlagRule::Number, {}, 1, 1e6},
    {"--profiles", "profiles", FlagRule::Number, {}, 1, 1e4},
    {"--deadline-ms", "deadline_ms", FlagRule::Number, {}, 0, 1e9},
    {"--failpoints", "failpoints", FlagRule::Fixed, true},
    {"--stats-interval-ms", "stats_interval_ms", FlagRule::Number, {}, 0,
     1e9},
};

int
cmdServe(int argc, char **argv)
{
    const json::Value f(mapFlags(argc, argv, kServeFlags));
    serve::ServerOptions sopts;
    sopts.socketPath = f.stringOr("socket", "");
    sopts.workers =
        static_cast<unsigned>(f.numberOr("workers", sopts.workers));
    sopts.maxQueue = static_cast<size_t>(f.numberOr("queue", sopts.maxQueue));
    sopts.maxProfiles =
        static_cast<size_t>(f.numberOr("profiles", sopts.maxProfiles));
    sopts.defaultDeadlineMs =
        f.numberOr("deadline_ms", sopts.defaultDeadlineMs);
    sopts.allowFailpoints = f.boolOr("failpoints", sopts.allowFailpoints);
    sopts.statsIntervalMs =
        f.numberOr("stats_interval_ms", sopts.statsIntervalMs);
    if (sopts.socketPath.empty())
        return usage("serve");

    serve::Server server(sopts);
    throwIfError(server.start());
    std::printf("serving on %s (%u workers, queue %zu, LRU %zu%s)\n",
                sopts.socketPath.c_str(), sopts.workers, sopts.maxQueue,
                sopts.maxProfiles,
                sopts.allowFailpoints ? ", failpoints ENABLED" : "");
    std::fflush(stdout);

    std::signal(SIGINT, onServeSignal);
    std::signal(SIGTERM, onServeSignal);
    while (!gServeStop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::printf("shutting down\n");
    server.stop();
    serve::ServerStats st = server.stats();
    std::printf("served %llu requests (%llu shed, %llu errors, "
                "%llu degraded)\n",
                static_cast<unsigned long long>(st.served),
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.errors),
                static_cast<unsigned long long>(st.degraded));
    return 0;
}

int
runCommand(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return cmdHelp(argc - 2, argv + 2);
    if (wantsHelp(argc - 2, argv + 2)) {
        // `mipp_cli <cmd> [sub] --help` → the same text as `help <cmd>`.
        return cmdHelp(argc - 1, argv + 1);
    }
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "profile")
            return cmdProfile(argc - 2, argv + 2);
        if (cmd == "evaluate")
            return cmdEvaluate(argc - 2, argv + 2);
        if (cmd == "sweep")
            return cmdSweep(argc - 2, argv + 2);
        if (cmd == "trace")
            return cmdTrace(argc - 2, argv + 2);
        if (cmd == "report")
            return cmdReport(argc - 2, argv + 2);
        if (cmd == "serve")
            return cmdServe(argc - 2, argv + 2);
    } catch (const StatusError &e) {
        // Structured, input-shaped failure: print the code and use a
        // distinct exit status so scripts can tell "your input" (2)
        // from "our bug" (1).
        std::fprintf(stderr, "error [%.*s]: %s\n",
                     static_cast<int>(statusCodeName(e.code()).size()),
                     statusCodeName(e.code()).data(),
                     e.status().message().c_str());
        return e.code() == StatusCode::Internal ? 1 : 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    // `--trace-json FILE` is global: strip it before command dispatch,
    // record the whole run, flush on exit (any command, any exit path
    // short of a crash — including serve's SIGINT shutdown).
    std::string traceJsonPath;
    std::vector<char *> args(argv, argv + argc);
    for (size_t i = 1; i < args.size();) {
        if (!std::strcmp(args[i], "--trace-json")) {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "--trace-json requires a file\n");
                return 2;
            }
            traceJsonPath = args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
        } else {
            ++i;
        }
    }

    std::unique_ptr<obs::SpanRecorder> recorder;
    if (!traceJsonPath.empty()) {
        recorder = std::make_unique<obs::SpanRecorder>();
        recorder->install();
    }

    int rc = runCommand(static_cast<int>(args.size()), args.data());

    if (recorder) {
        obs::SpanRecorder::uninstall();
        std::ofstream os(traceJsonPath);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         traceJsonPath.c_str());
            return rc ? rc : 1;
        }
        recorder->writeChromeTrace(os);
        std::fprintf(stderr,
                     "trace written to %s (%zu spans, %llu dropped)\n",
                     traceJsonPath.c_str(), recorder->snapshot().size(),
                     static_cast<unsigned long long>(
                         recorder->dropped()));
    }
    return rc;
}
