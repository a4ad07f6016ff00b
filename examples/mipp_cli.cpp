/**
 * @file
 * mipp_cli — command-line front end mirroring the paper's released
 * AIP (profiler) + PMT (modeling tool) pair:
 *
 *   mipp_cli profile <workload> <out.profile> [uops]
 *                    [--threads N] [--segment-uops M]
 *       Generate the named suite workload and profile it once.
 *       --threads > 1 profiles window-aligned segments in parallel
 *       (bit-identical result); --segment-uops overrides the split.
 *
 *   mipp_cli evaluate <in.profile> [--width N] [--rob N] [--l1d KB]
 *                     [--l2 KB] [--l3 MB] [--freq GHZ] [--prefetcher]
 *       Evaluate the analytical model for one design point.
 *
 *   mipp_cli sweep <in.profile> [--mode model|pareto|paired]
 *                  [--threads N] [--validate N] [--full] [--uops N]
 *       Sweep the design space and print the Pareto frontier.
 *       `model` (default) evaluates the analytical model only;
 *       `pareto` additionally simulates the model-predicted front plus a
 *       validation sample (the paper's prune-then-validate workflow);
 *       `paired` simulates every point. Simulation modes regenerate the
 *       suite workload named in the profile. `--full` uses the 243-point
 *       space instead of the 27-point subspace.
 *
 *   mipp_cli report accuracy [--grid ci|default|wide] [--uops N]
 *                  [--threads N] [--full] [--no-phased] [--workload NAME]...
 *                  [--json out.json] [--baseline golden.json] [--margin P]
 *       Run the suite-wide accuracy-validation harness: every suite (and
 *       phased) workload through both the cycle-level simulator and the
 *       analytical model over a design-point grid, with per-CPI-component
 *       error reporting and internal-consistency invariants enforced on
 *       both sides. `--json` writes the machine-readable report;
 *       `--baseline` gates against a golden report's MAPEs (exit 1 on
 *       regression beyond `--margin` percentage points, default 2).
 *
 *   mipp_cli serve --socket PATH [--workers N] [--queue N]
 *                  [--profiles N] [--deadline-ms D] [--failpoints]
 *                  [--stats-interval-ms D]
 *       Run the persistent DSE daemon on a Unix-domain socket speaking
 *       the JSON-lines protocol (see src/serve/server.hh and the README
 *       "Serving & fault tolerance" section). Runs until SIGINT/SIGTERM.
 *       `--stats-interval-ms` logs a periodic stats line to stderr.
 *
 *   mipp_cli report metrics --socket PATH [--prometheus] [--out FILE]
 *       Fetch the full metrics registry from a running daemon (the
 *       `metrics` op) as JSON or Prometheus text exposition.
 *
 *   mipp_cli list
 *       List the available suite workloads.
 *
 * Any command accepts `--trace-json FILE`: a SpanRecorder is installed
 * for the whole run and the collected spans are written as Chrome
 * trace-event JSON on exit (including the SIGINT path of `serve`).
 * Load the file at chrome://tracing or https://ui.perfetto.dev.
 *
 * Errors are structured: input-shaped failures (bad profile bytes,
 * unknown workload, empty design space) print their Status code and
 * exit 2; anything else exits 1.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include <vector>

#include "cli/cli_help.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "model/interval_model.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "serve/server.hh"
#include "trace/mtf.hh"
#include "trace/mtf_text.hh"
#include "util/failpoint.hh"
#include "util/json.hh"
#include "util/status.hh"
#include "uarch/design_space.hh"
#include "validate/accuracy.hh"
#include "validate/calibrate.hh"
#include "workloads/workload.hh"

namespace {

using namespace mipp;

/**
 * The value of flag argv[i], advancing @p i past it; nullptr after
 * reporting a missing value, instead of silently parsing it as 0.
 */
const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", argv[i]);
        return nullptr;
    }
    return argv[++i];
}

/**
 * The sweep flags shared by `sweep`, `report accuracy` and `report
 * calibrate`:
 *
 *   --mode model|pareto|paired   SweepMode selection
 *   --streaming                  streaming sweep (ModelOnlyPareto:
 *                                O(front) memory, no point grid)
 *   --threads N                  sweep concurrency (0 = all cores)
 *   --validate N                 off-front validation simulations per
 *                                workload (ModelThenSimPareto)
 *   --full                       243-point space instead of the 27-point
 *                                subspace
 *   --uops N                     trace length (caller-defined default)
 */
struct SweepFlags {
    SweepOptions sopts{SweepMode::ModelOnly, 0, 2};
    bool full = false;
    size_t uops = 0;  ///< caller sets the default before parse()

    /**
     * Parse @p argv[0..argc); on an unknown flag, print a usage line
     * prefixed with @p prog and return false.
     */
    bool
    parse(int argc, char **argv, const char *prog)
    {
        for (int i = 0; i < argc; ++i) {
            auto next = [&] { return flagValue(argc, argv, i); };
            const char *v = nullptr;
            if (!std::strcmp(argv[i], "--mode")) {
                if (!(v = next()))
                    return false;
                std::string m = v;
                if (m == "model")
                    sopts.mode = SweepMode::ModelOnly;
                else if (m == "pareto")
                    sopts.mode = SweepMode::ModelThenSimPareto;
                else if (m == "paired")
                    sopts.mode = SweepMode::Paired;
                else {
                    std::fprintf(stderr, "unknown --mode %s "
                                 "(model|pareto|paired)\n", v);
                    return false;
                }
            } else if (!std::strcmp(argv[i], "--streaming")) {
                sopts.mode = SweepMode::ModelOnlyPareto;
            } else if (!std::strcmp(argv[i], "--threads")) {
                if (!(v = next()))
                    return false;
                sopts.threads = static_cast<unsigned>(std::atoi(v));
            } else if (!std::strcmp(argv[i], "--validate")) {
                if (!(v = next()))
                    return false;
                sopts.validationSamples =
                    static_cast<size_t>(std::atoll(v));
            } else if (!std::strcmp(argv[i], "--full")) {
                full = true;
            } else if (!std::strcmp(argv[i], "--uops")) {
                if (!(v = next()))
                    return false;
                uops = std::strtoull(v, nullptr, 10);
            } else {
                std::fprintf(stderr,
                             "usage: %s [--mode model|pareto|paired] "
                             "[--streaming] [--threads N] [--validate N] "
                             "[--full] [--uops N]\n",
                             prog);
                return false;
            }
        }
        return true;
    }
};

int
usage()
{
    // Rendered from the one help table (src/cli/cli_help.{hh,cc}) so
    // the CLI, `help`, `--help` and docs/ cannot diverge.
    std::fputs(cli::overviewHelp().c_str(), stderr);
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
    for (int i = 0; i < argc; ++i)
        if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h"))
            return true;
    return false;
}

int
cmdList()
{
    for (const auto &s : workloadSuite())
        std::printf("%s\n", s.name.c_str());
    return 0;
}

/** "path/to/stream_add.mtf" → "stream_add" (default profile name). */
std::string
traceBaseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base.resize(dot);
    return base.empty() ? "trace" : base;
}

/** @p text as a number; StatusError(InvalidArgument) naming @p what
 *  when it is missing (null) or not a number. */
double
numberArg(const char *what, const char *text)
{
    char *end = nullptr;
    double v = text ? std::strtod(text, &end) : 0;
    if (!end || end == text || *end)
        throw StatusError(
            invalidArgument(std::string(what) + " expects a number"));
    return v;
}

int
cmdProfile(int argc, char **argv)
{
    // The counts become serve's `profile` members, so the CLI and the
    // daemon check them against one range table. Both default to one
    // thread: fully reproducible timing, and small workloads gain
    // nothing.
    json::Object knobs;
    std::string tracePath, name, outPath;
    std::vector<std::string> positional;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            knobs["threads"] = numberArg("--threads", argv[++i]);
        } else if (!std::strcmp(argv[i], "--segment-uops") &&
                   i + 1 < argc) {
            knobs["segment_uops"] = numberArg("--segment-uops", argv[++i]);
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            tracePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--name") && i + 1 < argc) {
            name = argv[++i];
        } else if (argv[i][0] != '-') {
            positional.push_back(argv[i]);
        } else {
            std::fprintf(stderr, "unknown profile option %s\n", argv[i]);
            return usage();
        }
    }

    // With --trace the positionals are <out> [uops-ignored]; otherwise
    // <workload> <out> [uops].
    size_t need = tracePath.empty() ? 2 : 1;
    if (positional.size() < need)
        return usage();
    if (positional.size() > need)
        knobs["uops"] = numberArg("uops", positional[need].c_str());
    size_t uops = 0;
    ParallelProfileOptions popts;
    throwIfError(serve::parseProfileJson(json::Value(std::move(knobs)),
                                         uops, popts));

    Profile p;
    size_t gotUops = 0;
    if (!tracePath.empty()) {
        outPath = positional[0];
        if (name.empty())
            name = traceBaseName(tracePath);
        std::unique_ptr<MtfTraceSource> source;
        throwIfError(MtfTraceSource::open(tracePath, source));
        ProfilerConfig cfg;
        cfg.name = name;
        // Streaming ingestion: O(segment) resident uops; bit-identical
        // across thread counts (the parallel parity suite pins this).
        p = profileSourceParallel(*source, cfg, popts);
        gotUops = static_cast<size_t>(source->info().uopCount);
    } else {
        outPath = positional[1];
        WorkloadSpec spec = suiteWorkload(positional[0]);
        if (name.empty())
            name = spec.name;
        Trace t = generateWorkload(spec, uops);
        // Bit-identical at any --threads; it only changes wall-clock.
        p = profileTraceParallel(t, {.name = name}, popts);
        gotUops = t.size();
    }
    if (!saveProfile(p, outPath)) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("profiled %s (%zu uops) -> %s\n", name.c_str(), gotUops,
                outPath.c_str());
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    std::string sub = argv[0];
    if (sub == "record") {
        if (argc < 3)
            return usage();
        size_t uops = argc >= 4
                          ? std::strtoull(argv[3], nullptr, 10)
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
            return usage();
        uint64_t uops = 0;
        throwIfError(convertTextFileToMtf(argv[1], argv[2], uops));
        std::printf("converted %s (%llu uops) -> %s\n", argv[1],
                    static_cast<unsigned long long>(uops), argv[2]);
        return 0;
    }
    if (sub == "dump") {
        if (argc < 2)
            return usage();
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
            return usage();
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
    return usage();
}

/** Design-point flags become serve's `config` members, so the CLI and
 *  the daemon check them against one range table; a bad value throws
 *  StatusError(InvalidArgument). */
CoreConfig
parseConfig(int argc, char **argv)
{
    static const std::pair<const char *, const char *> kFlags[] = {
        {"--width", "width"}, {"--rob", "rob"},     {"--l1d", "l1d_kb"},
        {"--l2", "l2_kb"},    {"--l3", "l3_mb"},    {"--freq", "freq_ghz"},
    };
    json::Object knobs;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--prefetcher"))
            knobs["prefetcher"] = true;
        for (const auto &[flag, key] : kFlags) {
            if (std::strcmp(argv[i], flag))
                continue;
            knobs[key] = numberArg(flag, i + 1 < argc ? argv[++i] : nullptr);
        }
    }
    CoreConfig cfg;
    throwIfError(serve::parseConfigJson(json::Value(std::move(knobs)), cfg));
    return cfg;
}

int
cmdEvaluate(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    Profile p = loadProfile(argv[0]);
    CoreConfig cfg = parseConfig(argc - 1, argv + 1);

    ModelResult m = evaluateModel(p, cfg);
    PowerBreakdown pw = computePower(m.activity, cfg);
    EnergyMetrics em = energyMetrics(m.cycles, pw, cfg);

    std::printf("profile   %s (%lu uops)\n", p.name.c_str(),
                static_cast<unsigned long>(p.totalUops));
    std::printf("design    width %u, ROB %u, L1D %u KB, L2 %u KB, "
                "L3 %u MB, %.2f GHz\n",
                cfg.dispatchWidth, cfg.robSize,
                cfg.l1d.sizeBytes / 1024, cfg.l2.sizeBytes / 1024,
                cfg.l3.sizeBytes / 1024 / 1024, cfg.freqGHz);
    std::printf("CPI       %.3f   (Deff %.2f limited by %s, MLP %.2f)\n",
                m.cpiPerUop(), m.deff, m.limits.binding(), m.mlp);
    double n = m.uops > 0 ? m.uops : 1; // an empty .mtf profiles 0 uops
    std::printf("stack     base %.3f | branch %.3f | icache %.3f | "
                "LLC %.3f | DRAM %.3f\n",
                m.stack.base / n, m.stack.branch / n, m.stack.icache / n,
                m.stack.llcHit / n, m.stack.dram / n);
    std::printf("power     %.2f W (dynamic %.2f, static %.2f)\n",
                pw.total(), pw.dynamicPower(), pw.staticPower);
    std::printf("runtime   %.3f ms, energy %.3f mJ\n", em.seconds * 1e3,
                em.energy * 1e3);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    Profile p = loadProfile(argv[0]);

    SweepFlags flags; // uops 0 = match the profiled length
    if (!flags.parse(argc - 1, argv + 1, "mipp_cli sweep <profile>"))
        return 2;
    SweepOptions sopts = flags.sopts;
    size_t uops = flags.uops;

    DesignSpace space =
        flags.full ? DesignSpace() : DesignSpace::small();
    std::vector<Profile> profiles{std::move(p)};
    std::vector<Trace> traces;
    if (sopts.mode != SweepMode::ModelOnly &&
        sopts.mode != SweepMode::ModelOnlyPareto) {
        // Simulation needs the instruction stream; regenerate the suite
        // workload the profile was collected from, at the profiled
        // length unless overridden (a length mismatch would skew the
        // model-vs-sim comparison through cold-miss fractions).
        if (uops == 0)
            uops = static_cast<size_t>(profiles[0].totalUops);
        traces.push_back(
            generateWorkload(suiteWorkload(profiles[0].name), uops));
    } else {
        traces.emplace_back();
    }

    SweepResult r = sweepEx(traces, profiles, space.configs(), {}, sopts);

    // Model-front modes (including streaming, which never materializes
    // the point grid) deliver the front directly; Paired computes it
    // here from the full grid.
    std::vector<SweepPoint> front =
        r.frontPoints.empty() ? std::vector<SweepPoint>{}
                              : r.frontPoints[0];
    if (front.empty() && !r.points.empty()) {
        std::vector<Objective> obj;
        for (size_t ci = 0; ci < r.nConfigs; ++ci)
            obj.push_back(
                {r.at(0, ci).modelCpi, r.at(0, ci).modelWatts});
        for (size_t ci : paretoFront(obj))
            front.push_back(r.at(0, ci));
    }
    std::printf("predicted Pareto frontier for %s (%zu of %zu designs, "
                "%zu simulations spent):\n",
                profiles[0].name.c_str(), front.size(), space.size(),
                r.simInvocations);
    for (const SweepPoint &pt : front) {
        std::printf("  %-30s CPI %7.3f  W %6.2f",
                    space[pt.configIdx].name.c_str(), pt.modelCpi,
                    pt.modelWatts);
        if (pt.simulated)
            std::printf("   (sim: %7.3f, err %+.1f%%)", pt.simCpi,
                        100 * pt.cpiError());
        std::printf("\n");
    }
    return 0;
}

int
cmdCalibrate(int argc, char **argv)
{
    CalibrationOptions copts;
    std::string gridName = "ci";
    std::string jsonPath;

    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        auto next = [&] { return flagValue(argc, argv, i); };
        const char *v = nullptr;
        if (!std::strcmp(argv[i], "--grid")) {
            if (!(v = next()))
                return 2;
            gridName = v;
        } else if (!std::strcmp(argv[i], "--json")) {
            if (!(v = next()))
                return 2;
            jsonPath = v;
        } else if (!std::strcmp(argv[i], "--no-phased")) {
            copts.includePhased = false;
        } else if (!std::strcmp(argv[i], "--no-branch-fit")) {
            copts.fitBranch = false;
        } else if (!std::strcmp(argv[i], "--workload")) {
            if (!(v = next()))
                return 2;
            copts.workloads.push_back(v);
        } else if (!std::strcmp(argv[i], "--trace")) {
            if (!(v = next()))
                return 2;
            copts.traceFiles.push_back(v);
        } else if (!std::strcmp(argv[i], "--check-grid")) {
            if (!(v = next()))
                return 2;
            copts.checkGrids.push_back(v);
        } else if (!std::strcmp(argv[i], "--rounds")) {
            if (!(v = next()))
                return 2;
            copts.rounds = std::atoi(v);
            if (copts.rounds <= 0) {
                // atoi's silent 0 on a typo would skip the whole
                // coefficient fit yet still print "fitted" values.
                std::fprintf(stderr,
                             "--rounds requires a positive integer "
                             "(got '%s')\n", v);
                return 2;
            }
        } else {
            rest.push_back(argv[i]);
        }
    }
    SweepFlags flags;
    flags.uops = copts.uops;
    if (!flags.parse(static_cast<int>(rest.size()), rest.data(),
                     "mipp_cli report calibrate"))
        return 2;
    copts.uops = flags.uops;
    copts.threads = flags.sopts.threads;
    copts.grid = accuracyGrid(gridName);

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

int
cmdReportMetrics(int argc, char **argv)
{
    std::string socketPath, outPath;
    std::string format = "json";
    for (int i = 0; i < argc; ++i) {
        auto next = [&] { return flagValue(argc, argv, i); };
        const char *v = nullptr;
        if (!std::strcmp(argv[i], "--socket")) {
            if (!(v = next()))
                return 2;
            socketPath = v;
        } else if (!std::strcmp(argv[i], "--out")) {
            if (!(v = next()))
                return 2;
            outPath = v;
        } else if (!std::strcmp(argv[i], "--prometheus")) {
            format = "prometheus";
        } else {
            std::fprintf(stderr, "unknown report metrics flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (socketPath.empty()) {
        std::fprintf(stderr,
                     "usage: mipp_cli report metrics --socket PATH "
                     "[--prometheus] [--out FILE]\n");
        return 2;
    }

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

int
cmdReport(int argc, char **argv)
{
    if (argc >= 1 && !std::strcmp(argv[0], "calibrate"))
        return cmdCalibrate(argc - 1, argv + 1);
    if (argc >= 1 && !std::strcmp(argv[0], "metrics"))
        return cmdReportMetrics(argc - 1, argv + 1);
    if (argc < 1 || std::strcmp(argv[0], "accuracy") != 0) {
        std::fprintf(stderr,
                     "usage: mipp_cli report accuracy [--grid "
                     "ci|default|wide] [--uops N] [--threads N] [--full] "
                     "[--no-phased] [--workload NAME]... [--json FILE] "
                     "[--baseline FILE] [--margin PCT]\n"
                     "       mipp_cli report calibrate [--grid "
                     "ci|default|wide] [--uops N] [--threads N] "
                     "[--no-phased] [--no-branch-fit] [--rounds N] "
                     "[--workload NAME]... [--json FILE]\n"
                     "       mipp_cli report metrics --socket PATH "
                     "[--prometheus] [--out FILE]\n");
        return 2;
    }

    AccuracyOptions aopts;
    std::string gridName = "default";
    bool gridExplicit = false;
    std::string jsonPath, baselinePath;
    double margin = 2.0;

    // Accuracy-specific flags are consumed here; everything else is
    // handed to the shared SweepFlags parser (--uops/--threads/--full).
    std::vector<char *> rest;
    for (int i = 1; i < argc; ++i) {
        auto next = [&] { return flagValue(argc, argv, i); };
        const char *v = nullptr;
        if (!std::strcmp(argv[i], "--grid")) {
            if (!(v = next()))
                return 2;
            gridName = v;
            gridExplicit = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            if (!(v = next()))
                return 2;
            jsonPath = v;
        } else if (!std::strcmp(argv[i], "--baseline")) {
            if (!(v = next()))
                return 2;
            baselinePath = v;
        } else if (!std::strcmp(argv[i], "--margin")) {
            if (!(v = next()))
                return 2;
            margin = std::atof(v);
        } else if (!std::strcmp(argv[i], "--no-phased")) {
            aopts.includePhased = false;
        } else if (!std::strcmp(argv[i], "--workload")) {
            if (!(v = next()))
                return 2;
            aopts.workloads.push_back(v);
        } else if (!std::strcmp(argv[i], "--trace")) {
            if (!(v = next()))
                return 2;
            aopts.traceFiles.push_back(v);
        } else {
            rest.push_back(argv[i]);
        }
    }
    SweepFlags flags;
    flags.uops = aopts.uops;
    if (!flags.parse(static_cast<int>(rest.size()), rest.data(),
                     "mipp_cli report accuracy"))
        return 2;
    aopts.uops = flags.uops;
    aopts.threads = flags.sopts.threads;
    if (flags.full) {
        if (gridExplicit && gridName != "wide") {
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

std::atomic<bool> gServeStop{false};

void
onServeSignal(int)
{
    gServeStop.store(true);
}

int
cmdServe(int argc, char **argv)
{
    serve::ServerOptions sopts;
    for (int i = 0; i < argc; ++i) {
        auto next = [&] { return flagValue(argc, argv, i); };
        const char *v = nullptr;
        if (!std::strcmp(argv[i], "--socket")) {
            if (!(v = next()))
                return 2;
            sopts.socketPath = v;
        } else if (!std::strcmp(argv[i], "--workers")) {
            if (!(v = next()))
                return 2;
            sopts.workers = static_cast<unsigned>(std::atoi(v));
        } else if (!std::strcmp(argv[i], "--queue")) {
            if (!(v = next()))
                return 2;
            sopts.maxQueue = std::strtoull(v, nullptr, 10);
        } else if (!std::strcmp(argv[i], "--profiles")) {
            if (!(v = next()))
                return 2;
            sopts.maxProfiles = std::strtoull(v, nullptr, 10);
        } else if (!std::strcmp(argv[i], "--deadline-ms")) {
            if (!(v = next()))
                return 2;
            sopts.defaultDeadlineMs = std::atof(v);
        } else if (!std::strcmp(argv[i], "--failpoints")) {
            sopts.allowFailpoints = true;
        } else if (!std::strcmp(argv[i], "--stats-interval-ms")) {
            if (!(v = next()))
                return 2;
            sopts.statsIntervalMs = std::atof(v);
        } else {
            std::fprintf(stderr, "unknown serve flag %s\n", argv[i]);
            return 2;
        }
    }
    if (sopts.socketPath.empty()) {
        std::fprintf(stderr,
                     "usage: mipp_cli serve --socket PATH [--workers N] "
                     "[--queue N] [--profiles N] [--deadline-ms D] "
                     "[--failpoints] [--stats-interval-ms D]\n");
        return 2;
    }

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
