/**
 * perfbench — the repository's pipeline benchmark.
 *
 *   perfbench --workload ingest|explore|serve|validate --seed N
 *             --seconds S --trace 0|1 [--inject-bad K]
 *
 * Prints one JSON result line on stdout:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * With --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * per-layer set of the layers the workload runs. perfbench/run.py builds
 * this binary, completes the per-layer set and adds the host fingerprint.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "ingest|explore|serve|validate --seed N --seconds S "
                 "--trace 0|1 [--inject-bad K]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strtol(v, &end, 10) != 0;
        } else if (k == "--inject-bad") {
            a.injectBad = static_cast<unsigned>(std::strtoul(v, &end, 10));
        } else {
            usage(("unknown argument " + k).c_str());
        }
        if (end && *end)
            usage(("bad value for " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

void
printResult(const Checks &checks, const Metrics &m)
{
    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : m.items()) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.12g", vu.first);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               vu.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Checks checks(args.injectBad);
    Metrics m;
    try {
        if (args.workload == "ingest")
            runIngest(args, checks, m);
        else if (args.workload == "explore")
            runExplore(args, checks, m);
        else if (args.workload == "serve")
            runServe(args, checks, m);
        else if (args.workload == "validate")
            runValidate(args, checks, m);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    printResult(checks, m);
    return 0;
}
