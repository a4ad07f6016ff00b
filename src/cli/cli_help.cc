#include "cli/cli_help.hh"

namespace mipp::cli {

namespace {

// The one table. Keep names in dispatch order; docs/ renders from the
// same entries (see docs/capture-tutorial.md and docs/architecture.md).
const std::vector<CommandHelp> kCommands = {
    {
        "profile",
        "profile <workload>|--trace FILE.mtf <out.profile> [uops]\n"
        "[--name NAME] [--threads N] [--segment-uops M]",
        "profile a suite workload or a recorded .mtf trace",
        "Run the micro-architecture independent profiler once and write\n"
        "the profile file the modeling commands consume.\n"
        "  <workload>        a workloadSuite() name (see `mipp_cli list`)\n"
        "  --trace FILE.mtf  profile a recorded binary micro-op trace\n"
        "                    instead (streamed at bounded memory; see\n"
        "                    docs/trace-format.md)\n"
        "  [uops]            trace length for generated workloads\n"
        "                    (default 200000; ignored with --trace)\n"
        "  --name NAME       profile name (default: workload name or\n"
        "                    trace file basename)\n"
        "  --threads N       segment-parallel profiling; bit-identical\n"
        "                    to the sequential pass (0 = all cores)\n"
        "  --segment-uops M  override the window-aligned segment size",
    },
    {
        "evaluate",
        "evaluate <in.profile> [--width N] [--rob N] [--l1d KB]\n"
        "[--l2 KB] [--l3 MB] [--freq GHZ] [--prefetcher]",
        "evaluate the analytical model for one design point",
        "Evaluate CPI stack, power and runtime for a single core\n"
        "configuration against a saved profile. Flags override the\n"
        "Nehalem-like reference configuration.",
    },
    {
        "sweep",
        "sweep <in.profile> [--mode model|pareto|paired] [--streaming]\n"
        "[--threads N] [--validate N] [--full] [--uops N]",
        "sweep the design space, print the Pareto frontier",
        "Sweep the design space against a saved profile.\n"
        "  --mode model   analytical model only (default)\n"
        "  --mode pareto  simulate the model-predicted front plus\n"
        "                 --validate N off-front samples\n"
        "  --mode paired  simulate every point (ground truth)\n"
        "  --streaming    streaming sweep, O(front) memory\n"
        "  --full         243-point space instead of the 27-point one\n"
        "Simulation modes regenerate the suite workload named in the\n"
        "profile; profiles recorded from .mtf traces support model-only\n"
        "modes.",
    },
    {
        "trace record",
        "trace record <workload> <out.mtf> [uops]",
        "record a synthetic suite workload as a .mtf trace",
        "Generate a workloadSuite() workload and write it as a binary\n"
        "micro-op trace (docs/trace-format.md). Profiling the recorded\n"
        "file is bit-identical to profiling the generated trace\n"
        "in-memory — the round-trip parity tests/test_mtf.cc pins.",
    },
    {
        "trace convert",
        "trace convert <in.mtxt> <out.mtf>",
        "convert a micro-op text dump (.mtxt) to .mtf",
        "Convert the documented DynamoRIO/Intel-PT-style text dump\n"
        "format (one uop per line; docs/trace-format.md §text dump) to\n"
        "the compact binary format. Streams both sides, so arbitrarily\n"
        "long dumps convert at O(line) memory.",
    },
    {
        "trace dump",
        "trace dump <in.mtf> [out.mtxt]",
        "dump a .mtf trace back to text (inverse of convert)",
        "Write the exact .mtxt text form of a binary trace to the given\n"
        "file or stdout. `dump | convert` reproduces a byte-identical\n"
        ".mtf file.",
    },
    {
        "trace info",
        "trace info <in.mtf>",
        "validate a .mtf file and print its header facts",
        "Open (and therefore fully validate: magic, version, checksum,\n"
        "bounds, every record) a .mtf file and print version, uop\n"
        "count, file bytes and encoded bytes/uop.",
    },
    {
        "report accuracy",
        "report accuracy [--grid ci|default|wide] [--uops N]\n"
        "[--threads N] [--full] [--no-phased] [--workload NAME]...\n"
        "[--trace FILE.mtf]... [--json FILE] [--baseline FILE]\n"
        "[--margin PCT]",
        "model-vs-simulator accuracy harness over the suite",
        "Run every suite (and phased) workload through both the\n"
        "cycle-level simulator and the analytical model over a design\n"
        "grid; report per-component MAPE and enforce internal\n"
        "consistency. --trace adds recorded .mtf traces as extra\n"
        "validation workloads. --baseline gates against a golden JSON\n"
        "report (exit 1 beyond --margin percentage points, default 2).",
    },
    {
        "report calibrate",
        "report calibrate [--grid ci|default|wide] [--uops N]\n"
        "[--threads N] [--no-phased] [--no-branch-fit]\n"
        "[--rounds N] [--workload NAME]... [--trace FILE.mtf]...\n"
        "[--check-grid NAME]... [--json FILE]",
        "refit the model's calibration against the simulator",
        "Refit the piecewise branch-entropy miss-rate fits and the six\n"
        "mechanism coefficients by coordinate descent against simulator\n"
        "ground truth; print before/after per-component MAPEs. --trace\n"
        "adds recorded .mtf traces to the fitting set; --check-grid\n"
        "cross-checks fitted coefficients on another grid without\n"
        "refitting.",
    },
    {
        "report metrics",
        "report metrics --socket PATH [--prometheus] [--out FILE]",
        "fetch the metrics registry from a running daemon",
        "Scrape a running `mipp_cli serve` daemon's metrics op as JSON\n"
        "(default) or Prometheus text exposition, to stdout or --out.",
    },
    {
        "serve",
        "serve --socket PATH [--workers N] [--queue N] [--profiles N]\n"
        "[--deadline-ms D] [--failpoints] [--stats-interval-ms D]",
        "run the persistent DSE daemon (JSON-lines over a Unix socket)",
        "Serve profile/evaluate/sweep/accuracy requests until\n"
        "SIGINT/SIGTERM, with a bounded request queue (load shedding), a\n"
        "profile LRU holding warm evaluation state, per-request\n"
        "deadlines with degraded partial results, and disconnect\n"
        "cancellation. The `profile` op also accepts a server-side\n"
        "\"trace\" path to profile an uploaded/recorded .mtf file. See\n"
        "docs/serving.md for the wire protocol.",
    },
    {
        "list",
        "list",
        "list the available suite workloads",
        "Print the workloadSuite() names accepted by profile, trace\n"
        "record and the serve profile op.",
    },
    {
        "help",
        "help [command]",
        "show this overview, or detailed help for one command",
        "Without an argument, print the overview of every subcommand.\n"
        "With one, print that command's full flag-by-flag help; group\n"
        "names (`trace`, `report`) list every member. Every subcommand\n"
        "also accepts --help/-h directly.",
    },
};

} // namespace

const std::vector<CommandHelp> &
commandTable()
{
    return kCommands;
}

std::string
overviewHelp()
{
    std::string out = "usage: mipp_cli <command> [args]\n\ncommands:\n";
    for (const CommandHelp &c : kCommands) {
        out += "  ";
        out += c.name;
        out.append(c.name.size() < 18 ? 18 - c.name.size() : 1, ' ');
        out += c.summary;
        out += '\n';
    }
    out += "\nany command also accepts --trace-json FILE (Chrome trace "
           "of the run)\nand --help; `mipp_cli help <command>` prints "
           "full flag descriptions.\n";
    return out;
}

std::string
detailedHelp(std::string_view command)
{
    std::string out;
    for (const CommandHelp &c : kCommands) {
        // Exact match, or group prefix ("trace" → every "trace *").
        bool match = c.name == command ||
                     (c.name.size() > command.size() &&
                      c.name.substr(0, command.size()) == command &&
                      c.name[command.size()] == ' ');
        if (!match)
            continue;
        if (!out.empty())
            out += '\n';
        out += "usage: mipp_cli ";
        // Indent continuation lines of the synopsis consistently.
        for (char ch : c.synopsis) {
            out += ch;
            if (ch == '\n')
                out += "       ";
        }
        out += "\n\n";
        out += c.details;
        out += '\n';
    }
    return out;
}

} // namespace mipp::cli
