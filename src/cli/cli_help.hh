/**
 * @file
 * Single-source-of-truth help text for every mipp_cli subcommand.
 *
 * The CLI front end (examples/mipp_cli.cpp), its `help` command, every
 * subcommand's `--help`, its usage errors (a missing subcommand,
 * positional or required flag prints that command's detailedHelp), and
 * the command reference in docs/ all render from this one table, so
 * the documented flag surface cannot diverge from the implemented one.
 * tests/test_cli_help.cc golden-tests the rendered output and asserts
 * the table covers the full dispatch set.
 */

#ifndef MIPP_CLI_CLI_HELP_HH
#define MIPP_CLI_CLI_HELP_HH

#include <string>
#include <string_view>
#include <vector>

namespace mipp::cli {

/** Help entry for one subcommand (or subcommand group member). */
struct CommandHelp {
    /** Dispatch name, e.g. "profile" or "trace convert". */
    std::string_view name;
    /** One usage line (without the leading "mipp_cli "). */
    std::string_view synopsis;
    /** Short one-line summary for the overview listing. */
    std::string_view summary;
    /** Full flag-by-flag description for `mipp_cli help <cmd>`. */
    std::string_view details;
};

/** The full command table, in display order. */
const std::vector<CommandHelp> &commandTable();

/** Overview help: usage lines plus one-line summaries (the output of
 *  `mipp_cli help` and of a bad invocation). */
std::string overviewHelp();

/**
 * Detailed help for @p command ("profile", "trace convert", "report
 * accuracy", ...). Group prefixes render every member ("trace" lists
 * all trace subcommands). Empty string when nothing matches.
 */
std::string detailedHelp(std::string_view command);

} // namespace mipp::cli

#endif // MIPP_CLI_CLI_HELP_HH
