/**
 * @file
 * Shared command-line flags for the sweep-driving example programs
 * (design_space_exploration and mipp_cli's `sweep` subcommand):
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

#ifndef MIPP_EXAMPLES_SWEEP_FLAGS_HH
#define MIPP_EXAMPLES_SWEEP_FLAGS_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dse/explorer.hh"

namespace mipp::examples {

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
            // Missing value: report instead of silently parsing as 0.
            auto next = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s requires a value\n",
                                 argv[i]);
                    return nullptr;
                }
                return argv[++i];
            };
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
                    std::fprintf(
                        stderr,
                        "unknown --mode %s (model|pareto|paired)\n",
                        m.c_str());
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

} // namespace mipp::examples

#endif // MIPP_EXAMPLES_SWEEP_FLAGS_HH
