/**
 * @file
 * Cycle-level out-of-order core model — the reference simulator.
 *
 * This is the framework's stand-in for Sniper: a trace-driven, cycle-level
 * superscalar out-of-order core with the first-order mechanisms the interval
 * model abstracts (thesis §2.1): a front-end pipeline with branch predictor
 * and I-cache, dispatch into ROB/IQ/LSQ, per-port issue with pipelined and
 * non-pipelined functional units, a load/store unit in front of the cache
 * hierarchy with L1D MSHRs, and in-order commit. It produces CPI stacks,
 * measured MLP, per-window CPI traces and activity factors.
 *
 * Being trace-driven, wrong-path instructions are not executed; a branch
 * misprediction instead stops instruction delivery until the branch resolves
 * plus the front-end refill time — the same first-order penalty real
 * machines pay (thesis Fig 2.4).
 *
 * Scheduling is event-driven but cycle-exact. Each ROB entry counts its
 * sources whose producer has not completed and sits on those producers'
 * consumer lists; a completion (popped from a min-heap of done cycles)
 * wakes its consumers, and issue walks a ready bitmap oldest first, the
 * order a full ROB scan would visit. A cycle in which no stage acts —
 * nothing completes, commits, issues, dispatches or is fetched, and the
 * fetch-stall reason holds — would repeat unchanged until the next
 * event: a completion, an outstanding miss's data, the end of a fetch
 * stall, the front-end buffer's head reaching dispatch, or a
 * non-pipelined unit freeing up. The core jumps straight there and
 * charges the skipped cycles to the CPI component, DRAM-cycle count and
 * MLP sum the idle cycle was charged to, so every SimResult equals the
 * cycle-by-cycle one. The jump stops where the deadlock check fires. The
 * memory hierarchy needs no ticking: it advances only inside access().
 */

#ifndef MIPP_SIM_OOO_CORE_HH
#define MIPP_SIM_OOO_CORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/memory_hierarchy.hh"
#include "trace/trace.hh"
#include "uarch/activity.hh"
#include "uarch/core_config.hh"
#include "uarch/cpi_stack.hh"

namespace mipp {

/** Idealization switches used by model-validation experiments. */
struct SimOptions {
    bool perfectBranch = false;  ///< no mispredictions
    bool perfectICache = false;  ///< no instruction-fetch misses
    bool perfectDCache = false;  ///< every load hits L1D
    /** Committed-uop window for the per-window CPI series (phase plots). */
    size_t cpiWindowUops = 20000;
};

/** Everything one simulation produces. */
struct SimResult {
    uint64_t cycles = 0;
    uint64_t uops = 0;
    uint64_t instructions = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;

    CpiStack stack;          ///< cycles per component (sums to ~cycles)
    MemoryStats mem;
    ActivityCounts activity;

    /** Average outstanding DRAM loads over cycles with >= 1 outstanding. */
    double avgMlp = 1.0;
    /** Cycles with at least one outstanding DRAM load. */
    uint64_t dramCycles = 0;

    std::vector<double> windowCpi;  ///< uop-CPI per committed-uop window

    double cpiPerUop() const
    {
        return uops ? static_cast<double>(cycles) / uops : 0.0;
    }
    double cpiPerInst() const
    {
        return instructions ?
            static_cast<double>(cycles) / instructions : 0.0;
    }
    double ipc() const
    {
        return cycles ? static_cast<double>(uops) / cycles : 0.0;
    }
};

/** Run @p trace through a cycle-level core described by @p cfg. */
SimResult simulate(const Trace &trace, const CoreConfig &cfg,
                   const SimOptions &opts = {});

} // namespace mipp

#endif // MIPP_SIM_OOO_CORE_HH
