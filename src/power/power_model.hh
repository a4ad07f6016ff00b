/**
 * @file
 * Parameterized activity-factor power model — the McPAT substitute
 * (thesis §2.4, §3.6, §4.10).
 *
 * Each processor structure gets a per-event dynamic energy and a static
 * leakage power, both scaled with the structure's configured size and the
 * operating point (Vdd, frequency). Dynamic power is the activity-weighted
 * energy divided by execution time; static power is summed leakage. The
 * same model is driven by activity factors from either the cycle-level
 * simulator or the analytical model, exactly like the paper feeds McPAT
 * from Sniper or from its interval model — so model-vs-simulator power
 * comparisons isolate the activity/timing prediction error, which is the
 * quantity the paper evaluates.
 *
 * Reference constants are calibrated to a 45 nm Nehalem-class core at
 * 1.1 V: total power of a few-to-tens of watts with static power around
 * 40 % of the total (thesis §2.4).
 */

#ifndef MIPP_POWER_POWER_MODEL_HH
#define MIPP_POWER_POWER_MODEL_HH

#include "uarch/activity.hh"
#include "uarch/core_config.hh"

namespace mipp {

/** Per-structure power in watts. */
struct PowerBreakdown {
    // Dynamic components.
    double frontend = 0;  ///< fetch / decode / rename
    double rob = 0;
    double iq = 0;
    double rf = 0;
    double fu = 0;
    double bp = 0;
    double l1i = 0;
    double l1d = 0;
    double l2 = 0;
    double l3 = 0;
    double dram = 0;      ///< off-chip access energy
    // Leakage.
    double staticPower = 0;

    double
    dynamicPower() const
    {
        return frontend + rob + iq + rf + fu + bp + l1i + l1d + l2 + l3 +
               dram;
    }
    double total() const { return dynamicPower() + staticPower; }
    /** Core-side dynamic power (no caches/DRAM), for power stacks. */
    double corePower() const
    {
        return frontend + rob + iq + rf + fu + bp;
    }
    double cachePower() const { return l1i + l1d + l2 + l3; }
};

/**
 * Everything computePower derives from the configuration alone: per-event
 * dynamic energies (nJ at the reference voltage), the Vdd^2 dynamic
 * scale and the summed leakage. Deriving these is std::pow-heavy, so a
 * multi-workload sweep computes them once per design point and reuses them
 * across workloads; computePower(a, cfg) is bitwise identical to
 * computePower(a, cfg, powerParams(cfg)).
 */
struct PowerParams {
    double fetchPerUop = 0;
    double robEvent = 0;
    double iqEvent = 0;
    double rfRead = 0;
    double rfWrite = 0;
    double bpLookup = 0;
    double fuOp[kNumUopTypes] = {};
    double l1Access = 0;
    double l2Access = 0;
    double l3Access = 0;
    double dramAccess = 0;
    /** (Vdd / Vref)^2 dynamic-energy scale. */
    double vScale = 1.0;
    /** Total leakage in watts (capacity sum times the Vdd^3 scale). */
    double staticPower = 0;
};

/** Derive the configuration-only power inputs (see PowerParams). */
PowerParams powerParams(const CoreConfig &cfg);

/** Compute power from activity factors and a configuration. */
PowerBreakdown computePower(const ActivityCounts &activity,
                            const CoreConfig &cfg);

/** Same, with the configuration-derived inputs precomputed. */
PowerBreakdown computePower(const ActivityCounts &activity,
                            const CoreConfig &cfg,
                            const PowerParams &params);

/** Execution time in seconds for @p cycles at the configured frequency. */
double executionSeconds(double cycles, const CoreConfig &cfg);

/** Energy (J), EDP (J.s) and ED2P (J.s^2) for a run. */
struct EnergyMetrics {
    double seconds = 0;
    double energy = 0;
    double edp = 0;
    double ed2p = 0;
};

EnergyMetrics energyMetrics(double cycles, const PowerBreakdown &power,
                            const CoreConfig &cfg);

} // namespace mipp

#endif // MIPP_POWER_POWER_MODEL_HH
