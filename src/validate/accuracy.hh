/**
 * @file
 * Suite-wide accuracy-validation harness.
 *
 * The paper's headline number is how closely the analytical interval
 * model tracks cycle-level simulation; this module measures it, for every
 * workload in the standard suite (plus the phased workloads), across a
 * configurable grid of design points. For each (workload, config) pair it
 * runs both sides, compares total CPI, every CPI-stack component, the
 * per-level load miss ratios and total power, and aggregates suite-wide
 * MAPE / signed-bias summaries per metric.
 *
 * The harness also enforces the *internal consistency* invariants both
 * sides promise, so accounting bugs are caught by construction instead of
 * by eye:
 *
 *  - `CpiStack::total()` equals the reported cycles (within a small
 *    tolerance) on BOTH the simulated and the modeled side;
 *  - the simulator's per-level access counts chain: every L1 miss is an
 *    L2 access, every L2 miss an L3 access, every L3 miss (plus every
 *    issued prefetch) a DRAM access, and misses never exceed accesses;
 *  - cold + capacity miss classifications add up to the DRAM-level
 *    demand misses;
 *  - the activity counts handed to the power model mirror the memory
 *    statistics / model miss counts they are derived from (a drift
 *    guard: today both sides copy these verbatim, so this only fires
 *    if the derivation and the statistics diverge in the future — the
 *    chaining invariants above are what catch miscounted traffic).
 *
 * Error conventions (all percentages):
 *  - total CPI and power: signed relative error, 100*(model-sim)/sim;
 *  - CPI-stack components: signed contribution error normalized by the
 *    *total* simulated CPI, 100*(modelComp-simComp)/simCpi — components
 *    can be legitimately zero, so relative-per-component error would
 *    divide by zero while this stays comparable across components;
 *  - load miss ratios: signed difference in percentage points,
 *    100*(modelRatio-simRatio).
 *
 * The report serializes to JSON; a checked-in golden
 * (ACCURACY_baseline.json) plus compareToBaseline() turn it into a CI
 * regression gate: the gate fails when any metric's suite MAPE exceeds
 * the golden MAPE by more than a margin.
 */

#ifndef MIPP_VALIDATE_ACCURACY_HH
#define MIPP_VALIDATE_ACCURACY_HH

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "model/interval_model.hh"
#include "sim/ooo_core.hh"
#include "uarch/core_config.hh"
#include "uarch/cpi_stack.hh"
#include "util/cancel.hh"

namespace mipp {

/** Metrics the accuracy report tracks, one error column each. */
enum class AccuracyMetric : uint8_t {
    Cpi,     ///< total CPI (relative %)
    Base,    ///< stack component (% of sim CPI)
    Branch,
    Icache,
    L2Hit,
    LlcHit,
    Dram,
    MrL1,    ///< load miss ratio at L1D size (percentage points)
    MrL2,
    MrL3,
    Power,   ///< total watts (relative %)
    NumMetrics,
};

constexpr size_t kNumAccuracyMetrics =
    static_cast<size_t>(AccuracyMetric::NumMetrics);

/** Stable metric names used in reports, JSON and the golden baseline. */
std::string_view accuracyMetricName(AccuracyMetric m);

/** Harness configuration. */
struct AccuracyOptions {
    /** Design points to evaluate; empty = accuracyGrid("default"). */
    std::vector<CoreConfig> grid;
    /** Trace length per suite workload (phased segments are scaled to
     *  uops/2 each so phased traces stay comparable). */
    size_t uops = 200000;
    /** Include the phased workloads (phasedSuite()). */
    bool includePhased = true;
    /** Restrict to these suite/phased names; empty = everything. */
    std::vector<std::string> workloads;
    /** Recorded `.mtf` trace files to validate as extra workloads
     *  (materialized whole: the simulator side needs the instruction
     *  stream). Named by file basename; not subject to the filter. */
    std::vector<std::string> traceFiles;
    ModelOptions mopts;
    /** Sweep concurrency: 0 = shared pool, 1 = serial in the caller. */
    unsigned threads = 0;
    /**
     * Cooperative deadline/cancellation, checked per (workload, config)
     * pair. On expiry the harness keeps every finished comparison,
     * drops the rest and returns a report flagged degraded; summaries
     * aggregate the evaluated subset only.
     */
    CancelToken cancel;
};

/** One (workload, config) comparison. */
struct PointAccuracy {
    std::string workload;
    std::string config;
    double simCpi = 0, modelCpi = 0;
    double simWatts = 0, modelWatts = 0;
    CpiStack simStack;    ///< per-uop (CPI contributions)
    CpiStack modelStack;  ///< per-uop
    std::array<double, 3> simMr{};    ///< load miss ratio at L1/L2/L3
    std::array<double, 3> modelMr{};
    /** Signed error per metric (see file comment for conventions). */
    std::array<double, kNumAccuracyMetrics> err{};
};

/** Suite-level aggregate of one metric's error column. */
struct MetricSummary {
    double mape = 0;        ///< mean |error|
    double meanSigned = 0;  ///< bias
    double maxAbs = 0;      ///< worst point
    double minSigned = 0;   ///< most-negative point (under-prediction)
    double maxSigned = 0;   ///< most-positive point (over-prediction)
};

/** Everything one harness run produces. */
struct AccuracyReport {
    std::vector<PointAccuracy> points;
    std::array<MetricSummary, kNumAccuracyMetrics> summary;
    /** Internal-consistency invariant failures ("workload/config: why").
     *  A non-empty list means one side's accounting is broken and the
     *  error numbers cannot be trusted. */
    std::vector<std::string> violations;
    size_t uops = 0;
    std::vector<std::string> gridNames;
    std::vector<std::string> workloadNames;
    /** True when AccuracyOptions::cancel fired: points holds only the
     *  comparisons that finished (compacted — the wi*nc grid indexing
     *  does not apply to a degraded report). */
    bool degraded = false;

    bool consistent() const { return violations.empty(); }
    const MetricSummary &
    of(AccuracyMetric m) const
    {
        return summary[static_cast<size_t>(m)];
    }
};

/**
 * Named design-point grids:
 *  - "ci":      2 points (reference + a small machine) — the reduced CI
 *               grid the golden baseline is recorded on;
 *  - "default": 5 points spanning the design space's corners plus the
 *               reference with the prefetcher enabled;
 *  - "wide":    the 27-point DesignSpace::small() subspace.
 */
std::vector<CoreConfig> accuracyGrid(const std::string &preset);

/** Run the harness: profile once per workload, then simulate + model
 *  every (workload, grid point) pair and aggregate. */
AccuracyReport runAccuracy(const AccuracyOptions &opts = {});

/**
 * Shared harness plumbing (used by runAccuracy and the calibration
 * harness in validate/calibrate.hh):
 *
 * buildAccuracySuite generates the suite (+ phased) traces at @p uops,
 * honoring a name filter, then appends each @p traceFiles `.mtf` as an
 * extra workload named by its basename; throws
 * StatusError(InvalidArgument) for filter entries matching nothing and
 * rethrows the structured Status of an unreadable/corrupt trace file.
 * scoreAccuracyPoint fills one PointAccuracy
 * (errors included) from a finished sim/model pair. summarizeAccuracy
 * aggregates the per-point error columns into per-metric summaries.
 */
void buildAccuracySuite(size_t uops, bool includePhased,
                        const std::vector<std::string> &filter,
                        std::vector<std::string> &names,
                        std::vector<Trace> &traces,
                        const std::vector<std::string> &traceFiles = {});
PointAccuracy scoreAccuracyPoint(const SimResult &sim,
                                 const ModelResult &mod,
                                 const CoreConfig &cfg,
                                 const Profile &profile,
                                 const std::string &workload);
std::array<MetricSummary, kNumAccuracyMetrics>
summarizeAccuracy(const std::vector<PointAccuracy> &points);

/**
 * Internal-consistency checks, one list entry per violated invariant
 * (empty = consistent). Exposed for direct unit testing and for callers
 * validating results produced outside the harness.
 */
std::vector<std::string> checkSimConsistency(const SimResult &sim,
                                             double stackTolerance);
std::vector<std::string> checkModelConsistency(const ModelResult &m,
                                               double stackTolerance);

/** Serialize a report to JSON (machine-readable, stable key names). */
std::string accuracyJson(const AccuracyReport &r);

/**
 * The members of a report's summary object: one `"metric": {...}` line
 * per metric, each prefixed by @p indent, comma-separated. Shared by
 * accuracyJson and calibrationJson.
 */
void writeMetricSummaries(
    std::ostream &os,
    const std::array<MetricSummary, kNumAccuracyMetrics> &summary,
    const char *indent);

/** Write accuracyJson(r) to @p path. @return success. */
bool writeAccuracyJson(const AccuracyReport &r, const std::string &path);

/**
 * Regression gate: compare a fresh report's suite MAPEs against a golden
 * baseline. @return one entry per regressed metric (fresh MAPE exceeds
 * golden MAPE + @p marginPct percentage points); empty = pass. Reports
 * store their MAPEs exactly, so a report passes against itself at
 * margin 0. When the golden records its provenance (uops, grid,
 * workloads), a mismatching report fails the gate outright — MAPEs from
 * different grids are not comparable. A golden metric without a
 * numeric "mape" is not gated. Throws std::runtime_error on an
 * unreadable or malformed baseline, or one with no metric MAPEs.
 */
std::vector<std::string> compareToBaseline(const AccuracyReport &r,
                                           const std::string &baselinePath,
                                           double marginPct = 2.0);

} // namespace mipp

#endif // MIPP_VALIDATE_ACCURACY_HH
