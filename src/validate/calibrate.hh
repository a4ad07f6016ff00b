/**
 * @file
 * Model-recalibration harness: residual decomposition + coefficient
 * fitting against simulator ground truth.
 *
 * The accuracy harness (validate/accuracy.hh) *measures* how far each
 * CPI-stack component of the analytical model is from the cycle-level
 * simulator; this module *closes* the gap reproducibly. It owns the two
 * fitting problems behind the coefficients in model/calibration.hh and
 * the pretrained branch fits in model/branch_model.cc:
 *
 *  1. The piecewise entropy -> miss-rate fit (thesis §3.5 recalibration):
 *     every suite workload is simulated once per predictor organization
 *     at the reference core, and the (profiled entropy, simulated miss
 *     rate) pairs are fit with the hinge least squares of
 *     EntropyFitTrainer::fitPiecewise.
 *
 *  2. The ModelCalibration scalar coefficients: per-(workload, config)
 *     signed component errors are computed over a design-point grid, and
 *     each coefficient is fit by coordinate descent — a bracketed 1-D
 *     least-squares line search on the squared error of the component
 *     the coefficient's mechanism feeds (branch for penaltyScale, base
 *     for baseWindowFrac, DRAM for the window/shadow/bus/cold set),
 *     plus a total-CPI tiebreaker — iterated until the coefficients
 *     stop moving.
 *
 * The result is a CalibrationReport: the fitted coefficients, the
 * per-component error summaries before and after applying them, and the
 * training data of the branch fit. It serializes to JSON
 * (`mipp_cli report calibrate --json`), and the workflow for landing a
 * model change is: rerun the harness, paste the printed coefficients
 * into ModelCalibration::fitted() / BranchMissModel::pretrained(), and
 * regenerate the accuracy golden.
 */

#ifndef MIPP_VALIDATE_CALIBRATE_HH
#define MIPP_VALIDATE_CALIBRATE_HH

#include <string>
#include <vector>

#include "model/calibration.hh"
#include "validate/accuracy.hh"

namespace mipp {

/** Harness configuration. */
struct CalibrationOptions {
    /** Design points for the coefficient fit; empty = accuracyGrid("ci")
     *  (the grid the accuracy golden is recorded on). */
    std::vector<CoreConfig> grid;
    size_t uops = 60000;
    bool includePhased = true;
    std::vector<std::string> workloads;
    /** Recorded `.mtf` traces added to the fitting set (basename-named,
     *  materialized whole — same semantics as AccuracyOptions). */
    std::vector<std::string> traceFiles;
    /** Starting model options; its calibration is the "before" column. */
    ModelOptions mopts;
    unsigned threads = 0;
    /** Refit the per-predictor entropy fits (adds one simulation per
     *  (workload, predictor kind) at the reference core). */
    bool fitBranch = true;
    /** Coordinate-descent sweeps over the coefficient set. */
    int rounds = 3;
    /**
     * Accuracy-grid presets (accuracyGrid() names) to cross-check the
     * fitted coefficients on after the fit, with no refit: each preset
     * gets its own simulator ground truth and an "after"-style summary
     * in CalibrationReport::gridChecks. Guards against coefficients
     * overfit to the fitting grid (e.g. fit on "ci", check on "wide").
     */
    std::vector<std::string> checkGrids;
};

/** One branch-fit training observation. */
struct EntropyObservation {
    BranchPredictorKind kind;
    std::string workload;
    double entropy = 0;
    double simMissRate = 0;
};

/** Everything one calibration run produces. */
struct CalibrationReport {
    /** Piecewise entropy fits, one per refit predictor kind. */
    std::vector<BranchMissModel> branchFits;
    /** r^2 of each fit over its training points (parallel array). */
    std::vector<double> branchR2;
    /** The branch-fit training data (for plots / regression tests). */
    std::vector<EntropyObservation> branchPoints;

    /** Fitted scalar coefficients. */
    ModelCalibration cal;

    /** Suite summaries with the incoming ("before") and the fitted
     *  ("after") calibration, over the same grid and workloads. */
    std::array<MetricSummary, kNumAccuracyMetrics> before{}, after{};

    /** Fitted-coefficient accuracy on one cross-check grid preset. */
    struct GridCheck {
        std::string grid; ///< accuracyGrid() preset name
        std::array<MetricSummary, kNumAccuracyMetrics> summary{};
    };
    /** One entry per CalibrationOptions::checkGrids preset, in order. */
    std::vector<GridCheck> gridChecks;

    size_t uops = 0;
    std::vector<std::string> gridNames;
    std::vector<std::string> workloadNames;

    const MetricSummary &
    beforeOf(AccuracyMetric m) const
    {
        return before[static_cast<size_t>(m)];
    }
    const MetricSummary &
    afterOf(AccuracyMetric m) const
    {
        return after[static_cast<size_t>(m)];
    }
};

/** Run the harness (see file comment). */
CalibrationReport runCalibration(const CalibrationOptions &opts = {});

/** Serialize a report to JSON (stable key names). */
std::string calibrationJson(const CalibrationReport &r);

/** Write calibrationJson(r) to @p path. @return success. */
bool writeCalibrationJson(const CalibrationReport &r,
                          const std::string &path);

} // namespace mipp

#endif // MIPP_VALIDATE_CALIBRATE_HH
