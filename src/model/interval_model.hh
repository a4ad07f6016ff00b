/**
 * @file
 * The micro-architecture independent interval model (thesis Eq 3.1):
 *
 *   C = N/Deff + m_bpred (c_res + c_fe) + sum_i m_IL_i c_L(i+1)
 *       + m_LLC (c_mem + c_bus)/MLP + P_hLLC
 *
 * Every input is computed from the profile by a statistical sub-model:
 * Deff from dependence chains and issue-port scheduling (dispatch_model),
 * m_bpred from linear branch entropy (branch_model), cache misses from
 * StatStack, MLP from the cold-miss or stride model (mlp_model), plus the
 * memory-bus, MSHR, LLC-chaining and prefetcher corrections. Evaluation
 * takes microseconds per design point — that is the paper's headline
 * speedup over simulation.
 *
 * The model can be evaluated globally (ISPASS'15) or per micro-trace
 * window and summed (TC'16, better burstiness capture + phase output).
 */

#ifndef MIPP_MODEL_INTERVAL_MODEL_HH
#define MIPP_MODEL_INTERVAL_MODEL_HH

#include <optional>
#include <vector>

#include "model/branch_model.hh"
#include "model/calibration.hh"
#include "model/dispatch_model.hh"
#include "model/mlp_model.hh"
#include "profiler/profile.hh"
#include "uarch/activity.hh"
#include "uarch/core_config.hh"
#include "uarch/cpi_stack.hh"

namespace mipp {

/** Model configuration / ablation switches. */
struct ModelOptions {
    /** Base-component refinement level (thesis Fig 3.7 ablation). */
    enum class BaseLevel {
        Instructions,  ///< N = instructions, Deff = D
        MicroOps,      ///< N = uops, Deff = D
        CriticalPath,  ///< + dependence limit
        Functional,    ///< + port & functional-unit limits (full Eq 3.10)
    };
    BaseLevel baseLevel = BaseLevel::Functional;

    /** MLP model selection (thesis §4.4 vs §4.5; None for Fig 4.3). */
    enum class MlpMode { None, ColdMiss, Stride };
    MlpMode mlpMode = MlpMode::Stride;

    bool modelMshrs = true;        ///< thesis §4.6
    bool modelBus = true;          ///< thesis §4.7
    bool modelLlcChaining = true;  ///< thesis §4.8
    bool modelPrefetcher = true;   ///< thesis §4.9 (needs cfg flag too)

    /** Evaluate per micro-trace window and sum (TC'16) instead of on the
     *  averaged whole-program profile. */
    bool perWindow = true;

    /** Entropy->missrate fit; defaults to the pretrained fit for the
     *  configured predictor. */
    std::optional<BranchMissModel> branchModel;

    /** Recalibration coefficients (model/calibration.hh); defaults to
     *  the fitted values, ModelCalibration::uncalibrated() recovers the
     *  plain thesis formulation. */
    ModelCalibration cal = ModelCalibration::fitted();
};

/** Full model output for one (profile, configuration) pair. */
struct ModelResult {
    double cycles = 0;
    double uops = 0;           ///< whole-program uops
    double instructions = 0;

    CpiStack stack;            ///< cycles per component
    DispatchLimits limits;     ///< Eq 3.10 terms (Fig 3.6)
    double deff = 0;
    double avgLatency = 0;

    double branchMissRate = 0;
    double branchMisses = 0;
    double branchResolution = 0;

    /** Whole-program load misses per level (StatStack). */
    double loadMissesL1 = 0, loadMissesL2 = 0, loadMissesL3 = 0;
    double storeMissesL1 = 0, storeMissesL2 = 0, storeMissesL3 = 0;
    double ifetchMissesL1 = 0, ifetchMissesL2 = 0, ifetchMissesL3 = 0;

    double mlp = 1.0;
    double busCyclesPerMiss = 0;
    double llcChainPenalty = 0;

    ActivityCounts activity;

    /** Per profiled-window uop-CPI (perWindow mode; phase analysis). */
    std::vector<double> windowCpi;

    double cpiPerUop() const { return uops ? cycles / uops : 0; }
    double cpiPerInst() const
    {
        return instructions ? cycles / instructions : 0;
    }
};

/**
 * Evaluate the interval model. Pure function; microseconds per call.
 *
 * This entry point rebuilds every profile-derived intermediate from
 * scratch. When evaluating many design points against one profile (a
 * design-space sweep), construct an EvalContext and use the overload in
 * model/eval_cache.hh instead — bitwise-identical results, with the
 * per-workload intermediates built once and memoized. Throws
 * StatusError(InvalidArgument) when cfg.robSize is 0.
 */
ModelResult evaluateModel(const Profile &p, const CoreConfig &cfg,
                          const ModelOptions &opts = {});

} // namespace mipp

#endif // MIPP_MODEL_INTERVAL_MODEL_HH
