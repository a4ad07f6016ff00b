/**
 * @file
 * Synthetic workload generation — the SPEC CPU substitute.
 *
 * The paper profiles SPEC CPU 2006 binaries with Pin. Neither is available
 * offline, so this module generates deterministic synthetic uop traces whose
 * *distributions* — instruction mix, uops/instruction ratio, dependence-chain
 * depth, branch entropy, per-static-load stride behaviour, working-set sizes
 * and miss burstiness — span the same behavioural axes the SPEC suite spans.
 * Every model input the paper derives from a profile is exercised by at
 * least one workload in the standard suite (see workloadSuite()).
 *
 * A workload is a loop nest over a fixed static body of macro-instructions.
 * Static uops keep their pc across iterations, so per-static-load stride
 * profiles, load-spacing distributions and branch history patterns are
 * meaningful, exactly as for real loops.
 */

#ifndef MIPP_WORKLOADS_WORKLOAD_HH
#define MIPP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "util/cancel.hh"

namespace mipp {

/** Memory-footprint class of a static memory operation. */
enum class FootprintClass : uint8_t {
    L1Fit,   ///< fits comfortably in L1D
    L2Fit,   ///< fits in L2, misses L1
    L3Fit,   ///< fits in LLC, misses L2
    Dram,    ///< exceeds the LLC
    Unique,  ///< streaming, never-reused addresses (pure cold misses)
};

/** Access pattern of a static memory operation. */
enum class AccessPattern : uint8_t {
    Stride1,   ///< constant stride
    Stride2,   ///< alternating pair of strides
    Random,    ///< uniformly random within the footprint
    PtrChase,  ///< random, and data-dependent on its own previous instance
};

/**
 * Declarative description of a synthetic benchmark. All probabilities are
 * fractions in [0,1]; mix fractions are normalized internally.
 */
struct WorkloadSpec {
    std::string name = "workload";
    uint64_t seed = 1;

    // --- Macro-instruction mix (will be normalized) ------------------------
    double fLoad = 0.22;
    double fStore = 0.10;
    double fIntAlu = 0.30;
    double fIntMul = 0.02;
    double fIntDiv = 0.00;
    double fFpAlu = 0.10;
    double fFpMul = 0.05;
    double fFpDiv = 0.00;
    double fBranch = 0.12;
    double fMove = 0.09;

    /** Fraction of compute macro-instructions fused with a memory read
     *  (x86 reg-mem forms); raises the uops/instruction ratio. */
    double loadOpFusion = 0.15;

    // --- Dependences --------------------------------------------------------
    /** Geometric locality of producers: higher = depend on closer uops. */
    double depLocality = 0.4;
    /** Fraction of compute uops chained to the immediately preceding dst. */
    double serialChainFrac = 0.15;

    // --- Static code shape --------------------------------------------------
    /** Macro-instructions in the loop body. */
    int loopBodyInsts = 120;
    /** Inner-loop trip count (loop-back branch pattern). */
    int innerIters = 64;

    // --- Memory behaviour ---------------------------------------------------
    /** Pattern weights for static memory ops (normalized). */
    double wStride1 = 0.55;
    double wStride2 = 0.15;
    double wRandom = 0.20;
    double wPtrChase = 0.10;
    /** Footprint-class weights for static memory ops (normalized). */
    double wL1 = 0.45;
    double wL2 = 0.25;
    double wL3 = 0.20;
    double wDram = 0.10;
    double wUnique = 0.00;
    /** Typical stride in bytes for strided ops. */
    int64_t strideBytes = 8;

    // --- Branch behaviour ---------------------------------------------------
    /** Fraction of static branches with random (high-entropy) outcomes. */
    double branchRandomFrac = 0.15;
    /** Taken probability for random branches. */
    double branchTakenProb = 0.5;
    /** Period of periodic (predictable) branches. */
    int branchPeriod = 4;

    /**
     * Reject degenerate specs with a std::invalid_argument: negative
     * weights or fractions, an empty instruction mix, a loop body of
     * zero instructions, or — when the spec can emit memory ops — an
     * all-zero pattern or footprint mix (which would otherwise silently
     * collapse every memory op into one class). Called by
     * generateWorkload().
     */
    void validate() const;
};

/**
 * Generate @p nUops micro-ops for @p spec. Deterministic in spec.seed.
 * @p cancel is checked once per pass over the loop body; once it fires
 * the trace ends short, at the end of that pass.
 */
Trace generateWorkload(const WorkloadSpec &spec, size_t nUops,
                       const CancelToken &cancel = {});

/** A workload made of consecutive phases with different behaviour. */
struct PhasedSpec {
    std::string name;
    std::vector<std::pair<WorkloadSpec, size_t>> segments;
};

/** Concatenate the segment traces of a phased workload. */
Trace generatePhased(const PhasedSpec &spec);

/**
 * The standard 20-benchmark suite used by all evaluation benches. Each entry
 * is documented with the SPEC-like behaviour it stands in for.
 */
std::vector<WorkloadSpec> workloadSuite();

/** Subset of the suite with substantial off-core memory traffic. */
std::vector<WorkloadSpec> memoryBoundSuite();

/** Phased workloads used by the phase-analysis experiments (Fig 6.14). */
std::vector<PhasedSpec> phasedSuite();

/** Look up a suite workload by name; throws std::out_of_range if absent. */
WorkloadSpec suiteWorkload(const std::string &name);

} // namespace mipp

#endif // MIPP_WORKLOADS_WORKLOAD_HH
