/**
 * @file
 * Thesis Ch. 3 figures: micro-op mix, dependence chains, the effective
 * dispatch rate and the branch entropy model.
 */
#include "figures.hh"
#include "model/branch_model.hh"
#include "model/interval_model.hh"
#include "sim/branch_predictor.hh"

namespace mipp::figures {

namespace {

const BranchPredictorKind kPredictors[] = {
    BranchPredictorKind::GAg, BranchPredictorKind::GAp,
    BranchPredictorKind::PAp, BranchPredictorKind::GShare,
    BranchPredictorKind::Tournament};

/** Run a fresh 4 KB @p kind predictor over @p t's branches. */
void
predictBranches(BranchPredictorKind kind, const Trace &t, uint64_t &n,
                uint64_t &miss)
{
    auto bp = BranchPredictor::create(kind, 4096);
    n = miss = 0;
    for (const auto &op : t) {
        if (op.type != UopType::Branch)
            continue;
        n++;
        miss += !bp->predictAndUpdate(op.pc, op.taken);
    }
}

} // namespace

/** Fig 3.1: micro-operations per instruction. */
void
fig3_1(Context &ctx)
{
    const Bundle &b = ctx.suite();
    std::printf("%-16s %12s\n", "benchmark", "uops/inst");
    double lo = 10, hi = 0;
    for (size_t i = 0; i < b.size(); ++i) {
        double upi = b.traces[i].uopsPerInstruction();
        std::printf("%-16s %12.3f\n", b.specs[i].name.c_str(), upi);
        lo = std::min(lo, upi);
        hi = std::max(hi, upi);
    }
    std::printf("\nrange: %.3f .. %.3f  (paper: ~1.07 for lbm to ~1.38 "
                "for GemsFDTD)\n", lo, hi);
}

/** Fig 3.4: AP / ABP / CP chain lengths at ROB 128. */
void
fig3_4(Context &ctx)
{
    const Bundle &b = ctx.suite();
    std::printf("%-16s %8s %8s %8s\n", "benchmark", "AP", "ABP", "CP");
    double apSum = 0, cpSum = 0;
    for (size_t i = 0; i < b.size(); ++i) {
        const auto &c = b.profiles[i].chains;
        std::printf("%-16s %8.2f %8.2f %8.2f\n",
                    b.specs[i].name.c_str(), c.ap(128), c.abp(128),
                    c.cp(128));
        apSum += c.ap(128);
        cpSum += c.cp(128);
    }
    std::printf("\nCP / AP ratio (suite mean): %.2f  (paper: ~2.9x)\n",
                cpSum / apSum);
}

/** Fig 3.6: the four effective-dispatch-rate limits. */
void
fig3_6(Context &ctx)
{
    const Bundle &b = ctx.suite();
    CoreConfig cfg = CoreConfig::nehalemReference();
    std::printf("%-16s %9s %9s %9s %9s %9s  %s\n", "benchmark",
                "dispatch", "depend", "port", "fu", "Deff", "binding");
    for (size_t i = 0; i < b.size(); ++i) {
        auto res = evaluateModel(b.profiles[i], cfg);
        const auto &l = res.limits;
        std::printf("%-16s %9.2f %9.2f %9.2f %9.2f %9.2f  %s\n",
                    b.specs[i].name.c_str(), l.width, l.dependences,
                    l.ports, l.fus, l.effective(), l.binding());
    }
}

/**
 * Fig 3.7: base-component prediction error against a miss-event-free
 * ("perfect") simulation, for each refinement of the effective dispatch
 * rate. The paper reports the error dropping from ~41.6 % (instructions
 * / physical width) to ~11.7 % (full Eq 3.10).
 */
void
fig3_7(Context &ctx)
{
    const Bundle &b = ctx.suite();
    CoreConfig cfg = CoreConfig::nehalemReference();
    SimOptions perfect;
    perfect.perfectBranch = true;
    perfect.perfectICache = true;
    perfect.perfectDCache = true;

    std::vector<double> simCycles;
    for (const auto &t : b.traces)
        simCycles.push_back(
            static_cast<double>(simulate(t, cfg, perfect).cycles));

    using L = ModelOptions::BaseLevel;
    const std::pair<L, const char *> levels[] = {
        {L::Instructions, "Instructions"},
        {L::MicroOps, "Micro-operations"},
        {L::CriticalPath, "Critical path"},
        {L::Functional, "Functional units/ports"},
    };
    std::printf("%-24s %10s %10s\n", "refinement", "avg |err|", "max |err|");
    for (auto [level, name] : levels) {
        ModelOptions o;
        o.baseLevel = level;
        o.mlpMode = ModelOptions::MlpMode::None;
        std::vector<double> errs;
        for (size_t i = 0; i < b.size(); ++i) {
            auto res = evaluateModel(b.profiles[i], cfg, o);
            errs.push_back(pctErr(res.stack.base, simCycles[i]));
        }
        std::printf("%-24s %9.1f%% %9.1f%%\n", name, meanAbs(errs),
                    maxAbs(errs));
    }
    std::printf("\n(paper: 41.6%% -> 32.7%% -> 23.3%% -> 11.7%% average)\n");
}

/**
 * Fig 3.9: the linear fit between branch entropy and predictor miss
 * rate, trained over the suite (two seeds per workload).
 */
void
fig3_9(Context &)
{
    // Training set (entropy, trace): every suite workload at two seeds.
    std::vector<std::pair<double, Trace>> samples;
    for (auto spec : workloadSuite()) {
        for (uint64_t s = 0; s < 2; ++s) {
            spec.seed += s * 977;
            Trace t = generateWorkload(spec, 150000);
            Profile p = profileTrace(t, {});
            samples.push_back({p.branch.entropy(), std::move(t)});
        }
    }

    std::printf("%-12s %9s %10s %7s\n", "predictor", "slope",
                "intercept", "r^2");
    for (auto kind : kPredictors) {
        EntropyFitTrainer tr;
        for (const auto &[entropy, trace] : samples) {
            uint64_t n, miss;
            predictBranches(kind, trace, n, miss);
            if (n)
                tr.add(entropy, static_cast<double>(miss) / n);
        }
        auto m = tr.fit(kind);
        std::printf("%-12s %9.4f %10.4f %7.3f\n",
                    std::string(branchPredictorName(kind)).c_str(),
                    m.slope, m.intercept, tr.r2());
    }
    std::printf("\n(paper: strongly linear relation across >400 "
                "experiments; regenerate BranchMissModel::pretrained "
                "from these rows)\n");
}

/**
 * Fig 3.10: MPKI prediction error of the entropy model for five 4 KB
 * predictors across the suite.
 */
void
fig3_10(Context &ctx)
{
    const Bundle &b = ctx.suite();
    std::printf("%-12s %10s %10s %10s\n", "predictor", "avg MPKI",
                "avg |err|", "max |err|");
    for (auto kind : kPredictors) {
        std::vector<double> errs;
        double mpkiSum = 0;
        auto fit = BranchMissModel::pretrained(kind);
        for (size_t i = 0; i < b.size(); ++i) {
            const BranchProfile &bp = b.profiles[i].branch;
            uint64_t n, miss;
            predictBranches(kind, b.traces[i], n, miss);
            double insts =
                static_cast<double>(b.traces[i].numInstructions());
            double simMpki = 1000.0 * miss / insts;
            double modelMpki = 1000.0 * fit.missRate(bp.entropy()) *
                               static_cast<double>(bp.branches) / insts;
            errs.push_back(modelMpki - simMpki);
            mpkiSum += simMpki;
        }
        std::printf("%-12s %10.1f %10.2f %10.2f\n",
                    std::string(branchPredictorName(kind)).c_str(),
                    mpkiSum / b.size(), meanAbs(errs), maxAbs(errs));
    }
    std::printf("\n(paper: avg absolute MPKI errors of 0.6-1.1 for SPEC; "
                "the synthetic suite has higher branch rates, so errors "
                "scale accordingly)\n");
}

} // namespace mipp::figures
