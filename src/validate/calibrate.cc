#include "validate/calibrate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "model/eval_cache.hh"
#include "obs/trace.hh"
#include "profiler/profiler.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace mipp {

namespace {

using json::number;

size_t
mi(AccuracyMetric m)
{
    return static_cast<size_t>(m);
}

constexpr size_t kNumKinds =
    static_cast<size_t>(BranchPredictorKind::NumKinds);

/**
 * Shared fitting state: the profiles, the per-point simulator ground
 * truth (simulated once), and one memoized EvalContext per workload
 * that persists across the whole coordinate descent — every calibration
 * value the search revisits is a cache hit.
 */
struct FitState {
    const CalibrationOptions &opts;
    std::vector<CoreConfig> grid;
    std::vector<std::string> names;
    std::vector<Trace> traces;
    std::vector<Profile> profiles;
    std::vector<SimResult> sims; ///< workload-major [wi * nc + ci]
    std::vector<std::unique_ptr<EvalContext>> ctxs;
    /** Piecewise fits indexed by predictor kind (empty = use pretrained). */
    std::array<const BranchMissModel *, kNumKinds> fits{};

    size_t nw() const { return names.size(); }
    size_t nc() const { return grid.size(); }

    /** Simulate every (workload, config) of the current grid into
     *  sims. */
    void
    simulateGrid()
    {
        const size_t cn = nc();
        sims.assign(nw() * cn, {});
        parallelForShared(nw(), opts.threads,
                          [&](size_t begin, size_t end) {
            for (size_t wi = begin; wi < end; ++wi)
                for (size_t ci = 0; ci < cn; ++ci)
                    sims[wi * cn + ci] = simulate(traces[wi], grid[ci]);
        });
    }

    /** Evaluate the model at @p cal for every point. */
    std::vector<PointAccuracy>
    evaluate(const ModelCalibration &cal)
    {
        std::vector<PointAccuracy> points(nw() * nc());
        parallelForShared(nw(), opts.threads,
                          [&](size_t begin, size_t end) {
            for (size_t wi = begin; wi < end; ++wi) {
                for (size_t ci = 0; ci < nc(); ++ci) {
                    const CoreConfig &cfg = grid[ci];
                    ModelOptions mo = opts.mopts;
                    mo.cal = cal;
                    size_t kind = static_cast<size_t>(cfg.predictor);
                    if (kind < kNumKinds && fits[kind])
                        mo.branchModel = *fits[kind];
                    ModelResult mod =
                        evaluateModel(*ctxs[wi], cfg, mo);
                    points[wi * nc() + ci] = scoreAccuracyPoint(
                        sims[wi * nc() + ci], mod, cfg, profiles[wi],
                        names[wi]);
                }
            }
        });
        return points;
    }

    /**
     * Objective for one component: that component's summed |error| over
     * every (workload, config) point — the same statistic the accuracy
     * gate tracks (suite MAPE), so the fit optimizes what CI enforces —
     * plus a total-CPI term so corrections that merely shuffle error
     * between components do not look free, and a small squared term as
     * an outlier guard (the worst single point is also gated).
     */
    double
    objective(const ModelCalibration &cal, AccuracyMetric metric)
    {
        std::vector<PointAccuracy> points = evaluate(cal);
        double mae = 0, maeCpi = 0, sse = 0;
        for (const PointAccuracy &pa : points) {
            double e = pa.err[mi(metric)];
            double ec = pa.err[mi(AccuracyMetric::Cpi)];
            mae += std::abs(e);
            maeCpi += std::abs(ec);
            sse += e * e;
        }
        return mae + 0.25 * maeCpi + 0.005 * sse;
    }
};

/** One fittable coefficient: location, search bracket, target metric. */
struct CoefficientSpec {
    const char *name;
    double ModelCalibration::*field;
    double lo, hi;
    AccuracyMetric metric;
};

constexpr CoefficientSpec kCoefficients[] = {
    {"penaltyScale", &ModelCalibration::penaltyScale, 0.2, 1.2,
     AccuracyMetric::Branch},
    {"baseWindowFrac", &ModelCalibration::baseWindowFrac, 0.3, 6.0,
     AccuracyMetric::Base},
    {"mlpWindowFrac", &ModelCalibration::mlpWindowFrac, 0.3, 6.0,
     AccuracyMetric::Dram},
    {"shadowScale", &ModelCalibration::shadowScale, 0.0, 1.5,
     AccuracyMetric::Dram},
    {"busQueueScale", &ModelCalibration::busQueueScale, 0.0, 1.5,
     AccuracyMetric::Dram},
    {"coldInject", &ModelCalibration::coldInject, 0.0, 1.0,
     AccuracyMetric::Dram},
};

/**
 * Two-level 1-D grid line search: coarse grid over [lo, hi], then a
 * fine grid around the coarse optimum. Plain grids instead of golden
 * section because the window-truncation coefficients quantize to whole
 * uops, making the objective piecewise constant.
 */
double
lineSearch(FitState &st, ModelCalibration cal,
           const CoefficientSpec &spec)
{
    constexpr int kPoints = 13;
    double lo = spec.lo, hi = spec.hi;
    double bestX = cal.*(spec.field);
    double bestF = st.objective(cal, spec.metric);
    for (int level = 0; level < 2; ++level) {
        double step = (hi - lo) / (kPoints - 1);
        for (int i = 0; i < kPoints; ++i) {
            double x = lo + i * step;
            cal.*(spec.field) = x;
            double f = st.objective(cal, spec.metric);
            if (f < bestF - 1e-12) {
                bestF = f;
                bestX = x;
            }
        }
        lo = std::max(spec.lo, bestX - step);
        hi = std::min(spec.hi, bestX + step);
    }
    return bestX;
}

} // namespace

CalibrationReport
runCalibration(const CalibrationOptions &opts)
{
    MIPP_SPAN("calibrate.run");
    FitState st{opts};
    st.grid = opts.grid.empty() ? accuracyGrid("ci") : opts.grid;
    buildAccuracySuite(opts.uops, opts.includePhased, opts.workloads,
                       st.names, st.traces, opts.traceFiles);

    std::vector<ProfilerConfig> pcfgs(st.names.size());
    for (size_t i = 0; i < st.names.size(); ++i)
        pcfgs[i].name = st.names[i];
    st.profiles = profileTraces(st.traces, pcfgs);
    for (const Profile &p : st.profiles)
        st.ctxs.push_back(std::make_unique<EvalContext>(p));

    CalibrationReport rep;
    rep.uops = opts.uops;
    rep.workloadNames = st.names;
    for (const auto &c : st.grid)
        rep.gridNames.push_back(c.name);

    const size_t nw = st.nw();

    // --- Stage 1: piecewise entropy fits against simulated predictors ---
    if (opts.fitBranch) {
        MIPP_SPAN("calibrate.branch_fit");
        std::vector<EntropyObservation> obs(nw * kNumKinds);
        parallelForShared(nw * kNumKinds, opts.threads,
                          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                size_t wi = i / kNumKinds;
                auto kind =
                    static_cast<BranchPredictorKind>(i % kNumKinds);
                CoreConfig cfg = CoreConfig::nehalemReference();
                cfg.predictor = kind;
                SimResult sim = simulate(st.traces[wi], cfg);
                EntropyObservation &o = obs[i];
                o.kind = kind;
                o.workload = st.names[wi];
                o.entropy = st.profiles[wi].branch.entropy();
                o.simMissRate = sim.branches ?
                    double(sim.branchMispredicts) / sim.branches : 0;
            }
        });
        rep.branchPoints = std::move(obs);

        for (size_t k = 0; k < kNumKinds; ++k) {
            auto kind = static_cast<BranchPredictorKind>(k);
            EntropyFitTrainer trainer;
            for (const EntropyObservation &o : rep.branchPoints)
                if (o.kind == kind)
                    trainer.add(o.entropy, o.simMissRate);
            BranchMissModel fit = trainer.fitPiecewise(kind);
            rep.branchFits.push_back(fit);
            rep.branchR2.push_back(trainer.r2(fit));
        }
        for (size_t k = 0; k < kNumKinds; ++k)
            st.fits[k] = &rep.branchFits[k];
    }

    // --- Stage 2: simulator ground truth over the grid -------------------
    {
        MIPP_SPAN("calibrate.sim_grid");
        st.simulateGrid();
    }

    // "Before": the incoming calibration, incoming branch fits.
    {
        std::array<const BranchMissModel *, kNumKinds> saved = st.fits;
        st.fits = {};
        rep.before = summarizeAccuracy(st.evaluate(opts.mopts.cal));
        st.fits = saved;
    }

    // --- Stage 3: coordinate descent over the scalar coefficients --------
    ModelCalibration cal = opts.mopts.cal;
    {
        MIPP_SPAN("calibrate.coefficient_fit");
        for (int round = 0; round < opts.rounds; ++round) {
            ModelCalibration prev = cal;
            for (const CoefficientSpec &spec : kCoefficients)
                cal.*(spec.field) = lineSearch(st, cal, spec);
            if (cal == prev)
                break; // converged early
        }
    }
    rep.cal = cal;
    rep.after = summarizeAccuracy(st.evaluate(cal));

    // --- Stage 4: cross-check the fit on other grid presets --------------
    // Fresh ground truth per preset, same fitted coefficients and branch
    // fits, no refit: a fit that only works on its own grid shows up
    // here as a summary far off the "after" column.
    for (const std::string &preset : opts.checkGrids) {
        st.grid = accuracyGrid(preset);
        st.simulateGrid();
        CalibrationReport::GridCheck gc;
        gc.grid = preset;
        gc.summary = summarizeAccuracy(st.evaluate(cal));
        rep.gridChecks.push_back(std::move(gc));
    }
    return rep;
}

std::string
calibrationJson(const CalibrationReport &r)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"mipp-calibration-v1\",\n";
    os << "  \"uops\": " << r.uops << ",\n";
    os << "  \"grid\": [";
    for (size_t i = 0; i < r.gridNames.size(); ++i)
        os << (i ? ", " : "") << json::quote(r.gridNames[i]);
    os << "],\n  \"workloads\": [";
    for (size_t i = 0; i < r.workloadNames.size(); ++i)
        os << (i ? ", " : "") << json::quote(r.workloadNames[i]);
    os << "],\n  \"calibration\": {"
       << "\"penaltyScale\": " << number(r.cal.penaltyScale)
       << ", \"baseWindowFrac\": " << number(r.cal.baseWindowFrac)
       << ", \"mlpWindowFrac\": " << number(r.cal.mlpWindowFrac)
       << ", \"shadowScale\": " << number(r.cal.shadowScale)
       << ", \"busQueueScale\": " << number(r.cal.busQueueScale)
       << ", \"coldInject\": " << number(r.cal.coldInject) << "},\n";
    os << "  \"branchFits\": [";
    for (size_t i = 0; i < r.branchFits.size(); ++i) {
        const BranchMissModel &m = r.branchFits[i];
        os << (i ? "," : "") << "\n    {\"kind\": \""
           << branchPredictorName(m.kind) << "\", \"slope\": "
           << number(m.slope) << ", \"intercept\": " << number(m.intercept)
           << ", \"knee\": " << number(m.knee) << ", \"kneeSlope\": "
           << number(m.kneeSlope) << ", \"r2\": "
           << number(i < r.branchR2.size() ? r.branchR2[i] : 0) << "}";
    }
    os << (r.branchFits.empty() ? "" : "\n  ") << "],\n";
    os << "  \"branchPoints\": [";
    for (size_t i = 0; i < r.branchPoints.size(); ++i) {
        const EntropyObservation &o = r.branchPoints[i];
        os << (i ? "," : "") << "\n    {\"kind\": \""
           << branchPredictorName(o.kind) << "\", \"workload\": "
           << json::quote(o.workload) << ", \"entropy\": "
           << number(o.entropy) << ", \"missRate\": "
           << number(o.simMissRate) << "}";
    }
    os << (r.branchPoints.empty() ? "" : "\n  ") << "],\n";
    auto emitSummary = [&](const char *name, const auto &summary,
                           const char *tail) {
        os << "  \"" << name << "\": {\n";
        writeMetricSummaries(os, summary, "    ");
        os << "  }" << tail << "\n";
    };
    emitSummary("before", r.before, ",");
    emitSummary("after", r.after, r.gridChecks.empty() ? "" : ",");
    if (!r.gridChecks.empty()) {
        os << "  \"gridChecks\": [";
        for (size_t i = 0; i < r.gridChecks.size(); ++i) {
            const CalibrationReport::GridCheck &gc = r.gridChecks[i];
            os << (i ? "," : "") << "\n    {\"grid\": "
               << json::quote(gc.grid) << ", \"summary\": {\n";
            writeMetricSummaries(os, gc.summary, "      ");
            os << "    }}";
        }
        os << "\n  ]\n";
    }
    os << "}\n";
    return os.str();
}

bool
writeCalibrationJson(const CalibrationReport &r, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << calibrationJson(r);
    return static_cast<bool>(out);
}

} // namespace mipp
