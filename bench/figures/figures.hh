/**
 * @file
 * The paper-figure driver's shared pieces.
 *
 * Every figure regenerates one table or figure of the paper's evaluation
 * (thesis Ch. 3-7) and prints the same rows/series. The figure functions
 * live in ch3.cc .. ch7.cc; main.cc holds the one table of ids and runs
 * them. A Context hands each figure the results several figures share,
 * computed on first use and kept for the rest of the process, so a
 * figure prints the same bytes whether it runs alone or after others.
 */

#ifndef MIPP_BENCH_FIGURES_FIGURES_HH
#define MIPP_BENCH_FIGURES_FIGURES_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "dse/explorer.hh"
#include "profiler/profiler.hh"
#include "sim/ooo_core.hh"
#include "workloads/workload.hh"

namespace mipp::figures {

/** Traces and profiles for a workload set. */
struct Bundle {
    std::vector<WorkloadSpec> specs;
    std::vector<Trace> traces;
    std::vector<Profile> profiles;

    size_t size() const { return specs.size(); }
    /** Index of the workload named @p name; throws if absent. */
    size_t indexOf(const std::string &name) const;
};

/** Build the bundle for @p specs at @p uops per trace. */
Bundle makeBundle(std::vector<WorkloadSpec> specs, size_t uops);
/** Build the bundle for the suite workloads named @p names. */
Bundle makeBundle(std::initializer_list<const char *> names, size_t uops);

/** Trace lengths of the suite runs, and of the doubled ones (Fig 4.4,
 *  Fig 6.3). */
constexpr size_t kSuiteUops = 150000, kLongUops = 300000;

/**
 * Results that several figures compute from identical inputs. Each
 * accessor computes its result on first use.
 */
class Context
{
  public:
    /** The 20-workload suite at kSuiteUops. */
    const Bundle &suite();
    /** The traces of suite(), simulated at nehalemReference() with
     *  default SimOptions. */
    const std::vector<SimResult> &suiteSims();
    /** The suite at kLongUops, simulated like suiteSims(). */
    const std::vector<SimResult> &longSims();
    /** memoryBoundSuite() at 200k uops. */
    const Bundle &memoryBound();
    /** The six design-space workloads at 120k uops. */
    const Bundle &dse();
    /** Paired sweepEx of dse() over DesignSpace::small(). */
    const SweepResult &dseSweep();

  private:
    std::optional<Bundle> suite_, memoryBound_, dse_;
    std::optional<std::vector<SimResult>> suiteSims_, longSims_;
    std::optional<SweepResult> dseSweep_;
};

/** Signed relative error in percent. */
inline double
pctErr(double predicted, double reference)
{
    return reference != 0 ? 100.0 * (predicted - reference) / reference
                          : 0.0;
}

/** Mean of absolute values. */
inline double
meanAbs(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += std::fabs(x);
    return v.empty() ? 0 : s / v.size();
}

/** Maximum of absolute values. */
inline double
maxAbs(const std::vector<double> &v)
{
    double m = 0;
    for (double x : v)
        m = std::max(m, std::fabs(x));
    return m;
}

/** The figures print their rows and throw on failure. They are defined
 *  in ch3.cc .. ch7.cc and listed in main.cc. */
void fig3_1(Context &), fig3_4(Context &), fig3_6(Context &),
    fig3_7(Context &), fig3_9(Context &), fig3_10(Context &);
void fig4_2(Context &), fig4_3(Context &), fig4_4(Context &),
    fig4_7(Context &), fig4_9(Context &);
void fig5_2(Context &), fig5_4(Context &), fig5_5(Context &);
void fig6_1(Context &), fig6_3(Context &), fig6_5(Context &),
    fig6_7(Context &), fig6_9(Context &), fig6_14(Context &),
    fig6_15(Context &), fig6_18(Context &), tab6_2(Context &);
void fig7_2(Context &), fig7_3(Context &), fig7_4(Context &),
    fig7_7(Context &), fig7_10(Context &), tab7_1(Context &);

} // namespace mipp::figures

#endif // MIPP_BENCH_FIGURES_FIGURES_HH
