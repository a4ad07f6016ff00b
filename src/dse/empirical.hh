/**
 * @file
 * Empirical (black-box regression) baseline model (thesis §7.5).
 *
 * The paper compares its mechanistic model against an empirical model
 * trained on simulated samples. This is a ridge regression on log-scaled
 * configuration and workload features predicting log(CPI) and log(power):
 * accurate on average near the training set, but — as the thesis shows —
 * worse at ranking designs (Pareto pruning) than the mechanistic model.
 */

#ifndef MIPP_DSE_EMPIRICAL_HH
#define MIPP_DSE_EMPIRICAL_HH

#include <vector>

#include "profiler/profile.hh"
#include "uarch/core_config.hh"

namespace mipp {

/** Feature vector for one (configuration, workload) pair. */
std::vector<double> empiricalFeatures(const CoreConfig &cfg,
                                      const Profile &p);

/** Ridge regression over (features -> log target). */
class RidgeRegression
{
  public:
    explicit RidgeRegression(double lambda = 1e-3) : lambda_(lambda) {}

    /** Add a training sample; @p target must be positive. */
    void addSample(const std::vector<double> &features, double target);

    /** Solve the normal equations. @return false if under-determined. */
    bool train();

    /** Predict the (positive) target for @p features. */
    double predict(const std::vector<double> &features) const;

  private:
    double lambda_;
    std::vector<std::vector<double>> rows_;
    std::vector<double> targets_;  // log scale
    std::vector<double> weights_;
};

/** Paired CPI + power empirical model. */
class EmpiricalModel
{
  public:
    void
    addSample(const CoreConfig &cfg, const Profile &p, double cpi,
              double watts)
    {
        auto f = empiricalFeatures(cfg, p);
        cpi_.addSample(f, cpi);
        power_.addSample(f, watts);
    }

    bool train() { return cpi_.train() && power_.train(); }

    double
    predictCpi(const CoreConfig &cfg, const Profile &p) const
    {
        return cpi_.predict(empiricalFeatures(cfg, p));
    }

    double
    predictPower(const CoreConfig &cfg, const Profile &p) const
    {
        return power_.predict(empiricalFeatures(cfg, p));
    }

  private:
    RidgeRegression cpi_{1e-3};
    RidgeRegression power_{1e-3};
};

} // namespace mipp

#endif // MIPP_DSE_EMPIRICAL_HH
