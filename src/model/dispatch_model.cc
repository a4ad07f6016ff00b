#include "model/dispatch_model.hh"

#include <algorithm>
#include <vector>

namespace mipp {

const char *
DispatchLimits::binding() const
{
    double eff = effective();
    if (eff >= width)
        return "dispatch";
    if (eff >= dependences - 1e-9 && dependences <= ports &&
        dependences <= fus)
        return "dependences";
    if (ports <= fus)
        return "port";
    return "fu";
}

std::vector<double>
schedulePorts(const std::array<double, kNumUopTypes> &typeCounts,
              const CoreConfig &cfg)
{
    const size_t np = cfg.ports.size();
    std::vector<double> activity(np, 0.0);

    // Eligible ports per type, then schedule the most constrained types
    // (fewest eligible ports) first.
    std::vector<std::vector<size_t>> eligible(kNumUopTypes);
    std::vector<int> order;
    for (int t = 0; t < kNumUopTypes; ++t) {
        for (size_t p = 0; p < np; ++p)
            if (cfg.ports[p].canIssue(static_cast<UopType>(t)))
                eligible[t].push_back(p);
        if (typeCounts[t] > 0)
            order.push_back(t);
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return eligible[a].size() < eligible[b].size();
    });

    for (int t : order) {
        const auto &ports = eligible[t];
        double remaining = typeCounts[t];
        if (ports.empty())
            continue;
        if (ports.size() == 1) {
            activity[ports[0]] += remaining;
            continue;
        }
        // Water-fill over eligible ports: repeatedly raise the lowest
        // port(s) to the next level until the type's count is consumed.
        std::vector<size_t> sorted(ports);
        std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
            return activity[a] < activity[b];
        });
        // Each step either finishes or pulls one more port into the fill,
        // so the loop is bounded by the number of distinct port levels.
        // Once every eligible port is in the fill the rest is spread
        // evenly: testing capacity there instead can spin forever, since
        // level + remaining rounds back to level when remaining is below
        // the rounding step of level.
        for (size_t k = 1; remaining > 0; ++k) {
            double level = activity[sorted[0]];
            double capacity = k < sorted.size() ?
                (activity[sorted[k]] - level) * k : remaining;
            if (capacity >= remaining) {
                double add = remaining / k;
                for (size_t i = 0; i < k; ++i)
                    activity[sorted[i]] += add;
                break;
            }
            double next = activity[sorted[k]];
            for (size_t i = 0; i < k; ++i)
                activity[sorted[i]] = next;
            remaining -= capacity;
        }
    }
    return activity;
}

DispatchLimits
dispatchLimits(const std::array<double, kNumUopTypes> &typeCounts,
               double cp, double avgLat, const CoreConfig &cfg,
               double window)
{
    DispatchLimits lim;
    lim.width = cfg.dispatchWidth;

    double n = 0;
    for (double c : typeCounts)
        n += c;
    if (n <= 0) {
        lim.dependences = lim.ports = lim.fus = lim.width;
        return lim;
    }

    // (2) Dependences: W / (lat * CP(W)), Eq 3.7, at the effective
    // instruction window (== ROB unless truncated by the caller).
    double w = window > 0 ? window : static_cast<double>(cfg.robSize);
    lim.dependences = cp > 0 && avgLat > 0 ?
        w / (avgLat * cp) : lim.width;

    // (3) Ports: N / busiest port.
    auto activity = schedulePorts(typeCounts, cfg);
    double maxAct = 0;
    for (double a : activity)
        maxAct = std::max(maxAct, a);
    lim.ports = maxAct > 0 ? n / maxAct : lim.width;

    // (4)+(5) Functional units, pipelined and non-pipelined.
    double fuLimit = lim.width * 4; // effectively unbounded
    for (int t = 0; t < kNumUopTypes; ++t) {
        if (typeCounts[t] <= 0)
            continue;
        const FuPool &pool = cfg.fus[t];
        double u = std::max<double>(pool.count, 1);
        double rate = pool.pipelined ?
            n * u / typeCounts[t] :
            n * u / (typeCounts[t] * cfg.lat.of(static_cast<UopType>(t)));
        fuLimit = std::min(fuLimit, rate);
    }
    lim.fus = fuLimit;
    return lim;
}

} // namespace mipp
