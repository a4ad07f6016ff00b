#include "profiler/profile.hh"

#include <algorithm>
#include <cmath>

namespace mipp {

std::vector<uint32_t>
defaultRobSizes()
{
    std::vector<uint32_t> sizes;
    for (uint32_t s = 16; s <= 256; s += 16)
        sizes.push_back(s);
    return sizes;
}

double
DependenceChains::valueAt(size_t i, Metric m) const
{
    switch (m) {
      case Metric::Ap: return apAt(i);
      case Metric::Abp: return abpAt(i);
      case Metric::Cp: return cpAt(i);
    }
    return 0;
}

double
DependenceChains::interpolate(double rob, Metric m) const
{
    if (robSizes_.empty())
        return 0;
    if (robSizes_.size() == 1)
        return valueAt(0, m);
    rob = std::max(rob, 2.0);

    // Find the bracketing pair of profiled sizes; extrapolate with the
    // nearest pair's fit outside the profiled range (thesis §5.2: a log
    // fit per neighbouring pair beats one global fit).
    size_t hi = 1;
    while (hi + 1 < robSizes_.size() && robSizes_[hi] < rob)
        ++hi;
    size_t lo = hi - 1;

    double x0 = std::log(static_cast<double>(robSizes_[lo]));
    double x1 = std::log(static_cast<double>(robSizes_[hi]));
    double y0 = valueAt(lo, m);
    double y1 = valueAt(hi, m);
    // For ABP some sizes may have no branch windows; fall back smoothly.
    if (y0 == 0 && y1 == 0)
        return 0;
    double a = (y1 - y0) / (x1 - x0);
    double b = y0 - a * x0;
    double v = a * std::log(rob) + b;
    return std::max(v, 1.0);
}

std::string_view
strideClassName(StrideClass c)
{
    switch (c) {
      case StrideClass::SingleStride: return "stride-1";
      case StrideClass::TwoStride: return "stride-2";
      case StrideClass::ThreeStride: return "stride-3";
      case StrideClass::FourStride: return "stride-4";
      case StrideClass::RandomStride: return "random";
      case StrideClass::Unique: return "unique";
    }
    return "?";
}

StrideClass
StaticMemProfile::strideClass() const
{
    // Observed only once per micro-trace on average -> no stride info.
    if (microTraces && count <= microTraces)
        return StrideClass::Unique;

    uint64_t total = 0;
    std::vector<uint64_t> freq;
    for (const auto &[stride, n] : strides) {
        freq.push_back(n);
        total += n;
    }
    if (total == 0)
        return StrideClass::Unique;
    std::sort(freq.rbegin(), freq.rend());

    // Thesis §4.5 cumulative cutoffs: 60 / 70 / 80 / 90 %.
    static constexpr double cutoffs[4] = {0.60, 0.70, 0.80, 0.90};
    double cum = 0;
    for (size_t k = 0; k < freq.size() && k < 4; ++k) {
        cum += static_cast<double>(freq[k]) / total;
        if (cum >= cutoffs[k])
            return static_cast<StrideClass>(k);
    }
    return StrideClass::RandomStride;
}

std::vector<int64_t>
StaticMemProfile::dominantStrides() const
{
    std::vector<std::pair<uint64_t, int64_t>> byFreq;
    for (const auto &[stride, n] : strides)
        byFreq.emplace_back(n, stride);
    std::sort(byFreq.rbegin(), byFreq.rend());
    std::vector<int64_t> out;
    for (size_t k = 0; k < byFreq.size() && k < 4; ++k)
        out.push_back(byFreq[k].second);
    return out;
}

size_t
Profile::robIndex(uint32_t rob) const
{
    for (size_t i = 0; i < robSizes.size(); ++i)
        if (robSizes[i] >= rob)
            return i;
    return robSizes.empty() ? 0 : robSizes.size() - 1;
}

} // namespace mipp
