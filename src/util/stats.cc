#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace zombie
{

LatencyHistogram::LatencyHistogram() : counts(kBuckets, 0) {}

int
LatencyHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<int>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBucketBits;
    const int sub = static_cast<int>((value >> shift) & (kSubBuckets - 1));
    return (msb - kSubBucketBits + 1) * kSubBuckets + sub;
}

std::uint64_t
LatencyHistogram::bucketUpperBound(int index)
{
    if (index < kSubBuckets)
        return static_cast<std::uint64_t>(index);
    const int tier = index / kSubBuckets;
    const int sub = index % kSubBuckets;
    const int shift = tier - 1;
    // Upper edge of the linear sub-bucket within this power-of-two tier.
    return ((static_cast<std::uint64_t>(kSubBuckets + sub) + 1)
            << shift) - 1;
}

void
LatencyHistogram::record(std::uint64_t value)
{
    if (n == 0) {
        lo = hi = value;
    } else {
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }
    ++n;
    total += static_cast<double>(value);
    ++counts[bucketIndex(value)];
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        lo = other.lo;
        hi = other.hi;
    } else {
        lo = std::min(lo, other.lo);
        hi = std::max(hi, other.hi);
    }
    n += other.n;
    total += other.total;
    for (int i = 0; i < kBuckets; ++i)
        counts[i] += other.counts[i];
}

void
LatencyHistogram::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    n = 0;
    lo = hi = 0;
    total = 0.0;
}

double
LatencyHistogram::mean() const
{
    return n ? total / static_cast<double>(n) : 0.0;
}

std::uint64_t
LatencyHistogram::percentile(double q) const
{
    if (n == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    // Quantile 0 is the recorded minimum exactly, not the containing
    // bucket's upper bound (which can sit ~3% above it).
    if (target == 0)
        return lo;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += counts[i];
        if (seen >= target && counts[i] > 0)
            return std::clamp(bucketUpperBound(i), lo, hi);
    }
    return hi;
}

std::vector<CdfPoint>
buildCdf(std::vector<double> samples)
{
    std::vector<CdfPoint> cdf;
    if (samples.empty())
        return cdf;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t i = 0;
    while (i < samples.size()) {
        std::size_t j = i;
        while (j < samples.size() && samples[j] == samples[i])
            ++j;
        cdf.push_back({samples[i], static_cast<double>(j) / n});
        i = j;
    }
    return cdf;
}

std::vector<CdfPoint>
thinCdf(const std::vector<CdfPoint> &cdf, std::size_t max_points)
{
    if (cdf.size() <= max_points || max_points < 2)
        return cdf;
    std::vector<CdfPoint> out;
    out.reserve(max_points);
    const double step = static_cast<double>(cdf.size() - 1) /
        static_cast<double>(max_points - 1);
    for (std::size_t k = 0; k < max_points; ++k) {
        const std::size_t idx = static_cast<std::size_t>(
            std::llround(step * static_cast<double>(k)));
        out.push_back(cdf[std::min(idx, cdf.size() - 1)]);
    }
    return out;
}

void
StatSet::set(const std::string &name, double value)
{
    values[name] = value;
}

void
StatSet::add(const std::string &name, double delta)
{
    values[name] += delta;
}

double
StatSet::get(const std::string &name) const
{
    auto it = values.find(name);
    zombie_assert(it != values.end(), "unknown stat: ", name);
    return it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return values.count(name) > 0;
}

std::string
StatSet::format() const
{
    std::size_t width = 0;
    for (const auto &[name, value] : values)
        width = std::max(width, name.size());
    std::ostringstream oss;
    for (const auto &[name, value] : values) {
        oss << name;
        for (std::size_t i = name.size(); i < width + 2; ++i)
            oss << ' ';
        oss << value << '\n';
    }
    return oss.str();
}

} // namespace zombie
