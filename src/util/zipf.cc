#include "util/zipf.hh"

#include <cmath>

#include "util/logging.hh"

namespace zombie
{

namespace
{

/**
 * Integral of the unnormalized density x^-s, shifted so hIntegral(1)=0.
 * For s == 1 the closed form degenerates to log(x).
 */
double
hIntegral(double x, double s)
{
    const double log_x = std::log(x);
    if (std::abs(s - 1.0) < 1e-12)
        return log_x;
    return std::expm1((1.0 - s) * log_x) / (1.0 - s);
}

double
hIntegralInverse(double x, double s)
{
    if (std::abs(s - 1.0) < 1e-12)
        return std::exp(x);
    double t = x * (1.0 - s);
    // Clamp to the domain of log1p to absorb rounding at the boundary.
    if (t < -1.0)
        t = -1.0;
    return std::exp(std::log1p(t) / (1.0 - s));
}

} // namespace

ZipfDistribution::ZipfDistribution(std::uint64_t num_items,
                                   double exponent)
    : items(num_items), s(exponent)
{
    zombie_assert(num_items >= 1, "Zipf needs a non-empty universe");
    zombie_assert(exponent >= 0.0, "Zipf exponent must be non-negative");
    hImaxPlus1 = hIntegral(static_cast<double>(items) + 0.5, s);
    hX0 = hIntegral(1.5, s) - 1.0;
    scale = 2.0 -
        hIntegralInverse(hIntegral(2.5, s) - h(2.0), s);
}

double
ZipfDistribution::h(double x) const
{
    return std::exp(-s * std::log(x));
}

double
ZipfDistribution::hInverse(double x) const
{
    return hIntegralInverse(x, s);
}

std::uint64_t
ZipfDistribution::sample(Xoshiro256 &rng) const
{
    if (items == 1)
        return 0;

    if (s == 0.0)
        return rng.nextBounded(items);

    // Rejection-inversion after Hormann & Derflinger (1996).
    while (true) {
        const double u =
            hImaxPlus1 + rng.nextDouble() * (hX0 - hImaxPlus1);
        const double x = hInverse(u);
        std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        else if (k > items)
            k = items;
        const double kd = static_cast<double>(k);
        if (kd - x <= scale ||
            u >= hIntegral(kd + 0.5, s) - h(kd)) {
            return k - 1; // external ranks are zero-based
        }
    }
}

double
ZipfDistribution::topMassFraction(std::uint64_t top_ranks) const
{
    if (top_ranks >= items)
        return 1.0;
    double top = 0.0;
    double total = 0.0;
    for (std::uint64_t k = 1; k <= items; ++k) {
        const double p = std::exp(-s * std::log(static_cast<double>(k)));
        total += p;
        if (k <= top_ranks)
            top += p;
    }
    return top / total;
}

} // namespace zombie
