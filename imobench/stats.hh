/**
 * @file
 * Order statistics for imo-bench: plain medians over repetitions and
 * Harrell-Davis quantiles over pooled per-point times.
 *
 * Sweep point spans come from sweep::PointTiming and farm leases from
 * farm::SlotRecord, both in whole milliseconds. A sample quantile of
 * integer data is itself an integer and jumps by a full millisecond
 * between runs; the Harrell-Davis estimator weights every order
 * statistic by a Beta kernel centred on the quantile, so it moves
 * smoothly with the underlying distribution (Harrell & Davis,
 * Biometrika 1982).
 */

#ifndef IMO_BENCH_STATS_HH
#define IMO_BENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace imo::bench
{

/** Median of @p v (0 for an empty vector). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace detail
{

/** Continued fraction of the incomplete beta function (modified
 *  Lentz), valid for x < (a + 1) / (a + b + 2). */
inline double
betaContinuedFraction(double a, double b, double x)
{
    constexpr double tiny = 1e-300;
    constexpr double eps = 1e-14;
    double c = 1.0;
    double d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
    double h = d;
    for (int m = 1; m <= 10000; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
        d = 1.0 + aa * d;
        d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
        c = 1.0 + aa / c;
        c = std::fabs(c) < tiny ? tiny : c;
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
        d = 1.0 + aa * d;
        d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
        c = 1.0 + aa / c;
        c = std::fabs(c) < tiny ? tiny : c;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
inline double
regIncBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double lbt = std::lgamma(a + b) - std::lgamma(a) -
                       std::lgamma(b) + a * std::log(x) +
                       b * std::log1p(-x);
    if (x < (a + 1.0) / (a + b + 2.0))
        return std::exp(lbt) * betaContinuedFraction(a, b, x) / a;
    return 1.0 -
           std::exp(lbt) * betaContinuedFraction(b, a, 1.0 - x) / b;
}

} // namespace detail

/** Harrell-Davis estimate of the @p p quantile of @p v (0 < p < 1). */
inline double
hdQuantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 1)
        return v[0];
    const double a = p * (n + 1.0);
    const double b = (1.0 - p) * (n + 1.0);
    double sum = 0.0;
    double prev = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
        const double cur =
            detail::regIncBeta(a, b, static_cast<double>(i) / n);
        sum += (cur - prev) * v[i - 1];
        prev = cur;
    }
    return sum;
}

/** How many of @p v lie strictly above @p threshold. */
inline std::size_t
countAbove(const std::vector<double> &v, double threshold)
{
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(),
                      [&](double x) { return x > threshold; }));
}

} // namespace imo::bench

#endif // IMO_BENCH_STATS_HH
