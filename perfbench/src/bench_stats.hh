/**
 * @file
 * Order statistics and ratios used to summarise repeated timings.
 *
 * Quartiles follow Python's statistics.quantiles(values, n=4) with
 * its default "exclusive" method, so a spread computed here matches
 * the one a reader recomputes from the printed samples.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cctype>
#include <string>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * First, second and third quartile, computed exactly as Python's
 * statistics.quantiles(v, n=4) does (exclusive method, integer
 * index arithmetic, index clamped to 1..n-1 — which extrapolates
 * slightly beyond the extremes for very small samples).  A single
 * sample yields that sample three times; empty yields zeros.
 */
inline std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::array<double, 3> q{0.0, 0.0, 0.0};
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1)
        return {v[0], v[0], v[0]};
    const long m = ld + 1;
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)]
                 * static_cast<double>(4 - delta)
             + v[static_cast<std::size_t>(j)]
                   * static_cast<double>(delta))
            / 4.0;
    }
    return q;
}

/** Interquartile range as a share of the median; 0 when the median is 0. */
inline double
relativeSpread(const std::vector<double> &v)
{
    const std::array<double, 3> q = quartiles(v);
    return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / q[1];
}

/** @p num / @p den, or 0 when @p den is 0 (a layer that did no work). */
inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** True when @p name is a non-empty run of [A-Za-z0-9_.-]. */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    if (!std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_'
               || c == '.' || c == '-';
    });
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
