/**
 * @file
 * Geometric means of ratios for the benchmark harnesses' "geomean"
 * rows. Latency percentiles live in telemetry::Histogram.
 */

#ifndef ALASKA_BASE_STATS_H
#define ALASKA_BASE_STATS_H

#include <vector>

namespace alaska
{

/**
 * Geometric mean of a set of ratios.
 *
 * Used for the "geomean overhead" rows of Figures 7 and 8. Ratios must be
 * positive; overhead percentages should be converted to ratios (1 + o)
 * before calling and back after.
 */
double geomean(const std::vector<double> &ratios);

} // namespace alaska

#endif // ALASKA_BASE_STATS_H
