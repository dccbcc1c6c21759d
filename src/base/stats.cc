#include "base/stats.h"

#include <cmath>

#include "base/logging.h"

namespace alaska
{

double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 0.0;
    double log_sum = 0;
    for (double r : ratios) {
        ALASKA_ASSERT(r > 0, "geomean requires positive ratios, got %f", r);
        log_sum += std::log(r);
    }
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

} // namespace alaska
