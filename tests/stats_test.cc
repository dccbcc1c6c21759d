/**
 * @file
 * Tests for the geometric-mean helper used by the benchmark harnesses.
 */

#include <gtest/gtest.h>

#include "base/stats.h"

namespace
{

using namespace alaska;

TEST(Geomean, MatchesHandComputation)
{
    // geomean(1.0, 4.0) = 2.0
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    // The paper's headline: per-benchmark ratios combine geometrically.
    EXPECT_NEAR(geomean({1.1, 1.1, 1.1}), 1.1, 1e-12);
}

TEST(Geomean, SingleElement)
{
    EXPECT_DOUBLE_EQ(geomean({3.5}), 3.5);
}

} // namespace
