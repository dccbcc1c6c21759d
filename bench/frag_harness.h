/**
 * @file
 * Shared harness for the RSS-over-time experiments (Figures 9/10/11):
 * drives the cache workload against an AllocModel at a fixed insert
 * rate over virtual time, giving each memory manager its maintenance
 * beat and sampling RSS each tick.
 */

#ifndef ALASKA_BENCH_FRAG_HARNESS_H
#define ALASKA_BENCH_FRAG_HARNESS_H

#include <functional>
#include <string>
#include <vector>

#include "alloc_sim/alloc_model.h"
#include "base/rng.h"
#include "kv/cache_workload.h"
#include "sim/clock.h"

namespace alaska::bench
{

/** One sampled RSS curve. */
struct FragCurve
{
    std::string name;
    std::vector<double> rssMb;
    std::vector<double> usedMb;
};

/** Timeline parameters. */
struct FragTimeline
{
    double seconds = 10.0;
    double tickSec = 0.1;
    size_t totalInserts = 2000000;
    /**
     * Seed handed to every stochastic model the figure constructs
     * (MeshModel's probe order). One knob
     * per experiment — not a hardcoded literal per call site — keeps
     * the whole figure reproducible and re-seedable in one place.
     */
    uint64_t seed = Rng::defaultSeed;
};

/**
 * Run one manager over the timeline.
 * @param per_tick manager-specific maintenance (activedefrag cycles,
 *        meshing, controller ticks); receives the virtual clock.
 */
inline FragCurve
runFragConfig(const std::string &name, AllocModel &model,
              kv::CacheWorkloadConfig workload_config,
              const FragTimeline &timeline, VirtualClock &clock,
              const std::function<void(kv::CacheWorkload &)> &per_tick)
{
    FragCurve curve;
    curve.name = name;
    kv::CacheWorkload workload(model, workload_config);
    const auto ticks =
        static_cast<size_t>(timeline.seconds / timeline.tickSec);
    const size_t per_tick_inserts = timeline.totalInserts / ticks;
    for (size_t t = 0; t < ticks; t++) {
        workload.insert(per_tick_inserts);
        per_tick(workload);
        clock.advance(timeline.tickSec);
        curve.rssMb.push_back(static_cast<double>(model.rss()) /
                              (1 << 20));
        curve.usedMb.push_back(
            static_cast<double>(workload.usedMemory()) / (1 << 20));
    }
    return curve;
}

/** Print curves as one CSV block: time plus one column per curve. */
inline void
printCurves(const std::vector<FragCurve> &curves, double tick_sec)
{
    std::printf("time_s");
    for (const auto &curve : curves)
        std::printf(",%s_rss_mb", curve.name.c_str());
    std::printf(",used_mb\n");
    const size_t n = curves.front().rssMb.size();
    for (size_t t = 0; t < n; t++) {
        std::printf("%.1f", static_cast<double>(t + 1) * tick_sec);
        for (const auto &curve : curves)
            std::printf(",%.1f", curve.rssMb[t]);
        std::printf(",%.1f\n", curves.front().usedMb[t]);
    }
}

} // namespace alaska::bench

#endif // ALASKA_BENCH_FRAG_HARNESS_H
