/**
 * @file
 * Figure 9 (and Figure 1): RSS of a Redis-like cache with maxmemory
 * 100 MiB under LRU churn, for the memory managers the paper
 * compares: the non-moving baseline, Redis-style activedefrag over
 * jemalloc hints, Mesh, and Anchorage. The headline: Anchorage —
 * with zero application cooperation — reduces memory on par with the
 * bespoke activedefrag (up to ~40% below baseline), while the
 * baseline never recovers.
 *
 * Flags: --smoke (smaller memory policy and insert count for CI),
 * --out=FILE (machine-readable per-curve final/floor RSS; the run is
 * virtual-clock + fixed-seed deterministic, so the committed
 * BENCH_fig09.json baseline diffs exactly).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "alloc_sim/jemalloc_model.h"
#include "anchorage/alloc_model_adapter.h"
#include "bench/bench_util.h"
#include "bench/frag_harness.h"
#include "mesh/mesh_model.h"
#include "sim/address_space.h"

int
main(int argc, char **argv)
{
    using namespace alaska;
    using namespace alaska::bench;

    bool smoke = false;
    const char *out_file = nullptr;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (const char *v = outFileArg(argv[i])) {
            out_file = v; // points into argv, which outlives the loop
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out=FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    kv::CacheWorkloadConfig workload_config;
    workload_config.maxMemory = 100 << 20;
    workload_config.valueSize = 500;
    workload_config.driftPeriod = 100000;

    FragTimeline timeline;
    timeline.seconds = 10.0;
    timeline.tickSec = 0.1;
    timeline.totalInserts = 1500000;
    if (smoke) {
        // Same shape, ~7x turnover of a 20 MiB policy in 30 ticks —
        // enough churn for every manager's mechanism to visibly act.
        workload_config.maxMemory = 20 << 20;
        timeline.seconds = 3.0;
        timeline.totalInserts = 300000;
    }

    std::printf("=== Figure 9 (and Figure 1): Redis-cache RSS under "
                "defragmentation ===\n");
    std::printf("maxmemory %zu MiB, ~500 B values (drifting mix), "
                "sampled-LRU eviction, %.0f s of churn\n\n",
                workload_config.maxMemory >> 20, timeline.seconds);

    std::vector<FragCurve> curves;

    { // Baseline: Redis's default allocator, no defragmentation.
        VirtualClock clock;
        JemallocModel model;
        curves.push_back(runFragConfig(
            "baseline", model, workload_config, timeline, clock,
            [](kv::CacheWorkload &) {}));
    }
    { // activedefrag: 10 Hz hint-driven reallocation cycles.
        VirtualClock clock;
        JemallocModel model;
        curves.push_back(runFragConfig(
            "activedefrag", model, workload_config, timeline, clock,
            [](kv::CacheWorkload &workload) {
                workload.defragCycle(workload.liveRecords() / 3 + 1);
            }));
    }
    { // Mesh: background meshing passes.
        VirtualClock clock;
        MeshModel model(timeline.seed);
        model.setProbeBudget(256);
        curves.push_back(runFragConfig(
            "mesh", model, workload_config, timeline, clock,
            [&model](kv::CacheWorkload &) { model.maintain(); }));
    }
    { // Anchorage: handles + controller, zero app cooperation.
        VirtualClock clock;
        PhantomAddressSpace space;
        anchorage::ControlParams control;
        control.useModeledTime = true;
        // Monolithic passes: this figure reproduces the paper's §4.3
        // controller, and the harness only drives maintain() at 10 Hz
        // — batched 1 MiB barriers would be clipped to one per tick
        // and starve the alpha budget. The batched-pause story lives
        // in fig12 and tab_ycsb_latency, which run real clocks.
        control.batchBytes = 0;
        anchorage::AnchorageAllocModel model(space, clock, control);
        curves.push_back(runFragConfig(
            "anchorage", model, workload_config, timeline, clock,
            [&model](kv::CacheWorkload &) { model.maintain(); }));
    }

    printCurves(curves, timeline.tickSec);

    std::printf("\nsummary (final RSS):\n");
    const double baseline_final = curves[0].rssMb.back();
    for (const auto &curve : curves) {
        std::printf("  %-14s %7.1f MB  (%+.0f%% vs baseline)\n",
                    curve.name.c_str(), curve.rssMb.back(),
                    (curve.rssMb.back() / baseline_final - 1) * 100);
    }
    std::printf("\npaper: baseline ~300 MB flat; Anchorage and "
                "activedefrag both fall to ~150 MB (about 40%%\n"
                "less); Mesh lands in between.\n");

    if (out_file != nullptr) {
        JsonReport report;
        for (const auto &curve : curves) {
            double floor = curve.rssMb.front();
            for (double r : curve.rssMb)
                floor = std::min(floor, r);
            report.add(curve.name + ".final_rss_mb", curve.rssMb.back(),
                       "MB");
            report.add(curve.name + ".floor_rss_mb", floor, "MB");
        }
        if (!report.writeTo(out_file, "fig09_redis_defrag"))
            return 1;
    }
    return 0;
}
