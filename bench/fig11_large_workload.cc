/**
 * @file
 * Figure 11: defragmentation at large scale. The paper runs the
 * Figure 9 experiment with a 50 GiB maxmemory policy and >100 GiB
 * inserted on a 512 GiB testbed; this reproduction runs the identical
 * logic scaled by 1/50 (1 GiB policy, ~2.5 GiB inserted) over a
 * phantom address space — layout, metadata, controller dynamics and
 * page accounting are real; only the payload bytes are absent (see
 * PhantomAddressSpace in src/sim/address_space.h and
 * docs/ARCHITECTURE.md, layer 6). The paper's qualitative findings to
 * look for:
 *
 *  - >2.5x fragmentation once eviction begins;
 *  - Anchorage converges to activedefrag's steady state but over a
 *    longer time frame, because its first pass badly mispredicts the
 *    pause cost and the controller then backs off to honour O_ub;
 *  - Mesh barely moves at this scale.
 *
 * Flags: --smoke (1/8-scale run for CI: 128 MiB policy, ~300 MB
 * inserted, 250 virtual seconds — same eviction onset fraction),
 * --out=FILE (machine-readable JSON; the run is virtual-clock
 * deterministic, so the numbers are bit-stable across runs).
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
            out_file = v;
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out=FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    std::printf("=== Figure 11: large-memory defragmentation "
                "(paper: 50 GiB policy; here %s, scaled %s) "
                "===\n\n",
                smoke ? "128 MiB" : "1 GiB",
                smoke ? "1/400 (smoke)" : "1/50");

    kv::CacheWorkloadConfig workload_config;
    workload_config.maxMemory = smoke ? 128ull << 20 : 1ull << 30;
    workload_config.valueSize = 500;
    workload_config.driftPeriod = smoke ? 50000 : 400000;

    FragTimeline timeline;
    // Virtual seconds, as in the paper's 2000.
    timeline.seconds = smoke ? 250.0 : 1000.0;
    timeline.tickSec = 5.0;
    // ~2.4 GiB inserted in total (smoke: ~300 MB); eviction begins
    // ~40% through either way, so the curves keep their shape.
    timeline.totalInserts = smoke ? 500000 : 4000000;

    std::vector<FragCurve> curves;

    {
        VirtualClock clock;
        JemallocModel model;
        curves.push_back(runFragConfig(
            "baseline", model, workload_config, timeline, clock,
            [](kv::CacheWorkload &) {}));
    }
    {
        VirtualClock clock;
        JemallocModel model;
        curves.push_back(runFragConfig(
            "activedefrag", model, workload_config, timeline, clock,
            [](kv::CacheWorkload &workload) {
                workload.defragCycle(workload.liveRecords() / 10 + 1);
            }));
    }
    {
        VirtualClock clock;
        MeshModel model(timeline.seed);
        model.setProbeBudget(32); // Mesh's default pacing
        curves.push_back(runFragConfig(
            "mesh", model, workload_config, timeline, clock,
            [&model](kv::CacheWorkload &) { model.maintain(); }));
    }
    // Anchorage's defrag totals, for the efficiency summary: what it
    // recovered per CPU-second of defrag work and per microsecond of
    // mutator-visible pause.
    anchorage::DefragStats stw_stats;
    double defrag_sec = 0;
    double pause_sec = 0;
    double first_pause = 0;
    size_t passes = 0;
    {
        VirtualClock clock;
        PhantomAddressSpace space;
        anchorage::ControlParams control;
        control.useModeledTime = true;
        control.oUb = 0.05; // the paper's 5% overhead maximum
        control.alpha = 0.25;
        // Monolithic passes on purpose: this figure reproduces the
        // paper's alpha-mispredicts-at-scale pause story; the batched
        // bound that fixes it is fig12's subject.
        control.batchBytes = 0;
        // Tighter fragmentation goals so convergence completes within
        // the (scaled) window; the paper's run is 2x longer.
        control.fUb = 1.25;
        control.fLb = 1.05;
        anchorage::AnchorageAllocModel model(space, clock, control);
        curves.push_back(runFragConfig(
            "anchorage", model, workload_config, timeline, clock,
            [&](kv::CacheWorkload &) {
                model.maintain();
                if (model.lastAction().defragged) {
                    if (first_pause == 0)
                        first_pause = model.lastAction().pauseSec;
                    stw_stats.accumulate(model.lastAction().stats);
                }
            }));
        passes = model.controller().passes();
        defrag_sec = model.controller().totalDefragSec();
        pause_sec = model.controller().totalPauseSec();
    }

    printCurves(curves, timeline.tickSec);

    std::printf("\nsummary (final RSS, %zu MiB policy):\n",
                static_cast<size_t>(workload_config.maxMemory >> 20));
    const double baseline_final = curves[0].rssMb.back();
    for (const auto &curve : curves) {
        std::printf("  %-13s %8.1f MB  (%+.0f%% vs baseline)\n",
                    curve.name.c_str(), curve.rssMb.back(),
                    (curve.rssMb.back() / baseline_final - 1) * 100);
    }
    std::printf("\ndefrag efficiency (bytes back per unit of cost):\n");
    std::printf("  %-18s %12s %12s %14s %16s\n", "mode", "recovered",
                "cpu_sec", "MB/cpu-sec", "KB/pause-us");
    // The mover recovers extent (reclaimedBytes): resident bytes
    // returned to the kernel.
    const double recovered = static_cast<double>(stw_stats.reclaimedBytes);
    const double mb_per_cpu_sec =
        defrag_sec > 0 ? recovered / 1e6 / defrag_sec : 0.0;
    std::printf("  %-18s %10.1fMB %11.2fs %14.1f ", "anchorage (stw)",
                recovered / 1e6, defrag_sec, mb_per_cpu_sec);
    if (pause_sec > 0)
        std::printf("%15.2f\n", recovered / 1024.0 / (pause_sec * 1e6));
    else
        std::printf("%16s\n", "inf (no pause)");
    std::printf("\nanchorage controller: first pause %.3f s (alpha * "
                "heap mispredicts badly at this scale), then\n"
                "backs off ~%.0f s to stay within O_ub=5%%; %zu passes "
                "over the run — the slow convergence the paper\n"
                "describes around its 7 s pause and 250 s backoff.\n",
                first_pause, first_pause / 0.05, passes);

    if (out_file != nullptr) {
        // Everything here runs on the virtual clock over seeded
        // models, so the whole report is deterministic — the diff
        // gate can hold these metrics to exact equality (--strict).
        JsonReport report;
        for (const auto &curve : curves) {
            report.add(curve.name + ".final_rss_mb",
                       curve.rssMb.back(), "MB");
            report.add(curve.name + ".final_frag",
                       curve.usedMb.back() > 0
                           ? curve.rssMb.back() / curve.usedMb.back()
                           : 0.0);
        }
        report.add("anchorage_stw.recovered_mb", recovered / 1e6, "MB");
        report.add("anchorage_stw.defrag_cpu_sec", defrag_sec, "s");
        report.add("anchorage_stw.mb_per_cpu_sec", mb_per_cpu_sec, "MB/s");
        report.add("anchorage_stw.first_pause_s", first_pause, "s");
        report.add("anchorage_stw.passes",
                   static_cast<double>(passes));
        if (!report.writeTo(out_file, "fig11_large_workload"))
            return 1;
    }
    return 0;
}
