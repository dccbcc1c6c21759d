/**
 * @file
 * Figure 8: the ablation study on the SPEC-like kernels — full alaska
 * vs "notracking" (no pin stores/polls) vs "nohoisting" (translate
 * before every access). Hoisting is the dominant optimization; the
 * tracking machinery should cost little on top of translation.
 *
 * The four configurations of a kernel alternate within every round;
 * each column is the median of the per-round ratios to the raw
 * baseline, with their interquartile range.
 *
 * Usage: fig08_ablation (no flags; 15 rounds)
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "base/stats.h"
#include "bench/bench_util.h"
#include "core/malloc_service.h"
#include "core/runtime.h"
#include "kernels/registry.h"

int
main(int argc, char **argv)
{
    using namespace alaska;
    using namespace alaska::kernels;
    using namespace alaska::bench;

    constexpr int rounds = 15;
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    std::printf("=== Figure 8: ablation on SPEC-like kernels "
                "(%% overhead vs raw baseline; median (IQR, points) "
                "of %d interleaved rounds) ===\n\n", rounds);
    std::printf("%-14s %17s %17s %17s\n", "kernel", "alaska",
                "notracking", "nohoisting");

    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 22});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    // Columns in print order; each is a ratio to variant 0, the base.
    std::vector<double> geo[3];
    for (const auto &entry : kernelRegistry()) {
        if (std::strcmp(entry.suite, "spec") != 0)
            continue;
        const auto secs = timeInterleaved(
            {entry.base, entry.alaska, entry.notrack, entry.nohoist},
            entry.scale, rounds);
        std::printf("%-14s", entry.name);
        for (size_t col = 0; col < 3; col++) {
            const Spread ratio =
                spreadOf(roundRatios(secs[0], secs[col + 1]));
            geo[col].push_back(ratio.median);
            std::printf(" %8.1f%% (%5.1f)", (ratio.median - 1.0) * 100.0,
                        ratio.iqr * 100.0);
        }
        std::printf("\n");
    }
    std::printf("\n%-14s %8.1f%% %16.1f%% %16.1f%%\n", "geomean",
                (geomean(geo[0]) - 1) * 100, (geomean(geo[1]) - 1) * 100,
                (geomean(geo[2]) - 1) * 100);
    std::printf("\npaper: disabling hoisting roughly doubles most "
                "overheads; removing tracking helps little except for\n"
                "kernels hit by the experimental StackMaps machinery "
                "(nab, xz).\n");
    return 0;
}
