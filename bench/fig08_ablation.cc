/**
 * @file
 * Figure 8: the ablation study on the SPEC-like kernels — full alaska
 * vs "notracking" (no pin stores/polls) vs "nohoisting" (translate
 * before every access). Hoisting is the dominant optimization; the
 * tracking machinery should cost little on top of translation.
 *
 * Usage: fig08_ablation (no flags)
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

    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    std::printf("=== Figure 8: ablation on SPEC-like kernels "
                "(%% overhead vs raw baseline) ===\n\n");
    std::printf("%-14s %9s %12s %12s\n", "kernel", "alaska",
                "notracking", "nohoisting");

    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 22});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    std::vector<double> full, notrack, nohoist;
    for (const auto &entry : kernelRegistry()) {
        if (std::strcmp(entry.suite, "spec") != 0)
            continue;
        const double base_s = timeKernel(entry.base, entry.scale);
        const double alaska_s = timeKernel(entry.alaska, entry.scale);
        const double notrack_s = timeKernel(entry.notrack, entry.scale);
        const double nohoist_s = timeKernel(entry.nohoist, entry.scale);
        full.push_back(alaska_s / base_s);
        notrack.push_back(notrack_s / base_s);
        nohoist.push_back(nohoist_s / base_s);
        std::printf("%-14s %8.1f%% %11.1f%% %11.1f%%\n", entry.name,
                    overheadPct(base_s, alaska_s),
                    overheadPct(base_s, notrack_s),
                    overheadPct(base_s, nohoist_s));
    }
    std::printf("\n%-14s %8.1f%% %11.1f%% %11.1f%%\n", "geomean",
                (geomean(full) - 1) * 100, (geomean(notrack) - 1) * 100,
                (geomean(nohoist) - 1) * 100);
    std::printf("\npaper: disabling hoisting roughly doubles most "
                "overheads; removing tracking helps little except for\n"
                "kernels hit by the experimental StackMaps machinery "
                "(nab, xz).\n");
    return 0;
}
