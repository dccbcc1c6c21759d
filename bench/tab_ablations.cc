/**
 * @file
 * Ablation of one design decision the paper argues for: Anchorage pause
 * cost vs the aggression parameter alpha (§4.3) — what a single partial
 * pass costs as a function of how much of the heap it may move. (The
 * pin-tracking and handle-fault-check costs are measured by
 * fig05_translate_cost.)
 *
 * Usage: tab_ablations (no flags)
 */

#include <cstdio>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "core/runtime.h"
#include "sim/address_space.h"

int
main(int argc, char **argv)
{
    using namespace alaska;

    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    std::printf("=== Anchorage pause cost vs aggression alpha "
                "(one pass over a fragmented 64 MiB heap) ===\n\n");
    std::printf("%8s %12s %14s %14s\n", "alpha", "moved(MB)",
                "pause(ms)", "reclaimed(MB)");
    for (double alpha : {0.05, 0.1, 0.25, 0.5, 1.0}) {
        RealAddressSpace space;
        anchorage::AnchorageService service(space,
                                            anchorage::AnchorageConfig{});
        Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 20});
        runtime.attachService(&service);
        std::vector<void *> handles;
        for (int i = 0; i < 120000; i++)
            handles.push_back(runtime.halloc(512));
        for (size_t i = 0; i < handles.size(); i++) {
            if (i % 2 != 0)
                runtime.hfree(handles[i]);
        }
        const auto budget = static_cast<size_t>(
            alpha * static_cast<double>(service.heapExtent()));
        const auto stats = service.defrag(budget);
        std::printf("%8.2f %12.1f %14.3f %14.1f\n", alpha,
                    static_cast<double>(stats.movedBytes) / (1 << 20),
                    stats.measuredSec * 1e3,
                    static_cast<double>(stats.reclaimedBytes) / (1 << 20));
        for (size_t i = 0; i < handles.size(); i += 2)
            runtime.hfree(handles[i]);
    }
    std::printf("paper: alpha bounds the per-pause work so the "
                "controller can amortize defragmentation across\n"
                "several pauses (partial defragmentation).\n");
    return 0;
}
