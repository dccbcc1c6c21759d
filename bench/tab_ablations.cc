/**
 * @file
 * Ablations of three design decisions the paper argues for:
 *
 *  1. Pin tracking: stack pin sets (no atomics) vs the naive atomic
 *     pin counts the paper argues against, under multithreaded pin
 *     pressure (§3.4).
 *  2. The handle-fault check (§7): translate vs translateChecked.
 *  3. Anchorage pause cost vs the aggression parameter alpha (§4.3):
 *     what a single partial pass costs as a function of how much of
 *     the heap it may move.
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/timer.h"
#include "core/malloc_service.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;

/** Pins/second across threads for one tracking strategy. */
template <typename PinOp>
double
pinThroughput(Runtime &runtime, void *handle, int n_threads, PinOp op)
{
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> total{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; t++) {
        threads.emplace_back([&] {
            ThreadRegistration reg(runtime);
            uint64_t local = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                op(handle);
                local++;
            }
            total.fetch_add(local);
        });
    }
    Stopwatch watch;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    const double sec = watch.elapsedSec();
    for (auto &thread : threads)
        thread.join();
    return static_cast<double>(total.load()) / sec;
}

} // namespace

int
main()
{
    std::printf("=== Design ablations ===\n\n");

    // --- 1. pin tracking strategies ------------------------------------
    {
        MallocService service;
        Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12,
                                      .pinMode = PinMode::AtomicPins});
        runtime.attachService(&service);
        void *handle = runtime.halloc(64);

        std::printf("[1] pin tracking: all threads pinning ONE hot "
                    "handle (pins/sec, higher is better)\n");
        std::printf("%10s %16s %16s %8s\n", "threads", "stack pin sets",
                    "atomic counts", "ratio");
        for (int threads : {1, 2, 4, 8}) {
            const double stack = pinThroughput(
                runtime, handle, threads, [](void *h) {
                    uint64_t slots[1];
                    PinFrame frame(slots, 1);
                    volatile auto *p =
                        static_cast<int64_t *>(frame.pin(0, h));
                    (void)p;
                });
            const double atomic = pinThroughput(
                runtime, handle, threads, [](void *h) {
                    AtomicPin pin(h);
                    volatile auto *p =
                        static_cast<int64_t *>(pin.get());
                    (void)p;
                });
            std::printf("%10d %16.2e %16.2e %7.1fx\n", threads, stack,
                        atomic, stack / atomic);
        }
        std::printf("paper: atomic pin counts contend across the "
                    "machine as core counts grow; private stack pin\n"
                    "sets keep the fast path free of atomics.\n\n");
        runtime.hfree(handle);
    }

    // --- 2. handle-fault check -----------------------------------------
    {
        MallocService service;
        Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12});
        runtime.attachService(&service);
        void *handle = runtime.halloc(64);
        *static_cast<int64_t *>(translate(handle)) = 7;

        constexpr uint64_t iters = 200000000;
        volatile int64_t sink = 0;
        int64_t acc = 0;
        Stopwatch plain_watch;
        for (uint64_t i = 0; i < iters; i++)
            acc += *static_cast<int64_t *>(translate(handle));
        sink = acc;
        const double plain = plain_watch.elapsedSec();
        Stopwatch checked_watch;
        for (uint64_t i = 0; i < iters; i++)
            acc += *static_cast<int64_t *>(translateChecked(handle));
        sink = acc;
        (void)sink;
        const double checked = checked_watch.elapsedSec();
        std::printf("[2] handle-fault check (par.7): translate %.2f ns, "
                    "translateChecked %.2f ns -> +%.1f%%\n",
                    plain / iters * 1e9, checked / iters * 1e9,
                    (checked / plain - 1) * 100);
        std::printf("(per-translation cost; real programs do work "
                    "between translations, which is how the paper's\n"
                    "whole-program figure lands at ~1-2%%.)\n\n");
        runtime.hfree(handle);
    }

    // --- 3. pause cost vs alpha ------------------------------------------
    {
        std::printf("[3] Anchorage pause cost vs aggression alpha "
                    "(one pass over a fragmented 64 MiB heap)\n");
        std::printf("%8s %12s %14s %14s\n", "alpha", "moved(MB)",
                    "pause(ms)", "reclaimed(MB)");
        for (double alpha : {0.05, 0.1, 0.25, 0.5, 1.0}) {
            RealAddressSpace space;
            anchorage::AnchorageService service(
                space, anchorage::AnchorageConfig{});
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
                        static_cast<double>(stats.movedBytes) /
                            (1 << 20),
                        stats.measuredSec * 1e3,
                        static_cast<double>(stats.reclaimedBytes) /
                            (1 << 20));
            for (size_t i = 0; i < handles.size(); i += 2)
                runtime.hfree(handles[i]);
        }
        std::printf("paper: alpha bounds the per-pause work so the "
                    "controller can amortize defragmentation across\n"
                    "several pauses (partial defragmentation).\n");
    }
    return 0;
}
