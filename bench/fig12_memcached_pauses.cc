/**
 * @file
 * Figure 12: the latency effect of Anchorage's stop-the-world pauses
 * on a multithreaded memcached-like server, across worker thread
 * counts and pause intervals. Each pause event relocates ~1 MiB
 * regardless of fragmentation (the paper's synthetic setup), but runs
 * it as a batched pass: a sequence of short barriers each moving at
 * most batchBytes, the bound the controller uses in production. The
 * table therefore reports, per cell, both the request-latency impact
 * and the per-barrier pause distribution (max / p99) that batching
 * bounds. Expected shape: noticeable average-latency impact only at
 * impractically short intervals, shrinking as the interval grows, no
 * trend with thread count, and a per-barrier max pause that tracks
 * the batch budget, not the pause-event budget.
 *
 * Flags: --smoke runs one small cell and asserts the batched-mode
 * invariant CI cares about: no single barrier moved more than
 * batchBytes (plus one object's overshoot), i.e. the max per-barrier
 * pause is bounded by the batch-derived bound.
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/timer.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "kv/alloc_policy.h"
#include "kv/memcached_sim.h"
#include "sim/address_space.h"
#include "telemetry/histogram.h"

namespace
{

using namespace alaska;
using namespace alaska::kv;

struct Cell
{
    int threads;
    int interval_ms;
    double mean_us;
    double p99_us;
    uint64_t pauses;
    /** Barriers run across all pause events (>= pauses when batched). */
    uint64_t barriers;
    /** Worst single-barrier move, bytes (the batch-bound check). */
    uint64_t max_barrier_bytes;
    /** Per-barrier pause distribution, microseconds. */
    double max_pause_us;
    double p99_pause_us;
};

Cell
runCell(int n_threads, int interval_ms, double run_sec,
        uint64_t records, size_t pause_budget, size_t batch_bytes)
{
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 4 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 22});
    runtime.attachService(&service);
    AlaskaAlloc alloc(runtime);
    MemcachedSim<AlaskaAlloc> server(alloc, 32);

    ycsb::Workload load_def(ycsb::WorkloadKind::A, records, 11, 100);
    {
        ThreadRegistration reg(runtime);
        server.load(load_def);
    }

    std::atomic<bool> stop{false};
    std::vector<telemetry::Histogram> latencies(
        static_cast<size_t>(n_threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < n_threads; t++) {
        workers.emplace_back([&, t, records] {
            ThreadRegistration reg(runtime);
            ycsb::Workload workload(ycsb::WorkloadKind::A, records,
                                    300 + t, 100);
            telemetry::Histogram latency;
            while (!stop.load(std::memory_order_relaxed)) {
                Stopwatch watch;
                server.serve(workload.next(), workload);
                latency.record(watch.elapsedNs());
                poll();
            }
            latencies[static_cast<size_t>(t)] = latency;
        });
    }

    Cell cell{};
    telemetry::Histogram barrier_pauses;
    Stopwatch run_watch;
    if (interval_ms > 0) {
        while (run_watch.elapsedSec() < run_sec) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
            // One pause event = one batched pass over ~pause_budget
            // bytes; mutators run between the barriers, so the
            // per-request pause exposure is one barrier, not the
            // whole budget.
            auto pass = service.beginBatchedDefrag(pause_budget);
            while (!pass.done()) {
                const anchorage::DefragStats s =
                    pass.step(batch_bytes);
                barrier_pauses.record(
                    static_cast<uint64_t>(s.measuredSec * 1e9));
                cell.max_barrier_bytes = std::max(
                    cell.max_barrier_bytes, s.maxBarrierBytes);
                cell.barriers++;
            }
            cell.pauses++;
        }
    } else {
        // Control: no pauses at all.
        std::this_thread::sleep_for(std::chrono::duration<double>(run_sec));
    }
    stop.store(true);
    for (auto &worker : workers)
        worker.join();

    telemetry::Histogram all;
    for (const telemetry::Histogram &h : latencies)
        all.merge(h);
    cell.threads = n_threads;
    cell.interval_ms = interval_ms;
    cell.mean_us = all.mean() / 1e3;
    cell.p99_us = all.percentile(99) / 1e3;
    cell.max_pause_us = static_cast<double>(barrier_pauses.max()) / 1e3;
    cell.p99_pause_us = barrier_pauses.percentile(99) / 1e3;
    return cell;
}

/**
 * CI smoke: one small cell; fail loudly if any barrier of a batched
 * pass moved more than the batch budget plus one object's overshoot
 * (the byte-derived per-barrier pause bound — wall time would flake
 * on a loaded host, bytes cannot).
 */
int
runSmoke()
{
    const size_t batch = 128 << 10;
    const size_t budget = 512 << 10;
    // Max memcached object here: ~100 B value + key + entry overhead,
    // far below this slack.
    const uint64_t slack = 4096;
    const Cell cell = runCell(2, 50, 0.4, 4000, budget, batch);

    std::printf("fig12 smoke: %llu pauses, %llu barriers, max barrier "
                "%llu bytes (bound %zu+%llu), max pause %.1f us\n",
                static_cast<unsigned long long>(cell.pauses),
                static_cast<unsigned long long>(cell.barriers),
                static_cast<unsigned long long>(cell.max_barrier_bytes),
                batch, static_cast<unsigned long long>(slack),
                cell.max_pause_us);
    if (cell.max_barrier_bytes > batch + slack) {
        std::fprintf(stderr,
                     "FAIL: a barrier moved %llu bytes, above the "
                     "batch budget %zu (+%llu slack)\n",
                     static_cast<unsigned long long>(
                         cell.max_barrier_bytes),
                     batch, static_cast<unsigned long long>(slack));
        return 1;
    }
    if (cell.pauses > 0 && cell.barriers < cell.pauses) {
        std::fprintf(stderr, "FAIL: %llu pause events ran only %llu "
                             "barriers\n",
                     static_cast<unsigned long long>(cell.pauses),
                     static_cast<unsigned long long>(cell.barriers));
        return 1;
    }
    std::printf("fig12 smoke OK\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            return runSmoke();
        std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
        return 2;
    }

    const size_t budget = 1 << 20;   // ~1 MiB per pause event
    const size_t batch = 256 << 10;  // per-barrier bound

    std::printf("=== Figure 12: memcached latency vs pause interval "
                "and thread count ===\n");
    std::printf("YCSB-A, ~1 MiB relocated per pause event, batched "
                "into <=256 KiB barriers; latencies in microseconds\n\n");
    std::printf("%8s %12s %10s %10s %8s %9s %10s %10s %10s\n",
                "threads", "interval_ms", "mean_us", "p99_us", "pauses",
                "barriers", "maxp_us", "p99p_us", "overhead");

    for (int threads : {1, 2, 4, 8}) {
        // Per-thread-count control without pauses isolates the pause
        // cost from plain lock contention.
        const Cell control =
            runCell(threads, 0, 1.0, 20000, budget, batch);
        std::printf("%8d %12s %10.2f %10.2f %8s %9s %10s %10s %10s\n",
                    threads, "none", control.mean_us, control.p99_us, "-",
                    "-", "-", "-", "-");
        for (int interval : {100, 250, 500, 1000}) {
            const Cell cell =
                runCell(threads, interval, 1.0, 20000, budget, batch);
            std::printf("%8d %12d %10.2f %10.2f %8llu %9llu %10.1f "
                        "%10.1f %9.1f%%\n",
                        cell.threads, cell.interval_ms, cell.mean_us,
                        cell.p99_us,
                        static_cast<unsigned long long>(cell.pauses),
                        static_cast<unsigned long long>(cell.barriers),
                        cell.max_pause_us, cell.p99_pause_us,
                        (cell.mean_us / control.mean_us - 1) * 100);
        }
    }
    std::printf("\npaper: ~10%% average overhead across all "
                "configurations (≈4 us), <7%% at practical intervals\n"
                "(>=500 ms); driven by outliers blocked on pauses; no "
                "correlation with thread count. Batching adds the\n"
                "maxp/p99p columns: the worst single barrier tracks "
                "the 256 KiB batch bound, not the 1 MiB event.\n");
    return 0;
}
