/**
 * @file
 * Tests for the multithreaded memcached simulation (Figure 12's
 * substrate): correctness under concurrent workers, and latency
 * recording while Anchorage pauses relocate memory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

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

TEST(MemcachedSim, LoadAndServeOnLibc)
{
    LibcAlloc alloc;
    MemcachedSim<LibcAlloc> server(alloc, 8);
    ycsb::Workload workload(ycsb::WorkloadKind::A, 2000, 3, 100);
    server.load(workload);
    EXPECT_EQ(server.keyCount(), 2000u);
    for (int i = 0; i < 5000; i++)
        server.serve(workload.next(), workload);
    EXPECT_EQ(server.keyCount(), 2000u); // A never inserts new keys
}

TEST(MemcachedSim, ConcurrentWorkersOnAlaskaWithPauses)
{
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    AlaskaAlloc alloc(runtime);
    MemcachedSim<AlaskaAlloc> server(alloc, 16);

    ycsb::Workload load_def(ycsb::WorkloadKind::A, 3000, 5, 100);
    {
        ThreadRegistration reg(runtime);
        server.load(load_def);
    }

    constexpr int n_threads = 4;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> served{0};
    std::vector<telemetry::Histogram> latencies(n_threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < n_threads; t++) {
        workers.emplace_back([&, t] {
            ThreadRegistration reg(runtime);
            ycsb::Workload workload(ycsb::WorkloadKind::A, 3000,
                                    100 + t, 100);
            while (!stop.load(std::memory_order_relaxed)) {
                Stopwatch watch;
                server.serve(workload.next(), workload);
                latencies[t].record(watch.elapsedNs());
                served.fetch_add(1, std::memory_order_relaxed);
                poll(); // between-request safepoint
            }
        });
    }

    // Pause thread: relocate ~256 KiB per pause, frequently.
    std::thread pauser([&] {
        while (served.load(std::memory_order_relaxed) < 40000) {
            service.defrag(256 << 10);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    pauser.join();
    stop.store(true);
    for (auto &worker : workers)
        worker.join();

    telemetry::Histogram all;
    for (const auto &h : latencies)
        all.merge(h);
    EXPECT_GE(all.count(), 40000u);
    EXPECT_GT(all.mean(), 0.0);
    EXPECT_GT(runtime.stats().barriers, 0u);

    // Store is intact after all that movement.
    ThreadRegistration reg(runtime);
    ycsb::Workload verify(ycsb::WorkloadKind::C, 3000, 5, 100);
    for (int i = 0; i < 1000; i++)
        server.serve(verify.next(), verify);
    EXPECT_EQ(server.keyCount(), 3000u);
}

} // namespace
