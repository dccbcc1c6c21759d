/**
 * @file
 * A Redis-style cache served by the multi-threaded serving front end
 * (src/serve) with a live background defragmenter: worker threads
 * execute requests over handle-based stores while a
 * ConcurrentRelocDaemon relocates the heap under them — no
 * activedefrag, no application cooperation — and an SloTracker judges
 * every 100 ms window of completion latencies against a p999
 * objective, charging each violated window to the defrag daemon when
 * it did work during the window (or to the server itself when defrag
 * was idle).
 *
 * The request path is the typed layer end to end: every worker
 * brackets each request in an alaska::access_scope, which under this
 * demo's Concurrent mode is a real epoch scope (paper §7) — campaigns
 * move objects while these very requests dereference them, and the
 * commit protocol plus grace-deferred reclaim keep every access safe.
 * Load arrives open-loop (Poisson, intended-arrival timestamps), so
 * the printed percentiles include queueing delay and cannot hide a
 * pause (see src/serve/load_gen.h on coordinated omission).
 *
 * Build & run:  ./build/example_kv_cache_server
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "core/runtime.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/telemetry.h"
#include "ycsb/ycsb.h"

int
main()
{
    using namespace alaska;

    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 1u << 20,
                                          .shards = 3});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 20});
    runtime.attachService(&service);

    serve::ServerConfig scfg;
    scfg.workers = 3;
    scfg.valueSize = 400;
    scfg.maxMemoryPerShard = 8u << 20; // LRU eviction per shard
    serve::Server server(runtime, scfg);

    // Preload a working set, then punch holes in it (delete every even
    // record) so the daemon has fragmentation to chase from the start.
    constexpr uint64_t kRecords = 20000;
    {
        ThreadRegistration reg(runtime);
        server.populate(kRecords);
        server.fragmentEvenKeys(kRecords);
    }
    std::printf("cache server: %d workers, 8 MiB/shard LRU, "
                "fragmentation %.2fx after hole-punching\n",
                scfg.workers, service.fragmentation());

    serve::SloTracker slo(serve::SloConfig{.sloUs = 2000});
    server.setCompletionHandler(
        [&slo](const serve::Response &r) { slo.record(r); });

    anchorage::ControlParams params;
    params.mode = anchorage::DefragMode::Concurrent;
    params.pollInterval = 0.005;
    params.oUb = 1.0;
    params.alpha = 1.0;
    ConcurrentRelocDaemon daemon(runtime, service, params);
    daemon.start();
    server.start();

    // SLO sampler: closes one window per 100 ms, marking it busy when
    // the daemon's totals advanced (serve_bench does the same).
    std::atomic<bool> samplerDone{false};
    std::thread sampler([&] {
        uint64_t last = 0;
        while (!samplerDone.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            const anchorage::DefragStats s = daemon.totals();
            const uint64_t work = s.movedObjects + s.barriers + s.committed;
            slo.closeWindow(work != last);
            last = work;
        }
    });

    // Open-loop Poisson load over a keyspace larger than the resident
    // set, so inserts and LRU evictions churn the heap while the
    // daemon defragments it.
    serve::LoadGenConfig lcfg;
    lcfg.ratePerSec = 4000;
    lcfg.totalOps = 12000;
    lcfg.kind = ycsb::WorkloadKind::A;
    lcfg.records = kRecords;
    lcfg.seed = 2026;
    serve::LoadGen gen(server, lcfg);
    gen.run();

    server.stop(); // graceful: drains everything in flight
    samplerDone.store(true, std::memory_order_release);
    sampler.join();
    daemon.stop();

    // --- the exit SLO summary -------------------------------------
    const serve::SloTracker::Totals t = slo.totals();
    std::printf("\nserved %llu requests (%llu offered, 0 lost), "
                "%llu stolen cross-queue\n",
                static_cast<unsigned long long>(server.completed()),
                static_cast<unsigned long long>(gen.offered()),
                static_cast<unsigned long long>(server.steals()));
    for (const auto op : {serve::OpKind::Get, serve::OpKind::Set,
                          serve::OpKind::Rmw}) {
        if (slo.opHistogram(op).count() == 0)
            continue;
        std::printf("%-4s p50 %8.1fus   p99 %8.1fus   p999 %8.1fus\n",
                    serve::opName(op), slo.opPercentileUs(op, 50),
                    slo.opPercentileUs(op, 99),
                    slo.opPercentileUs(op, 99.9));
    }
    std::printf("SLO (p999 <= %.0fus/window): %llu of %llu windows "
                "violated, worst window p999 %.0fus\n",
                slo.sloUs(), static_cast<unsigned long long>(t.violated),
                static_cast<unsigned long long>(t.windows),
                t.worstWindowP999Us);
    if (t.violated > t.violatedIdle)
        std::printf("  %llu during %s work\n",
                    static_cast<unsigned long long>(t.violated -
                                                    t.violatedIdle),
                    anchorage::defragModeName(params.mode));
    if (t.violatedIdle > 0)
        std::printf("  %llu with defrag idle (the server's own "
                    "queueing, not a pause)\n",
                    static_cast<unsigned long long>(t.violatedIdle));

    const anchorage::DefragStats totals = daemon.totals();
    std::printf("defrag while serving: %llu objects moved, %llu "
                "commits / %llu aborts, frag %.2fx",
                static_cast<unsigned long long>(totals.movedObjects),
                static_cast<unsigned long long>(totals.committed),
                static_cast<unsigned long long>(totals.aborted),
                service.fragmentation());
    {
        ThreadRegistration reg(runtime);
        const kv::KvStats s = server.storeStats();
        std::printf(", %zu keys resident, %llu evictions\n", s.keys,
                    static_cast<unsigned long long>(s.evictions));
        server.clearStores();
    }
    std::printf("the KV code never heard about any of this — that is "
                "the point.\n");

    // What the runtime saw while serving: the telemetry counters and
    // histograms the defrag pipeline recorded (docs/OBSERVABILITY.md).
    std::printf("\n");
    telemetry::writeText(telemetry::snapshot(), stdout);
    return 0;
}
