/**
 * @file
 * Serving front end tests: bounded-queue backpressure never loses or
 * duplicates a response, graceful shutdown drains everything in
 * flight, worker registration keeps scoped translation correct under
 * a live Concurrent campaign, and the SLO tracker's window judgment
 * and busy/idle attribution are exact. Runs in the TSAN lane
 * (scripts/check.sh --tsan): the submit/steal/drain protocol is all
 * mutex+cv, so anything TSAN flags here is a real bug.
 */

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "core/runtime.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "ycsb/ycsb.h"

namespace
{

using namespace alaska;

struct ServeFixture
{
    RealAddressSpace space;
    anchorage::AnchorageService service;
    Runtime runtime;

    explicit ServeFixture(size_t shards = 2)
        : service(space,
                  anchorage::AnchorageConfig{.subHeapBytes = 1u << 20,
                                             .shards = shards}),
          runtime(RuntimeConfig{.tableCapacity = 1u << 20})
    {
        runtime.attachService(&service);
    }
};

TEST(ServeServer, BackpressureNoLostOrDuplicatedResponses)
{
    ServeFixture fx;
    serve::ServerConfig cfg;
    cfg.workers = 3;
    cfg.queueCapacity = 4; // tiny: every producer hits backpressure
    serve::Server server(fx.runtime, cfg);

    constexpr int kProducers = 4;
    constexpr uint64_t kPerProducer = 400;
    constexpr uint64_t kTotal = kProducers * kPerProducer;

    std::vector<std::atomic<uint32_t>> seen(kTotal);
    server.setCompletionHandler([&](const serve::Response &r) {
        seen[r.id].fetch_add(1, std::memory_order_relaxed);
    });
    server.start();

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; i++) {
                serve::Request req;
                req.id = static_cast<uint64_t>(p) * kPerProducer + i;
                req.op = serve::OpKind::Get;
                req.key = req.id;
                req.intendedNs = serve::nowNs();
                ASSERT_TRUE(server.submit(req));
            }
        });
    }
    for (auto &t : producers)
        t.join();
    server.stop();

    EXPECT_EQ(server.submitted(), kTotal);
    EXPECT_EQ(server.completed(), kTotal);
    for (uint64_t id = 0; id < kTotal; id++)
        ASSERT_EQ(seen[id].load(std::memory_order_relaxed), 1u)
            << "request " << id << " executed "
            << seen[id].load(std::memory_order_relaxed) << " times";
    // With 4 producers racing into capacity-4 queues, at least some
    // submit had to wait.
    EXPECT_GT(server.backpressureWaits(), 0u);
}

TEST(ServeServer, GracefulShutdownDrainsInFlight)
{
    ServeFixture fx;
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 1024;
    serve::Server server(fx.runtime, cfg);

    std::atomic<uint64_t> completions{0};
    server.setCompletionHandler(
        [&](const serve::Response &) { completions.fetch_add(1); });
    server.start();

    constexpr uint64_t kBurst = 512;
    for (uint64_t i = 0; i < kBurst; i++) {
        serve::Request req;
        req.id = i;
        req.op = serve::OpKind::Set;
        req.key = i;
        req.intendedNs = serve::nowNs();
        ASSERT_TRUE(server.submit(req));
    }
    // Stop immediately: everything queued must still execute.
    server.stop();
    EXPECT_EQ(server.completed(), kBurst);
    EXPECT_EQ(completions.load(), kBurst);
    EXPECT_EQ(server.queueDepth(), 0u);

    // After stop, submits are refused (and not half-enqueued).
    serve::Request late;
    late.id = kBurst;
    EXPECT_FALSE(server.submit(late));
    EXPECT_EQ(server.submitted(), kBurst);

    // The stores took the writes (from registered worker threads).
    ThreadRegistration reg(fx.runtime);
    EXPECT_EQ(server.storeStats().keys, kBurst);
}

TEST(ServeServer, ScopedTranslationCorrectUnderConcurrentCampaign)
{
    ServeFixture fx;
    serve::ServerConfig cfg;
    cfg.workers = 2;
    serve::Server server(fx.runtime, cfg);

    constexpr uint64_t kRecords = 4000;
    {
        ThreadRegistration reg(fx.runtime);
        server.populate(kRecords);
        server.fragmentEvenKeys(kRecords);
    }

    anchorage::ControlParams params;
    params.mode = anchorage::DefragMode::Concurrent;
    params.pollInterval = 0.002;
    params.oUb = 1.0;
    params.alpha = 1.0;
    ConcurrentRelocDaemon daemon(fx.runtime, fx.service, params);
    daemon.start();
    server.start();

    // Open-loop traffic over the surviving odd keys while campaigns
    // relocate the heap under the workers' scoped derefs. Workload A
    // only reads and Sets (no byte-flipping Rmw), and Set writes the
    // same deterministic valueFor payload populate loaded, so every
    // odd record must still read back exactly valueFor afterwards.
    serve::LoadGenConfig lcfg;
    lcfg.ratePerSec = 30000;
    lcfg.totalOps = 6000;
    lcfg.kind = ycsb::WorkloadKind::A;
    lcfg.records = kRecords / 2;
    lcfg.seed = 5;
    lcfg.keyMap = [](uint64_t id) { return 2 * id + 1; };
    serve::LoadGen gen(server, lcfg);
    gen.run();

    // Give the daemon a generous window to actually commit moves
    // while traffic keeps the epoch machinery live (a loaded 1-core
    // CI host may need several seconds).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(8);
    while (daemon.totals().committed == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        serve::LoadGen extra(server, lcfg);
        extra.run();
    }

    server.stop();
    daemon.stop();

    EXPECT_EQ(server.completed(), server.submitted());

    {
        ThreadRegistration reg(fx.runtime);
        for (uint64_t id = 1; id < kRecords; id += 97) {
            if (id % 2 == 0)
                continue;
            auto value = server.shard(server.shardOf(id))
                             .get(ycsb::Workload::keyFor(id));
            ASSERT_TRUE(value.has_value()) << "odd record " << id;
            EXPECT_EQ(*value, server.valueFor(id))
                << "odd record " << id << " corrupted";
        }
        server.clearStores();
    }

    if (daemon.totals().committed == 0)
        GTEST_SKIP() << "no campaign committed within the window on "
                        "this host; correctness checks above still ran";
}

TEST(ServeSlo, WindowJudgmentAndMechanismAttribution)
{
    serve::SloTracker slo(serve::SloConfig{.sloUs = 1000});

    auto recordBatch = [&](uint64_t latencyNs, int n) {
        for (int i = 0; i < n; i++) {
            serve::Response r;
            r.op = serve::OpKind::Get;
            r.latencyNs = latencyNs;
            slo.record(r);
        }
    };

    // Window 1: all fast -> no violation.
    recordBatch(100 * 1000, 100);
    slo.closeWindow(false);
    EXPECT_EQ(slo.totals().violated, 0u);
    EXPECT_LE(slo.totals().worstWindowP999Us, 1000.0);
    // Window 2: tail above the SLO while defrag worked -> busy.
    recordBatch(100 * 1000, 100);
    recordBatch(5 * 1000 * 1000, 10);
    slo.closeWindow(true);
    // Window 3: same tail with no defrag work -> idle violation.
    recordBatch(100 * 1000, 100);
    recordBatch(5 * 1000 * 1000, 10);
    slo.closeWindow(false);
    // Window 4: empty -> counted as a window, never a violation.
    slo.closeWindow(true);

    const serve::SloTracker::Totals t = slo.totals();
    EXPECT_EQ(t.windows, 4u);
    EXPECT_EQ(t.violated, 2u);
    EXPECT_EQ(t.violatedIdle, 1u);
    EXPECT_GE(t.worstWindowP999Us, 1000.0);

    // Whole-run per-op histogram saw every sample across windows.
    EXPECT_EQ(slo.opHistogram(serve::OpKind::Get).count(), 320u);
}

} // namespace
