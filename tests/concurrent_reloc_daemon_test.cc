/**
 * @file
 * Tests for the background concurrent-relocation subsystem: Anchorage
 * campaigns (paper §7 promoted to a real defrag mode), the scoped
 * mark-aware translation path, the abort protocol under contention,
 * the DefragMode controller wiring, and the daemon lifecycle
 * (including the translation discipline each mode declares).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "sim/clock.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

/** Run campaigns until one makes no progress; fold the stats. */
DefragStats
campaignFully(AnchorageService &service)
{
    DefragStats total;
    for (;;) {
        const DefragStats pass = service.relocateCampaign(SIZE_MAX);
        total.accumulate(pass);
        if (pass.movedBytes == 0 && pass.reclaimedBytes == 0)
            break;
    }
    return total;
}

class CampaignTest : public ::testing::Test
{
  protected:
    CampaignTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 16}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    /** Allocate then free every other object: fragmentation ~2x. */
    std::vector<void *>
    fragmentHeap(int objects = 2000, size_t size = 256)
    {
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime_.halloc(size));
        std::vector<void *> survivors;
        for (size_t i = 0; i < handles.size(); i++) {
            if (i % 2 != 0)
                runtime_.hfree(handles[i]);
            else
                survivors.push_back(handles[i]);
        }
        return survivors;
    }

    void
    freeAll(std::vector<void *> &handles)
    {
        for (void *h : handles)
            runtime_.hfree(h);
        handles.clear();
    }

    // Declaration order matters: the service must outlive the runtime.
    RealAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(CampaignTest, CompactsFragmentedHeapWithZeroBarriers)
{
    auto survivors = fragmentHeap();
    const double frag_before = service_.fragmentation();
    ASSERT_GT(frag_before, 1.4);

    const DefragStats stats = campaignFully(service_);

    EXPECT_GT(stats.committed, 0u);
    EXPECT_GT(stats.reclaimedBytes, 0u);
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);
    EXPECT_LT(service_.fragmentation(), frag_before);
    EXPECT_LT(service_.fragmentation(), 1.2);
    // The whole point: nothing stopped the world.
    EXPECT_EQ(runtime_.stats().barriers, 0u);
    freeAll(survivors);
}

TEST_F(CampaignTest, MovedObjectsKeepTheirContents)
{
    auto survivors = fragmentHeap(600, 512);
    // Stamp each survivor with a distinct pattern.
    for (size_t i = 0; i < survivors.size(); i++)
        std::memset(translate(survivors[i]), static_cast<int>(i & 0xff),
                    512);

    const DefragStats stats = campaignFully(service_);
    ASSERT_GT(stats.committed, 0u);

    for (size_t i = 0; i < survivors.size(); i++) {
        auto *p = static_cast<unsigned char *>(translate(survivors[i]));
        for (int b = 0; b < 512; b++)
            ASSERT_EQ(p[b], static_cast<unsigned char>(i & 0xff));
    }
    freeAll(survivors);
}

TEST_F(CampaignTest, PinnedObjectsAbortAndAreCounted)
{
    auto survivors = fragmentHeap(200, 256);
    // Pin every survivor through the atomic pin counts the concurrent
    // protocol honors.
    std::vector<ConcurrentPin *> pins;
    for (void *h : survivors)
        pins.push_back(new ConcurrentPin(h));

    const DefragStats stats = service_.relocateCampaign(SIZE_MAX);
    EXPECT_EQ(stats.committed, 0u);
    EXPECT_GT(stats.pinnedSkips, 0u);
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);

    for (ConcurrentPin *pin : pins)
        delete pin;
    // Unpinned, the same campaign succeeds.
    const DefragStats retry = campaignFully(service_);
    EXPECT_GT(retry.committed, 0u);
    freeAll(survivors);
}

TEST_F(CampaignTest, HfreeOfAMarkedEntryIsSafe)
{
    // Simulate the mover by hand: mark the entry, then free the handle
    // as a racing mutator would. The free must claim the real pointer
    // (no double free, no marked pointer reaching the service) and the
    // mover's commit CAS must fail.
    void *filler = runtime_.halloc(256);
    void *h = runtime_.halloc(256);
    runtime_.hfree(filler); // a hole below h, so h is movable in theory
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    auto &entry = runtime_.table().entry(id);

    void *old_ptr = entry.ptr.load();
    entry.ptr.store(reloc::marked(old_ptr));
    const uint32_t live_before = runtime_.table().liveCount();
    runtime_.hfree(h);
    EXPECT_EQ(runtime_.table().liveCount(), live_before - 1);

    // Mover wakes up and tries to commit: the world moved on.
    void *expected = reloc::marked(old_ptr);
    EXPECT_FALSE(entry.ptr.compare_exchange_strong(
        expected, reinterpret_cast<void *>(0xdead0)));
}

TEST_F(CampaignTest, ScopedTranslationIsPlainWhenIdle)
{
    void *h = runtime_.halloc(64);
    {
        ConcurrentAccessScope scope;
        // No campaign active: identical to the one-load fast path, and
        // no pin may be left behind.
        EXPECT_EQ(translateScoped(h), translate(h));
        {
            ConcurrentAccessScope nested;
            EXPECT_EQ(translateScoped(h), translate(h));
        }
    }
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    EXPECT_EQ(runtime_.table().entry(id).atomicPinCount(), 0u);
    runtime_.hfree(h);
}

/**
 * The contention stress from the issue: accessor threads read through
 * the scoped strip translation, write through the pin handshake, and
 * churn handles through hfree on live objects while campaigns relocate
 * them. Asserts no lost writes (per-object counters stay exact), no
 * torn objects, no double frees (the sub-heap's invariant checks fatal
 * on those), and that the campaign ledger balances:
 * attempts == committed + aborted + noSpace.
 */
TEST_F(CampaignTest, ContentionStressNoLostWritesNoDoubleFrees)
{
    constexpr int n_threads = 4;
    constexpr int objs_per_thread = 64;
    constexpr size_t obj_size = 256;
    constexpr int iters = 30000;

    // Interleave target objects with filler that is freed immediately,
    // so the campaign always has holes to compact into.
    std::vector<std::vector<void *>> objects(n_threads);
    std::vector<void *> filler;
    for (int t = 0; t < n_threads; t++) {
        for (int i = 0; i < objs_per_thread; i++) {
            filler.push_back(runtime_.halloc(obj_size));
            void *h = runtime_.halloc(obj_size);
            std::memset(translate(h), 0, obj_size);
            objects[t].push_back(h);
        }
    }
    for (void *h : filler)
        runtime_.hfree(h);

    std::atomic<int> active{n_threads};
    std::atomic<uint64_t> ops{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; t++) {
        threads.emplace_back([&, t] {
            ThreadRegistration reg(runtime_);
            // Decrement on every exit path — a fatal assertion returns
            // out of the lambda, and the campaign loop below must not
            // spin forever on a thread that already bailed.
            struct ActiveGuard
            {
                std::atomic<int> &count;
                ~ActiveGuard()
                {
                    count.fetch_sub(1, std::memory_order_release);
                }
            } guard{active};
            Rng rng(1000 + t);
            std::vector<uint64_t> expected(objs_per_thread, 0);
            for (int i = 0; i < iters && !::testing::Test::HasFatalFailure();
                 i++) {
                const int j = static_cast<int>(
                    rng.below(objs_per_thread));
                if (i % 97 == 96) {
                    // Churn: free and reallocate under the relocator.
                    runtime_.hfree(objects[t][j]);
                    objects[t][j] = runtime_.halloc(obj_size);
                    ConcurrentPin pin(objects[t][j]);
                    std::memset(pin.get(), 0, obj_size);
                    expected[j] = 0;
                } else {
                    {
                        // Reads go through the scope's strip
                        // translation: no RMW, never aborts a move.
                        ConcurrentAccessScope scope;
                        const auto *p =
                            static_cast<const unsigned char *>(
                                translateScoped(objects[t][j]));
                        uint64_t counter;
                        std::memcpy(&counter, p, sizeof counter);
                        // Lost-write check: the object must hold
                        // exactly the value the owner last wrote.
                        ASSERT_EQ(counter, expected[j]);
                        // Torn-copy check: the tail bytes all carry
                        // the counter's low byte.
                        const auto tag =
                            static_cast<unsigned char>(counter & 0xff);
                        for (size_t b = sizeof counter; b < obj_size;
                             b++)
                            ASSERT_EQ(p[b], tag);
                    }
                    // Writes take the pin handshake: the pin excludes
                    // the mover, so the store cannot race a copy.
                    const uint64_t counter = expected[j] + 1;
                    ConcurrentPin pin(objects[t][j]);
                    auto *p = static_cast<unsigned char *>(pin.get());
                    std::memcpy(p, &counter, sizeof counter);
                    std::memset(p + sizeof counter,
                                static_cast<int>(counter & 0xff),
                                obj_size - sizeof counter);
                    expected[j] = counter;
                }
                ops.fetch_add(1, std::memory_order_relaxed);
                poll();
            }
        });
    }

    // Wait until mutators are actually running, then relocate under
    // them until every thread has finished (or bailed on a failure).
    while (ops.load(std::memory_order_relaxed) == 0 &&
           active.load(std::memory_order_acquire) == n_threads) {
        std::this_thread::yield();
    }
    DefragStats stats;
    while (active.load(std::memory_order_acquire) > 0)
        stats.accumulate(service_.relocateCampaign(SIZE_MAX));
    for (auto &th : threads)
        th.join();

    EXPECT_GT(stats.attempts, 0u);
    EXPECT_GT(stats.committed, 0u) << "campaigns never moved anything";
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);
    EXPECT_EQ(runtime_.stats().barriers, 0u);

    for (auto &per_thread : objects)
        for (void *h : per_thread)
            runtime_.hfree(h);
}

/**
 * Campaign hole coalescing: YCSB-shaped churn (mixed value sizes,
 * random updates) used to strand campaigns above the stop-the-world
 * floor — evacuating a source sub-heap leaves runs of small adjacent
 * holes, and without merging them no single hole fits the larger
 * values, so placement falls back to bump space and fragmentation
 * plateaus. With coalesceHoles() run per evacuated source, campaigns
 * must land within a small margin of what a stop-the-world pass
 * reaches on the *identical* layout (same seed, same allocation
 * sequence, sequential runtimes).
 */
TEST(CampaignCoalesceTest, YcsbShapedChurnReachesTheStopTheWorldFloor)
{
    constexpr int slots = 3000;
    constexpr int churn_ops = 20000;
    constexpr size_t sizes[] = {64, 96, 128, 256, 320, 512, 1024};

    // Mixed-size allocate, churn, then a deletion wave: the YCSB shape.
    auto run_workload = [&](Runtime &runtime, Rng &rng) {
        std::vector<void *> handles(slots, nullptr);
        auto alloc_slot = [&](int i) {
            handles[i] = runtime.halloc(
                sizes[rng.below(std::size(sizes))]);
        };
        for (int i = 0; i < slots; i++)
            alloc_slot(i);
        for (int op = 0; op < churn_ops; op++) {
            const int i = static_cast<int>(rng.below(slots));
            runtime.hfree(handles[i]);
            alloc_slot(i);
        }
        std::vector<void *> survivors;
        for (int i = 0; i < slots; i++) {
            if (i % 2 != 0)
                runtime.hfree(handles[i]);
            else
                survivors.push_back(handles[i]);
        }
        return survivors;
    };

    double frag_stw = 0.0;
    {
        RealAddressSpace space;
        AnchorageService service(space,
                                 AnchorageConfig{.subHeapBytes = 1 << 20});
        Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
        runtime.attachService(&service);
        ThreadRegistration reg(runtime);
        Rng rng(7);
        auto survivors = run_workload(runtime, rng);
        ASSERT_GT(service.fragmentation(), 1.3);
        service.defragFully();
        frag_stw = service.fragmentation();
        for (void *h : survivors)
            runtime.hfree(h);
    }

    double frag_campaign = 0.0;
    {
        RealAddressSpace space;
        AnchorageService service(space,
                                 AnchorageConfig{.subHeapBytes = 1 << 20});
        Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
        runtime.attachService(&service);
        ThreadRegistration reg(runtime);
        Rng rng(7);
        auto survivors = run_workload(runtime, rng);
        ASSERT_GT(service.fragmentation(), 1.3);
        DefragStats stats = campaignFully(service);
        frag_campaign = service.fragmentation();
        EXPECT_GT(stats.committed, 0u);
        EXPECT_EQ(stats.attempts,
                  stats.committed + stats.aborted + stats.noSpace);
        EXPECT_EQ(runtime.stats().barriers, 0u);
        for (void *h : survivors)
            runtime.hfree(h);
    }

    // "Reaches the STW floor": the floor is defined by the identical-
    // layout stop-the-world pass — mixed sizes put it above the uniform
    // ~1.05, so the absolute bound is a backstop, not the yardstick.
    EXPECT_LE(frag_campaign, frag_stw + 0.05)
        << "campaign floor " << frag_campaign << " vs STW floor "
        << frag_stw;
    EXPECT_LT(frag_campaign, 1.15);
}

// --- controller integration -------------------------------------------------

class ModeControlTest : public ::testing::Test
{
  protected:
    ModeControlTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 18})
    {
        runtime_.attachService(&service_);
    }

    std::vector<void *>
    fragmentHeap(int objects = 4000, size_t size = 256)
    {
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime_.halloc(size));
        std::vector<void *> survivors;
        for (size_t i = 0; i < handles.size(); i++) {
            if (i % 2 != 0)
                runtime_.hfree(handles[i]);
            else
                survivors.push_back(handles[i]);
        }
        return survivors;
    }

    // Declaration order matters: the service must outlive the runtime.
    PhantomAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    VirtualClock clock_;
};

TEST_F(ModeControlTest, ConcurrentModeReachesTargetWithZeroBarriers)
{
    auto survivors = fragmentHeap();
    ControlParams params{.useModeledTime = true,
                         .mode = DefragMode::Concurrent};
    params.alpha = 1.0;
    DefragController controller(service_, clock_, params);
    ASSERT_GT(service_.fragmentation(), params.fUb);

    for (int i = 0; i < 100; i++) {
        controller.tick();
        clock_.advance(0.5);
        if (controller.state() == DefragController::State::Waiting &&
            service_.fragmentation() < params.fLb) {
            break;
        }
    }
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
    EXPECT_LT(service_.fragmentation(), params.fLb);
    EXPECT_EQ(runtime_.stats().barriers, 0u);
    EXPECT_EQ(controller.totalPauseSec(), 0.0);
    EXPECT_GT(controller.totalDefragSec(), 0.0);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ModeControlTest, HybridFallbackDeductsCampaignSpendFromBudget)
{
    // Regression: the fallback used to re-spend the full alpha budget
    // after the campaign had already moved bytes, so one Hybrid tick
    // could move up to 2x alpha of the heap and double the intended
    // pause bound. The fallback must get only the remainder.
    auto survivors = fragmentHeap(4000);
    ControlParams params{.useModeledTime = true,
                         .mode = DefragMode::Hybrid};
    params.alpha = 0.25;
    // Force the fallback on every tick regardless of contention: the
    // subject here is the budget arithmetic, not the abort feedback.
    params.abortFallbackRate = -1.0;
    params.abortFallbackMinAttempts = 0;
    DefragController controller(service_, clock_, params);
    ASSERT_GT(service_.fragmentation(), params.fUb);

    const size_t extent_before = service_.heapExtent();
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    EXPECT_GT(action.stats.movedBytes, 0u);
    // Campaign + fallback together stay within alpha x extent (plus
    // at most one object's overshoot per phase).
    EXPECT_LE(action.stats.movedBytes,
              static_cast<size_t>(0.25 *
                                  static_cast<double>(extent_before)) +
                  2 * 256);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ModeControlTest, HybridFallsBackToBarrierUnderAborts)
{
    auto survivors = fragmentHeap(2000);
    // Pin everything through the atomic counts: every concurrent
    // attempt aborts, which is exactly the "too much accessor
    // interference" signal Hybrid reacts to.
    for (void *h : survivors) {
        runtime_.table()
            .entry(handleId(reinterpret_cast<uint64_t>(h)))
            .state.fetch_add(HandleTableEntry::pinCountOne);
    }

    ControlParams params{.useModeledTime = true,
                         .mode = DefragMode::Hybrid};
    params.alpha = 1.0;
    params.abortFallbackRate = 0.25;
    params.abortFallbackMinAttempts = 8;
    DefragController controller(service_, clock_, params);
    ASSERT_GT(service_.fragmentation(), params.fUb);

    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    EXPECT_TRUE(action.fellBack);
    EXPECT_EQ(controller.fallbacks(), 1u);
    EXPECT_EQ(runtime_.stats().barriers, 1u);
    // The barrier honors the pins too: nothing may have moved.
    EXPECT_EQ(action.stats.movedObjects, 0u);
    EXPECT_GT(action.stats.pinnedSkips, 0u);

    for (void *h : survivors) {
        runtime_.table()
            .entry(handleId(reinterpret_cast<uint64_t>(h)))
            .state.fetch_sub(HandleTableEntry::pinCountOne);
    }
    // Unpinned, Hybrid finishes concurrently without another barrier.
    for (int i = 0; i < 100; i++) {
        clock_.advance(0.5);
        const ControlAction a = controller.tick();
        if (a.defragged && a.fellBack)
            FAIL() << "fallback despite no contention";
        if (controller.state() == DefragController::State::Waiting &&
            service_.fragmentation() < params.fLb) {
            break;
        }
    }
    EXPECT_LT(service_.fragmentation(), params.fLb);
    EXPECT_EQ(runtime_.stats().barriers, 1u);
    for (void *h : survivors)
        runtime_.hfree(h);
}

// --- daemon lifecycle -------------------------------------------------------

TEST(ConcurrentRelocDaemonTest, DefragsInTheBackgroundWithZeroBarriers)
{
    RealAddressSpace space;
    AnchorageService service(space,
                             AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
    runtime.attachService(&service);

    std::vector<void *> survivors;
    {
        ThreadRegistration reg(runtime);
        std::vector<void *> handles;
        for (int i = 0; i < 2000; i++)
            handles.push_back(runtime.halloc(256));
        for (size_t i = 0; i < handles.size(); i++) {
            if (i % 2 != 0)
                runtime.hfree(handles[i]);
            else
                survivors.push_back(handles[i]);
        }
    }
    ControlParams params{.mode = DefragMode::Concurrent};
    params.pollInterval = 0.001;
    params.alpha = 1.0;
    ConcurrentRelocDaemon daemon(runtime, service, params);
    ASSERT_GT(service.fragmentation(), params.fUb);

    daemon.start();
    EXPECT_TRUE(daemon.running());
    // The daemon defrags on its own schedule; just watch fragmentation.
    for (int i = 0; i < 2000; i++) {
        if (service.fragmentation() < params.fLb)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon.stop();
    EXPECT_FALSE(daemon.running());

    EXPECT_LT(service.fragmentation(), params.fLb);
    const DefragStats totals = daemon.totals();
    EXPECT_GT(daemon.passes(), 0u);
    EXPECT_GT(totals.committed, 0u);
    EXPECT_EQ(totals.attempts,
              totals.committed + totals.aborted + totals.noSpace);
    EXPECT_EQ(runtime.stats().barriers, 0u);
    EXPECT_EQ(daemon.totalPauseSec(), 0.0);

    {
        ThreadRegistration reg(runtime);
        for (void *h : survivors)
            runtime.hfree(h);
    }
}

TEST(ConcurrentRelocDaemonTest, TranslationDisciplineFollowsTheMode)
{
    PhantomAddressSpace space;
    AnchorageService service(space,
                             AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
    runtime.attachService(&service);
    ASSERT_EQ(Runtime::translationDiscipline(),
              TranslationDiscipline::Direct);

    // A StopTheWorld daemon never moves an object under a running
    // mutator, so its mutators keep the Direct translate.
    {
        ConcurrentRelocDaemon daemon(
            runtime, service,
            ControlParams{.mode = DefragMode::StopTheWorld});
        EXPECT_EQ(Runtime::translationDiscipline(),
                  TranslationDiscipline::Direct);
        daemon.start();
        EXPECT_EQ(Runtime::translationDiscipline(),
                  TranslationDiscipline::Direct);
        daemon.stop();
    }
    EXPECT_EQ(Runtime::translationDiscipline(),
              TranslationDiscipline::Direct);

    // Campaign modes declare Scoped from construction (before any
    // mutator could start) until destruction, running or not.
    for (const DefragMode mode :
         {DefragMode::Concurrent, DefragMode::Hybrid}) {
        SCOPED_TRACE(defragModeName(mode));
        {
            ConcurrentRelocDaemon daemon(runtime, service,
                                         ControlParams{.mode = mode});
            EXPECT_EQ(Runtime::translationDiscipline(),
                      TranslationDiscipline::Scoped);
            daemon.start();
            EXPECT_EQ(Runtime::translationDiscipline(),
                      TranslationDiscipline::Scoped);
            daemon.stop();
            EXPECT_EQ(Runtime::translationDiscipline(),
                      TranslationDiscipline::Scoped);
        }
        EXPECT_EQ(Runtime::translationDiscipline(),
                  TranslationDiscipline::Direct);
    }
}

} // namespace
