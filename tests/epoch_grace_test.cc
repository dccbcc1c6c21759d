/**
 * @file
 * Grace-period safety tests for the epoch-based scoped-translation
 * protocol: a reader's open ConcurrentAccessScope must keep every
 * translation it obtained valid — including reads of a relocation
 * source that has been committed away and parked on the campaign's
 * limbo list — until the scope closes; a grace ticket must wait for
 * exactly the scopes open at its snapshot; and Runtime::waitForGrace()
 * must never hang on a thread that exited (or never registered) while
 * its published epoch was odd.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "core/malloc_service.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

class EpochGraceTest : public ::testing::Test
{
  protected:
    EpochGraceTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 16}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    RealAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

/**
 * The core grace handshake, observed from the mutator side: a campaign
 * moves an object a live scope translated without waiting for the
 * scope, then parks in its grace wait until that scope closes — the
 * scope's stale view of the heap (the limbo source included) stays
 * readable the whole time.
 */
TEST_F(EpochGraceTest, ScopeHeldAcrossCampaignCommitKeepsReadsValid)
{
    constexpr size_t obj_size = 512;
    // A movable target below fresh holes: filler then target, filler
    // freed, so the campaign wants to slide the target down.
    void *filler = runtime_.halloc(obj_size);
    void *target = runtime_.halloc(obj_size);
    std::memset(translate(target), 0x5a, obj_size);
    runtime_.hfree(filler);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(target));
    auto &entry = runtime_.table().entry(id);

    std::atomic<bool> campaign_done{false};
    DefragStats stats;
    std::thread campaign;
    {
        ConcurrentAccessScope scope;
        const auto *stale =
            static_cast<const unsigned char *>(translateScoped(target));
        const void *before = entry.ptr.load(std::memory_order_seq_cst);
        campaign = std::thread([&] {
            ThreadRegistration reg(runtime_);
            stats = service_.relocateCampaign(SIZE_MAX);
            campaign_done.store(true, std::memory_order_seq_cst);
        });
        // Our open scope does not delay the move: the entry commits to
        // its new address while we still hold the old translation.
        auto home = [&] {
            return reloc::unmarked(entry.ptr.load(std::memory_order_seq_cst));
        };
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (home() == before && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        EXPECT_NE(home(), before);
        // The campaign then parks in a grace wait our scope stalls —
        // give it ample time to prove it cannot reclaim the old copy
        // (or return) while we are open.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_FALSE(campaign_done.load(std::memory_order_seq_cst));
        // The stale translation stays readable throughout: source bytes
        // are only reclaimed after a grace period that includes us.
        for (int spin = 0; spin < 1000; spin++) {
            for (size_t b = 0; b < obj_size; b++)
                ASSERT_EQ(stale[b], 0x5a);
        }
        EXPECT_FALSE(campaign_done.load(std::memory_order_seq_cst));
    }
    campaign.join();
    EXPECT_TRUE(campaign_done.load(std::memory_order_seq_cst));

    // The move committed through the limbo path and the contents
    // followed the object to its new home.
    EXPECT_GT(stats.committed, 0u);
    EXPECT_GT(stats.limboParked, 0u);
    EXPECT_GT(stats.graceWaits, 0u);
    EXPECT_EQ(runtime_.stats().barriers, 0u);
    const auto *now = static_cast<const unsigned char *>(translate(target));
    for (size_t b = 0; b < obj_size; b++)
        ASSERT_EQ(now[b], 0x5a);
    runtime_.hfree(target);
}

/**
 * Stress: reader threads continuously hold scopes across campaign
 * commits, each scope caching one translation and re-reading it many
 * times, while the main thread runs campaigns to exhaustion and then
 * keeps churning. No read may ever observe recycled or torn bytes.
 */
TEST_F(EpochGraceTest, ReadersHoldingScopesAcrossCommitsNeverSeeReclaimedBytes)
{
    constexpr int n_readers = 3;
    constexpr int n_objects = 96;
    constexpr size_t obj_size = 256;

    // Stamped objects interleaved with immediately-freed filler, so
    // every campaign has holes to compact into.
    std::vector<void *> objects;
    std::vector<void *> filler;
    for (int i = 0; i < n_objects; i++) {
        filler.push_back(runtime_.halloc(obj_size));
        void *h = runtime_.halloc(obj_size);
        std::memset(translate(h), i & 0xff, obj_size);
        objects.push_back(h);
    }
    for (void *h : filler)
        runtime_.hfree(h);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < n_readers; t++) {
        readers.emplace_back([&, t] {
            ThreadRegistration reg(runtime_);
            unsigned idx = static_cast<unsigned>(t);
            while (!stop.load(std::memory_order_relaxed) &&
                   !::testing::Test::HasFatalFailure()) {
                const int j = static_cast<int>(idx++ % n_objects);
                {
                    ConcurrentAccessScope scope;
                    const auto *p = static_cast<const unsigned char *>(
                        translateScoped(objects[j]));
                    // Hold the one translation across whatever the
                    // campaign does meanwhile; every re-read must see
                    // the stamp.
                    for (int spin = 0; spin < 64; spin++)
                        for (size_t b = 0; b < obj_size; b += 32)
                            ASSERT_EQ(p[b],
                                      static_cast<unsigned char>(j & 0xff));
                }
                reads.fetch_add(1, std::memory_order_relaxed);
                poll();
            }
        });
    }

    while (reads.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();
    DefragStats stats;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < deadline)
        stats.accumulate(service_.relocateCampaign(SIZE_MAX));
    stop.store(true, std::memory_order_relaxed);
    for (auto &th : readers)
        th.join();

    EXPECT_GT(stats.committed, 0u) << "campaigns never moved anything";
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);
    EXPECT_EQ(runtime_.stats().barriers, 0u);
    for (void *h : objects)
        runtime_.hfree(h);
}

/**
 * Deadlock guard: a thread that published an odd epoch and then exited
 * (unregistered) must not stall waitForGrace forever — the waiter
 * re-finds snapshotted threads by identity each poll and treats a
 * vanished thread as drained.
 */
TEST(EpochGraceGuardTest, WaitForGraceDoesNotHangOnExitedThread)
{
    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12});
    runtime.attachService(&service);

    std::atomic<int> stage{0};
    std::thread straggler([&] {
        ThreadRegistration reg(runtime);
        // Publish "in scope" by hand — an exiting thread can never do
        // this through ConcurrentAccessScope (RAII closes it), so this
        // simulates the worst case the guard must survive.
        runtime.currentThreadStateOrNull()->accessEpoch.fetch_add(
            1, std::memory_order_seq_cst);
        stage.store(1, std::memory_order_seq_cst);
        // Stay odd long enough for the waiter to snapshot us, then
        // exit without ever going even.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });

    while (stage.load(std::memory_order_seq_cst) < 1)
        std::this_thread::yield();
    // Must return once the straggler exits; hangs (and times out the
    // test) if exited threads are waited on.
    Runtime::GraceTicket ticket = runtime.beginGrace();
    runtime.waitForGrace(ticket);
    straggler.join();

    // And with no scopes at all, the wait is immediate.
    Runtime::GraceTicket idle = runtime.beginGrace();
    runtime.waitForGrace(idle);
    ThreadRegistration reg(runtime);
    Runtime::GraceTicket registered = runtime.beginGrace();
    runtime.waitForGrace(registered);
}

/**
 * A grace ticket holds exactly the registered threads inside a scope at
 * its snapshot: not the caller, not a thread outside every scope, and
 * not a scope opened after the snapshot — each snapshotted scope holds
 * it until that scope closes. Latches order every step; nothing sleeps.
 */
TEST(EpochGraceGuardTest, GraceTicketWaitsOnlyForScopesOpenAtItsSnapshot)
{
    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    std::latch registered(1), open_first(1), in_first(1), close_first(1),
        in_second(1), close_second(1);
    std::thread helper([&] {
        ThreadRegistration helper_reg(runtime);
        registered.count_down();
        open_first.wait();
        {
            ConcurrentAccessScope first;
            in_first.count_down();
            close_first.wait();
        }
        ConcurrentAccessScope second;
        in_second.count_down();
        close_second.wait();
    });

    // Two registered threads, neither inside a scope: elapsed at once.
    registered.wait();
    Runtime::GraceTicket idle = runtime.beginGrace();
    EXPECT_TRUE(runtime.graceElapsed(idle));
    {
        // The caller's own open scope does not hold its own ticket.
        ConcurrentAccessScope own;
        Runtime::GraceTicket mine = runtime.beginGrace();
        EXPECT_TRUE(runtime.graceElapsed(mine));
    }

    // The helper is parked inside a scope at the snapshot: the ticket
    // stays unelapsed however often it is polled...
    open_first.count_down();
    in_first.wait();
    Runtime::GraceTicket held = runtime.beginGrace();
    bool elapsed = false;
    for (int i = 0; i < 100 && !elapsed; i++)
        elapsed = runtime.graceElapsed(held);
    EXPECT_FALSE(elapsed);
    // ...until that scope closes. The helper is inside a second scope
    // by now, opened after the snapshot, which does not hold it.
    close_first.count_down();
    in_second.wait();
    EXPECT_TRUE(runtime.graceElapsed(held));

    // The second scope is as real as the first: a ticket taken now
    // waits for it.
    Runtime::GraceTicket later = runtime.beginGrace();
    EXPECT_FALSE(runtime.graceElapsed(later));
    close_second.count_down();
    helper.join();
    EXPECT_TRUE(runtime.graceElapsed(later));
}

} // namespace
