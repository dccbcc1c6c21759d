/**
 * @file
 * Tests for sharded Anchorage allocation: thread-to-shard affinity,
 * per-shard vs aggregate accounting, cross-shard frees and the
 * remote-free inbox they go through, shard-lock wait telemetry, and —
 * the important part — defragmentation as a cross-shard stealer, in
 * both the stop-the-world and the concurrent-campaign execution
 * models, including a campaign reading sub-heap fit hints without the
 * shard lock while a mutator grows the destination shard's chain, and
 * a destination hole whose remote free is still in its shard's inbox.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/telemetry.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

class AnchorageShardTest : public ::testing::Test
{
  protected:
    AnchorageShardTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20,
                                           .shards = 8}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 18}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    /**
     * Run fn on a fresh registered thread whose home shard is NOT
     * `avoid` (SIZE_MAX accepts any shard). Thread ordinals are
     * round-robin, so a handful of spawns always reaches a different
     * residue mod the shard count; each probe thread is registered, so
     * skipped ordinals leak nothing.
     * @return the shard the worker ran on.
     */
    size_t
    onOtherShard(size_t avoid, const std::function<void()> &fn)
    {
        for (int attempt = 0; attempt < 64; attempt++) {
            size_t shard = SIZE_MAX;
            bool ran = false;
            std::thread t([&] {
                ThreadRegistration reg(runtime_);
                shard = service_.homeShardIndex();
                if (shard != avoid) {
                    ran = true;
                    fn();
                }
            });
            t.join();
            if (ran)
                return shard;
        }
        ADD_FAILURE() << "could not land a thread off shard " << avoid;
        return SIZE_MAX;
    }

    /** Sum shardStats over every shard. */
    AnchorageService::ShardStats
    sumShards()
    {
        AnchorageService::ShardStats sum;
        for (size_t s = 0; s < service_.shardCount(); s++) {
            const auto stats = service_.shardStats(s);
            sum.subHeaps += stats.subHeaps;
            sum.extent += stats.extent;
            sum.liveBytes += stats.liveBytes;
            sum.freeBytes += stats.freeBytes;
        }
        return sum;
    }

    // Declaration order matters: the service must outlive the runtime.
    RealAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(AnchorageShardTest, ShardCountIsNormalized)
{
    EXPECT_EQ(service_.shardCount(), 8u);
    RealAddressSpace space;
    AnchorageService one(space, AnchorageConfig{.shards = 1});
    EXPECT_EQ(one.shardCount(), 1u);
    AnchorageService rounded(space, AnchorageConfig{.shards = 5});
    EXPECT_EQ(rounded.shardCount(), 8u);
}

TEST_F(AnchorageShardTest, HomeShardIsStableAndThreadsSpread)
{
    const size_t mine = service_.homeShardIndex();
    EXPECT_EQ(service_.homeShardIndex(), mine);
    EXPECT_LT(mine, service_.shardCount());
    // Two freshly spawned threads get consecutive ordinals and land on
    // different shards than each other (8 shards, consecutive residues).
    size_t first = SIZE_MAX, second = SIZE_MAX;
    std::thread a([&] { first = service_.homeShardIndex(); });
    a.join();
    std::thread b([&] { second = service_.homeShardIndex(); });
    b.join();
    EXPECT_NE(first, second);
}

TEST_F(AnchorageShardTest, AllocationsLandInTheHomeShard)
{
    const size_t mine = service_.homeShardIndex();
    const auto before = service_.shardStats(mine);
    std::vector<void *> handles;
    for (int i = 0; i < 100; i++)
        handles.push_back(runtime_.halloc(256));
    const auto after = service_.shardStats(mine);
    EXPECT_EQ(after.liveBytes, before.liveBytes + 100 * 256);
    for (void *h : handles)
        runtime_.hfree(h);
}

TEST_F(AnchorageShardTest, CrossShardFreeFindsTheOwningShard)
{
    const size_t mine = service_.homeShardIndex();
    std::vector<void *> handles;
    const size_t other = onOtherShard(mine, [&] {
        for (int i = 0; i < 64; i++)
            handles.push_back(runtime_.halloc(512));
    });
    ASSERT_NE(other, mine);
    EXPECT_EQ(service_.shardStats(other).liveBytes, 64u * 512);
    // Free from this thread (a different shard): the region registry
    // must route each free to the owning shard.
    for (void *h : handles)
        runtime_.hfree(h);
    EXPECT_EQ(service_.shardStats(other).liveBytes, 0u);
}

TEST_F(AnchorageShardTest, PerShardAndAggregateAccountingAgree)
{
    const size_t mine = service_.homeShardIndex();
    std::vector<void *> local, remote;
    for (int i = 0; i < 300; i++)
        local.push_back(runtime_.halloc(128));
    onOtherShard(mine, [&] {
        for (int i = 0; i < 200; i++)
            remote.push_back(runtime_.halloc(640));
    });

    auto sum = sumShards();
    EXPECT_EQ(sum.liveBytes, service_.activeBytes());
    EXPECT_EQ(sum.extent, service_.heapExtent());
    EXPECT_EQ(sum.subHeaps, service_.subHeapCount());
    EXPECT_EQ(sum.liveBytes, 300u * 128 + 200u * 640);

    for (void *h : local)
        runtime_.hfree(h);
    for (void *h : remote)
        runtime_.hfree(h);
    sum = sumShards();
    EXPECT_EQ(sum.liveBytes, 0u);
    EXPECT_EQ(sum.liveBytes, service_.activeBytes());
}

TEST_F(AnchorageShardTest, OwnerReusesHolesOfRemoteFrees)
{
    std::vector<void *> handles;
    for (int i = 0; i < 256; i++)
        handles.push_back(runtime_.halloc(512));
    const size_t extent = service_.heapExtent();

    // Another shard's thread frees every fourth block: the frees wait
    // in this shard's inbox, untouched by any accessor in between.
    std::vector<void *> freed;
    std::vector<uint64_t> holes;
    for (size_t i = 0; i < handles.size(); i += 4) {
        freed.push_back(handles[i]);
        holes.push_back(reinterpret_cast<uint64_t>(translate(handles[i])));
    }
    ASSERT_EQ(freed.size(), 64u);
    onOtherShard(service_.homeShardIndex(), [&] {
        for (void *h : freed)
            runtime_.hfree(h);
    });

    // The owner's next same-size allocations apply the inbox when they
    // take the shard lock and reuse exactly those holes: no bump.
    std::vector<uint64_t> reused;
    std::vector<void *> fresh;
    for (size_t i = 0; i < freed.size(); i++) {
        fresh.push_back(runtime_.halloc(512));
        reused.push_back(reinterpret_cast<uint64_t>(translate(fresh.back())));
    }
    EXPECT_EQ(service_.heapExtent(), extent);
    std::sort(holes.begin(), holes.end());
    std::sort(reused.begin(), reused.end());
    EXPECT_EQ(reused, holes);

    for (size_t i = 0; i < handles.size(); i++) {
        if (i % 4 != 0)
            runtime_.hfree(handles[i]);
    }
    for (void *h : fresh)
        runtime_.hfree(h);
    EXPECT_EQ(service_.activeBytes(), 0u);
}

TEST_F(AnchorageShardTest, BarrierAppliesPendingRemoteFreesBeforeRanking)
{
    constexpr size_t kSize = 256;
    std::vector<void *> handles;
    std::vector<std::vector<unsigned char>> shadows;
    for (int i = 0; i < 400; i++) {
        handles.push_back(runtime_.halloc(kSize));
        std::vector<unsigned char> shadow(kSize);
        for (size_t b = 0; b < kSize; b++)
            shadow[b] = static_cast<unsigned char>(i * 31 + b);
        std::memcpy(translate(handles.back()), shadow.data(), kSize);
        shadows.push_back(std::move(shadow));
    }

    // Another shard's thread frees the odd blocks of the lower 300 and
    // the whole upper 100, leaving 150 live blocks. Those frees stay in
    // the inbox until the barrier: nothing here takes the shard lock.
    std::vector<void *> live, dead;
    std::vector<std::vector<unsigned char>> live_shadows;
    for (size_t i = 0; i < handles.size(); i++) {
        if (i < 300 && i % 2 == 0) {
            live.push_back(handles[i]);
            live_shadows.push_back(shadows[i]);
        } else {
            dead.push_back(handles[i]);
        }
    }
    onOtherShard(service_.homeShardIndex(), [&] {
        for (void *h : dead)
            runtime_.hfree(h);
    });

    // Only with the inbox applied does the pass see the holes: each
    // live block above one moves down into it, and the freed top trims.
    const DefragStats stats = service_.defrag(SIZE_MAX);
    EXPECT_GT(stats.movedObjects, 0u);
    EXPECT_LE(stats.movedBytes, live.size() * kSize); // no freed block
    for (size_t i = 0; i < live.size(); i++) {
        ASSERT_EQ(std::memcmp(translate(live[i]), live_shadows[i].data(),
                              kSize),
                  0);
    }
    EXPECT_EQ(service_.activeBytes(), live.size() * kSize);
    EXPECT_EQ(service_.heapExtent(), live.size() * kSize);

    for (void *h : live)
        runtime_.hfree(h);
}

/**
 * Build the cross-shard-stealing fixture the issue asks for: one shard
 * holds a sparse chain (a few keepers pinned under a tower of freed
 * filler, so no same-heap hole exists below them), while another shard
 * is dense. Defrag must evacuate the sparse shard's keepers into the
 * dense shard, trim the sparse shard to nothing, and lose no bytes.
 */
struct StealFixture
{
    std::vector<void *> keepers;
    std::vector<std::vector<unsigned char>> shadows;
    size_t fragged = SIZE_MAX; // sparse, idle shard
    size_t dense = SIZE_MAX;   // hot / destination shard
};

class AnchorageShardStealTest : public AnchorageShardTest
{
  protected:
    static constexpr size_t kKeepSize = 256;
    static constexpr int kKeepers = 50;

    StealFixture
    buildFixture()
    {
        StealFixture fix;
        fix.dense = service_.homeShardIndex();
        // Dense shard: a mostly-full chain with bump room left.
        for (int i = 0; i < 1000; i++)
            dense_.push_back(runtime_.halloc(kKeepSize));

        // Sparse shard, built by a worker thread that then goes idle:
        // keepers at the bottom, a tower of filler above them, filler
        // freed. The only holes are *above* the keepers, so same-heap
        // compaction cannot help — evacuation must cross shards.
        fix.fragged = onOtherShard(fix.dense, [&] {
            for (int i = 0; i < kKeepers; i++)
                fix.keepers.push_back(runtime_.halloc(kKeepSize));
            std::vector<void *> filler;
            for (int i = 0; i < 3000; i++)
                filler.push_back(runtime_.halloc(kKeepSize));
            for (void *h : filler)
                runtime_.hfree(h);
        });
        EXPECT_NE(fix.fragged, fix.dense);

        // Stamp keeper contents for the lost-write check.
        for (void *h : fix.keepers) {
            std::vector<unsigned char> shadow(kKeepSize);
            for (auto &byte : shadow)
                byte = static_cast<unsigned char>(nextByte());
            std::memcpy(translate(h), shadow.data(), kKeepSize);
            fix.shadows.push_back(std::move(shadow));
        }
        return fix;
    }

    void
    verifyAndTearDown(StealFixture &fix, size_t moved_bytes)
    {
        EXPECT_GE(moved_bytes, kKeepers * kKeepSize);
        // The sparse shard was evacuated and trimmed...
        const auto fragged = service_.shardStats(fix.fragged);
        EXPECT_EQ(fragged.liveBytes, 0u);
        EXPECT_EQ(fragged.extent, 0u);
        // ...its bytes now live in the dense shard...
        EXPECT_EQ(service_.shardStats(fix.dense).liveBytes,
                  dense_.size() * kKeepSize + kKeepers * kKeepSize);
        // ...aggregate accounting is conserved and consistent...
        const auto sum = sumShards();
        EXPECT_EQ(sum.liveBytes, service_.activeBytes());
        EXPECT_EQ(sum.liveBytes,
                  (dense_.size() + fix.keepers.size()) * kKeepSize);
        // ...and no write was lost: every keeper is intact bit for bit.
        for (size_t i = 0; i < fix.keepers.size(); i++) {
            ASSERT_EQ(std::memcmp(translate(fix.keepers[i]),
                                  fix.shadows[i].data(), kKeepSize),
                      0);
        }
        for (void *h : fix.keepers)
            runtime_.hfree(h);
        for (void *h : dense_)
            runtime_.hfree(h);
    }

    uint32_t
    nextByte()
    {
        seed_ = seed_ * 1664525u + 1013904223u;
        return seed_ >> 24;
    }

    std::vector<void *> dense_;
    uint32_t seed_ = 1;
};

TEST_F(AnchorageShardStealTest, StopTheWorldDefragStealsAcrossShards)
{
    StealFixture fix = buildFixture();
    const DefragStats stats = service_.defragFully();
    verifyAndTearDown(fix, stats.movedBytes);
}

TEST_F(AnchorageShardStealTest, ConcurrentCampaignStealsAcrossShards)
{
    StealFixture fix = buildFixture();
    DefragStats stats;
    for (;;) {
        const DefragStats pass = service_.relocateCampaign(SIZE_MAX);
        stats.accumulate(pass);
        if (pass.movedBytes == 0 && pass.reclaimedBytes == 0)
            break;
    }
    EXPECT_EQ(runtime_.stats().barriers, 0u);
    verifyAndTearDown(fix, stats.movedBytes);
}

TEST_F(AnchorageShardStealTest,
       ConcurrentCampaignStealsWhileAnotherShardAllocatesHot)
{
    StealFixture fix = buildFixture();

    // A hot mutator churns allocations on a shard other than the
    // fragmented source while campaigns evacuate the idle fragmented
    // shard. Ordinals are round-robin, so respawning until the worker
    // lands off the fragmented shard terminates quickly.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> hot_ops{0};
    std::thread hot;
    for (int attempt = 0; attempt < 64; attempt++) {
        std::atomic<int> landed{-1};
        hot = std::thread([&] {
            ThreadRegistration reg(runtime_);
            const size_t mine = service_.homeShardIndex();
            landed.store(static_cast<int>(mine),
                         std::memory_order_release);
            if (mine == fix.fragged)
                return; // unlucky residue: sit this attempt out
            std::vector<void *> window(64, nullptr);
            uint64_t i = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const size_t slot = i++ % window.size();
                if (window[slot] != nullptr)
                    runtime_.hfree(window[slot]);
                window[slot] = runtime_.halloc(kKeepSize);
                {
                    // Stores take the pin handshake, not the scope.
                    ConcurrentPin pin(window[slot]);
                    std::memset(pin.get(), 0x5a, kKeepSize);
                }
                hot_ops.fetch_add(1, std::memory_order_relaxed);
                poll();
            }
            for (void *h : window) {
                if (h != nullptr)
                    runtime_.hfree(h);
            }
        });
        while (landed.load(std::memory_order_acquire) < 0)
            std::this_thread::yield();
        if (static_cast<size_t>(landed.load()) != fix.fragged)
            break;
        hot.join(); // landed on the fragmented shard; try again
    }
    ASSERT_TRUE(hot.joinable());

    DefragStats stats;
    // Campaign until the fragmented shard is empty (the hot shard's
    // churn can keep *its own* chain busy indefinitely; the idle
    // source drains in a bounded number of campaigns).
    for (int i = 0; i < 200; i++) {
        stats.accumulate(service_.relocateCampaign(SIZE_MAX));
        if (service_.shardStats(fix.fragged).liveBytes == 0)
            break;
    }
    stop.store(true, std::memory_order_release);
    hot.join();

    EXPECT_GT(hot_ops.load(), 0u);
    EXPECT_GT(stats.committed, 0u);
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);
    EXPECT_EQ(runtime_.stats().barriers, 0u);

    EXPECT_EQ(service_.shardStats(fix.fragged).liveBytes, 0u);
    // No lost writes in the moved keepers.
    for (size_t i = 0; i < fix.keepers.size(); i++) {
        ASSERT_EQ(std::memcmp(translate(fix.keepers[i]),
                              fix.shadows[i].data(), kKeepSize),
                  0);
    }
    // Per-shard and aggregate accounting agree at quiescence.
    const auto sum = sumShards();
    EXPECT_EQ(sum.liveBytes, service_.activeBytes());
    EXPECT_EQ(sum.liveBytes,
              (dense_.size() + fix.keepers.size()) * kKeepSize);
    for (void *h : fix.keepers)
        runtime_.hfree(h);
    for (void *h : dense_)
        runtime_.hfree(h);
}

/**
 * A real address space whose next touch() can be held shut: the thread
 * inside it holds its shard lock (SubHeap::alloc touches under it)
 * until open() is called.
 */
class GatedSpace : public RealAddressSpace
{
  public:
    void
    touch(uint64_t addr, size_t len) override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (armed_) {
                armed_ = false;
                holding_ = true;
                cv_.notify_all();
                cv_.wait(lock, [&] { return open_; });
            }
        }
        RealAddressSpace::touch(addr, len);
    }

    /** Hold the next touch() until open(). */
    void
    arm()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_ = true;
        holding_ = open_ = false;
    }

    /** Wait until a thread is held inside touch(). */
    void
    waitHolding()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return holding_; });
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool armed_ = false, holding_ = false, open_ = false;
};

TEST(AnchorageShardLockWaitTest, BlockedAcquisitionIsCountedAndTimed)
{
#if ALASKA_TELEMETRY_LEVEL < 1
    GTEST_SKIP() << "counters compiled out at this telemetry level";
#else
    namespace tel = alaska::telemetry;
    GatedSpace space;
    // One shard: every thread's home shard is shard 0.
    AnchorageService service(space, AnchorageConfig{.subHeapBytes = 1 << 20,
                                                    .shards = 1});
    // The holder sits inside touch() with the shard lock held while the
    // waiter asks for the same lock. Nothing shows when the waiter has
    // reached the lock, so give it a head start and retry if it still
    // arrived after the holder let go.
    for (int attempt = 0; attempt < 20; attempt++) {
        const tel::Snapshot before = tel::snapshot();
        space.arm();
        std::thread holder([&] { service.free(1, service.alloc(1, 64)); });
        space.waitHolding();
        std::atomic<bool> started{false};
        std::thread waiter([&] {
            started.store(true);
            service.free(2, service.alloc(2, 64));
        });
        while (!started.load())
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        space.open();
        holder.join();
        waiter.join();

        const tel::Snapshot after = tel::snapshot();
        const uint64_t waits = after.counter(tel::Counter::ShardLockWait) -
                               before.counter(tel::Counter::ShardLockWait);
        if (waits == 0)
            continue;
        const auto &hist_before =
            before.histogram(tel::Hist::ShardLockWaitNs);
        const auto &hist_after = after.histogram(tel::Hist::ShardLockWaitNs);
        EXPECT_EQ(hist_after.count() - hist_before.count(), waits);
        EXPECT_GT(hist_after.sum(), hist_before.sum());
        return;
    }
    FAIL() << "the waiter never found the shard lock held";
#endif
}

TEST(AnchorageHintRaceTest, CampaignReadsHintsWhileDestinationChainGrows)
{
    // Small sub-heaps, so the mutator's growth adds many and its
    // shard's chain vector reallocates several times mid-campaign.
    RealAddressSpace space;
    AnchorageService service(space, AnchorageConfig{.subHeapBytes = 64 << 10,
                                                    .shards = 4});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    // One mutator churns objects on its home shard while the live set
    // grows: the random frees leave sparse sub-heaps (campaign
    // sources), the growth adds sub-heaps behind the campaign's
    // ranking, and every denser sub-heap of that shard is a
    // destination whose hints the campaign reads without the lock.
    constexpr size_t kAddedHeaps = 96;
    std::atomic<bool> done{false};
    std::vector<std::pair<void *, uint32_t>> objects; // (handle, size)
    size_t shard = SIZE_MAX;
    std::thread mutator([&] {
        ThreadRegistration mreg(runtime);
        shard = service.homeShardIndex();
        uint32_t rng = 12345;
        for (uint64_t i = 0; objects.size() < 40000; i++) {
            if (i % 64 == 0 &&
                service.shardStats(shard).subHeaps >= kAddedHeaps)
                break;
            rng = rng * 1664525u + 1013904223u;
            const uint32_t size = 16 + (rng >> 8) % 2048;
            void *h = runtime.halloc(size);
            {
                ConcurrentPin pin(h);
                std::memset(pin.get(), static_cast<int>(size & 0xff), size);
            }
            objects.emplace_back(h, size);
            if ((rng >> 4) % 5 < 2) {
                const size_t victim = (rng >> 12) % objects.size();
                runtime.hfree(objects[victim].first);
                objects[victim] = objects.back();
                objects.pop_back();
            }
            poll();
        }
        done.store(true, std::memory_order_release);
    });

    // Campaign back to back for as long as the chain grows.
    DefragStats stats;
    while (!done.load(std::memory_order_acquire))
        stats.accumulate(service.relocateCampaign(SIZE_MAX));
    mutator.join();

    EXPECT_GE(service.shardStats(shard).subHeaps, kAddedHeaps);
    EXPECT_GT(stats.committed, 0u);
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);
    EXPECT_EQ(runtime.stats().barriers, 0u);
    // Every surviving object still reads what the mutator stored, and
    // the heap accounts for exactly the live set.
    size_t live_bytes = 0;
    for (const auto &[h, size] : objects) {
        const auto *bytes = static_cast<const unsigned char *>(translate(h));
        for (uint32_t i = 0; i < size; i++)
            ASSERT_EQ(bytes[i], size & 0xff);
        live_bytes += service.usableSize(translate(h));
    }
    EXPECT_EQ(service.activeBytes(), live_bytes);
    for (const auto &[h, size] : objects)
        runtime.hfree(h);
    EXPECT_EQ(service.activeBytes(), 0u);
}

/** A real address space that runs a one-shot hook inside its next
 *  touch(), i.e. while the allocating thread holds its shard lock. */
class HookedSpace : public RealAddressSpace
{
  public:
    void
    touch(uint64_t addr, size_t len) override
    {
        if (hook) {
            const std::function<void()> run = std::move(hook);
            hook = nullptr;
            run();
        }
        RealAddressSpace::touch(addr, len);
    }

    std::function<void()> hook;
};

TEST(AnchorageHintRaceTest, DestinationHoleFreedRemotelyAfterRankingIsUsed)
{
    constexpr size_t kHeapBytes = 64 << 10;
    constexpr size_t kSize = 64;
    HookedSpace space;
    AnchorageService service(space, AnchorageConfig{.subHeapBytes = kHeapBytes,
                                                    .shards = 2});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    const size_t home = service.homeShardIndex();

    // The destination: the other shard's only sub-heap, packed full, so
    // a hole is the only way in.
    std::vector<void *> dense;
    size_t dense_shard = SIZE_MAX;
    for (int attempt = 0; attempt < 64 && dense_shard == SIZE_MAX;
         attempt++) {
        std::thread t([&] {
            ThreadRegistration treg(runtime);
            if (service.homeShardIndex() == home)
                return;
            dense_shard = service.homeShardIndex();
            for (size_t i = 0; i < kHeapBytes / kSize; i++)
                dense.push_back(runtime.halloc(kSize));
        });
        t.join();
    }
    ASSERT_NE(dense_shard, SIZE_MAX);
    ASSERT_EQ(service.shardStats(dense_shard).subHeaps, 1u);
    ASSERT_EQ(service.shardStats(dense_shard).extent, kHeapBytes);

    // The source, on this thread's shard: [hole][a1][a2]. The campaign
    // moves a2 down into the hole, then needs somewhere else for a1.
    void *a0 = runtime.halloc(kSize);
    void *a1 = runtime.halloc(kSize);
    void *a2 = runtime.halloc(kSize);
    std::memset(translate(a1), 0x5a, kSize);
    std::memset(translate(a2), 0xa5, kSize);
    runtime.hfree(a0);

    // While a2 claims that hole (after the ranking applied every
    // inbox), free one dense block from this shard: the free waits in
    // the destination shard's inbox, where the fit hints cannot see it,
    // and its hole is the only place a1 fits.
    void *victim = dense[dense.size() / 2];
    const uint64_t hole = reinterpret_cast<uint64_t>(translate(victim));
    bool fired = false;
    space.hook = [&] {
        fired = true;
        runtime.hfree(victim);
    };
    const DefragStats stats = service.relocateCampaign(2 * kSize);
    ASSERT_TRUE(fired);
    EXPECT_EQ(stats.committed, 2u);
    EXPECT_EQ(stats.noSpace, 0u);
    EXPECT_EQ(reinterpret_cast<uint64_t>(translate(a1)), hole);
    for (size_t b = 0; b < kSize; b++) {
        ASSERT_EQ(static_cast<const unsigned char *>(translate(a1))[b], 0x5a);
        ASSERT_EQ(static_cast<const unsigned char *>(translate(a2))[b], 0xa5);
    }

    runtime.hfree(a1);
    runtime.hfree(a2);
    for (void *h : dense) {
        if (h != victim)
            runtime.hfree(h);
    }
    EXPECT_EQ(service.activeBytes(), 0u);
}

namespace stress
{

/** One queued object: its handle and what its bytes must read. */
struct Item
{
    void *handle;
    uint32_t size;
    uint32_t seed;
    int owner;
};

unsigned char
stampByte(uint32_t seed, size_t i)
{
    return static_cast<unsigned char>(seed * 131u + i * 7u);
}

void
stamp(const Item &item)
{
    auto *bytes = static_cast<unsigned char *>(translate(item.handle));
    for (size_t i = 0; i < item.size; i++)
        bytes[i] = stampByte(item.seed, i);
}

bool
intact(const Item &item)
{
    const auto *bytes =
        static_cast<const unsigned char *>(translate(item.handle));
    for (size_t i = 0; i < item.size; i++) {
        if (bytes[i] != stampByte(item.seed, i))
            return false;
    }
    return true;
}

} // namespace stress

TEST(AnchorageInboxStressTest, RemoteFreesRaceStopTheWorldDaemon)
{
    RealAddressSpace space;
    AnchorageService service(space, AnchorageConfig{.subHeapBytes = 1 << 20,
                                                    .shards = 4});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ControlParams params{.mode = DefragMode::StopTheWorld};
    params.pollInterval = 0.001;
    params.alpha = 1.0;
    params.batchBytes = 64 << 10;
    ConcurrentRelocDaemon daemon(runtime, service, params);

    // Four mutators pass objects around a ring through one shared,
    // mutex-guarded queue: each allocates and stamps objects for its
    // successor and frees the oldest object its predecessor passed it,
    // checking the stamp first. The object sits in its allocator's
    // shard (unless a barrier moved it), so most frees cross shards.
    // Growing and shrinking phases leave the heap fragmented enough
    // that the daemon keeps running barriers, which must apply the
    // inboxes before they rank. A worker that runs ahead of its
    // successor yields instead of pushing while the successor's queue
    // holds kMaxBacklog items, so the live set stays far below the
    // handle table's capacity however the threads are scheduled.
    constexpr int kThreads = 4;
    constexpr int kPhase = 1500;
    constexpr size_t kMaxBacklog = 4 * kPhase;
    std::mutex queue_mutex;
    std::deque<stress::Item> queue[kThreads]; // indexed by recipient
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> torn{0}, frees{0}, remote_frees{0};
    std::atomic<int> home[kThreads]; // each worker's home shard

    auto worker = [&](int owner) {
        ThreadRegistration reg(runtime);
        home[owner].store(static_cast<int>(service.homeShardIndex()));
        const int next = (owner + 1) % kThreads;
        uint32_t rng = 0x9e3779b9u * static_cast<uint32_t>(owner + 1);
        uint32_t seed = static_cast<uint32_t>(owner) << 24;
        for (int round = 0; !stop.load(std::memory_order_acquire);
             round++) {
            const bool growing = round % 2 == 0;
            for (int i = 0; i < kPhase; i++) {
                const int pushes = growing ? 2 : 1;
                for (int p = 0; p < pushes; p++) {
                    bool full;
                    {
                        std::lock_guard<std::mutex> guard(queue_mutex);
                        full = queue[next].size() >= kMaxBacklog;
                    }
                    if (full) {
                        std::this_thread::yield();
                        break;
                    }
                    rng = rng * 1664525u + 1013904223u;
                    const uint32_t size = 16u << ((rng >> 24) % 7);
                    stress::Item item{runtime.halloc(size), size, seed++,
                                      owner};
                    stress::stamp(item);
                    std::lock_guard<std::mutex> guard(queue_mutex);
                    queue[next].push_back(item);
                }
                const int pops = growing ? 1 : 2;
                for (int p = 0; p < pops; p++) {
                    stress::Item item{};
                    {
                        std::lock_guard<std::mutex> guard(queue_mutex);
                        if (queue[owner].empty())
                            break;
                        item = queue[owner].front();
                        queue[owner].pop_front();
                    }
                    if (!stress::intact(item))
                        torn.fetch_add(1, std::memory_order_relaxed);
                    frees.fetch_add(1, std::memory_order_relaxed);
                    if (home[item.owner].load() != home[owner].load())
                        remote_frees.fetch_add(1,
                                               std::memory_order_relaxed);
                    runtime.hfree(item.handle);
                }
                poll();
            }
        }
    };

    daemon.start();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back(worker, t);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (daemon.barriers() < 20 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    daemon.stop();

    EXPECT_GT(daemon.barriers(), 0u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(remote_frees.load() * 2, frees.load());

    ThreadRegistration reg(runtime);
    size_t live_bytes = 0;
    for (const auto &inbound : queue) {
        for (const stress::Item &item : inbound) {
            EXPECT_TRUE(stress::intact(item));
            live_bytes += service.usableSize(translate(item.handle));
        }
    }
    // Every pending remote free was applied: the live set is all the
    // heap holds, shard by shard and in aggregate.
    size_t shard_live = 0;
    for (size_t s = 0; s < service.shardCount(); s++)
        shard_live += service.shardStats(s).liveBytes;
    EXPECT_EQ(service.activeBytes(), live_bytes);
    EXPECT_EQ(shard_live, live_bytes);

    for (const auto &inbound : queue) {
        for (const stress::Item &item : inbound)
            runtime.hfree(item.handle);
    }
    EXPECT_EQ(service.activeBytes(), 0u);
}

} // namespace
